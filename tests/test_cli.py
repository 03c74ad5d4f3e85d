import dataclasses
import hashlib
import importlib
import json
import math
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import pdikit as pk
from pdikit import reportio
from pdikit.cli import main, parse_args

MATRIX_2x2 = "a,b\n{},{}\n{},{}\n".format(
    repr(math.log(0.2)), repr(math.log(0.5)), repr(math.log(0.4)), repr(math.log(0.5))
)


@pytest.fixture
def matrix_file(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(MATRIX_2x2)
    return p


class TestParseArgs:
    def test_compute_defaults(self, matrix_file, tmp_path):
        cfg = parse_args(
            ["compute", "--input", str(matrix_file), "--out", str(tmp_path / "o")]
        )
        assert cfg.command == "compute"
        assert cfg.formats == ("csv",)
        assert cfg.seed == 0

    def test_fit_default_draws(self, tmp_path):
        cfg = parse_args(
            ["fit", "--model", "presidents-nb2", "--seed", "42", "--out", str(tmp_path)]
        )
        assert cfg.draws == 1000
        assert cfg.seed == 42

    def test_unknown_model_exits_2_and_lists_models(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["fit", "--model", "nosuch", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "presidents-nb2" in err and "toy-gamma" in err

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["compute", "--nope", "x", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "pdikit: error:" in capsys.readouterr().err

    def test_missing_required_input_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            parse_args(["compute", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_bad_format_rejected(self, matrix_file, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(
                [
                    "compute",
                    "--input",
                    str(matrix_file),
                    "--out",
                    str(tmp_path),
                    "--formats",
                    "csv,xml",
                ]
            )

    @pytest.mark.parametrize("command", ["compute", "fit"])
    @pytest.mark.parametrize("formats", ["", ",", " , "])
    def test_empty_format_selection_rejected(
        self, matrix_file, tmp_path, capsys, command, formats
    ):
        source = {"compute": ["--input", str(matrix_file)], "fit": ["--model", "toy-gamma"]}
        source = source[command]
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--formats", formats, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "pdikit: error: argument --formats: no format given (choose from csv, ndjson, svg)\n"
        )
        assert not out.exists()

    def test_group_by_needs_matching_model(self, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(
                [
                    "fit",
                    "--model",
                    "voting-base",
                    "--group-by",
                    "age",
                    "--out",
                    str(tmp_path),
                ]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--model", "toy-gamma", "--synthetic", "0"],
            ["fit", "--model", "voting-base", "--synthetic", "0"],
            ["fit", "--model", "toy-gamma", "--synthetic", "-3"],
            ["fit", "--model", "presidents-nb2", "--synthetic", "0"],
            ["check-lemma", "--model", "voting-base", "--synthetic", "x"],
            ["report", "--input", "summary.csv", "--top-k", "-8"],
            ["compute", "--input", "m.csv", "--top-k", "0"],
            ["fit", "--model", "toy-gamma", "--top-k", "-1"],
            ["check-lemma", "--model", "toy-gamma", "--top-k", "-2"],
        ],
    )
    def test_counts_must_be_positive(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_sampler_defaults_are_the_sampler_configs(self, tmp_path):
        for command in ("fit", "check-lemma"):
            cfg = parse_args([command, "--model", "voting-base", "--out", str(tmp_path)])
            assert cfg.sampler_config() == pk.SamplerConfig()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["fit", "--model", "toy-gamma", "--thin", "0", "--warmup", "-5", "--step", "-1"],
                "warmup_steps must be >= 0",
            ),
            (
                ["fit", "--model", "voting-base", "--synthetic", "50", "--thin", "0"],
                "thinning must be >= 1",
            ),
            (["check-lemma", "--model", "toy-gamma", "--draws", "1"], "kept_draws must be >= 2"),
            (["fit", "--model", "presidents-nb2", "--seed", "-1"], "seed must be >= 0"),
            (
                ["check-lemma", "--model", "voting-base", "--step", "nan"],
                "initial_step_size must be finite and > 0",
            ),
            (
                ["fit", "--model", "toy-gamma", "--step", "inf"],
                "initial_step_size must be finite and > 0",
            ),
            (["compute", "--input", "m.csv", "--seed", "-1"], "seed must be >= 0"),
            (
                ["fit", "--model", "presidents-nb2", "--synthetic", "20"],
                "presidents-nb2 uses the embedded dataset only",
            ),
            (
                ["fit", "--model", "toy-gamma", "--group-by", "state"],
                "--group-by applies to voting models only",
            ),
            (
                ["fit", "--model", "voting-base", "--target-accept", "1.5"],
                "adaptation_target_acceptance must be in (0, 1)",
            ),
        ],
    )
    def test_bad_sampler_flag_exits_2_for_every_model(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"pdikit: error: {message}\n")
        assert not out.exists()


class TestReadLoglikCsv:
    def test_basic_and_trailing_blank(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n-1.0,-2.0\n-1.5,-2.5\n-1.2,-2.2\n\n")
        m = reportio.read_loglik_csv(p)
        assert m.values.shape == (3, 2)
        assert m.datapoint_ids == ("a", "b")

    def test_nonnumeric_cell_reports_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n-1.0,oops\n-1.5,-2.5\n")
        with pytest.raises(reportio.InputFormatError, match="line 2, column 2"):
            reportio.read_loglik_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n-1.0,-2.0\n-1.5\n")
        with pytest.raises(reportio.InputFormatError, match="line 3"):
            reportio.read_loglik_csv(p)

    def test_single_draw_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n-1.0,-2.0\n")
        with pytest.raises(reportio.InputFormatError, match="at least 2"):
            reportio.read_loglik_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(reportio.InputFormatError):
            reportio.read_loglik_csv(tmp_path / "nope.csv")


class TestSummaryRoundTrip:
    def test_values_survive_17_digits(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = rng.normal(-7, 3, size=(9, 4))
        m = pk.LogLikMatrix(vals)
        report = pk.rank_report(pk.summarize(m), m.datapoint_ids)
        path = tmp_path / "summary.csv"
        reportio.write_summary_csv(path, report, seed=5)
        records = {r["id"]: r for r in reportio.read_summary_csv(path)}
        for row in report.rows:
            rec = records[row.datapoint_id]
            s = row.summary
            assert rec["log_mu"] == s.log_mu
            assert rec["mu_log"] == s.mu_log
            assert rec["sigma2_log"] == s.sigma2_log
            assert rec["log_sigma2"] == s.log_sigma2
            assert rec["wapdi"] == s.wapdi
            assert rec["pdi_log"] == s.pdi_ratio_log
            assert rec["waic_term"] == s.waic_term
            assert rec["rank_wapdi"] == row.rank_wapdi

    def test_meta_line_carries_seed_and_version(self, tmp_path, matrix_file):
        out = tmp_path / "res"
        assert main(
            ["compute", "--input", str(matrix_file), "--out", str(out), "--seed", "9"]
        ) == 0
        first = (out / "summary.csv").read_text().splitlines()[0]
        assert first.startswith("# pdikit")
        assert "seed=9" in first


class TestComputeCommand:
    def test_fixture_wapdi_matches_library(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main(
            [
                "compute",
                "--input",
                str(matrix_file),
                "--out",
                str(out),
                "--formats",
                "csv,ndjson,svg",
            ]
        )
        assert rc == 0
        records = reportio.read_summary_csv(out / "summary.csv")
        by_id = {r["id"]: r for r in records}
        assert by_id["a"]["wapdi"] == pytest.approx(-0.199529, abs=1e-6)
        assert by_id["b"]["wapdi"] == 0.0
        assert math.copysign(1.0, by_id["b"]["wapdi"]) == 1.0  # "0.0", not "-0.0"
        assert by_id["a"]["rank_wapdi"] == 1
        assert (out / "summary.ndjson").exists()
        assert (out / "wapdi.svg").exists()
        run = json.loads((out / "run.json").read_text())
        assert run["seed"] == 0
        assert run["pdikit"] == pk.__version__

    def test_exit_3_on_bad_cell(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n-1.0,zap\n-2.0,-3.0\n")
        rc = main(["compute", "--input", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("pdikit: error:")

    def test_exit_3_on_missing_file(self, tmp_path, capsys):
        rc = main(
            ["compute", "--input", str(tmp_path / "no.csv"), "--out", str(tmp_path)]
        )
        assert rc == 3

    @pytest.mark.parametrize(
        "case, reason",
        [
            ("input-dir", "Is a directory"),
            ("report-dir", "Is a directory"),
            ("out-file", "File exists"),
        ],
    )
    def test_file_system_error_is_one_line(self, matrix_file, tmp_path, capsys, case, reason):
        out = tmp_path / "o"
        argv = {
            "input-dir": ["compute", "--input", str(tmp_path), "--out", str(out)],
            "report-dir": ["report", "--input", str(tmp_path), "--out", str(out)],
            "out-file": ["compute", "--input", str(matrix_file), "--out", str(matrix_file)],
        }[case]
        before = sorted(tmp_path.iterdir())
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("pdikit: error:") and reason in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert sorted(tmp_path.iterdir()) == before  # no output written
        assert matrix_file.read_text() == MATRIX_2x2

    @pytest.mark.parametrize("header, index", [(",a,b", 0), ("a,,b", 1)])
    def test_empty_id_exits_3(self, tmp_path, capsys, header, index):
        # pandas' to_csv() heads its unnamed index column with an empty name.
        p = tmp_path / "m.csv"
        p.write_text(header + "\n0,-1.0,-2.0\n1,-1.5,-2.5\n")
        out = tmp_path / "o"
        assert main(["compute", "--input", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"pdikit: error: {p}: line 1: datapoint id at index {index} is empty\n"
        )
        assert not out.exists()

    def test_byte_order_mark_is_not_data(self, tmp_path, monkeypatch):
        argv = ["compute", "--input", "m.csv", "--groups", "g.csv", "--out", "out"]
        written = []
        for name, bom in [("plain", ""), ("bom", "\ufeff")]:
            d = tmp_path / name
            d.mkdir()
            (d / "m.csv").write_text(bom + "a,b\n-1.0,-2.0\n-1.5,-2.25\n", encoding="utf-8")
            (d / "g.csv").write_text(bom + "id,label\na,g1\nb,g2\n", encoding="utf-8")
            assert reportio.read_group_labels_csv(d / "g.csv") == {"a": "g1", "b": "g2"}
            monkeypatch.chdir(d)
            assert main(argv + ["--formats", "csv,ndjson,svg"]) == 0
            written.append({p.name: p.read_bytes() for p in (d / "out").iterdir()})
        assert len(written[0]) == 4 and written[1] == written[0]

    def test_groups_aggregated(self, matrix_file, tmp_path):
        g = tmp_path / "groups.csv"
        g.write_text("id,label\na,east\nb,west\n")
        out = tmp_path / "res"
        rc = main(
            [
                "compute",
                "--input",
                str(matrix_file),
                "--groups",
                str(g),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert run["group_means"]["east"]["count"] == 1
        assert run["group_means"]["west"]["count"] == 1

    def test_missing_group_label_writes_no_summary(self, matrix_file, tmp_path, capsys):
        # A file that labels no datapoint is refused like one that misses some.
        g = tmp_path / "groups.csv"
        out = tmp_path / "res"
        argv = ["compute", "--input", str(matrix_file), "--groups", str(g)]
        for text, missing in [("id,label\na,east\n", "b"), ("id,label\n", "a"), ("", "a")]:
            g.write_text(text)
            rc = main(argv + ["--formats", "csv,ndjson,svg", "--out", str(out)])
            assert rc == 3
            err = capsys.readouterr().err
            assert err == f"pdikit: error: {g}: datapoint '{missing}' has no group label\n"
            assert not out.exists()

    def test_groups_are_read_after_the_matrix_is_freed(self, matrix_file, tmp_path, monkeypatch):
        g = tmp_path / "groups.csv"
        g.write_text("id,label\na,east\nb,west\n")
        matrices = []
        read_matrix, read_groups = reportio.read_loglik_csv, reportio.read_group_labels_csv

        def remember_matrix(*args, **kwargs):
            matrix = read_matrix(*args, **kwargs)
            matrices.append(weakref.ref(matrix))
            return matrix

        def check_groups(path):
            assert [ref() for ref in matrices] == [None]
            return read_groups(path)

        monkeypatch.setattr(reportio, "read_loglik_csv", remember_matrix)
        monkeypatch.setattr(reportio, "read_group_labels_csv", check_groups)
        argv = ["compute", "--input", str(matrix_file), "--groups", str(g)]
        assert main(argv + ["--out", str(tmp_path / "res")]) == 0
        assert len(matrices) == 1

    def test_degenerate_entries_need_opt_in(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("a\n-inf\n-2.0\n")
        rc = main(["compute", "--input", str(p), "--out", str(tmp_path / "o1")])
        assert rc == 3
        rc = main(
            [
                "compute",
                "--input",
                str(p),
                "--allow-degenerate",
                "--out",
                str(tmp_path / "o2"),
            ]
        )
        assert rc == 0
        rec = reportio.read_summary_csv(tmp_path / "o2" / "summary.csv")[0]
        assert "nonfinite_loglik" in rec["flags"]

    def test_degenerate_refusal_names_the_flag(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("a,b\n-1.0,-2.0\n-1.5,-inf\n")
        assert main(["compute", "--input", str(p), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"pdikit: error: {p}: -inf log-likelihood at draw 1, datapoint 1 "
            "(zero-likelihood draw; pass --allow-degenerate to keep it)\n"
        )
        assert not (tmp_path / "o").exists()


class TestFitCommand:
    def test_toy_fit_writes_outputs(self, tmp_path):
        out = tmp_path / "toy"
        rc = main(
            [
                "fit",
                "--model",
                "toy-gamma",
                "--draws",
                "800",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert run["sampler"] == "conjugate-exact"
        assert run["seed"] == 3
        assert len(reportio.read_summary_csv(out / "summary.csv")) == 10

    def test_toy_synthetic_size_is_used(self, tmp_path):
        out = tmp_path / "syn"
        assert main(["fit", "--model", "toy-gamma", "--synthetic", "3", "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["n"] == 3
        assert len(reportio.read_summary_csv(out / "summary.csv")) == 3

    def test_presidents_row_count(self, tmp_path):
        out = tmp_path / "pres"
        rc = main(
            [
                "fit",
                "--model",
                "presidents-nb2",
                "--warmup",
                "300",
                "--draws",
                "120",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert len(reportio.read_summary_csv(out / "summary.csv")) == 43

    def test_voting_synthetic_with_groups(self, tmp_path):
        out = tmp_path / "vote"
        rc = main(
            [
                "fit",
                "--model",
                "voting-base",
                "--synthetic",
                "300",
                "--warmup",
                "200",
                "--draws",
                "100",
                "--seed",
                "1",
                "--group-by",
                "state",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert sum(g["count"] for g in run["group_means"].values()) == 300

    def test_dump_data(self, tmp_path, capsys):
        out = tmp_path / "dump"
        rc = main(
            ["fit", "--model", "presidents-nb2", "--dump-data", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "data.csv").read_text().splitlines()
        assert lines[0].startswith("# pdikit")
        assert lines[1] == "id,days"
        assert len(lines) == 45
        assert "Harrison-09,31" in lines

    def test_toy_dump_data_fits_like_the_synthetic_data(self, tmp_path, capsys):
        argv = ["fit", "--model", "toy-gamma", "--draws", "200", "--seed", "4"]
        synthetic = argv + ["--synthetic", "6"]
        assert main(synthetic + ["--dump-data", "--out", str(tmp_path / "dump")]) == 0
        data = tmp_path / "dump" / "data.csv"
        assert capsys.readouterr().out == f"{data}\n"
        lines = data.read_text().splitlines()
        assert lines[0].startswith("# pdikit") and lines[1] == "x" and len(lines) == 8
        assert main(synthetic + ["--out", str(tmp_path / "syn")]) == 0
        assert main(argv + ["--data", str(data), "--out", str(tmp_path / "file")]) == 0
        summary = (tmp_path / "file" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "syn" / "summary.csv").read_bytes()
        assert json.loads((tmp_path / "file" / "run.json").read_text())["data"] == str(data)

    def test_dump_data_refused_for_voting(self, tmp_path, capsys):
        out = tmp_path / "dump"
        argv = ["fit", "--model", "voting-base", "--synthetic", "20", "--dump-data"]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "pdikit: error: --dump-data is not supported for voting-base; "
            "voting data comes from --data or --synthetic\n"
        )
        assert not out.exists()

    def test_voting_age_groups_by_age(self, tmp_path):
        out = tmp_path / "age"
        argv = ["fit", "--model", "voting-age", "--synthetic", "200", "--warmup", "100"]
        argv += ["--draws", "50", "--seed", "1", "--group-by", "age"]
        assert main(argv + ["--out", str(out)]) == 0
        groups = json.loads((out / "run.json").read_text())["group_means"]
        assert sorted(groups) == ["18-29", "30-44", "45-64", "65+"]
        assert sum(g["count"] for g in groups.values()) == 200

    def test_voting_data_csv(self, tmp_path):
        data = tmp_path / "votes.csv"
        rows = ["vote,sex,race,state"]
        rng = np.random.default_rng(0)
        for i in range(60):
            rows.append(
                f"{rng.integers(0, 2)},{rng.integers(0, 2)},{rng.integers(0, 2)},"
                f"{'ny' if i % 2 else 'wy'}"
            )
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit"
        rc = main(
            [
                "fit",
                "--model",
                "voting-base",
                "--data",
                str(data),
                "--warmup",
                "150",
                "--draws",
                "80",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert len(reportio.read_summary_csv(out / "summary.csv")) == 60


@pytest.mark.parametrize("command", ["fit", "check-lemma"])
def test_degenerate_fit_suggests_no_option(command, tmp_path, capsys, monkeypatch):
    # fit and check-lemma have no --allow-degenerate, so the refusal names
    # none. No built-in model gives -inf; this one's row does at datapoint 2.
    from pdikit import models

    table, _ = models.simulate_votes(30, seed=1)
    base = models.hier_logreg_model(table)
    model = dataclasses.replace(
        base,
        pointwise_row=lambda th: np.where(
            np.arange(base.data_count) == 2, -np.inf, base.pointwise_row(th)
        ),
    )
    monkeypatch.setattr(models, "hier_logreg_model", lambda table, variant: model)
    argv = [command, "--model", "voting-base", "--warmup", "20", "--draws", "10"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == (
        "pdikit: error: numerical failure: -inf log-likelihood at draw 0, "
        "datapoint 2 (zero-likelihood draw)\n"
    )


@pytest.mark.parametrize(
    "model_args",
    [
        ["presidents-nb2", "--warmup", "0", "--draws", "2"],
        ["voting-base", "--synthetic", "20", "--warmup", "3", "--draws", "3"],
    ],
    ids=["model-raises", "numpy-warns"],
)
def test_model_failure_in_the_chain_is_a_numerical_failure(model_args, tmp_path, capsys):
    # A step of 1e300 walks to a proposal that the NB2 model refuses with a
    # ValueError, or at which the voting model overflows into a NaN target
    # (numpy warns on the way there, which pytest turns into errors).
    out = tmp_path / "o"
    assert main(["fit", "--model", *model_args, "--step", "1e300", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("pdikit: error: numerical failure: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, model", [("fit", "toy-gamma"), ("check-lemma", "voting-base")])
def test_data_and_synthetic_together_is_a_usage_error(command, model, tmp_path, capsys):
    # Refused before the file is read, so its content does not matter.
    data = tmp_path / "data.csv"
    data.write_text("1.5\n")
    out = tmp_path / "o"
    argv = [command, "--model", model, "--data", str(data), "--synthetic", "50"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "pdikit: error: argument --synthetic: not allowed with argument --data\n"
    )
    assert not out.exists()


def test_toy_data_with_a_mistyped_first_value_exits_3(tmp_path, capsys):
    # The first line is a header only if it is a name; "1.O" is a bad value.
    data = tmp_path / "x.csv"
    data.write_text("1.O\n2.0\n3.0\n")
    out = tmp_path / "o"
    assert main(["fit", "--model", "toy-gamma", "--data", str(data), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"pdikit: error: {data}: non-numeric value '1.O' at line 1, column 1\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
def test_toy_data_must_be_positive_and_finite(bad, tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.write_text(f"x\n1.5\n# c\n{bad}\n2.0\n")
    out = tmp_path / "o"
    assert main(["fit", "--model", "toy-gamma", "--data", str(data), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"pdikit: error: {data}: line 4: '{bad}' is not a positive finite number\n",
    )
    assert not out.exists()


class TestReportCommand:
    def test_top_k_rows(self, matrix_file, tmp_path, capsys):
        out = tmp_path / "res"
        main(["compute", "--input", str(matrix_file), "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--input", str(out / "summary.csv"), "--top-k", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header + 1 row
        assert lines[1].startswith("a,")  # worst WAPDI first

    def test_report_exact_k(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        m = pk.LogLikMatrix(rng.normal(-4, 1, size=(6, 9)))
        rep = pk.rank_report(pk.summarize(m), m.datapoint_ids)
        path = tmp_path / "summary.csv"
        reportio.write_summary_csv(path, rep, seed=0)
        rc = main(["report", "--input", str(path), "--top-k", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        ranks = [int(line.split(",")[8]) for line in lines[1:]]
        assert ranks == [1, 2, 3, 4, 5]

    def test_prints_the_summarys_own_lines(self, tmp_path, capsys):
        # A compute summary with every flag and NaN WAPDIs (all 5 rows), and
        # a fit summary cut to 7 of its 43 rows: report prints the header and
        # the first K rows byte for byte, and report.csv adds the summary's
        # own "# pdikit" line.
        matrix = tmp_path / "m.csv"
        matrix.write_text(
            "a,b,inf,const,zero\n"
            "-1.5,-0.25,-inf,-2.0,0.0\n"
            "-1.25,-0.5,-1.0,-2.0,0.0\n"
            "-1.0,-0.75,-2.0,-2.0,0.0\n"
        )
        runs = {
            "compute": (["compute", "--input", str(matrix), "--allow-degenerate"], 5),
            "fit": (["fit", "--model", "presidents-nb2", "--warmup", "150", "--draws", "60"], 7),
        }
        printed = {}
        for name, (argv, k) in runs.items():
            summary = tmp_path / name / "summary.csv"
            assert main(argv + ["--out", str(summary.parent)]) == 0
            meta, *table = summary.read_bytes().splitlines(keepends=True)
            capsys.readouterr()
            out = tmp_path / name / "report"
            argv = ["report", "--input", str(summary), "--top-k", str(k), "--out", str(out)]
            assert main(argv) == 0
            printed[name] = capsys.readouterr().out.encode()
            assert printed[name] == b"".join(table[: k + 1])
            assert (out / "report.csv").read_bytes() == meta + printed[name]
        for text in (b",zero_variance\n", b",nonfinite_loglik\n", b";near_singular_log_mu\n"):
            assert text in printed["compute"]
        assert b",nan," in printed["compute"]
        assert printed["fit"].count(b"\n") == 8

    def test_unwritable_out_prints_nothing(self, matrix_file, tmp_path, capsys):
        main(["compute", "--input", str(matrix_file), "--out", str(tmp_path / "res")])
        capsys.readouterr()
        not_a_dir = tmp_path / "afile"
        not_a_dir.write_text("x\n")
        summary = str(tmp_path / "res" / "summary.csv")
        rc = main(["report", "--input", summary, "--top-k", "2", "--out", str(not_a_dir)])
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("pdikit: error: ") and err.count("\n") == 1
        assert not_a_dir.read_text() == "x\n"

    def test_console_script_runs_report(self, matrix_file, tmp_path, monkeypatch, capsys):
        # The script pyproject.toml installs, resolved as an installer does, run on argv.
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["pdikit"]
        module, _, name = target.partition(":")
        entrypoint = getattr(importlib.import_module(module), name)
        assert main(["compute", "--input", str(matrix_file), "--out", str(tmp_path / "res")]) == 0
        summary = tmp_path / "res" / "summary.csv"
        capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["pdikit", "report", "--input", str(summary)])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == 0
        lines = summary.read_text().splitlines()[1:]  # without the "# pdikit" line
        assert capsys.readouterr().out.splitlines() == lines


class TestVotesCsvErrors:
    def test_missing_column(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("vote,sex,race\n1,0,0\n")
        with pytest.raises(reportio.InputFormatError, match="state"):
            reportio.read_votes_csv(p)

    def test_bad_code(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("vote,sex,race,state\n2,0,0,ny\n")
        with pytest.raises(reportio.InputFormatError, match="vote"):
            reportio.read_votes_csv(p)

    def test_non_integer_cell(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("vote,sex,race,state\n1,x,0,ny\n")
        with pytest.raises(reportio.InputFormatError, match="line 2"):
            reportio.read_votes_csv(p)

    def test_age_codes_reindexed(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("vote,sex,race,state,age\n1,0,0,ny,3\n0,1,0,wy,7\n1,0,1,ny,3\n")
        table = reportio.read_votes_csv(p)
        codes, index = table.groups["age"]
        assert codes == ("3", "7")
        assert list(index) == [0, 1, 0]

    def test_age_model_on_ageless_data_exits_3(self, tmp_path, capsys):
        p = tmp_path / "v.csv"
        p.write_text("vote,sex,race,state\n1,0,0,ny\n0,1,0,wy\n")
        rc = main(
            [
                "fit",
                "--model",
                "voting-age",
                "--data",
                str(p),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"pdikit: error: {p}: variant 'with_age' needs the group column 'age'; "
            "the table has state\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model, column", [("voting-age", "edu"), ("voting-edu", "age")])
    def test_model_on_the_other_column_exits_3(self, tmp_path, capsys, model, column):
        p = tmp_path / "v.csv"
        rows = [f"{i % 2},{i // 2 % 2},{i // 4 % 2},s{i % 3},{i % 4}" for i in range(60)]
        p.write_text(f"vote,sex,race,state,{column}\n" + "\n".join(rows) + "\n")
        assert list(reportio.read_votes_csv(p).groups) == ["state", column]
        own = model.removeprefix("voting-")
        out = tmp_path / "o"
        argv = ["fit", "--model", model, "--data", str(p), "--group-by", own]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"pdikit: error: {p}: variant 'with_{own}' needs the group column {own!r}; "
            f"the table has state, {column}\n"
        )
        assert not out.exists()

    def test_state_codes_sorted_and_indexed(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("vote,sex,race,state\n1,0,0,wy\n0,1,0,ak\n1,0,1,ny\n0,0,0,ak\n")
        table = reportio.read_votes_csv(p)
        codes, index = table.groups["state"]
        assert codes == ("ak", "ny", "wy")
        assert index.tolist() == [2, 0, 1, 0]

    def test_age_and_edu_together_rejected(self, tmp_path, capsys):
        p = tmp_path / "both.csv"
        p.write_text("vote,sex,race,state,age,edu\n1,0,0,ny,20,1\n0,1,0,wy,40,2\n")
        message = f"{p}: columns 'age' and 'edu' both present"
        with pytest.raises(reportio.InputFormatError, match="^" + re.escape(message)):
            reportio.read_votes_csv(p)
        out = tmp_path / "o"
        argv = ["fit", "--model", "voting-edu", "--data", str(p), "--group-by", "edu"]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"pdikit: error: {message}")
        assert not out.exists()


class TestSvg:
    def test_skips_flagged_rows_and_truncates(self, tmp_path):
        vals = np.log(
            [[0.2, 0.5, 1.0 - 1e-13], [0.4, 0.6, 1.0 + 1e-13], [0.3, 0.4, 1.0]]
        )
        m = pk.LogLikMatrix(vals, ["a", "b", "c"])
        rep = pk.rank_report(pk.summarize(m), m.datapoint_ids)
        path = tmp_path / "w.svg"
        reportio.write_wapdi_svg(path, rep, seed=0, top_k=1)
        text = path.read_text()
        assert text.count("<rect") == 1
        assert ">c</text>" not in text  # flagged row never drawn
        assert f"pdikit {pk.__version__} seed=0" in text


class TestCheckLemmaCommand:
    def test_toy_lemma_outputs(self, tmp_path):
        out = tmp_path / "lem"
        rc = main(
            [
                "check-lemma",
                "--model",
                "toy-gamma",
                "--draws",
                "2000",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "lemma.csv").read_text().splitlines()
        assert lines[0].startswith("# pdikit")
        assert lines[1] == "id,wapdi_exact,wapdi_taylor,abs_error,grad_norm"
        assert len(lines) == 12
        run = json.loads((out / "run.json").read_text())
        assert len(run["posterior_mean"]) == 1
        assert run["model"] == "toy-gamma"
        assert run["sampler"] == "conjugate-exact"
        assert (run["acceptance_rate"], run["sampler_warnings"]) == (1.0, [])

    def test_top_k_keeps_the_first_rows(self, tmp_path):
        argv = ["check-lemma", "--model", "toy-gamma", "--draws", "200", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "all")]) == 0
        assert main(argv + ["--top-k", "3", "--out", str(tmp_path / "top")]) == 0
        every = (tmp_path / "all" / "lemma.csv").read_text().splitlines()
        top = (tmp_path / "top" / "lemma.csv").read_text().splitlines()
        assert len(every) == 12 and top == every[:5]  # meta line, header, 3 rows

    def test_sampler_warning_printed_and_recorded(self, tmp_path, capsys):
        out = tmp_path / "lem"
        argv = ["check-lemma", "--model", "voting-base", "--synthetic", "50"]
        argv += ["--warmup", "0", "--draws", "20", "--step", "120", "--seed", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        warning = "post-warmup acceptance rate 0.0083 < 0.01; draws are likely unusable"
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"pdikit: warning: {warning}\n")
        run = json.loads((out / "run.json").read_text())
        assert run["model"] == "voting-base"
        assert run["acceptance_rate"] == 1 / 120
        assert run["sampler_warnings"] == [warning]

    def test_formats_flag_rejected(self, tmp_path):
        argv = ["check-lemma", "--model", "toy-gamma", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            parse_args(argv + ["--formats", "csv"])
        assert exc.value.code == 2
        assert parse_args(argv).formats == ("csv",)


def _numpy_target() -> str:
    """The CPU target of the kernels numpy runs for float64 ``exp`` in this process."""
    info = np.lib.introspect.opt_func_info(func_name="^exp$", signature="float64")
    (kernel,) = info["exp"].values()
    return kernel["current"]


class TestGoldenDigests:
    """SHA-256 of outputs written by an earlier version (numpy 2.4, scipy 1.17, x86-64).

    ``TestDeterminism`` compares two runs of one version; these pin the bytes
    across versions, so a change that moves any draw of the chain fails here.

    numpy's AVX-512 (``X86_V4``) and AVX2 (``X86_V3``) kernels can differ in
    the last bit of ``exp`` and ``log``, which moves a Metropolis chain, so
    the sampled outputs have one expected set per dispatch target and the test
    takes the set of the target numpy reports as current. The ``X86_V3`` set
    was added beside the ``X86_V4`` one, recorded with
    ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``; no value was
    loosened, and on any other target the test fails.

    The fit-presidents ``summary.csv`` and ``summary.ndjson`` digests were
    recorded again, in both sets, in the change that replaced the NB2
    mixture's copy of scipy's log-sum-exp with the textbook max shift. Its
    last bits differ from scipy's, which moves the adapted step sizes and so
    every draw by about 1e-9 relative; ``wapdi.svg`` and every other digest
    stayed as they were.

    The check-lemma-voting ``lemma.csv`` digest was recorded again, in both
    sets, in the change that made the voting ``log_joint`` sum its likelihood
    cells weighted by their respondent counts instead of gathering them to
    the respondents. That sum adds the same terms in another order, within
    1.7 eps of the old one, which moves the chain's draws in their last
    bits; the rows keep their order, and no column moves by more than 3e-9
    relative. The NB2 and toy targets are untouched, so their digests stayed.
    """

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (
                ["fit", "--model", "presidents-nb2", "--warmup", "150", "--draws", "60",
                 "--seed", "42", "--formats", "csv,ndjson,svg"],
                {
                    "X86_V4": {
                        "summary.csv":
                            "71b019c1bd9e88447adcabe626ac269079d573e13b2a53455b94ced03652d5c4",
                        "summary.ndjson":
                            "f24ae5dc63aada1a42e72c8838afab61e73675c8eab2d546a98a127222ba1022",
                        "wapdi.svg":
                            "33f876943a03185839552650832a4081f0f4062508c87b388f3a8b4d230c74a9",
                    },
                    "X86_V3": {
                        "summary.csv":
                            "91ba6985321bdb3cf302ba77706f5c24208a51676a78a8fb3dafb17f0b0b00b3",
                        "summary.ndjson":
                            "77e0417d2967d50abf4803978dc22fbdae91fdc5a8bdeb43e6768049b6a0d934",
                        "wapdi.svg":
                            "33f876943a03185839552650832a4081f0f4062508c87b388f3a8b4d230c74a9",
                    },
                },
            ),
            (
                ["check-lemma", "--model", "voting-base", "--synthetic", "300", "--warmup",
                 "100", "--draws", "50"],
                {
                    "X86_V4": {
                        "lemma.csv":
                            "fcaa7913f17999350fd1ca3b5dc5170aeb3f48fe067ad9b4251339343162b08d",
                    },
                    "X86_V3": {
                        "lemma.csv":
                            "a3c6f8a1fb1ac2a1eeb918ff54384874e0c08fab72e9da61e00be61d89aa5b0f",
                    },
                },
            ),
            (
                ["fit", "--model", "toy-gamma", "--synthetic", "25", "--draws", "500",
                 "--seed", "7", "--formats", "csv,ndjson,svg"],
                {
                    "X86_V4": {
                        "summary.csv":
                            "44f636c3725a03234ccac6f4a62501c97630d9536fe4340075f68f3bb81eb1b0",
                        "summary.ndjson":
                            "e30a0653c033ced4654e9172f381304ee69d5a8eaaa0461a75a3213524c575e1",
                        "wapdi.svg":
                            "96deaaa125d330218b863be0bbb21ab1f62ca276ec394f521419e5380843c738",
                    },
                    "X86_V3": {
                        "summary.csv":
                            "b6eb1649556c2189869836699496cbe7b15be6f499cd99b1d23ad838a37087dc",
                        "summary.ndjson":
                            "4577a3f2cbf609a1939e09a064bfbb9b234eb88919d3f7fff7fbae1158a9fc80",
                        "wapdi.svg":
                            "96deaaa125d330218b863be0bbb21ab1f62ca276ec394f521419e5380843c738",
                    },
                },
            ),
            (
                ["check-lemma", "--model", "toy-gamma", "--synthetic", "25", "--draws", "500",
                 "--seed", "7"],
                {
                    "X86_V4": {
                        "lemma.csv":
                            "aa18558700be5e2104bf38e0c0085f984dfc9a99ce1756df939b85fa16448132",
                    },
                    "X86_V3": {
                        "lemma.csv":
                            "52669801af74408b17c5141c1c2c1958b52ea9fd9f5cec6b66796ed01edd09d0",
                    },
                },
            ),
        ],
        ids=["fit-presidents", "check-lemma-voting", "fit-toy", "check-lemma-toy"],
    )
    def test_output_digest(self, tmp_path, argv, digests):
        target = _numpy_target()
        assert target in digests, f"no digests recorded for numpy's {target} kernels"
        assert main(argv + ["--out", str(tmp_path)]) == 0
        for name, digest in digests[target].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_degenerate_compute_digest(self, tmp_path, monkeypatch):
        # Every flag, a NaN group mean, -0.0 turned 0.0, and ids that JSON,
        # SVG and CSV each write differently. run.json records the paths,
        # so they are relative to a fixed working directory.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.csv").write_text(
            "é,a\\b,t\tab,inf,const,zero\n"
            "-1.5,-0.25,-3.0,-inf,-2.0,0.0\n"
            "-1.25,-0.5,-2.75,-1.0,-2.0,0.0\n"
            "-1.0,-0.75,-3.5,-2.0,-2.0,0.0\n"
            "-1.125,-0.3,-2.5,-1.5,-2.0,0.0\n",
            encoding="utf-8",
        )
        (tmp_path / "g.csv").write_text(
            "id,label\né,g1\na\\b,g1\nt\tab,g1\ninf,g2\nconst,g2\nzero,ü\n",
            encoding="utf-8",
        )
        argv = ["compute", "--input", "m.csv", "--groups", "g.csv", "--allow-degenerate"]
        assert main(argv + ["--formats", "csv,ndjson,svg", "--out", "out"]) == 0
        digests = {
            "run.json": "fdc73cb899f4293a8b9d9333ec0f5934625905d2df948f7165bcd0c7df24951d",
            "summary.csv": "5fd5de7de09df126fb8f97f04708f0b29f77c398ed9f282b02a5e7e74051e8b8",
            "summary.ndjson": "da04c521ec361e61d39c4e26c21cab8356921850a45e83075ea779983e1bfc4f",
            "wapdi.svg": "f66c35f9cc14d87448ebd3b70322dab3713569fc375ad7480b0144a692865bf5",
        }
        for name, digest in digests.items():
            got = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            assert got == digest, name


class TestDeterminism:
    def test_byte_identical_summary(self, tmp_path):
        args = [
            "fit",
            "--model",
            "presidents-nb2",
            "--warmup",
            "200",
            "--draws",
            "80",
            "--seed",
            "13",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv, written",
        [
            (
                ["fit", "--group-by", "state", "--formats", "csv,ndjson,svg"],
                {"summary.csv", "summary.ndjson", "wapdi.svg"},
            ),
            (["check-lemma"], {"lemma.csv"}),
        ],
        ids=["fit", "check-lemma"],
    )
    def test_every_output_byte_identical(self, tmp_path, argv, written):
        argv = argv + ["--model", "voting-base", "--synthetic", "200"]
        argv += ["--warmup", "100", "--draws", "50"]

        def run(outdir):
            assert main(argv + ["--out", str(outdir)]) == 0
            files = {p.name: p.read_bytes() for p in outdir.iterdir()}
            run_json = files.pop("run.json").decode()
            assert json.loads(run_json)["config"]["out"] == str(outdir)
            return files, run_json.replace(json.dumps(str(outdir)), '"<out>"')

        files, run_json = run(tmp_path / "r1")
        assert set(files) == written and run_json.count('"<out>"') == 1
        assert run(tmp_path / "r2") == (files, run_json)
