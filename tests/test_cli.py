import hashlib
import json
import math
import re

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
        g = tmp_path / "groups.csv"
        g.write_text("id,label\na,east\n")
        out = tmp_path / "res"
        argv = ["compute", "--input", str(matrix_file), "--groups", str(g)]
        rc = main(argv + ["--formats", "csv,ndjson,svg", "--out", str(out)])
        assert rc == 3
        assert "'b' has no group label" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

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
        assert table.extra_codes == ("3", "7")
        assert list(table.extra) == [0, 1, 0]

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
        assert "age/edu" in capsys.readouterr().err

    @pytest.mark.parametrize("model, column", [("voting-age", "edu"), ("voting-edu", "age")])
    def test_model_on_the_other_column_exits_3(self, tmp_path, capsys, model, column):
        p = tmp_path / "v.csv"
        rows = [f"{i % 2},{i // 2 % 2},{i // 4 % 2},s{i % 3},{i % 4}" for i in range(60)]
        p.write_text(f"vote,sex,race,state,{column}\n" + "\n".join(rows) + "\n")
        assert reportio.read_votes_csv(p).extra_name == column
        own = model.removeprefix("voting-")
        out = tmp_path / "o"
        argv = ["fit", "--model", model, "--data", str(p), "--group-by", own]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"pdikit: error: {p}: model {model} needs the age/edu column {own!r}, "
            f"found {column}\n"
        )
        assert not out.exists()

    def test_state_codes_sorted_and_indexed(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("vote,sex,race,state\n1,0,0,wy\n0,1,0,ak\n1,0,1,ny\n0,0,0,ak\n")
        table = reportio.read_votes_csv(p)
        assert table.state_codes == ("ak", "ny", "wy")
        assert table.state.tolist() == [2, 0, 1, 0]

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


class TestGoldenDigests:
    """SHA-256 of outputs written by an earlier version (numpy 2.4, scipy 1.17, x86-64).

    ``TestDeterminism`` compares two runs of one version; these pin the bytes
    across versions, so a change that moves any draw of the chain fails here.
    """

    @pytest.mark.parametrize(
        "argv, name, digest",
        [
            (
                ["fit", "--model", "presidents-nb2", "--warmup", "150", "--draws", "60",
                 "--seed", "42"],
                "summary.csv",
                "9cc826dc50f3ea72d86e360fb3d387b7532c90020278571136030a6907ff73c7",
            ),
            (
                ["check-lemma", "--model", "voting-base", "--synthetic", "300", "--warmup",
                 "100", "--draws", "50"],
                "lemma.csv",
                "09239dab65fe3a6affaf45e1bae25e9abc30e3114b2ef6807615490b32b89c90",
            ),
        ],
        ids=["fit-presidents", "check-lemma-voting"],
    )
    def test_output_digest(self, tmp_path, argv, name, digest):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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
