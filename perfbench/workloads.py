"""The benchmark's workloads: inputs, CLI arguments, output checks and replays.

Each workload builds its inputs from the benchmark seed, names the ``pdikit``
command line a user would type, checks the files that command writes against
values the benchmark computes on its own, and replays the same work through
the public functions of each pdikit module for the traced run.

The two sampler workloads run at a fixed sampler seed, so the benchmark seed
changes nothing in them: the bulk ESS of a 1000-draw chain changes by about a
quarter from one sampler seed to the next, which would make ``ess_per_s`` too
noisy to bound. ``compute-csv`` takes its whole matrix from the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import logsumexp

from ess import bulk_ess
from spans import NullTracer, instrument

REL = 1e-10  # value checks: above the kernel's 3e-14 reduction-order drift
LEMMA_COLUMNS = "id,wapdi_exact,wapdi_taylor,abs_error,grad_norm"


@dataclass
class Inputs:
    argv: list[str]  # CLI arguments, without --out
    info: dict  # what the record says about the inputs
    data: dict = field(default_factory=dict)  # what the output checks need


# ---------------------------------------------------------------------------
# Reading pdikit outputs without pdikit
# ---------------------------------------------------------------------------

def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a pdikit CSV; ``#`` comment lines are skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def read_summary(path: Path) -> dict[str, np.ndarray]:
    """summary.csv by column: ids and flags as strings, ranks as ints, the rest floats."""
    header, rows = read_table(path)
    cols = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    out = {"id": np.array(cols["id"]), "flags": np.array(cols["flags"])}
    for name in ("rank_wapdi", "rank_logpred"):
        out[name] = np.array(cols[name], dtype=np.int64)
    for name in header:
        if name not in out:
            out[name] = np.array([float(x) for x in cols[name]])
    return out


def close(a, b, rel: float = REL) -> np.ndarray:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b))


def _mismatch(name: str, got, want, ids) -> list[str]:
    bad = np.flatnonzero(~close(got, want))
    if not bad.size:
        return []
    i = bad[0]
    return [f"{name}: {bad.size} values off, e.g. {ids[i]}: {got[i]!r} vs {want[i]!r}"]


def _check_ranks(summary: dict, n: int) -> list[str]:
    ranks = summary["rank_wapdi"]
    if len(ranks) != n:
        return [f"summary.csv has {len(ranks)} rows, expected {n}"]
    if not np.array_equal(ranks, np.arange(1, n + 1)):
        return ["summary.csv rows are not ranks 1..N in order"]
    if not np.array_equal(np.sort(summary["rank_logpred"]), np.arange(1, n + 1)):
        return ["rank_logpred is not a permutation of 1..N"]
    return []


def _check_summary_identities(summary: dict, run: dict) -> list[str]:
    ids = summary["id"]
    problems = _mismatch(
        "wapdi vs sigma2_log/log_mu", summary["wapdi"],
        summary["sigma2_log"] / summary["log_mu"], ids,
    )
    waic = math.fsum(summary["waic_term"]) / len(ids)
    if not close(run["waic"], waic):
        problems.append(f"run.json waic {run['waic']!r} != mean of terms {waic!r}")
    return problems


def _check_side_files(outdir: Path, n: int) -> list[str]:
    problems = []
    with open(outdir / "summary.ndjson", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != n + 1:
        problems.append(f"summary.ndjson has {len(records)} records, expected {n + 1}")
    svg = (outdir / "wapdi.svg").read_text(encoding="utf-8")
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("wapdi.svg is not a complete svg document")
    return problems


def _bytes_in(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# Shared replay steps, in the order cli.py calls them
# ---------------------------------------------------------------------------

def _per_call_us(fn, arg, repeats: int = 7, batch_s: float = 0.02) -> float:
    """Median time of one call of ``fn(arg)``, in microseconds."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn(arg)
        if perf_counter() - t0 >= batch_s:
            break
        n *= 2
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            fn(arg)
        times.append((perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def _write_outputs(tr, outdir: Path, report, cfg, extra_meta: dict) -> None:
    """Mirror of the CLI's output step, with one span per writer."""
    from dataclasses import asdict

    from pdikit import dispersion, reportio

    outdir.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.formats:
        with tr.span("reportio.write_summary_csv"):
            reportio.write_summary_csv(outdir / "summary.csv", report, cfg.seed)
    if "ndjson" in cfg.formats:
        with tr.span("reportio.write_summary_ndjson"):
            reportio.write_summary_ndjson(outdir / "summary.ndjson", report, cfg.seed)
    if "svg" in cfg.formats:
        with tr.span("reportio.write_wapdi_svg"):
            reportio.write_wapdi_svg(outdir / "wapdi.svg", report, cfg.seed, cfg.top_k)
    payload = {
        "command": cfg.command,
        "seed": cfg.seed,
        "config": asdict(cfg),
        "waic": report.waic,
        **extra_meta,
    }
    if report.group_labels:
        with tr.span("dispersion.group_aggregate"):
            groups = dispersion.group_aggregate(report)
        payload["group_means"] = {label: asdict(s) for label, s in groups.items()}
    with tr.span("reportio.write_run_json"):
        reportio.write_run_json(outdir / "run.json", payload)


def _score(tr, matrix, labels=None):
    from pdikit import dispersion

    with tr.span("dispersion.summarize"):
        summaries = dispersion.summarize(matrix)
    with tr.span("dispersion.rank_report"):
        report = dispersion.rank_report(summaries, matrix.datapoint_ids, labels)
    return report


def _validate(tr, matrix) -> None:
    """A separate LogLikMatrix validation call on values already parsed."""
    from pdikit import dispersion

    with tr.span("dispersion.LogLikMatrix"):
        dispersion.LogLikMatrix(
            matrix.values, matrix.datapoint_ids, allow_degenerate=matrix.allow_degenerate
        )


class SamplerWorkload:
    """A built-in model fitted by the CLI's Metropolis sampler."""

    name = ""
    argv: list[str] = []
    relabel = False
    points = 0

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        from pdikit import cli

        cfg = cli.parse_args(self.argv + ["--out", str(workdir)])
        info = {
            "model": cfg.model,
            "datapoints": self.points,
            "sampler_seed": cfg.seed,
            "warmup": cfg.warmup,
            "draws": cfg.draws,
            "thin": cfg.thin,
        }
        return Inputs(list(self.argv), info)

    def build(self, tr, cfg):
        raise NotImplementedError

    def sample(self, tr, model, cfg):
        """Sampler then ``loglik_matrix``, with the calls into the model counted."""
        from pdikit import models, samplers

        with tr.span("samplers.adaptive_rw_metropolis"):
            draws = samplers.adaptive_rw_metropolis(
                instrument(model, tr, "samplers"), cfg.sampler_config()
            )
        if self.relabel:
            with tr.span("models.relabel_by_dispersion"):
                draws = samplers.posterior_draws_from(
                    models.relabel_by_dispersion(draws.draws),
                    draws.acceptance_rate,
                    draws.seed,
                    draws.warnings,
                )
        with tr.span("samplers.loglik_matrix"):
            matrix = samplers.loglik_matrix(instrument(model, tr, "samplers.loglik"), draws)
        return draws, matrix

    def ess(self, inputs: Inputs, cache_dir: Path, src: Path) -> float:
        """Bulk ESS of the per-draw total log-likelihood, replayed once per code version."""
        path = self._ess_path(inputs, cache_dir, src)
        if path.is_file():
            return json.loads(path.read_text(encoding="utf-8"))["ess"]
        from pdikit import cli

        cfg = cli.parse_args(inputs.argv + ["--out", str(cache_dir)])
        tr = NullTracer()
        _, matrix = self.sample(tr, self.build(tr, cfg), cfg)
        value = bulk_ess(matrix.values.sum(axis=1))
        self.remember_ess(inputs, cache_dir, src, value)
        return value

    def remember_ess(self, inputs, cache_dir: Path, src: Path, value: float) -> str | None:
        """Store a replayed ESS; report a problem if it differs from the stored one."""
        path = self._ess_path(inputs, cache_dir, src)
        if path.is_file():
            stored = json.loads(path.read_text(encoding="utf-8"))["ess"]
            return None if stored == value else f"replayed ESS {value!r} != stored {stored!r}"
        cache_dir.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".partial")
        partial.write_text(json.dumps({"ess": value}), encoding="utf-8")
        os.replace(partial, path)
        return None

    def _ess_path(self, inputs: Inputs, cache_dir: Path, src: Path) -> Path:
        """Keyed by the pdikit and benchmark sources, the arguments and the versions."""
        import scipy

        key = hashlib.sha256()
        for path in sorted(src.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
            key.update(path.name.encode())
            key.update(path.read_bytes())
        versions = [inputs.argv, sys.version, np.__version__, scipy.__version__]
        key.update(json.dumps(versions).encode())
        return cache_dir / f"ess-{self.name}-{key.hexdigest()[:16]}.json"

    def micro(self, model, draws) -> dict:
        """Isolated per-call times of the target and the transform at the posterior mean."""
        theta = draws.posterior_mean
        tf = model.transform
        z = tf.unconstrain(theta)

        def constrain(z):
            tf.constrain(z)
            tf.log_jacobian(z)

        return {
            "log_joint_us": _per_call_us(model.log_joint, theta),
            "pointwise_row_us": _per_call_us(model.pointwise_row, theta),
            "constrain_us": _per_call_us(constrain, z),
        }

    @staticmethod
    def sweep_facts(cfg, draws, matrix) -> dict:
        return {
            "sweeps": cfg.warmup + cfg.draws * cfg.thin,
            "acceptance_rate": draws.acceptance_rate,
            "ess": bulk_ess(matrix.values.sum(axis=1)),
            "cells": matrix.values.size,
        }


# ---------------------------------------------------------------------------
# compute-csv
# ---------------------------------------------------------------------------

class ComputeCsv:
    name = "compute-csv"
    draws, points, groups, constant_columns = 1000, 10000, 50, 8

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        """A CmdStan-like matrix: 6 significant digits, -0.1 to -1000 nats."""
        rng = np.random.default_rng(seed)
        S, N = self.draws, self.points
        level = -(10.0 ** rng.uniform(-1.0, 3.0, N))
        spread = rng.uniform(0.005, 0.3, N)
        constant = rng.choice(N, self.constant_columns, replace=False)
        ids = [f"d{j:05d}" for j in range(N)]
        workdir.mkdir(parents=True, exist_ok=True)
        matrix_path = workdir / "matrix.csv"
        fmt = ",".join(["%.6g"] * N) + "\n"
        with open(matrix_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(ids) + "\n")
            for _ in range(S):
                row = level * np.exp(spread * rng.standard_normal(N))
                row[constant] = level[constant]
                fh.write(fmt % tuple(row.tolist()))
            fh.flush()
            os.fsync(fh.fileno())  # no writeback of the input during timed runs
        labels = rng.integers(0, self.groups, N)
        groups_path = workdir / "groups.csv"
        groups_path.write_text(
            "id,label\n" + "".join(f"{i},g{g:02d}\n" for i, g in zip(ids, labels)),
            encoding="utf-8",
        )
        # Parsed exactly as float() parses each cell, which is what pdikit does.
        values = np.loadtxt(matrix_path, delimiter=",", skiprows=1, ndmin=2)
        size = matrix_path.stat().st_size
        argv = [
            "compute", "--input", str(matrix_path), "--groups", str(groups_path),
            "--formats", "csv,ndjson,svg",
        ]
        info = {"csv_bytes": size, "draws": S, "datapoints": N, "groups": self.groups,
                "constant_columns": self.constant_columns}
        return Inputs(argv, info, {"oracle": self.oracle(values, ids, labels)})

    @staticmethod
    def oracle(values: np.ndarray, ids, labels) -> dict:
        """Per-column quantities from numpy/scipy on the parsed values."""
        S = values.shape[0]
        log_mu = logsumexp(values, axis=0) - math.log(S)
        sigma2_log = np.var(values - values.max(axis=0), axis=0, ddof=1)
        wapdi = sigma2_log / log_mu
        waic_term = sigma2_log - log_mu
        group_wapdi = {
            f"g{g:02d}": math.fsum(wapdi[labels == g]) / np.count_nonzero(labels == g)
            for g in np.unique(labels)
        }
        return {
            "index": {i: j for j, i in enumerate(ids)},
            "log_mu": log_mu,
            "sigma2_log": sigma2_log,
            "wapdi": wapdi,
            "waic_term": waic_term,
            "waic": math.fsum(waic_term) / waic_term.size,
            "group_wapdi": group_wapdi,
        }

    def check(self, inputs: Inputs, outdir: Path) -> list[str]:
        oracle = inputs.data["oracle"]
        summary = read_summary(outdir / "summary.csv")
        run = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        problems = _check_ranks(summary, self.points)
        if problems:
            return problems
        ids = summary["id"]
        cols = np.array([oracle["index"][i] for i in ids])
        for name in ("log_mu", "sigma2_log", "wapdi", "waic_term"):
            problems += _mismatch(name, summary[name], oracle[name][cols], ids)
        if not close(run["waic"], oracle["waic"]):
            problems.append(f"run.json waic {run['waic']!r} vs oracle {oracle['waic']!r}")
        # Rows come worst-first; the oracle's WAPDI must not decrease along them,
        # up to the tolerance that lets near-equal values trade places.
        w = oracle["wapdi"][cols]
        if np.any(w[1:] < w[:-1] - REL * np.maximum(np.abs(w[1:]), np.abs(w[:-1]))):
            problems.append("rank_wapdi does not follow the oracle's WAPDI order")
        groups = run.get("group_means", {})
        if sorted(groups) != sorted(oracle["group_wapdi"]):
            problems.append("run.json group_means labels differ from the groups file")
        else:
            for label, want in oracle["group_wapdi"].items():
                got = groups[label]["mean_wapdi"]
                if not close(got, want):
                    problems.append(f"group {label} mean_wapdi {got!r} vs oracle {want!r}")
        return problems + _check_side_files(outdir, self.points)

    def ess(self, inputs: Inputs, cache_dir: Path, src: Path) -> float:
        # The generated draws are independent, so their ESS is S exactly.
        return float(self.draws)

    def replay(self, tr, inputs: Inputs, outdir: Path) -> dict:
        from pdikit import cli, reportio

        cfg = cli.parse_args(inputs.argv + ["--out", str(outdir)])
        with tr.span("replay"):
            with tr.span("reportio.read_loglik_csv"):
                matrix = reportio.read_loglik_csv(
                    cfg.input, allow_degenerate=cfg.allow_degenerate
                )
            with tr.span("reportio.read_group_labels_csv"):
                labels = reportio.read_group_labels_csv(cfg.groups)
            report = _score(tr, matrix, labels)
            meta = {
                "input": str(cfg.input),
                "draws": matrix.draw_count,
                "n": matrix.point_count,
            }
            _write_outputs(tr, outdir, report, cfg, meta)
        _validate(tr, matrix)
        return {
            "csv_bytes": inputs.info["csv_bytes"],
            "cells": matrix.values.size,
            "flagged_points": sum(1 for r in report.rows if r.summary.flags),
            "bytes_written": _bytes_in(outdir),
        }


# ---------------------------------------------------------------------------
# fit-presidents
# ---------------------------------------------------------------------------

class FitPresidents(SamplerWorkload):
    name = "fit-presidents"
    argv = [
        "fit", "--model", "presidents-nb2", "--warmup", "5000", "--draws", "1000",
        "--seed", "42", "--formats", "csv,ndjson,svg",
    ]
    relabel = True
    points = 43

    def build(self, tr, cfg):
        from pdikit import datasets, models

        with tr.span("models.build"):
            return models.nb2_mixture_model(
                datasets.presidents_days(), datasets.presidents_ids()
            )

    def check(self, inputs: Inputs, outdir: Path) -> list[str]:
        summary = read_summary(outdir / "summary.csv")
        run = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        problems = _check_ranks(summary, self.points)
        if problems:
            return problems
        problems += _check_summary_identities(summary, run)
        if run["seed"] == 42:  # acceptance criterion 5 holds at the acceptance seed
            worst5 = set(summary["id"][:5])
            missing = {"Harrison-09", "Roosevelt-32", "Garfield-20"} - worst5
            if missing:
                problems.append(f"criterion 5: {sorted(missing)} not in the worst 5")
        return problems + _check_side_files(outdir, self.points)

    def replay(self, tr, inputs: Inputs, outdir: Path) -> dict:
        from pdikit import cli

        cfg = cli.parse_args(inputs.argv + ["--out", str(outdir)])
        with tr.span("replay"):
            model = self.build(tr, cfg)
            draws, matrix = self.sample(tr, model, cfg)
            report = _score(tr, matrix)
            meta = {
                "data": "embedded presidents table",
                "n": model.data_count,
                "model": cfg.model,
                "sampler": "adaptive-rw-metropolis",
                "acceptance_rate": draws.acceptance_rate,
                "sampler_warnings": list(draws.warnings),
            }
            _write_outputs(tr, outdir, report, cfg, meta)
        _validate(tr, matrix)
        return {
            **self.sweep_facts(cfg, draws, matrix),
            **self.micro(model, draws),
            "flagged_points": sum(1 for r in report.rows if r.summary.flags),
            "bytes_written": _bytes_in(outdir),
        }


# ---------------------------------------------------------------------------
# lemma-voting
# ---------------------------------------------------------------------------

class LemmaVoting(SamplerWorkload):
    name = "lemma-voting"
    argv = ["check-lemma", "--model", "voting-base", "--synthetic", "2000"]
    points = 2000

    def build(self, tr, cfg):
        from pdikit import models

        with tr.span("models.build"):
            table, _ = models.simulate_votes(cfg.synthetic, seed=cfg.seed, variant="base")
            return models.hier_logreg_model(table, "base")

    def check(self, inputs: Inputs, outdir: Path) -> list[str]:
        header, rows = read_table(outdir / "lemma.csv")
        if header != LEMMA_COLUMNS.split(","):
            return [f"lemma.csv header {header}"]
        if len(rows) != self.points:
            return [f"lemma.csv has {len(rows)} rows, expected {self.points}"]
        exact, taylor, err = (np.array([float(r[j]) for r in rows]) for j in (1, 2, 3))
        problems = []
        if np.any(np.isnan(err)) or np.any(np.diff(err) > 0):
            problems.append("lemma.csv is not sorted by abs_error, largest first")
        ids = [r[0] for r in rows]
        problems += _mismatch("abs_error", err, np.abs(exact - taylor), ids)
        run = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        beta_female, beta_black = run["posterior_mean"][:2]
        if not (beta_female < 0 and beta_black < 0):
            problems.append(
                f"signs not recovered: beta_female {beta_female}, beta_black {beta_black}"
            )
        return problems

    def replay(self, tr, inputs: Inputs, outdir: Path) -> dict:
        from dataclasses import asdict

        from pdikit import cli, reportio, taylor

        cfg = cli.parse_args(inputs.argv + ["--out", str(outdir)])
        with tr.span("replay"):
            model = self.build(tr, cfg)
            draws, matrix = self.sample(tr, model, cfg)
            summarize = taylor.summarize
            taylor.summarize = tr.traced("dispersion.summarize", summarize)
            try:
                with tr.span("taylor.compare_exact_vs_taylor"):
                    counted = instrument(model, tr, "taylor")
                    rep = taylor.compare_exact_vs_taylor(counted, draws, matrix)
            finally:
                taylor.summarize = summarize
            outdir.mkdir(parents=True, exist_ok=True)
            with tr.span("cli.write_lemma_csv"):
                lines = [reportio.meta_line(cfg.seed), LEMMA_COLUMNS]
                for r in rep.rows:
                    grad_norm = float(np.sqrt(np.sum(r.gradient * r.gradient)))
                    lines.append(
                        f"{r.datapoint_id},{r.wapdi_exact!r},{r.wapdi_taylor!r},"
                        f"{r.abs_error!r},{grad_norm!r}"
                    )
                (outdir / "lemma.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            with tr.span("reportio.write_run_json"):
                reportio.write_run_json(
                    outdir / "run.json",
                    {
                        "command": cfg.command,
                        "seed": cfg.seed,
                        "config": asdict(cfg),
                        "sampler": "adaptive-rw-metropolis",
                        "posterior_mean": rep.posterior_mean.tolist(),
                        "posterior_var": rep.posterior_var.tolist(),
                        "data": f"synthetic survey (n={cfg.synthetic})",
                        "n": model.data_count,
                        "variant": "base",
                    },
                )
        _validate(tr, matrix)
        return {
            **self.sweep_facts(cfg, draws, matrix),
            **self.micro(model, draws),
            "flagged_points": sum(1 for r in rep.rows if np.isnan(r.abs_error)),
            "bytes_written": _bytes_in(outdir),
        }


WORKLOADS = {w.name: w for w in (ComputeCsv(), FitPresidents(), LemmaVoting())}
