"""Tests of the benchmark's own parts: ESS, spans, counters, output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ess import bulk_ess  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_values  # noqa: E402
from spans import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, ComputeCsv, Inputs, LemmaVoting  # noqa: E402


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n) * np.sqrt(1.0 - phi * phi)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_bulk_ess_matches_ar1_closed_form(phi):
    # For a stationary AR(1) chain the ESS of the mean is n (1 - phi) / (1 + phi).
    n = 100_000
    want = n * (1.0 - phi) / (1.0 + phi)
    got = bulk_ess(ar1(phi, n, seed=7))
    assert got == pytest.approx(want, rel=0.1)


def test_bulk_ess_is_rank_based():
    x = ar1(0.5, 4000, seed=3)
    assert bulk_ess(np.exp(3.0 * x)) == bulk_ess(x)


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 6.0, 0],
        ["b", 11.0, 12.0, None],
    ]
    assert tr.duration("b") == 4.0
    assert tr.self_time("a") == 6.0
    assert tr.duration("missing") == 0


def test_instrumented_model_counts_sampler_and_gradient_calls():
    from pdikit import models, samplers, taylor

    data = models.simulate_toy_data(5, seed=1)
    tr = Tracer()
    cfg = samplers.SamplerConfig(warmup_steps=10, kept_draws=5, seed=2)
    model = models.gamma_toy_model(data)
    draws = samplers.adaptive_rw_metropolis(instrument(model, tr, "s"), cfg)
    assert tr.calls["s.log_joint"] == 1 + (10 + 5) * 1
    taylor.pointwise_gradient(instrument(model, tr, "t"), 0, draws.posterior_mean)
    assert tr.calls["t.pointwise_row"] == 2


def test_loadtxt_parses_six_digit_cells_like_float(tmp_path):
    rng = np.random.default_rng(0)
    cells = ["%.6g" % x for x in -(10.0 ** rng.uniform(-3, 4, 20_000))]
    path = tmp_path / "m.csv"
    path.write_text("\n".join(cells) + "\n")
    assert np.array_equal(np.loadtxt(path, ndmin=1), np.array([float(c) for c in cells]))


@pytest.fixture()
def small_compute(tmp_path):
    from pdikit import cli

    w = ComputeCsv()
    w.draws, w.points, w.groups, w.constant_columns = 50, 40, 4, 2
    inputs = w.prepare(11, tmp_path / "in")
    out = tmp_path / "out"
    assert cli.main(inputs.argv + ["--out", str(out)]) == 0
    return w, inputs, out


def test_compute_check_accepts_cli_output(small_compute):
    w, inputs, out = small_compute
    assert w.check(inputs, out) == []


def _rewrite_summary(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    edit(rows)
    path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")


def test_compute_check_catches_a_wrong_value(small_compute):
    w, inputs, out = small_compute

    def nudge(rows):
        rows[3][1] = repr(float(rows[3][1]) * (1 + 1e-8))  # log_mu

    _rewrite_summary(out / "summary.csv", nudge)
    assert any("log_mu" in p for p in w.check(inputs, out))


def test_compute_check_catches_a_wrong_order(small_compute):
    w, inputs, out = small_compute

    def swap(rows):  # exchange the worst and best rows but keep the rank column
        rows[0][:8], rows[-1][:8] = rows[-1][:8], rows[0][:8]

    _rewrite_summary(out / "summary.csv", swap)
    assert w.check(inputs, out) == ["rank_wapdi does not follow the oracle's WAPDI order"]


@pytest.mark.parametrize(
    "errors, betas, ok",
    [((0.3, 0.2, 0.1), (-0.8, -2.0), True),
     ((0.2, 0.3, 0.1), (-0.8, -2.0), False),
     ((0.3, 0.2, 0.1), (0.1, -2.0), False)],
)
def test_lemma_check(tmp_path, errors, betas, ok):
    w = LemmaVoting()
    w.points = 3
    rows = [f"r{i},-0.5,{-0.5 - e!r},{e!r},1.0" for i, e in enumerate(errors)]
    header = "# pdikit\nid,wapdi_exact,wapdi_taylor,abs_error,grad_norm\n"
    (tmp_path / "lemma.csv").write_text(header + "\n".join(rows) + "\n")
    (tmp_path / "run.json").write_text(json.dumps({"posterior_mean": list(betas) + [0.0]}))
    assert (w.check(Inputs([], {}), tmp_path) == []) == ok


def test_spawn_reports_the_childs_own_peak_rss(tmp_path):
    from run import spawn

    ballast = np.ones(200 * 2**20 // 8)  # 200 MiB resident in this process
    sample = spawn([sys.executable, "-S", "-c", "pass"], tmp_path)
    assert ballast.sum() > 0
    assert sample["exit"] == 0
    assert 0 < sample["peak_rss_mb"] < 100


def test_layer_values_report_every_per_layer_metric():
    facts = {"cells": 1, "flagged_points": 0, "bytes_written": 0}
    assert list(layer_values(Tracer(), facts)) == [m.name for m in PER_LAYER]


def test_benchmark_json_matches_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
