"""The benchmark's traced replays, run at small sizes against this tree.

``perfbench/run.py --trace 1`` replays each workload through pdikit's public
functions (``summarize``, ``rank_report``, the writers, the sampler, the
Taylor table). These smoke tests run the same replays on small inputs, so a
change to those functions that would break the benchmark fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import Tracer  # noqa: E402
from workloads import ComputeCsv, FitPresidents, Inputs, LemmaVoting  # noqa: E402


def test_compute_csv_replay_passes_its_check(tmp_path):
    workload = ComputeCsv()
    workload.draws, workload.points = 50, 40
    inputs = workload.prepare(0, tmp_path / "inputs")
    tr = Tracer()
    facts = workload.replay(tr, inputs, tmp_path / "out")
    assert workload.check(inputs, tmp_path / "out") == []
    assert facts["cells"] == 50 * 40
    assert facts["flagged_points"] == workload.constant_columns  # each is zero-variance
    for name in ("dispersion.summarize", "dispersion.rank_report", "reportio.write_summary_csv"):
        assert tr.duration(name) > 0, name


@pytest.mark.parametrize(
    "workload, argv, outputs",
    [
        (
            FitPresidents(),
            ["fit", "--model", "presidents-nb2", "--warmup", "100", "--draws", "50",
             "--formats", "csv,ndjson,svg"],
            ["run.json", "summary.csv", "summary.ndjson", "wapdi.svg"],
        ),
        (
            LemmaVoting(),
            ["check-lemma", "--model", "voting-base", "--synthetic", "200",
             "--warmup", "100", "--draws", "50"],
            ["lemma.csv", "run.json"],
        ),
    ],
    ids=["fit-presidents", "lemma-voting"],
)
def test_sampler_replay_runs(tmp_path, workload, argv, outputs):
    tr = Tracer()
    workload.replay(tr, Inputs(argv, {}), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == outputs
    assert tr.duration("dispersion.summarize") > 0
    assert tr.calls["samplers.log_joint"] > 0
