"""The package surface: its public names, and what the CLI imports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdikit


def test_public_names_are_unique_and_resolve():
    names = pdikit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pdikit, name), name
    # summarize's "log_mu_mcse" key is the one implementation of this error.
    assert "log_posterior_predictive_mcse" not in names
    assert not hasattr(pdikit, "log_posterior_predictive_mcse")


def _records():
    """A maker for each record that holds arrays; two calls give equal contents."""
    from pdikit import models

    values, ids = np.array([[-1.0, -2.0], [-1.5, -2.5]]), ("a", "b")

    def taylor_row():
        return pdikit.TaylorRow("a", 0.1, 0.2, 0.1, np.zeros(2))

    return {
        "LogLikMatrix": lambda: pdikit.LogLikMatrix(values, ids),
        "MismatchReport": lambda: pdikit.rank_report(
            pdikit.summarize(pdikit.LogLikMatrix(values, ids)), ids
        ),
        "ModelSpec": lambda: models.gamma_toy_model([1.0, 2.0]),
        "PosteriorDraws": lambda: pdikit.posterior_draws_from(values, 0.5, 0),
        "TaylorRow": taylor_row,
        "TaylorReport": lambda: pdikit.TaylorReport((taylor_row(),), np.zeros(2), np.ones(2)),
        "VoteTable": lambda: models.simulate_votes(10, seed=0)[0],
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_with_arrays_compare_by_identity(name):
    make = _records()[name]
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_readme_quick_start_runs():
    # The README's first python block, run as written: a documented name that
    # no longer exists fails here.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)[1]
    namespace = {}
    exec(block, namespace)
    promised = next(line for line in block.splitlines() if "# 'a'" in line)
    assert eval(promised.split("#")[0], namespace) == "a"


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports pdikit from this tree."""
    src = str(Path(pdikit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_compute_and_report_run_without_scipy(tmp_path):
    # Only the built-in models need scipy; scoring a matrix and reporting on
    # a summary must not pay for importing it.
    matrix = tmp_path / "m.csv"
    matrix.write_text("a,b,c\n-1.0,-2.0,-0.5\n-1.5,-2.5,-0.5\n-1.2,-2.2,-0.5\n")
    groups = tmp_path / "g.csv"
    groups.write_text("id,label\na,g1\nb,g1\nc,g2\n")
    out = tmp_path / "out"
    code = f"""
import sys
from pdikit.cli import main
assert main(["compute", "--input", {str(matrix)!r}, "--groups", {str(groups)!r},
             "--formats", "csv,ndjson,svg", "--out", {str(out)!r}]) == 0
assert main(["report", "--input", {str(out / "summary.csv")!r}, "--top-k", "2",
             "--out", {str(out)!r}]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
assert not {{"pdikit.models", "pdikit.datasets"}} & set(sys.modules)
"""
    run_fresh(code)
    assert (out / "report.csv").is_file()


def test_dump_data_runs_without_scipy(tmp_path):
    # --dump-data writes the dataset alone; building either model would load scipy.
    out = str(tmp_path)
    code = f"""
import sys
from pdikit.cli import main
for model in ("presidents-nb2", "toy-gamma"):
    assert main(["fit", "--model", model, "--dump-data", "--out", {out!r} + "/" + model]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    run_fresh(code)
    for model in ("presidents-nb2", "toy-gamma"):
        assert (tmp_path / model / "data.csv").is_file()


def test_voting_models_run_without_scipy(tmp_path):
    # The hierarchical logistic models need numpy alone; only the NB2 mixture
    # and the gamma toy load scipy, when they are built.
    out = str(tmp_path)
    code = f"""
import sys
from pdikit.cli import main

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

short = ["--warmup", "30", "--draws", "10"]
for command in ("fit", "check-lemma"):
    argv = [command, "--model", "voting-base", "--synthetic", "40", *short]
    assert main(argv + ["--out", {out!r} + "/" + command]) == 0
assert not scipy_loaded(), scipy_loaded()
assert main(["fit", "--model", "presidents-nb2", *short, "--out", {out!r} + "/nb2"]) == 0
assert scipy_loaded()
assert main(["check-lemma", "--model", "toy-gamma", *short, "--out", {out!r} + "/toy"]) == 0
"""
    run_fresh(code)
    for name in ("fit", "check-lemma", "nb2", "toy"):
        assert (tmp_path / name / "run.json").is_file()
