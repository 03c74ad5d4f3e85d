"""Smoke runs of the demo scripts in ``scripts/`` at tiny sizes."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, printed",
    [
        ("toy_dispersion_demo.py", ["--draws", "200"], "ratio = "),
        (
            "voting_synthetic_demo.py",
            ["--n", "200", "--warmup", "50", "--draws", "50"],
            "base wapdi",
        ),
        (
            "presidents_case_study.py",
            ["--warmup", "50", "--draws", "20", "--out", "out"],
            "worst 10 by WAPDI",
        ),
    ],
)
def test_script_main_runs(script, args, printed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script))["main"]()
    assert printed in capsys.readouterr().out
    if "--out" in args:
        assert {p.name for p in (tmp_path / "out").iterdir()} == {
            "summary.csv",
            "wapdi.svg",
            "run.json",
        }
