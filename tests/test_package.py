"""The package surface: its public names, and what the CLI imports."""

import os
import subprocess
import sys
from pathlib import Path

import pdikit


def test_public_names_are_unique_and_resolve():
    names = pdikit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pdikit, name), name


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
"""
    src = str(Path(pdikit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.csv").is_file()
