"""pdikit benchmark: run the CLI as a user would; report end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload compute-csv --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it). ``--trace 0`` times
fresh CLI subprocesses, one at a time, for ``--seconds`` seconds and reports
the end-to-end metrics; ``--trace 1`` replays the same workload in-process
through each module's public functions with spans around every call, and
reports the per-layer metrics. Both print every metric they have by name with
its unit, check the outputs, write a full record (machine, inputs, samples,
spans) under ``.perfbench/results/``, and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
HELPER = Path(__file__).with_name("spawn.py")

SETUP_PROBES = 4  # fresh interpreters before and again after the CLI invocations
CHILD_TIMEOUT_S = 170.0
RUN_BUDGET_S = 150.0  # no new CLI invocation once a run would pass this


def spawn(argv: list[str], workdir: Path) -> dict:
    """Run one child to completion: wall time from spawn to exit and its own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out, err = workdir / "child.out", workdir / "child.err"
    helper = subprocess.Popen(
        [sys.executable, "-S", str(HELPER), str(CHILD_TIMEOUT_S), str(out), str(err)] + argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        report, _ = helper.communicate()
    except BaseException:  # take the command down with its helper: one process group
        os.killpg(helper.pid, signal.SIGKILL)
        helper.wait()
        raise
    if helper.returncode != 0:
        raise RuntimeError(f"spawn helper failed with exit code {helper.returncode}")
    sample = json.loads(report)
    stderr = err.read_text(encoding="utf-8", errors="replace")
    sample["stderr"] = stderr.strip().splitlines()[-3:]
    return sample


def measure_setup(workdir: Path, warm_up: bool) -> list[float]:
    argv = [sys.executable, "-c", "import pdikit.cli"]
    if warm_up:  # bytecode caches, file cache
        spawn(argv, workdir)
    walls = []
    for _ in range(SETUP_PROBES):
        probe = spawn(argv, workdir)
        if probe["exit"] != 0:
            raise RuntimeError(f"import pdikit.cli failed: {probe['stderr']}")
        walls.append(probe["wall_s"])
    return walls


def invoke(workload, inputs, workdir: Path, index: int) -> dict:
    """One checked CLI invocation; outputs are removed once checked."""
    outdir = workdir / f"out-{index}"
    argv = [sys.executable, "-m", "pdikit.cli", *inputs.argv, "--out", str(outdir)]
    sample = spawn(argv, workdir)
    if sample["exit"] != 0:
        sample["problems"] = [f"exit code {sample['exit']}: {sample['stderr']}"]
    else:
        sample["problems"] = workload.check(inputs, outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    return sample


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1] for line in fh if line.startswith("model name"))
            cpu = next(models, cpu).strip()
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}-{kind.lower()}"] = size
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def end_to_end(workload, inputs, workdir: Path, seconds: float, started: float) -> dict:
    setup = measure_setup(workdir, warm_up=True)
    samples = [invoke(workload, inputs, workdir, 0)]
    # As many invocations as fit in --seconds, judged by the slowest one so far.
    while True:
        spent = sum(s["wall_s"] for s in samples)
        longest = max(s["wall_s"] for s in samples)
        if spent + longest > seconds or perf_counter() - started + longest > RUN_BUDGET_S:
            break
        samples.append(invoke(workload, inputs, workdir, len(samples)))
    setup += measure_setup(workdir, warm_up=False)
    ok = [s for s in samples if not s["problems"]] or samples
    wall = statistics.median(s["wall_s"] for s in ok)
    ess = workload.ess(inputs, STATE / "cache", SRC)
    return {
        "end_to_end": {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
            "ess_per_s": ess / wall,
        },
        "samples": samples,
        "setup_samples": setup,
        "ess": ess,
    }


def per_layer(workload, inputs, workdir: Path) -> dict:
    from metrics import layer_values
    from spans import Tracer

    tracer = Tracer()
    replay = {"problems": []}
    layers = {}
    try:
        facts = workload.replay(tracer, inputs, workdir / "replay")
        layers = layer_values(tracer, facts)
        replay["problems"] = workload.check(inputs, workdir / "replay")
        if "ess" in facts:
            clash = workload.remember_ess(inputs, STATE / "cache", SRC, facts["ess"])
            replay["problems"] += [clash] if clash else []
    except Exception:  # a failing replay is a failed attempt, reported with its traceback
        replay["problems"] = [traceback.format_exc(limit=3)]
    shutil.rmtree(workdir / "replay", ignore_errors=True)
    # The untraced reference: the same workload through the CLI, once.
    setup = measure_setup(workdir, warm_up=True)
    cli = invoke(workload, inputs, workdir, 0)
    setup = statistics.median(setup + measure_setup(workdir, warm_up=False))
    replay_s = tracer.duration("replay")
    untraced = cli["wall_s"] - setup
    return {
        "per_layer": layers,
        "end_to_end": {
            "wall_s": cli["wall_s"],
            "setup_s": setup,
            "peak_rss_mb": cli["peak_rss_mb"],
            "ess_per_s": workload.ess(inputs, STATE / "cache", SRC) / cli["wall_s"],
        },
        "samples": [replay, cli],
        "tracing": {
            "replay_s": replay_s,
            "cli_wall_minus_setup_s": untraced,
            "overhead_ratio": replay_s / untraced - 1.0,
        },
        "tracer": tracer,
    }


def print_metrics(table, values: dict, note: str = "") -> None:
    for m in table:
        if m.name in values:
            print(f"{m.name:38s} {values[m.name]:>14.6g} {m.unit:8s} {m.better} is better; "
                  f"{m.what}; on {m.on}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pdikit" / "cli.py").is_file():
        print(f"perfbench: no pdikit source at {SRC / 'pdikit'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    started = perf_counter()
    workdir = STATE / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = workload.prepare(args.seed, workdir)
        if args.trace:
            result = per_layer(workload, inputs, workdir)
        else:
            result = end_to_end(workload, inputs, workdir, args.seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = result["samples"]
    failed = sum(1 for s in samples if s["problems"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "inputs": inputs.info,
        **{k: v for k, v in result.items() if k != "tracer"},
        "error_rate": failed / len(samples),
    }
    (results / f"{tag}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )
    if args.trace:
        result["tracer"].dump(results / f"{tag}-spans.json")

    print(f"# {tag}  machine: {json.dumps(record['machine'])}")
    print(f"# inputs: {json.dumps(inputs.info)}")
    for s in samples:
        for problem in s["problems"]:
            print(f"# FAILED CHECK: {problem}")
    if args.trace:
        print_metrics(END_TO_END, result["end_to_end"], " [untraced, one invocation]")
        print_metrics(PER_LAYER, result["per_layer"])
        tracing = result["tracing"]
        print(f"{'tracing_overhead':38s} {tracing['overhead_ratio']:>14.4f} {'ratio':8s} "
              f"traced replay {tracing['replay_s']:.3f} s vs CLI wall_s - setup_s "
              f"{tracing['cli_wall_minus_setup_s']:.3f} s")
    else:
        print_metrics(END_TO_END, result["end_to_end"])
    print(f"{'error_rate':38s} {record['error_rate']:>14.6g} {'fraction':8s} "
          f"{failed} of {len(samples)} attempts failed")
    table = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in table if m.name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
