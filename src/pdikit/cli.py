"""Command-line front end.

Four commands: ``compute`` ingests an external log-likelihood matrix,
``fit`` samples a built-in model and scores its data, ``report`` truncates an
existing summary to the worst datapoints, and ``check-lemma`` compares exact
WAPDI against its first-order Taylor approximation.

Exit codes: 0 success, 2 usage, 3 bad input or a file it cannot read or write,
4 numerical failure. Every failure prints one line starting with ``pdikit: error:``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, reportio
from .dispersion import MismatchReport, group_aggregate, rank_report, summarize
from .samplers import (
    SamplerConfig,
    SamplerError,
    adaptive_rw_metropolis,
    loglik_matrix,
    posterior_draws_from,
)
from .taylor import compare_exact_vs_taylor

_VOTING_VARIANTS = {"voting-base": "base", "voting-age": "with_age", "voting-edu": "with_edu"}
MODEL_NAMES = ("presidents-nb2", "toy-gamma", *_VOTING_VARIANTS)
FORMATS = ("csv", "ndjson", "svg")


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str | None = None
    out: str | None = None
    model: str | None = None
    data: str | None = None
    synthetic: int | None = None
    groups: str | None = None
    group_by: str | None = None
    formats: tuple[str, ...] = ("csv",)
    top_k: int | None = None
    allow_degenerate: bool = False
    dump_data: bool = False
    draws: int = SamplerConfig.kept_draws
    warmup: int = SamplerConfig.warmup_steps
    thin: int = SamplerConfig.thinning
    step: float = SamplerConfig.initial_step_size
    target_accept: float = SamplerConfig.adaptation_target_acceptance
    seed: int = SamplerConfig.seed

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            warmup_steps=self.warmup,
            kept_draws=self.draws,
            thinning=self.thin,
            initial_step_size=self.step,
            adaptation_target_acceptance=self.target_accept,
            seed=self.seed,
        )


def _positive_int(text: str) -> int:
    """An argparse ``type``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_output_args(p: argparse.ArgumentParser, formats: bool = True) -> None:
    p.add_argument("--out", required=True, help="output directory")
    if formats:
        p.add_argument(
            "--formats",
            default="csv",
            help=f"comma-separated subset of {','.join(FORMATS)} (default csv)",
        )
    p.add_argument(
        "--top-k", type=_positive_int, help="rows of wapdi.svg (compute, fit) or lemma.csv"
    )


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    d = RunConfig  # its defaults
    p.add_argument("--draws", type=int, default=d.draws, help="kept posterior draws S")
    p.add_argument("--warmup", type=int, default=d.warmup, help="warmup iterations")
    p.add_argument("--thin", type=int, default=d.thin, help="thinning interval")
    p.add_argument("--step", type=float, default=d.step, help="initial proposal step size")
    p.add_argument(
        "--target-accept", type=float, default=d.target_accept, help="adaptation target"
    )
    p.add_argument("--seed", type=int, default=d.seed, help="RNG seed (sole entropy source)")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--data", default=None, help="input dataset CSV (model-specific)")
    source.add_argument(
        "--synthetic",
        type=_positive_int,
        default=None,
        metavar="N",
        help="generate N synthetic observations instead of reading --data",
    )


class _Parser(argparse.ArgumentParser):
    """Uniform machine-greppable error prefix, regardless of subcommand."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"pdikit: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdikit",
        description="Posterior dispersion indices from posterior log-likelihood draws.",
    )
    parser.add_argument("--version", action="version", version=f"pdikit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="score an external log-likelihood matrix")
    p.add_argument("--input", required=True, help="matrix CSV: header ids, draw rows")
    p.add_argument("--groups", default=None, help="id,label CSV for group means")
    p.add_argument(
        "--allow-degenerate",
        action="store_true",
        help="keep -inf entries and flag the affected columns",
    )
    p.add_argument("--seed", type=int, default=RunConfig.seed, help="seed recorded in outputs")
    _add_output_args(p)

    p = sub.add_parser("fit", help="fit a built-in model and score its data")
    _add_model_args(p)
    p.add_argument(
        "--group-by",
        default=None,
        choices=("state", "age", "edu"),
        help="voting models: aggregate WAPDI by this column",
    )
    p.add_argument(
        "--dump-data",
        action="store_true",
        help="write the model dataset to <out>/data.csv and exit",
    )
    _add_sampler_args(p)
    _add_output_args(p)

    p = sub.add_parser("report", help="print the worst datapoints of a summary")
    p.add_argument("--input", required=True, help="summary.csv from compute/fit")
    p.add_argument("--top-k", type=_positive_int, default=10, help="rows to print")
    p.add_argument("--out", default=None, help="also write report.csv here")

    p = sub.add_parser("check-lemma", help="exact vs Taylor-approximate WAPDI")
    _add_model_args(p)
    _add_sampler_args(p)
    _add_output_args(p, formats=False)
    return parser


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "formats", None) is not None:
        ns.formats = tuple(f.strip() for f in ns.formats.split(",") if f.strip())
        bad = [f for f in ns.formats if f not in FORMATS]
        if bad or not ns.formats:
            problem = f"unknown format {bad[0]!r}" if bad else "no format given"
            parser.error(f"argument --formats: {problem} (choose from {', '.join(FORMATS)})")
    cfg = RunConfig(**vars(ns))  # every argparse dest is a RunConfig field
    if cfg.command in ("fit", "check-lemma"):
        if cfg.model == "presidents-nb2" and (cfg.data or cfg.synthetic is not None):
            parser.error("presidents-nb2 uses the embedded dataset only")
        if cfg.group_by and not (cfg.model or "").startswith("voting-"):
            parser.error("--group-by applies to voting models only")
        if cfg.group_by in ("age", "edu") and cfg.model != f"voting-{cfg.group_by}":
            parser.error(f"--group-by {cfg.group_by} needs --model voting-{cfg.group_by}")
        try:  # every model, though the conjugate toy uses only draws and seed
            cfg.sampler_config()
        except ValueError as exc:
            parser.error(str(exc))
    if cfg.seed < 0:  # compute only records its seed; fit and check-lemma failed above
        parser.error("seed must be >= 0")
    return cfg


def _toy_data(cfg: RunConfig) -> tuple[np.ndarray, str]:
    """The toy's observations, from ``--data`` or drawn, and where they came from."""
    if cfg.data:
        return reportio.read_values_csv(cfg.data), cfg.data
    from .models import simulate_toy_data

    n = 10 if cfg.synthetic is None else cfg.synthetic
    return simulate_toy_data(n, seed=cfg.seed), f"synthetic gamma draws (n={n})"


def _fit_matrix(cfg: RunConfig):
    """Build, sample and score a built-in model: (model, draws, matrix, labels, meta).

    The conjugate toy is sampled exactly, every other model by Metropolis;
    presidents' mixture components are then relabelled. ``labels`` maps each
    datapoint to its ``--group-by`` value, or is None. Prints the sampler's
    warnings; ``meta`` holds the ``run.json`` fields that ``fit`` and
    ``check-lemma`` share.
    """
    # compute and report never import the models; only two of them load scipy.
    from . import datasets, models

    labels = None
    if cfg.model == "toy-gamma":
        data, source = _toy_data(cfg)
        model = models.gamma_toy_model(data)
        meta = {"data": source, "n": int(data.size)}
        draws = models.toy_posterior_draws(data, cfg.draws, cfg.seed)
    elif cfg.model == "presidents-nb2":
        days = datasets.presidents_days()
        model = models.nb2_mixture_model(days, datasets.presidents_ids())
        meta = {"data": "embedded presidents table", "n": int(days.size)}
        draws = _metropolis(model, cfg)
        relabeled = models.relabel_by_dispersion(draws.draws)
        draws = posterior_draws_from(
            relabeled, draws.acceptance_rate, draws.seed, draws.warnings
        )
    else:
        variant = _VOTING_VARIANTS[cfg.model]
        if cfg.data:
            table = reportio.read_votes_csv(cfg.data)
            source = cfg.data
        else:
            n = 2000 if cfg.synthetic is None else cfg.synthetic
            table, _ = models.simulate_votes(n, seed=cfg.seed, variant=variant)
            source = f"synthetic survey (n={n})"
        try:
            model = models.hier_logreg_model(table, variant)
        except ValueError as exc:  # a --data table without the variant's column
            raise reportio.InputFormatError(f"{cfg.data}: {exc}") from None
        if cfg.group_by:
            codes, index = table.groups[cfg.group_by]
            labels = dict(zip(model.datapoint_ids, (codes[i] for i in index)))
        meta = {"data": source, "n": table.n, "variant": variant}
        draws = _metropolis(model, cfg)
    matrix = loglik_matrix(model, draws)
    for w in draws.warnings:
        print(f"pdikit: warning: {w}", file=sys.stderr)
    meta.update(
        model=cfg.model,
        sampler="conjugate-exact" if cfg.model == "toy-gamma" else "adaptive-rw-metropolis",
        acceptance_rate=draws.acceptance_rate,
        sampler_warnings=list(draws.warnings),
    )
    return model, draws, matrix, labels, meta


def _metropolis(model, cfg: RunConfig):
    """The chain's draws; a model that fails at a walked proposal is a numerical failure.

    numpy's floating-point warnings stay off stderr, whose one line is the
    error; the chain's batched calls set their own ``np.errstate``.
    """
    try:
        with np.errstate(all="ignore"):
            return adaptive_rw_metropolis(model, cfg.sampler_config())
    except ValueError as exc:  # e.g. NB2's "mu and phi must be > 0"
        raise SamplerError(str(exc)) from None


def _run_payload(cfg: RunConfig) -> dict:
    """The ``run.json`` fields every command shares."""
    return {"command": cfg.command, "seed": cfg.seed, "config": asdict(cfg)}


def _write_outputs(
    outdir: Path,
    report: MismatchReport,
    cfg: RunConfig,
    extra_meta: dict,
) -> None:
    # Before any file is written, so that a missing label leaves no outputs.
    group_means = None
    if report.group_labels is not None:
        try:
            group_means = group_aggregate(report)
        except ValueError as exc:  # only --groups can leave a datapoint out
            raise reportio.InputFormatError(f"{cfg.groups}: {exc}") from None
    outdir.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.formats:
        reportio.write_summary_csv(outdir / "summary.csv", report, cfg.seed)
    if "ndjson" in cfg.formats:
        reportio.write_summary_ndjson(outdir / "summary.ndjson", report, cfg.seed)
    if "svg" in cfg.formats:
        reportio.write_wapdi_svg(outdir / "wapdi.svg", report, cfg.seed, cfg.top_k)
    payload = {
        **_run_payload(cfg),
        "waic": report.waic,
        "n_excluded": report.n_excluded,
        **extra_meta,
    }
    if group_means is not None:
        payload["group_means"] = {label: asdict(stats) for label, stats in group_means.items()}
    reportio.write_run_json(outdir / "run.json", payload)


def _cmd_compute(cfg: RunConfig) -> int:
    matrix = reportio.read_loglik_csv(
        cfg.input, allow_degenerate=cfg.allow_degenerate, keep_option="--allow-degenerate"
    )
    ids = matrix.datapoint_ids
    meta = {"input": str(cfg.input), "draws": matrix.draw_count, "n": matrix.point_count}
    summaries = summarize(matrix)
    del matrix  # the groups, ranking and the writers run without the S x N array
    labels = reportio.read_group_labels_csv(cfg.groups) if cfg.groups else None
    _write_outputs(Path(cfg.out), rank_report(summaries, ids, labels), cfg, meta)
    return 0


def _cmd_fit(cfg: RunConfig) -> int:
    if cfg.dump_data:
        return _dump_data(cfg)
    _, _, matrix, labels, meta = _fit_matrix(cfg)
    report = rank_report(summarize(matrix), matrix.datapoint_ids, labels)
    _write_outputs(Path(cfg.out), report, cfg, meta)
    return 0


def _dump_data(cfg: RunConfig) -> int:
    if cfg.model in _VOTING_VARIANTS:  # before anything is built or written
        raise reportio.InputFormatError(
            f"--dump-data is not supported for {cfg.model}; "
            "voting data comes from --data or --synthetic"
        )
    # The data alone: building either model would import scipy.
    meta = reportio.meta_line(cfg.seed)
    if cfg.model == "presidents-nb2":
        from . import datasets

        rows = zip(datasets.presidents_ids(), datasets.presidents_days())
        lines = [meta, "id,days"] + [f"{i},{int(d)}" for i, d in rows]
    else:
        lines = [meta, "x"] + [repr(float(x)) for x in _toy_data(cfg)[0]]
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    target = outdir / "data.csv"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(target)
    return 0


def _cmd_report(cfg: RunConfig) -> int:
    # The summary's own lines, validated, worst WAPDI rank first; ties keep file order.
    rows = sorted(reportio._summary_rows(cfg.input), key=lambda row: row[0]["rank_wapdi"])
    source_meta = reportio.read_meta_line(cfg.input) or reportio.meta_line("unknown")
    lines = [",".join(reportio.SUMMARY_COLUMNS)] + [line for _, line in rows[: cfg.top_k]]
    text = "\n".join(lines)
    if cfg.out:  # before printing, so that a failed command prints nothing
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.csv").write_text(
            source_meta + "\n" + text + "\n", encoding="utf-8"
        )
    print(text)
    return 0


def _cmd_check_lemma(cfg: RunConfig) -> int:
    model, draws, matrix, _, meta = _fit_matrix(cfg)
    taylor_report = compare_exact_vs_taylor(model, draws, matrix)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = taylor_report.rows
    if cfg.top_k is not None:
        rows = rows[: cfg.top_k]
    lines = [reportio.meta_line(cfg.seed), "id,wapdi_exact,wapdi_taylor,abs_error,grad_norm"]
    for r in rows:
        grad_norm = float(np.sqrt(np.sum(r.gradient * r.gradient)))
        lines.append(
            f"{r.datapoint_id},{r.wapdi_exact!r},{r.wapdi_taylor!r},"
            f"{r.abs_error!r},{grad_norm!r}"
        )
    (outdir / "lemma.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    reportio.write_run_json(
        outdir / "run.json",
        {
            **_run_payload(cfg),
            "posterior_mean": taylor_report.posterior_mean.tolist(),
            "posterior_var": taylor_report.posterior_var.tolist(),
            **meta,
        },
    )
    return 0


_DISPATCH = {
    "compute": _cmd_compute,
    "fit": _cmd_fit,
    "report": _cmd_report,
    "check-lemma": _cmd_check_lemma,
}


def main(argv=None) -> int:
    cfg = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return _DISPATCH[cfg.command](cfg)
    except SamplerError as exc:
        print(f"pdikit: error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # InputFormatError is a ValueError
        print(f"pdikit: error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
