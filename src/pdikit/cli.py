"""Command-line front end.

Four commands: ``compute`` ingests an external log-likelihood matrix,
``fit`` samples a built-in model and scores its data, ``report`` truncates an
existing summary to the worst datapoints, and ``check-lemma`` compares exact
WAPDI against its first-order Taylor approximation.

Exit codes: 0 success, 2 usage, 3 malformed input, 4 numerical failure.
Every failure prints one line starting with ``pdikit: error:``.
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
    conjugate_gamma_draws,
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
    p.add_argument("--top-k", type=_positive_int, default=None, help="truncate ranked outputs")


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
    p.add_argument("--data", default=None, help="input dataset CSV (model-specific)")
    p.add_argument(
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
    p.add_argument("--top-k", type=_positive_int, default=10)
    p.add_argument("--out", default=None, help="also write report.csv here")

    p = sub.add_parser("check-lemma", help="exact vs Taylor-approximate WAPDI")
    _add_model_args(p)
    _add_sampler_args(p)
    _add_output_args(p, formats=False)
    return parser


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    kwargs = {k.replace("-", "_"): v for k, v in vars(ns).items()}
    if "formats" in kwargs and kwargs["formats"] is not None:
        formats = tuple(f.strip() for f in kwargs["formats"].split(",") if f.strip())
        bad = [f for f in formats if f not in FORMATS]
        if bad:
            parser.error(
                f"argument --formats: unknown format {bad[0]!r} "
                f"(choose from {', '.join(FORMATS)})"
            )
        kwargs["formats"] = formats
    known = RunConfig.__dataclass_fields__.keys()
    cfg = RunConfig(**{k: v for k, v in kwargs.items() if k in known})
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
    return cfg


@dataclass(frozen=True)
class _BuiltModel:
    model: object
    labels: dict[str, str] | None
    meta: dict
    dataset: np.ndarray | None  # raw observations, when the model has one column


def _build_model(cfg: RunConfig) -> _BuiltModel:
    # The models need scipy; compute and report never import them.
    from . import datasets, models

    if cfg.model == "presidents-nb2":
        days = datasets.presidents_days()
        model = models.nb2_mixture_model(days, datasets.presidents_ids())
        meta = {"data": "embedded presidents table", "n": int(days.size)}
        return _BuiltModel(model, None, meta, days)
    if cfg.model == "toy-gamma":
        if cfg.data:
            data = reportio.read_values_csv(cfg.data)
            if np.any(data <= 0):
                raise reportio.InputFormatError(f"{cfg.data}: values must be > 0")
            source = cfg.data
        else:
            n = 10 if cfg.synthetic is None else cfg.synthetic
            data = models.simulate_toy_data(n, rate=1.0, seed=cfg.seed)
            source = f"synthetic gamma draws (n={n})"
        model = models.gamma_toy_model(data)
        return _BuiltModel(model, None, {"data": source, "n": int(data.size)}, data)
    variant = _VOTING_VARIANTS[cfg.model]
    if cfg.data:
        table = reportio.read_votes_csv(cfg.data)
        column = cfg.model.removeprefix("voting-")
        if variant != "base" and table.extra_name != column:
            raise reportio.InputFormatError(
                f"{cfg.data}: model {cfg.model} needs the age/edu column {column!r}, "
                f"found {table.extra_name or 'neither'}"
            )
        source = cfg.data
    else:
        n = 2000 if cfg.synthetic is None else cfg.synthetic
        table, _ = models.simulate_votes(n, seed=cfg.seed, variant=variant)
        source = f"synthetic survey (n={n})"
    model = models.hier_logreg_model(table, variant)
    labels = None
    if cfg.group_by:
        codes, column = (
            (table.state_codes, table.state)
            if cfg.group_by == "state"
            else (table.extra_codes, table.extra)
        )
        labels = dict(zip(model.datapoint_ids, (codes[i] for i in column)))
    meta = {"data": source, "n": table.n, "variant": variant}
    return _BuiltModel(model, labels, meta, None)


def _fit_matrix(cfg: RunConfig):
    """Build, sample and score a built-in model: (built, draws, matrix, meta).

    The conjugate toy is sampled exactly, every other model by Metropolis.
    Prints the sampler's warnings; ``meta`` holds the ``run.json`` fields
    that ``fit`` and ``check-lemma`` share.
    """
    from . import models

    built = _build_model(cfg)
    if cfg.model == "toy-gamma":
        sampler_name = "conjugate-exact"
        draws = conjugate_gamma_draws(
            built.dataset,
            models.TOY_PRIOR_SHAPE,
            models.TOY_PRIOR_RATE,
            models.TOY_LIK_SHAPE,
            cfg.draws,
            cfg.seed,
        )
    else:
        sampler_name = "adaptive-rw-metropolis"
        draws = adaptive_rw_metropolis(built.model, cfg.sampler_config())
    if cfg.model == "presidents-nb2":
        relabeled = models.relabel_by_dispersion(draws.draws)
        draws = posterior_draws_from(
            relabeled, draws.acceptance_rate, draws.seed, draws.warnings
        )
    matrix = loglik_matrix(built.model, draws)
    for w in draws.warnings:
        print(f"pdikit: warning: {w}", file=sys.stderr)
    meta = {
        **built.meta,
        "model": cfg.model,
        "sampler": sampler_name,
        "acceptance_rate": draws.acceptance_rate,
        "sampler_warnings": list(draws.warnings),
    }
    return built, draws, matrix, meta


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
    group_means = group_aggregate(report) if report.group_labels else None
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
    matrix = reportio.read_loglik_csv(cfg.input, allow_degenerate=cfg.allow_degenerate)
    labels = reportio.read_group_labels_csv(cfg.groups) if cfg.groups else None
    ids = matrix.datapoint_ids
    meta = {"input": str(cfg.input), "draws": matrix.draw_count, "n": matrix.point_count}
    summaries = summarize(matrix)
    del matrix  # ranking and the writers run without the S x N array
    _write_outputs(Path(cfg.out), rank_report(summaries, ids, labels), cfg, meta)
    return 0


def _cmd_fit(cfg: RunConfig) -> int:
    if cfg.dump_data:
        return _dump_data(cfg, _build_model(cfg))
    built, _, matrix, meta = _fit_matrix(cfg)
    report = rank_report(summarize(matrix), matrix.datapoint_ids, built.labels)
    _write_outputs(Path(cfg.out), report, cfg, meta)
    return 0


def _dump_data(cfg: RunConfig, built: _BuiltModel) -> int:
    from . import datasets

    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    target = outdir / "data.csv"
    meta = reportio.meta_line(cfg.seed)
    if cfg.model == "presidents-nb2":
        lines = [meta, "id,days"] + [
            f"{i},{int(d)}"
            for i, d in zip(datasets.presidents_ids(), datasets.presidents_days())
        ]
    elif cfg.model == "toy-gamma":
        lines = [meta, "x"] + [repr(float(x)) for x in built.dataset]
    else:
        raise reportio.InputFormatError(
            f"--dump-data is not supported for {cfg.model}; "
            "voting data comes from --data or --synthetic"
        )
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(target)
    return 0


def _cmd_report(cfg: RunConfig) -> int:
    records = reportio.read_summary_csv(cfg.input)
    records.sort(key=lambda r: r["rank_wapdi"])
    top = records[: cfg.top_k]
    source_meta = reportio.read_meta_line(cfg.input) or reportio.meta_line("unknown")
    lines = [",".join(reportio.SUMMARY_COLUMNS)]
    lines += [reportio.format_summary_row(r) for r in top]
    text = "\n".join(lines)
    print(text)
    if cfg.out:
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.csv").write_text(
            source_meta + "\n" + text + "\n", encoding="utf-8"
        )
    return 0


def _cmd_check_lemma(cfg: RunConfig) -> int:
    built, draws, matrix, meta = _fit_matrix(cfg)
    taylor_report = compare_exact_vs_taylor(built.model, draws, matrix)
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


def run_pipeline(cfg: RunConfig) -> int:
    """Execute a parsed command; exceptions are mapped to exit codes in main."""
    return _DISPATCH[cfg.command](cfg)


def main(argv=None) -> int:
    cfg = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return run_pipeline(cfg)
    except reportio.InputFormatError as exc:
        print(f"pdikit: error: {exc}", file=sys.stderr)
        return 3
    except SamplerError as exc:
        print(f"pdikit: error: numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"pdikit: error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
