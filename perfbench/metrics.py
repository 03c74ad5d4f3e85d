"""Every metric the benchmark reports: unit, direction, and where it should move.

For an end-to-end metric ``what`` says what is measured; for a per-layer
metric it names the end-to-end metric a change to that layer should move.
``on`` names the workloads where it should move. Later issues cite metrics and
workloads by these names. BENCHMARK.json repeats name, unit and direction, plus the bound of
each end-to-end metric; a test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    what: str
    on: str


END_TO_END = (
    Metric("wall_s", "s", "lower", "one CLI invocation, spawn to exit", "every workload"),
    Metric("setup_s", "s", "lower", "fresh interpreter importing pdikit.cli", "every workload"),
    Metric("peak_rss_mb", "MB", "lower", "ru_maxrss of the CLI process", "compute-csv most"),
    Metric(
        "ess_per_s", "1/s", "higher",
        "bulk ESS of the per-draw total log-likelihood / wall_s",
        "fit-presidents, lemma-voting (compute-csv: S independent draws / wall_s)",
    ),
)

_W = "wall_s"
PER_LAYER = (
    Metric("reportio.read_loglik_csv_s", "s", "lower", f"{_W}, peak_rss_mb", "compute-csv"),
    Metric("reportio.read_mb_per_s", "MB/s", "higher", f"{_W}, peak_rss_mb", "compute-csv"),
    Metric("dispersion.LogLikMatrix_s", "s", "lower", _W, "compute-csv"),
    Metric("dispersion.summarize_s", "s", "lower", _W,
           "compute-csv, lemma-voting; no regression on fit-presidents"),
    Metric("dispersion.summarize_ns_per_cell", "ns", "lower", _W,
           "compute-csv, lemma-voting; no regression on fit-presidents"),
    Metric("dispersion.rank_report_s", "s", "lower", _W, "compute-csv"),
    Metric("dispersion.group_aggregate_s", "s", "lower", _W, "compute-csv"),
    Metric("dispersion.flagged_points", "count", "lower", _W, "compute-csv"),
    Metric("reportio.write_summary_csv_s", "s", "lower", _W, "compute-csv"),
    Metric("reportio.write_summary_ndjson_s", "s", "lower", _W, "compute-csv"),
    Metric("reportio.write_wapdi_svg_s", "s", "lower", _W, "compute-csv"),
    Metric("reportio.write_run_json_s", "s", "lower", _W, "compute-csv"),
    Metric("reportio.bytes_written", "bytes", "lower", _W, "compute-csv"),
    Metric("models.build_s", "s", "lower", f"{_W}, setup moved into build",
           "fit-presidents, lemma-voting"),
    Metric("models.log_joint_us", "us", "lower", f"{_W}, ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("models.pointwise_row_us", "us", "lower", f"{_W}, ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("samplers.adaptive_rw_metropolis_s", "s", "lower", f"{_W}, ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("samplers.sweep_us", "us", "lower", f"{_W}, ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("samplers.log_joint_calls", "count", "lower", f"{_W}, ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("samplers.target_s", "s", "lower", f"{_W}, ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("samplers.self_s", "s", "lower", f"{_W}, ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("samplers.acceptance_rate", "fraction", "higher", "ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("samplers.bulk_ess", "count", "higher", "ess_per_s",
           "fit-presidents, lemma-voting"),
    Metric("transforms.constrain_us", "us", "lower", f"samplers.self_s, {_W}",
           "fit-presidents"),
    Metric("samplers.loglik_matrix_s", "s", "lower", _W, "lemma-voting"),
    Metric("samplers.loglik_pointwise_row_calls", "count", "lower", _W, "lemma-voting"),
    Metric("taylor.compare_exact_vs_taylor_s", "s", "lower", _W, "lemma-voting"),
    Metric("taylor.pointwise_row_calls", "count", "lower", _W, "lemma-voting"),
    Metric("taylor.self_s", "s", "lower", _W, "lemma-voting"),
)


def layer_values(tr, facts: dict) -> dict[str, float]:
    """Per-layer metric values from a traced replay; 0 where a layer did no work."""
    read_s = tr.duration("reportio.read_loglik_csv")
    summarize_s = tr.duration("dispersion.summarize")
    sampler_s = tr.duration("samplers.adaptive_rw_metropolis")
    target_s = tr.call_s.get("samplers.log_joint", 0.0)
    sweeps = facts.get("sweeps", 0)
    compare = "taylor.compare_exact_vs_taylor"
    return {
        "reportio.read_loglik_csv_s": read_s,
        "reportio.read_mb_per_s": facts["csv_bytes"] / 1e6 / read_s if read_s else 0.0,
        "dispersion.LogLikMatrix_s": tr.duration("dispersion.LogLikMatrix"),
        "dispersion.summarize_s": summarize_s,
        "dispersion.summarize_ns_per_cell": summarize_s * 1e9 / facts["cells"],
        "dispersion.rank_report_s": tr.duration("dispersion.rank_report"),
        "dispersion.group_aggregate_s": tr.duration("dispersion.group_aggregate"),
        "dispersion.flagged_points": facts["flagged_points"],
        "reportio.write_summary_csv_s": tr.duration("reportio.write_summary_csv"),
        "reportio.write_summary_ndjson_s": tr.duration("reportio.write_summary_ndjson"),
        "reportio.write_wapdi_svg_s": tr.duration("reportio.write_wapdi_svg"),
        "reportio.write_run_json_s": tr.duration("reportio.write_run_json"),
        "reportio.bytes_written": facts["bytes_written"],
        "models.build_s": tr.duration("models.build"),
        "models.log_joint_us": facts.get("log_joint_us", 0.0),
        "models.pointwise_row_us": facts.get("pointwise_row_us", 0.0),
        "samplers.adaptive_rw_metropolis_s": sampler_s,
        "samplers.sweep_us": sampler_s * 1e6 / sweeps if sweeps else 0.0,
        "samplers.log_joint_calls": tr.calls.get("samplers.log_joint", 0),
        "samplers.target_s": target_s,
        "samplers.self_s": sampler_s - target_s,
        "samplers.acceptance_rate": facts.get("acceptance_rate", 0.0),
        "samplers.bulk_ess": facts.get("ess", 0.0),
        "transforms.constrain_us": facts.get("constrain_us", 0.0),
        "samplers.loglik_matrix_s": tr.duration("samplers.loglik_matrix"),
        "samplers.loglik_pointwise_row_calls": tr.calls.get(
            "samplers.loglik.pointwise_row", 0
        ),
        "taylor.compare_exact_vs_taylor_s": tr.duration(compare),
        "taylor.pointwise_row_calls": tr.calls.get("taylor.pointwise_row", 0),
        "taylor.self_s": tr.self_time(compare) - tr.call_s.get("taylor.pointwise_row", 0.0),
    }
