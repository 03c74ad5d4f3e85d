#!/usr/bin/env python3
"""Fit the NB2 mixture to the presidents data and print the mismatch report.

Writes summary.csv, run.json and wapdi.svg under results/presidents/.
"""

import argparse
from pathlib import Path

import pdikit as pk
from pdikit import datasets, models
from pdikit.reportio import write_run_json, write_summary_csv, write_wapdi_svg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--warmup", type=int, default=5000)
    ap.add_argument("--draws", type=int, default=1000)
    ap.add_argument("--out", default="results/presidents")
    args = ap.parse_args()

    days = datasets.presidents_days()
    ids = datasets.presidents_ids()
    model = models.nb2_mixture_model(days, ids)
    cfg = pk.SamplerConfig(
        warmup_steps=args.warmup, kept_draws=args.draws, seed=args.seed
    )
    raw = pk.adaptive_rw_metropolis(model, cfg)
    draws = pk.posterior_draws_from(
        models.relabel_by_dispersion(raw.draws), raw.acceptance_rate, raw.seed
    )
    mu = draws.posterior_mean[3:6]
    phi = draws.posterior_mean[6:9]
    print(f"acceptance rate: {draws.acceptance_rate:.3f}")
    print("components (sorted by implied variance):")
    for k in range(3):
        print(f"  mu={mu[k]:8.1f}  phi={phi[k]:8.2f}")

    matrix = pk.loglik_matrix(model, draws)
    report = pk.rank_report(pk.summarize(matrix), ids)
    print(f"\nWAIC: {report.waic:.4f}")
    print("\nworst 10 by WAPDI:")
    print(f"  {'president':<16} {'days':>5} {'wapdi':>9} {'log_mu':>9}")
    by_id = dict(zip(ids, days))
    wapdi, log_mu = report.columns["wapdi"], report.columns["log_mu"]
    for k, datapoint_id in enumerate(report.ids[:10]):
        print(
            f"  {datapoint_id:<16} {int(by_id[datapoint_id]):>5} "
            f"{wapdi[k]:>9.4f} {log_mu[k]:>9.3f}"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out / "summary.csv", report, args.seed)
    write_wapdi_svg(out / "wapdi.svg", report, args.seed)
    write_run_json(
        out / "run.json",
        {
            "command": "scripts/presidents_case_study.py",
            "seed": args.seed,
            "waic": report.waic,
            "posterior_mean_mu": mu.tolist(),
            "posterior_mean_phi": phi.tolist(),
            "acceptance_rate": draws.acceptance_rate,
        },
    )
    print(f"\nwrote {out}/summary.csv, wapdi.svg, run.json")


if __name__ == "__main__":
    main()
