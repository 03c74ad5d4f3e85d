#!/usr/bin/env python3
"""Model-expansion workflow on synthetic survey data.

Fits the base hierarchical logistic regression, then the age variant, on
data generated with an age trend. Per-state average WAPDI shows whether the
expansion explains the states the base model struggles with.
"""

import argparse


import pdikit as pk
from pdikit import models


def state_wapdi(model, table, draws):
    matrix = pk.loglik_matrix(model, draws)
    codes, index = table.groups["state"]
    labels = dict(zip(model.datapoint_ids, (codes[i] for i in index)))
    report = pk.rank_report(pk.summarize(matrix), model.datapoint_ids, labels)
    return pk.group_aggregate(report), report.waic


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--warmup", type=int, default=1500)
    ap.add_argument("--draws", type=int, default=1000)
    args = ap.parse_args()

    # One dataset with a real age effect; both models see the same rows, and
    # the base model ignores the age column.
    table, truth = models.simulate_votes(args.n, seed=args.seed, variant="with_age")
    print(f"synthetic survey: n={args.n}, truth beta_female={truth['beta_female']}, "
          f"beta_black={truth['beta_black']}, age levels={truth['alpha_age']}")

    results = {}
    for variant in ("base", "with_age"):
        model = models.hier_logreg_model(table, variant)
        draws = pk.adaptive_rw_metropolis(
            model,
            pk.SamplerConfig(
                warmup_steps=args.warmup, kept_draws=args.draws, seed=args.seed
            ),
        )
        groups, waic = state_wapdi(model, table, draws)
        results[variant] = groups
        print(f"\n{variant}: acceptance={draws.acceptance_rate:.3f} waic={waic:.4f}")
        print(f"  beta_female={draws.posterior_mean[0]:+.3f} "
              f"beta_black={draws.posterior_mean[1]:+.3f}")

    print(f"\n{'state':<8}{'base wapdi':>12}{'with_age':>12}{'change':>9}")
    for code in sorted(results["base"]):
        b = results["base"][code].mean_wapdi
        a = results["with_age"][code].mean_wapdi
        print(f"{code:<8}{b:>12.4f}{a:>12.4f}{a - b:>+9.4f}")


if __name__ == "__main__":
    main()
