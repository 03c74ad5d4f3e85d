#!/usr/bin/env python3
"""Two datapoints with equal predictive accuracy, very different dispersion.

Simulates the gamma toy dataset, finds the below-mode point whose posterior
predictive density matches the outlier at x=15, and shows that their WAPDI
values differ by several-fold even though log p(x | data) is identical.
"""

import argparse

import numpy as np
from scipy.optimize import brentq, minimize_scalar

import pdikit as pk
from pdikit import models


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument("--draws", type=int, default=20000)
    ap.add_argument("--x-high", type=float, default=15.0)
    args = ap.parse_args()

    data = models.simulate_toy_data(10, seed=args.seed)
    print(f"data (n=10, mean {data.mean():.2f}):", np.round(data, 2))

    predictive = lambda x: models.toy_posterior_predictive_logpdf(x, data)
    mode = minimize_scalar(lambda x: -predictive(x), bounds=(0.1, 12), method="bounded").x
    target = predictive(args.x_high)
    x_low = brentq(lambda x: predictive(x) - target, 1e-9, mode, xtol=1e-12)

    draws = models.toy_posterior_draws(data, args.draws, seed=args.seed)
    pair = models.gamma_toy_model(data, eval_points=[x_low, args.x_high])
    w_low, w_high = pk.summarize(pk.loglik_matrix(pair, draws))["wapdi"].tolist()

    print(f"\npredictive mode at x = {mode:.3f}")
    print(f"log p(x={x_low:.3f} | data) = {predictive(x_low):.6f}")
    print(f"log p(x={args.x_high:.3f} | data) = {target:.6f}")
    print(f"\nwapdi(x={x_low:.3f})  = {w_low:.4f}")
    print(f"wapdi(x={args.x_high:.3f}) = {w_high:.4f}")
    print(f"ratio = {w_high / w_low:.2f}x  (same accuracy, different sensitivity)")


if __name__ == "__main__":
    main()
