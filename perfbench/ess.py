"""Rank-normalised bulk effective sample size (Vehtari et al. 2021).

Bayesian Analysis 16(2), "Rank-normalization, folding, and localization: an
improved R-hat for assessing convergence of MCMC". A single chain is split in
half, the pooled draws are replaced by normal scores of their ranks, and the
ESS of the resulting two chains comes from Geyer's initial monotone sequence
of the combined autocorrelation estimate.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of ``x`` at every lag, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spectrum * spectrum.conjugate(), n=size, axis=1)[:, :n] / n


def ess(chains: np.ndarray) -> float:
    """ESS of an (M, n) array of M chains, without rank normalisation."""
    chains = np.asarray(chains, dtype=np.float64)
    m, n = chains.shape
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    if np.ptp(chains) == 0.0:
        return float(m * n)
    acov = _autocovariance(chains)
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: sum pairs (rho[2k] + rho[2k+1]) while positive, made monotone.
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    positive = np.flatnonzero(pairs <= 0.0)
    k = positive[0] if positive.size else pairs.size
    pairs = np.minimum.accumulate(pairs[:k])
    tau = -1.0 + 2.0 * pairs.sum()
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def bulk_ess(chain) -> float:
    """Rank-normalised split-chain bulk ESS of one chain of draws."""
    x = np.asarray(chain, dtype=np.float64).ravel()
    half = x.size // 2
    split = np.stack([x[:half], x[x.size - half :]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return ess(z)
