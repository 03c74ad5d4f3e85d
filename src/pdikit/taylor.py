"""First-order Taylor approximation of WAPDI and exact-vs-approximate tables.

The approximation evaluates the squared gradient of each pointwise
log-likelihood at the posterior mean, weights it by the posterior variance
coordinate-wise (posterior covariances are ignored; this is a diagonal
first-order reading), and divides by the log posterior predictive. Datapoints
whose likelihood changes fastest at the posterior mean get the largest
magnitude, which is exactly what the exact index responds to.

Gradients come from central finite differences so models only need to expose
likelihood evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import NEAR_SINGULAR_EPS, LogLikMatrix, summarize
from .samplers import ModelSpec, PosteriorDraws

__all__ = [
    "TaylorRow",
    "TaylorReport",
    "pointwise_gradient",
    "wapdi_taylor",
    "compare_exact_vs_taylor",
]

_FD_STEP = float(np.cbrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class TaylorRow:
    datapoint_id: str
    wapdi_exact: float
    wapdi_taylor: float
    abs_error: float
    gradient: np.ndarray


@dataclass(frozen=True)
class TaylorReport:
    rows: tuple[TaylorRow, ...]  # sorted by abs_error, largest first
    posterior_mean: np.ndarray
    posterior_var: np.ndarray


def _jacobian(model: ModelSpec, theta) -> np.ndarray:
    """N x D central finite-difference Jacobian of the pointwise log-likelihoods.

    Step per coordinate: cbrt(machine eps) * max(1, |theta_d|). Two
    ``pointwise_row`` calls per coordinate give the whole column.
    """
    theta = np.asarray(theta, dtype=np.float64)
    jac = np.empty((model.data_count, theta.size))
    for d in range(theta.size):
        h = _FD_STEP * max(1.0, abs(theta[d]))
        up = theta.copy()
        dn = theta.copy()
        up[d] += h
        dn[d] -= h
        jac[:, d] = (model.pointwise_row(up) - model.pointwise_row(dn)) / (2.0 * h)
    return jac


def pointwise_gradient(model: ModelSpec, n: int, theta) -> np.ndarray:
    """Central finite-difference gradient of log p(x_n | theta).

    Step per coordinate: cbrt(machine eps) * max(1, |theta_d|).
    """
    if not 0 <= n < model.data_count:
        raise IndexError(f"datapoint index {n} out of range")
    return _jacobian(model, theta)[n].copy()


def wapdi_taylor(
    model: ModelSpec,
    n: int,
    posterior_mean,
    posterior_var,
    log_mu_n: float,
    *,
    eps: float = NEAR_SINGULAR_EPS,
) -> float:
    """First-order WAPDI estimate: sum_d g_d^2 v_d / log mu(n).

    Exactly 0 when the gradient vanishes; NaN when the gradient is non-finite
    or |log mu(n)| < eps.
    """
    g = pointwise_gradient(model, n, posterior_mean)
    return _taylor_from_gradient(g, posterior_var, log_mu_n, eps)


def _taylor_from_gradient(g, posterior_var, log_mu_n, eps):
    if abs(log_mu_n) < eps or not np.all(np.isfinite(g)):
        return float("nan")
    v = np.asarray(posterior_var, dtype=np.float64)
    return float(np.sum(g * g * v)) / log_mu_n


def compare_exact_vs_taylor(
    model: ModelSpec,
    draws: PosteriorDraws,
    matrix: LogLikMatrix,
    *,
    eps: float = NEAR_SINGULAR_EPS,
) -> TaylorReport:
    """Pair the exact WAPDI of every datapoint with its Taylor estimate.

    The matrix must hold pointwise log-likelihoods of this model at these
    draws. Flagged (NaN) entries are carried through, and rows come back
    sorted by absolute error, worst approximation first.
    """
    if matrix.point_count != model.data_count:
        raise ValueError(
            f"matrix has {matrix.point_count} columns, model scores "
            f"{model.data_count} datapoints"
        )
    summaries = summarize(matrix, eps=eps)
    jac = _jacobian(model, draws.posterior_mean)
    rows = []
    for n, summary in enumerate(summaries):
        g = jac[n].copy()
        approx = _taylor_from_gradient(g, draws.posterior_var, summary.log_mu, eps)
        exact = summary.wapdi
        rows.append(
            TaylorRow(
                datapoint_id=matrix.datapoint_ids[n],
                wapdi_exact=exact,
                wapdi_taylor=approx,
                abs_error=abs(exact - approx),
                gradient=g,
            )
        )
    # NaN errors sort last; ties keep matrix order via the index key.
    order = sorted(
        range(len(rows)),
        key=lambda i: (
            not np.isnan(rows[i].abs_error),
            0.0 if np.isnan(rows[i].abs_error) else rows[i].abs_error,
        ),
        reverse=True,
    )
    return TaylorReport(
        rows=tuple(rows[i] for i in order),
        posterior_mean=draws.posterior_mean,
        posterior_var=draws.posterior_var,
    )
