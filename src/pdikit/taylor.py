"""First-order Taylor approximation of WAPDI and exact-vs-approximate tables.

The approximation evaluates the squared gradient of each pointwise
log-likelihood at the posterior mean, weights it by the posterior variance
coordinate-wise (posterior covariances are ignored; this is a diagonal
first-order reading), and divides by the log posterior predictive. Datapoints
whose likelihood changes fastest at the posterior mean get the largest
magnitude, which is exactly what the exact index responds to.

Gradients come from central finite differences so models only need to expose
likelihood evaluations; the D points stepped up and the D stepped down go to
the model as two batches. The estimate of every datapoint is one array
expression over the N x D Jacobian; ``compare_exact_vs_taylor`` is the one
public way to get it, for every datapoint of a model at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import NEAR_SINGULAR_EPS, LogLikMatrix, summarize
from .samplers import ModelSpec, PosteriorDraws, _checked_batch

__all__ = [
    "TaylorRow",
    "TaylorReport",
    "pointwise_gradient",
    "compare_exact_vs_taylor",
]

_FD_STEP = float(np.cbrt(np.finfo(np.float64).eps))


@dataclass(frozen=True, eq=False)
class TaylorRow:
    datapoint_id: str
    wapdi_exact: float
    wapdi_taylor: float
    abs_error: float
    gradient: np.ndarray


@dataclass(frozen=True, eq=False)
class TaylorReport:
    rows: tuple[TaylorRow, ...]  # sorted by abs_error, largest first
    posterior_mean: np.ndarray
    posterior_var: np.ndarray


def _jacobian(model: ModelSpec, theta) -> np.ndarray:
    """N x D central finite-difference Jacobian of the pointwise log-likelihoods.

    Step per coordinate: cbrt(machine eps) * max(1, |theta_d|). The D points
    stepped up go to ``pointwise_row`` as one batch, the D stepped down as
    another.
    """
    theta = np.asarray(theta, dtype=np.float64)
    dim = theta.size
    h = _FD_STEP * np.maximum(1.0, np.abs(theta))
    up = np.repeat(theta[None, :], dim, axis=0)
    down = up.copy()
    diag = np.arange(dim)
    up[diag, diag] += h
    down[diag, diag] -= h
    shape = (dim, model.data_count)
    up_rows, down_rows = (
        _checked_batch("pointwise_row", model.pointwise_row(p), shape) for p in (up, down)
    )
    return np.ascontiguousarray(((up_rows - down_rows) / (2.0 * h)[:, None]).T)


def pointwise_gradient(model: ModelSpec, n: int, theta) -> np.ndarray:
    """Central finite-difference gradient of log p(x_n | theta).

    Step per coordinate: cbrt(machine eps) * max(1, |theta_d|).
    """
    if not 0 <= n < model.data_count:
        raise IndexError(f"datapoint index {n} out of range")
    return _jacobian(model, theta)[n].copy()


def _taylor(jac, posterior_var, log_mu) -> np.ndarray:
    """First-order WAPDI of every row of a Jacobian: sum_d g_d^2 v_d / log mu.

    Exactly 0 where a gradient vanishes; NaN where a row of the gradient is
    not finite or |log mu| < NEAR_SINGULAR_EPS. One row gives a 0-d array.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = np.sum(jac * jac * posterior_var, axis=-1) / log_mu
        singular = (np.abs(log_mu) < NEAR_SINGULAR_EPS) | ~np.isfinite(jac).all(axis=-1)
        return np.where(singular, np.nan, value)


def compare_exact_vs_taylor(
    model: ModelSpec,
    draws: PosteriorDraws,
    matrix: LogLikMatrix,
) -> TaylorReport:
    """Pair the exact WAPDI of every datapoint with its Taylor estimate.

    The matrix must hold pointwise log-likelihoods of this model at these
    draws. Flagged (NaN) entries are carried through. Rows come back with
    the largest absolute error first, ties in matrix order, and NaN errors
    last in matrix order.
    """
    if matrix.point_count != model.data_count:
        raise ValueError(
            f"matrix has {matrix.point_count} columns, model scores "
            f"{model.data_count} datapoints"
        )
    summaries = summarize(matrix)
    jac = _jacobian(model, draws.posterior_mean)
    exact = summaries["wapdi"]
    approx = _taylor(jac, draws.posterior_var, summaries["log_mu"])
    with np.errstate(invalid="ignore"):
        error = np.abs(exact - approx)
    # The sort is stable and puts NaN last, so ties and NaN errors keep matrix order.
    order = np.argsort(-error, kind="stable")
    ids = matrix.datapoint_ids
    columns = (order.tolist(), exact[order].tolist(), approx[order].tolist(), error[order].tolist())
    return TaylorReport(
        rows=tuple(TaylorRow(ids[i], e, a, d, jac[i].copy()) for i, e, a, d in zip(*columns)),
        posterior_mean=draws.posterior_mean,
        posterior_var=draws.posterior_var,
    )
