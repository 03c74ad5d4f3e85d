"""Desk-scale posterior sampling: adaptive random-walk Metropolis, and the
S x N log-likelihood matrix of a model's draws (``loglik_matrix``). The gamma
toy's exact conjugate draws live with the toy, in ``models``.

The Metropolis chain walks in unconstrained space, so the target is
log_joint(constrain(z)) + log|J(z)|. Updates are component-wise: every
iteration sweeps the coordinates in a freshly shuffled order, applying a
scalar random-walk proposal to each. Each coordinate owns its own step size,
adapted by Robbins-Monro toward the target acceptance rate during warmup
only and frozen afterwards, which keeps the kept draws a valid Markov chain
while letting parameters on wildly different scales mix at their own pace.

Each sweep is prefetched (Brockwell 2006, "Parallel Markov chain Monte Carlo
simulation by pre-fetching"). A sweep's random numbers do not depend on the
outcomes: its permutation, then a normal and a uniform per coordinate, and
every step size stays as it was at the start of the sweep, because each
coordinate is visited once. So after any acceptance, the proposals for all
the coordinates still to come start from the same state. They are built at
once and scored in one batched target call, then walked in sweep order; the
first acceptance moves the state, and the rest of the sweep is rebuilt from
it. The chain is the one-proposal-at-a-time chain bit for bit, for one
target call per acceptance instead of one per coordinate.

Models and transforms take one theta or a batch: see ``ModelSpec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dispersion import LogLikMatrix
from .transforms import BlockTransform

__all__ = [
    "SamplerError",
    "SamplerConfig",
    "ModelSpec",
    "PosteriorDraws",
    "posterior_draws_from",
    "adaptive_rw_metropolis",
    "loglik_matrix",
]


class SamplerError(RuntimeError):
    """A NaN or +inf target, a non-finite log-likelihood entry, or a failed precondition."""


# Matrix entries per batched ``pointwise_row`` call in ``loglik_matrix``. A
# model's temporaries can be several times its batch (the NB2 mixture keeps
# K = 3 components per entry), so 2^12 entries keeps them under about 1 MB.
LOGLIK_BLOCK_CELLS = 2**12


@dataclass(frozen=True)
class SamplerConfig:
    warmup_steps: int = 1000
    kept_draws: int = 1000
    thinning: int = 1
    initial_step_size: float = 0.5
    adaptation_target_acceptance: float = 0.234
    seed: int = 0

    def __post_init__(self):
        if self.kept_draws < 2:
            raise ValueError("kept_draws must be >= 2")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if not 0.0 < self.initial_step_size < math.inf:  # NaN fails too
            raise ValueError("initial_step_size must be finite and > 0")
        if not 0.0 < self.adaptation_target_acceptance < 1.0:
            raise ValueError("adaptation_target_acceptance must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model as the sampler and estimators see it.

    ``log_joint``, ``log_prior`` and ``pointwise_row`` take constrained
    parameter vectors along the last axis, (..., P), and return (...), (...)
    and (..., N): one log density, one log prior and one row of N pointwise
    log-likelihoods per theta, where ``...`` is () or (R,) and N is
    ``data_count``, the number of ``datapoint_ids``. One (P,) theta
    gives a float (``np.float64``) or a length-N row; an (R, P) batch gives
    (R,) or (R, N), and each of its rows must be bitwise equal to the same
    theta evaluated alone, whatever else is in the batch: the sampler scores
    proposals in batches and its chain must not depend on their size. The
    built-in models write each function once over the last axis, with no
    branch on the rank. ``log_joint`` must equal log_prior + sum(pointwise_row)
    up to arithmetic noise -- tests assert this factorization on every
    built-in model. ``prior_mean`` (constrained space) seeds the chain after
    mapping to unconstrained space.

    ``cells`` labels each datapoint with its likelihood cell: a promise that
    datapoints with equal labels have bitwise-equal ``pointwise_row``
    entries at every theta, so ``loglik_matrix`` keeps one column per cell.
    ``None`` makes each datapoint its own cell.
    """

    name: str
    transform: BlockTransform
    log_prior: Callable[[np.ndarray], float | np.ndarray]
    log_joint: Callable[[np.ndarray], float | np.ndarray]
    pointwise_row: Callable[[np.ndarray], np.ndarray]
    datapoint_ids: tuple[str, ...]
    prior_mean: np.ndarray
    cells: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.transform.unconstrained_dim

    @property
    def data_count(self) -> int:
        return len(self.datapoint_ids)


@dataclass(frozen=True, eq=False)
class PosteriorDraws:
    """S constrained draws plus their first two sample moments."""

    draws: np.ndarray
    posterior_mean: np.ndarray
    posterior_var: np.ndarray
    acceptance_rate: float
    seed: int
    warnings: tuple[str, ...] = ()


def _checked_batch(name: str, out, shape: tuple):
    """``out``, the result of a ModelSpec function on a batch, if it has ``shape``.

    A function written for one theta can return a scalar or a single row for
    a batch, which numpy would broadcast over every row without a word.
    """
    if np.shape(out) != shape:
        raise ValueError(
            f"{name} returned shape {np.shape(out)} for a batch that needs {shape}; "
            "ModelSpec functions take an (R, P) batch of thetas"
        )
    return out


def posterior_draws_from(
    draws, acceptance_rate: float, seed: int, warnings: tuple[str, ...] = ()
) -> PosteriorDraws:
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[0] < 2:
        raise ValueError("draws must be a 2-D array with at least 2 rows")
    # Variance on draws shifted by the first row: translation-invariant in
    # exact arithmetic and exactly zero for constant chains.
    return PosteriorDraws(
        draws=draws,
        posterior_mean=draws.mean(axis=0),
        posterior_var=np.var(draws - draws[0], axis=0, ddof=1),
        acceptance_rate=float(acceptance_rate),
        seed=int(seed),
        warnings=tuple(warnings),
    )


def adaptive_rw_metropolis(model: ModelSpec, config: SamplerConfig) -> PosteriorDraws:
    """Run one adaptive component-wise random-walk Metropolis chain.

    One iteration updates every coordinate once, in a freshly shuffled order;
    warmup iterations also nudge the per-coordinate log step sizes toward the
    target acceptance rate on a diminishing t^-0.6 schedule. Warmup and
    sampling are one prefetched sweep (see the module docstring) with one
    accept test; only the adaptation, the acceptance count and the stored
    draws depend on which phase an iteration is in. Deterministic: identical
    (model, config) pairs reproduce the draw matrix bit for bit.

    Raises ``SamplerError`` if the chain cannot start (non-finite target at
    the prior-mean initial point) or if a proposal it walks to has a NaN or
    +inf target, a value no Metropolis step could ever leave. Rows of a batch
    past its first acceptance are never walked to and cannot stop the chain:
    a batch call that raises or hits a floating-point error is scored again
    one proposal at a time for the rest of its sweep, so a walked proposal
    raises or warns exactly as it would alone.
    """
    rng = np.random.default_rng(config.seed)
    tf = model.transform
    dim = tf.unconstrained_dim

    def target(zs: np.ndarray) -> list[float]:
        """The log target at each row of an (R, dim) batch of unconstrained points."""
        lp = _checked_batch("log_joint", model.log_joint(tf.constrain(zs)), (len(zs),))
        return (lp + tf.log_jacobian(zs)).tolist()

    def checked(z: np.ndarray, lp: float) -> float:
        if math.isnan(lp) or lp == math.inf:
            raise SamplerError(
                f"log joint is {'NaN' if math.isnan(lp) else '+inf'} at "
                f"unconstrained point {z.tolist()} "
                f"(constrained {tf.constrain(z).tolist()})"
            )
        return lp

    z = tf.unconstrain(np.asarray(model.prior_mean, dtype=np.float64))
    lp = checked(z, target(z[None, :])[0])
    if not math.isfinite(lp):
        raise SamplerError(
            f"model {model.name!r}: log joint not finite at the prior-mean "
            f"initial point (value {lp})"
        )

    warmup, thin = config.warmup_steps, config.thinning
    log_step = np.full(dim, np.log(config.initial_step_size))
    accept_target = config.adaptation_target_acceptance
    draws = np.empty((config.kept_draws, tf.constrained_dim))
    accepted = 0
    for t in range(warmup + config.kept_draws * thin):
        # The permutation, then each coordinate's normal and uniform, in the
        # order a one-proposal-at-a-time sweep draws them.
        order = rng.permutation(dim)
        normal, uniform = np.array([(rng.standard_normal(), rng.random()) for _ in order]).T
        jump = np.exp(log_step[order]) * normal
        i, batched = 0, True
        while i < dim:
            # Coordinates order[i:], each proposed from the current state.
            rows = dim - i if batched else 1
            proposals = np.repeat(z[None, :], rows, axis=0)
            proposals[np.arange(rows), order[i : i + rows]] += jump[i : i + rows]
            if rows > 1:
                try:
                    with np.errstate(divide="raise", over="raise", invalid="raise"):
                        lp_props = target(proposals)
                except Exception:
                    # Maybe a row past the first acceptance, which must not
                    # stop the chain: score the rest of the sweep one by one.
                    batched = False
                    continue
            else:
                lp_props = target(proposals)
            for proposal, lp_prop in zip(proposals, lp_props):
                d = order[i]
                alpha = min(1.0, np.exp(min(0.0, checked(proposal, lp_prop) - lp)))
                accept = uniform[i] < alpha
                i += 1
                if t < warmup:
                    log_step[d] += (alpha - accept_target) * (t + 1) ** -0.6
                if accept:
                    z, lp = proposal, lp_prop
                    accepted += t >= warmup
                    break
        if t >= warmup and (t - warmup + 1) % thin == 0:
            draws[(t - warmup) // thin] = tf.constrain(z)

    rate = accepted / (config.kept_draws * thin * dim)
    warnings: tuple[str, ...] = ()
    if rate < 0.01:
        warnings = (
            f"post-warmup acceptance rate {rate:.4f} < 0.01; "
            "draws are likely unusable",
        )
    return posterior_draws_from(draws, rate, config.seed, warnings)


def loglik_matrix(model: ModelSpec, draws: PosteriorDraws) -> LogLikMatrix:
    """Evaluate the pointwise log-likelihood at every draw: entry (s, n).

    Draws go to ``pointwise_row`` in batches of about ``LOGLIK_BLOCK_CELLS``
    entries. Only one column per model cell is kept (see ``ModelSpec``), so
    a model with C cells never allocates S x N: the matrix adopts the S x C
    array filled here, without a copy, and builds ``values`` from it on
    access. A NaN or infinite entry raises ``SamplerError`` naming its first
    draw and datapoint.
    """
    n = model.data_count
    first = column_of = None
    if model.cells is not None:
        cells = np.asarray(model.cells)
        if cells.shape != (n,):
            raise ValueError(f"cells has shape {cells.shape} for {n} datapoints")
        _, first, column_of = np.unique(cells, return_index=True, return_inverse=True)
    values = np.empty((draws.draws.shape[0], n if first is None else first.size))
    step = max(1, LOGLIK_BLOCK_CELLS // n)
    for start in range(0, values.shape[0], step):
        thetas = draws.draws[start : start + step]
        rows = _checked_batch("pointwise_row", model.pointwise_row(thetas), (len(thetas), n))
        values[start : start + step] = rows if first is None else rows[:, first]
    try:
        return LogLikMatrix._adopt(values, model.datapoint_ids, column_of=column_of)
    except ValueError as exc:
        raise SamplerError(str(exc)) from None
