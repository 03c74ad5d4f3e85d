"""Desk-scale posterior sampling: adaptive random-walk Metropolis plus exact
conjugate sampling for the gamma-gamma model.

The Metropolis chain walks in unconstrained space, so the target is
log_joint(constrain(z)) + log|J(z)|. Updates are component-wise: every
iteration sweeps the coordinates in a freshly shuffled order, applying a
scalar random-walk proposal to each. Each coordinate owns its own step size,
adapted by Robbins-Monro toward the target acceptance rate during warmup
only and frozen afterwards, which keeps the kept draws a valid Markov chain
while letting parameters on wildly different scales mix at their own pace.
"""

from __future__ import annotations

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
    "conjugate_gamma_posterior",
    "conjugate_gamma_draws",
]


class SamplerError(RuntimeError):
    """Raised when a target evaluation returns NaN or +inf, or a precondition fails."""


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
        if self.initial_step_size <= 0:
            raise ValueError("initial_step_size must be > 0")
        if not 0.0 < self.adaptation_target_acceptance < 1.0:
            raise ValueError("adaptation_target_acceptance must be in (0, 1)")


@dataclass(frozen=True)
class ModelSpec:
    """A model as the sampler and estimators see it.

    ``log_joint``, ``log_prior`` and ``pointwise_row`` all take the
    constrained parameter vector. ``pointwise_row(theta)`` returns the
    length-N vector of pointwise log-likelihoods; ``log_joint`` must equal
    log_prior + sum(pointwise_row) up to arithmetic noise -- tests assert
    this factorization on every built-in model. ``prior_mean`` (constrained
    space) seeds the chain after mapping to unconstrained space.
    """

    name: str
    transform: BlockTransform
    log_prior: Callable[[np.ndarray], float]
    log_joint: Callable[[np.ndarray], float]
    pointwise_row: Callable[[np.ndarray], np.ndarray]
    data_count: int
    datapoint_ids: tuple[str, ...]
    prior_mean: np.ndarray

    @property
    def dim(self) -> int:
        return self.transform.unconstrained_dim


@dataclass(frozen=True)
class PosteriorDraws:
    """S constrained draws plus their first two sample moments."""

    draws: np.ndarray
    posterior_mean: np.ndarray
    posterior_var: np.ndarray
    acceptance_rate: float
    seed: int
    warnings: tuple[str, ...] = ()


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
    sampling are one sweep with one accept test; only the adaptation, the
    acceptance count and the stored draws depend on which phase an iteration
    is in. Deterministic: identical (model, config) pairs reproduce the draw
    matrix bit for bit. Raises ``SamplerError`` if the chain cannot start
    (non-finite target at the prior-mean initial point) or if any target
    evaluation is NaN or +inf, a value no Metropolis step could ever leave.
    """
    rng = np.random.default_rng(config.seed)
    tf = model.transform
    dim = tf.unconstrained_dim

    def target(z: np.ndarray) -> float:
        theta = tf.constrain(z)
        lp = model.log_joint(theta) + tf.log_jacobian(z)
        if np.isnan(lp) or lp == np.inf:
            raise SamplerError(
                f"log joint is {'NaN' if np.isnan(lp) else '+inf'} at "
                f"unconstrained point {z.tolist()} "
                f"(constrained {theta.tolist()})"
            )
        return float(lp)

    z = tf.unconstrain(np.asarray(model.prior_mean, dtype=np.float64))
    lp = target(z)
    if not np.isfinite(lp):
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
        for d in rng.permutation(dim):
            proposal = z.copy()
            proposal[d] += np.exp(log_step[d]) * rng.standard_normal()
            lp_prop = target(proposal)
            alpha = min(1.0, np.exp(min(0.0, lp_prop - lp)))
            if rng.random() < alpha:
                z, lp = proposal, lp_prop
                accepted += t >= warmup
            if t < warmup:
                log_step[d] += (alpha - accept_target) * (t + 1) ** -0.6
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
    """Evaluate the pointwise log-likelihood at every draw: entry (s, n)."""
    values = np.empty((draws.draws.shape[0], model.data_count))
    for s, theta in enumerate(draws.draws):
        values[s] = model.pointwise_row(theta)
    if np.isnan(values.min()):  # min propagates NaN without a full-size mask
        s, n = np.argwhere(np.isnan(values))[0].tolist()
        raise SamplerError(f"NaN pointwise log-likelihood at draw {s}, datapoint {n}")
    return LogLikMatrix(values, model.datapoint_ids)


def conjugate_gamma_posterior(
    data, prior_shape: float, prior_rate: float, lik_shape: float
) -> tuple[float, float]:
    """Posterior (shape, rate) for a gamma rate under a gamma prior.

    Gamma likelihood with known shape ``lik_shape`` and unknown rate, gamma
    prior on the rate: the update is (prior_shape + N * lik_shape,
    prior_rate + sum(data)).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1:
        raise ValueError("data must be 1-D")
    if np.any(data <= 0) or not np.all(np.isfinite(data)):
        raise ValueError("data must be strictly positive and finite")
    if min(prior_shape, prior_rate, lik_shape) <= 0:
        raise ValueError("prior_shape, prior_rate and lik_shape must be > 0")
    return (
        float(prior_shape + data.size * lik_shape),
        float(prior_rate + data.sum()),
    )


def conjugate_gamma_draws(
    data,
    prior_shape: float,
    prior_rate: float,
    lik_shape: float,
    n_draws: int,
    seed: int,
) -> PosteriorDraws:
    """Exact i.i.d. draws of the gamma rate from its conjugate posterior."""
    shape, rate = conjugate_gamma_posterior(data, prior_shape, prior_rate, lik_shape)
    rng = np.random.default_rng(seed)
    beta = rng.gamma(shape, 1.0 / rate, size=n_draws)
    return posterior_draws_from(beta[:, None], 1.0, seed)
