"""Built-in models, each exposed as a ModelSpec.

Three families:

* a three-component negative-binomial (NB2) mixture for overdispersed counts,
  with the mean prior moment-matched to the data;
* a gamma likelihood with fixed shape and a conjugate gamma prior on the rate
  (the exact-oracle toy model);
* hierarchical logistic regression for vote/sex/race/state tables, in three
  variants (base, +age, +edu).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .samplers import ModelSpec
from .transforms import BlockTransform, IdentityBlock, PositiveBlock, SimplexBlock

__all__ = [
    "nb2_log_pmf",
    "moment_match_mu_prior",
    "nb2_mixture_model",
    "relabel_by_dispersion",
    "TOY_LIK_SHAPE",
    "TOY_PRIOR_SHAPE",
    "TOY_PRIOR_RATE",
    "gamma_toy_model",
    "toy_posterior_predictive_logpdf",
    "simulate_toy_data",
    "VoteTable",
    "simulate_votes",
    "hier_logreg_model",
]


# ---------------------------------------------------------------------------
# NB2 mixture
# ---------------------------------------------------------------------------

def nb2_log_pmf(x, mu, phi):
    """Negative binomial log pmf in the mean/dispersion parameterization.

    Mean mu, variance mu + mu^2/phi. Vectorized over any argument; evaluated
    through log-gamma so large counts and small phi stay finite.
    """
    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(phi))):
        raise ValueError("mu and phi must be finite")
    if np.any(mu <= 0) or np.any(phi <= 0):
        raise ValueError("mu and phi must be > 0")
    if np.any(x < 0) or np.any(x != np.floor(x)):
        raise ValueError("x must be a non-negative integer count")
    denom = np.log(phi + mu)
    out = (
        gammaln(x + phi)
        - gammaln(phi)
        - gammaln(x + 1.0)
        + phi * (np.log(phi) - denom)
        + x * (np.log(mu) - denom)
    )
    return out if out.shape else float(out)


def moment_match_mu_prior(data) -> tuple[float, float]:
    """Gamma (shape, rate) whose mean/variance equal the data's sample moments."""
    data = np.asarray(data, dtype=np.float64)
    m = data.mean()
    v = data.var(ddof=1)
    if v <= 0:
        raise ValueError("data variance must be > 0 to moment-match a gamma prior")
    return float(m * m / v), float(m / v)


def _gamma_logpdf(x, shape, rate):
    return shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x


# NB2 mixture hyperparameters: flat Dirichlet on weights, diffuse gamma on phi.
_NB2_K = 3
_PHI_PRIOR_SHAPE = 1.0
_PHI_PRIOR_RATE = 0.01


def _logsumexp_rows(a, b):
    """log sum_k b_k exp(a[n, k]) for each row n of a, with weights b (K,).

    This mirrors scipy.special.logsumexp's own algorithm (scipy 1.17), not the
    textbook max-shift: the tied maxima are summed apart and the rest enter
    through log1p, so every value is bitwise equal to
    ``logsumexp(a, axis=1, b=b[None, :])`` and the Metropolis chain stays the
    same draw for draw. scipy's version spends most of its time in array-API
    dispatch, which dominates at the 43 x 3 size of one NB2 target call.
    """
    # scipy silences the same floating-point warnings, which only rows with
    # all weights zero or -inf/NaN terms raise.
    with np.errstate(divide="ignore", invalid="ignore"):
        masked = np.where(b == 0, -np.inf, a)
        a_max = masked.max(axis=1, keepdims=True)
        at_max = masked == a_max
        m = (b * at_max).sum(axis=1)
        masked[at_max] = -np.inf
        s = (b * np.exp(masked - a_max)).sum(axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max[:, 0]
    finite = np.isfinite(out)
    if not finite.all():
        # scipy answers these rows by the direct formula; mirror that too.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log((b * np.exp(a)).sum(axis=1))
        out = np.where(finite, out, direct)
    return out


def nb2_mixture_model(data, ids=None) -> ModelSpec:
    """Three-component NB2 mixture over positive integer counts.

    Parameter layout (constrained): weights pi[0:3] on the simplex, then
    means mu[3:6], then dispersions phi[6:9]. The gamma prior on each mu is
    moment-matched to the data; phi gets Gam(shape=1, rate=0.01).
    """
    data = np.asarray(data, dtype=np.float64)
    if np.any(data < 0) or np.any(data != np.floor(data)):
        raise ValueError("counts must be non-negative integers")
    mu_shape, mu_rate = moment_match_mu_prior(data)
    if ids is None:
        ids = tuple(str(int(x)) for x in data)

    K = _NB2_K
    # Everything that does not depend on theta, evaluated once with the same
    # operations, in the same order, as nb2_log_pmf and _gamma_logpdf.
    x = data[:, None]
    gammaln_x1 = gammaln(x + 1.0)
    log_dirichlet = gammaln(K)  # Dirichlet(1,1,1) is the constant log Gamma(3)
    mu_const = mu_shape * np.log(mu_rate) - gammaln(mu_shape)
    phi_const = _PHI_PRIOR_SHAPE * np.log(_PHI_PRIOR_RATE) - gammaln(_PHI_PRIOR_SHAPE)

    def log_prior(theta):
        mu, phi = theta[K : 2 * K], theta[2 * K :]
        lp = log_dirichlet
        lp += (mu_const + (mu_shape - 1.0) * np.log(mu) - mu_rate * mu).sum()
        lp += (
            phi_const + (_PHI_PRIOR_SHAPE - 1.0) * np.log(phi) - _PHI_PRIOR_RATE * phi
        ).sum()
        return float(lp)

    def pointwise_row(theta):
        pi, mu, phi = theta[:K], theta[K : 2 * K], theta[2 * K :]
        params = theta[K:]
        if not (np.isfinite(params).all() and (params > 0).all()):
            nb2_log_pmf(x, mu, phi)  # raises the classified ValueError
        denom = np.log(phi + mu)
        comp = (
            gammaln(x + phi)
            - gammaln(phi)
            - gammaln_x1
            + phi * (np.log(phi) - denom)
            + x * (np.log(mu) - denom)
        )
        return _logsumexp_rows(comp, pi)

    def log_joint(theta):
        # The row first: for a bad theta it raises the classified ValueError
        # before the prior can warn on the same values.
        row_sum = float(pointwise_row(theta).sum())
        return log_prior(theta) + row_sum

    prior_mean = np.concatenate(
        [
            np.full(K, 1.0 / K),
            np.full(K, mu_shape / mu_rate),
            np.full(K, _PHI_PRIOR_SHAPE / _PHI_PRIOR_RATE),
        ]
    )
    return ModelSpec(
        name="nb2-mixture",
        transform=BlockTransform([SimplexBlock(K), PositiveBlock(K), PositiveBlock(K)]),
        log_prior=log_prior,
        log_joint=log_joint,
        pointwise_row=pointwise_row,
        data_count=data.size,
        datapoint_ids=tuple(ids),
        prior_mean=prior_mean,
    )


def relabel_by_dispersion(draws: np.ndarray) -> np.ndarray:
    """Sort mixture components by ascending implied variance within each draw.

    Undoes label switching so posterior means of (pi_k, mu_k, phi_k) refer to
    stable components. The key mu + mu^2/phi separates concentrated from
    dispersed components even when their means overlap draw to draw, which a
    plain sort on mu does not. Expects the nb2_mixture_model layout.
    """
    draws = np.asarray(draws, dtype=np.float64)
    K = _NB2_K
    if draws.ndim != 2 or draws.shape[1] != 3 * K:
        raise ValueError(f"expected draws with {3 * K} columns")
    mu = draws[:, K : 2 * K]
    phi = draws[:, 2 * K :]
    out = draws.copy()
    order = np.argsort(mu + mu * mu / phi, axis=1)
    rows = np.arange(draws.shape[0])[:, None]
    for block in range(3):
        cols = block * K
        out[:, cols : cols + K] = draws[:, cols : cols + K][rows, order]
    return out


# ---------------------------------------------------------------------------
# Gamma-gamma toy model
# ---------------------------------------------------------------------------

TOY_LIK_SHAPE = 5.0
TOY_PRIOR_SHAPE = 1.0
TOY_PRIOR_RATE = 1.0


def gamma_toy_model(data, eval_points=None, ids=None) -> ModelSpec:
    """Gamma likelihood with fixed shape, gamma prior on the rate.

    The single constrained parameter is the rate. ``eval_points`` swaps the
    scored datapoints (columns of the log-likelihood matrix) without touching
    the posterior, which stays conditioned on ``data``; use it to score a
    grid of hypothetical observations.
    """
    data = np.asarray(data, dtype=np.float64)
    if np.any(data <= 0):
        raise ValueError("data must be strictly positive")
    pts = data if eval_points is None else np.asarray(eval_points, dtype=np.float64)
    if np.any(pts <= 0):
        raise ValueError("eval points must be strictly positive")
    if ids is None:
        ids = tuple(f"x{i:03d}={x:g}" for i, x in enumerate(pts))

    a = TOY_LIK_SHAPE
    sum_log_x = float(np.log(data).sum())
    sum_x = float(data.sum())
    n = data.size

    def log_prior(theta):
        return float(_gamma_logpdf(theta[0], TOY_PRIOR_SHAPE, TOY_PRIOR_RATE))

    def log_joint(theta):
        beta = theta[0]
        total = n * (a * np.log(beta) - gammaln(a)) + (a - 1.0) * sum_log_x - beta * sum_x
        return float(log_prior(theta) + total)

    def pointwise_row(theta):
        beta = theta[0]
        return _gamma_logpdf(pts, a, beta)

    return ModelSpec(
        name="gamma-toy",
        transform=BlockTransform([PositiveBlock(1)]),
        log_prior=log_prior,
        log_joint=log_joint,
        pointwise_row=pointwise_row,
        data_count=pts.size,
        datapoint_ids=tuple(ids),
        prior_mean=np.array([TOY_PRIOR_SHAPE / TOY_PRIOR_RATE]),
    )


def toy_posterior_predictive_logpdf(x_new, data) -> float:
    """Closed-form log p(x_new | data) for the toy model.

    Integrating the gamma likelihood against the conjugate gamma posterior
    Gam(a', b') gives a compound-gamma density:
    Gamma(a'+a) / (Gamma(a) Gamma(a')) * b'^a' * x^(a-1) / (x+b')^(a'+a).
    """
    if x_new <= 0:
        raise ValueError("x_new must be > 0")
    from .samplers import conjugate_gamma_posterior

    a = TOY_LIK_SHAPE
    a_post, b_post = conjugate_gamma_posterior(
        data, TOY_PRIOR_SHAPE, TOY_PRIOR_RATE, a
    )
    return float(
        gammaln(a_post + a)
        - gammaln(a)
        - gammaln(a_post)
        + a_post * np.log(b_post)
        + (a - 1.0) * np.log(x_new)
        - (a_post + a) * np.log(x_new + b_post)
    )


def simulate_toy_data(n: int, rate: float = 1.0, seed: int = 0) -> np.ndarray:
    """Draw n observations from the toy likelihood Gam(shape=5, rate)."""
    rng = np.random.default_rng(seed)
    return rng.gamma(TOY_LIK_SHAPE, 1.0 / rate, size=n)


# ---------------------------------------------------------------------------
# Hierarchical logistic regression
# ---------------------------------------------------------------------------

def _bernoulli_logit_loglik(y, eta):
    """y log(sigmoid(eta)) + (1 - y) log(sigmoid(-eta)), element by element.

    Each term is the stable log sigmoid, -log1p(exp(-|x|)) + min(x, 0); the
    two share the tail log1p(exp(-|eta|)), formed here once.
    """
    tail = np.log1p(np.exp(-np.abs(eta)))
    return y * np.where(eta >= 0, -tail, eta - tail) + (1.0 - y) * np.where(
        eta <= 0, -tail, -eta - tail
    )


HIER_VARIANTS = ("base", "with_age", "with_edu")
_HYPER_SCALE = 10.0  # Normal(0, 10) hyperpriors on group means and scales


@dataclass(frozen=True)
class VoteTable:
    """Observations for the logistic model: one row per respondent.

    ``state`` holds integer codes into ``state_codes``; ``extra`` is the
    optional age or education category column (codes into ``extra_codes``).
    """

    vote: np.ndarray
    female: np.ndarray
    black: np.ndarray
    state: np.ndarray
    state_codes: tuple[str, ...]
    extra: np.ndarray | None = None
    extra_codes: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.vote.size
        for name in ("female", "black", "state"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} has wrong length")
        for name in ("vote", "female", "black"):
            col = getattr(self, name)
            if not np.isin(col, (0, 1)).all():
                raise ValueError(f"column {name} must be 0/1")
        if self.state.min() < 0 or self.state.max() >= len(self.state_codes):
            raise ValueError("state code out of range")
        if self.extra is not None:
            if self.extra.size != n:
                raise ValueError("extra column has wrong length")
            if self.extra.min() < 0 or self.extra.max() >= len(self.extra_codes):
                raise ValueError("age/edu code out of range")

    @property
    def n(self) -> int:
        return self.vote.size

    def row_ids(self) -> tuple[str, ...]:
        return tuple(f"r{i:05d}" for i in range(self.n))


def hier_logreg_model(table: VoteTable, variant: str = "base") -> ModelSpec:
    """Hierarchical logistic regression over a VoteTable.

    Linear predictor: beta_female * female + beta_black * black +
    state level (hierarchical normal), plus an age or education level block
    for the with_age / with_edu variants. Group scales are positive and
    sampled through a log transform.

    A respondent's likelihood depends only on its cell, the tuple (vote,
    female, black, state[, age/edu]). The model keeps one covariate row per
    distinct cell and each respondent's cell index, so a target call costs
    O(cells) plus one length-N gather: the synthetic tables have 60 cells for
    base and 219 for with_age at N = 2000, and 244 for with_edu at N = 5000.
    Each respondent's value is the same float as a per-respondent evaluation.

    Constrained layout: [beta_female, beta_black, mu_state, sigma_state,
    alpha_state (J), (mu_extra, sigma_extra, alpha_extra (G))].
    """
    if variant not in HIER_VARIANTS:
        raise ValueError(f"variant must be one of {HIER_VARIANTS}")
    if variant != "base" and table.extra is None:
        raise ValueError(f"variant {variant!r} needs the age/edu column")

    n_states = len(table.state_codes)
    has_extra = variant != "base"
    n_extra = len(table.extra_codes) if has_extra else 0

    # One mixed-radix code per respondent: equal codes mean equal covariates
    # and vote, so equal likelihoods.
    digits = [
        (table.vote, 2),
        (table.female, 2),
        (table.black, 2),
        (table.state, n_states),
    ]
    if has_extra:
        digits.append((table.extra, n_extra))
    code = np.zeros(table.n, dtype=np.int64)
    for column, radix in digits:
        code = code * radix + column.astype(np.int64)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    y = table.vote[first].astype(np.float64)
    female = table.female[first].astype(np.float64)
    black = table.black[first].astype(np.float64)
    state_idx = table.state[first]
    extra_idx = table.extra[first] if has_extra else None

    blocks = [IdentityBlock(3), PositiveBlock(1), IdentityBlock(n_states)]
    if has_extra:
        blocks += [IdentityBlock(1), PositiveBlock(1), IdentityBlock(n_extra)]

    def unpack(theta):
        beta = theta[:2]
        mu_s, sigma_s = theta[2], theta[3]
        alpha_s = theta[4 : 4 + n_states]
        if not has_extra:
            return beta, mu_s, sigma_s, alpha_s, None, None, None
        off = 4 + n_states
        return (
            beta,
            mu_s,
            sigma_s,
            alpha_s,
            theta[off],
            theta[off + 1],
            theta[off + 2 : off + 2 + n_extra],
        )

    def linear_predictor(theta):
        beta, _, _, alpha_s, _, _, alpha_e = unpack(theta)
        eta = beta[0] * female + beta[1] * black + alpha_s[state_idx]
        if alpha_e is not None:
            eta = eta + alpha_e[extra_idx]
        return eta

    log_hyper = np.log(_HYPER_SCALE)
    log_unit = np.log(1.0)
    half_log_2pi = 0.5 * np.log(2.0 * np.pi)

    def normal_logpdf(u, log_scale):
        # Normal log density at x, given u = x / scale and log(scale).
        return -0.5 * (u * u) - log_scale - half_log_2pi

    def log_prior(theta):
        beta, mu_s, sigma_s, alpha_s, mu_e, sigma_e, alpha_e = unpack(theta)
        lp = normal_logpdf(beta, log_unit).sum()
        lp += normal_logpdf(mu_s / _HYPER_SCALE, log_hyper)
        lp += normal_logpdf(sigma_s / _HYPER_SCALE, log_hyper)
        lp += normal_logpdf((alpha_s - mu_s) / sigma_s, log_unit).sum() - n_states * np.log(
            sigma_s
        )
        if alpha_e is not None:
            lp += normal_logpdf(mu_e / _HYPER_SCALE, log_hyper)
            lp += normal_logpdf(sigma_e / _HYPER_SCALE, log_hyper)
            lp += normal_logpdf(
                (alpha_e - mu_e) / sigma_e, log_unit
            ).sum() - n_extra * np.log(sigma_e)
        return float(lp)

    def pointwise_row(theta):
        return _bernoulli_logit_loglik(y, linear_predictor(theta))[inverse]

    def log_joint(theta):
        return log_prior(theta) + float(np.sum(pointwise_row(theta)))

    # Positive-constrained scales start at the folded-normal prior mean.
    half_normal_mean = _HYPER_SCALE * np.sqrt(2.0 / np.pi)
    prior_mean = np.concatenate(
        [
            np.zeros(3),
            [half_normal_mean],
            np.zeros(n_states),
            ([0.0, half_normal_mean] + [0.0] * n_extra) if has_extra else [],
        ]
    )
    return ModelSpec(
        name=f"hier-logreg-{variant}",
        transform=BlockTransform(blocks),
        log_prior=log_prior,
        log_joint=log_joint,
        pointwise_row=pointwise_row,
        data_count=table.n,
        datapoint_ids=table.row_ids(),
        prior_mean=prior_mean,
    )


_SYNTH_STATES = ("ca", "dc", "ma", "nv", "ny", "wa", "wi", "wy")
_SYNTH_AGE = ("18-29", "30-44", "45-64", "65+")
_SYNTH_EDU = ("no-hs", "hs", "some-college", "college")


def simulate_votes(
    n: int,
    seed: int = 0,
    variant: str = "base",
    beta_female: float = -0.8,
    beta_black: float = -2.0,
    mu_state: float = 0.3,
    sigma_state: float = 0.7,
) -> tuple[VoteTable, dict]:
    """Synthetic survey table with known ground-truth latents.

    Returns the table and the truth used to generate it, for sign-recovery
    checks. The with_age variant adds a monotone age trend; with_edu a
    decreasing education trend.
    """
    if variant not in HIER_VARIANTS:
        raise ValueError(f"variant must be one of {HIER_VARIANTS}")
    rng = np.random.default_rng(seed)
    female = rng.integers(0, 2, size=n)
    black = (rng.random(n) < 0.2).astype(np.int64)
    state = rng.integers(0, len(_SYNTH_STATES), size=n)
    alpha_state = mu_state + sigma_state * rng.standard_normal(len(_SYNTH_STATES))

    eta = beta_female * female + beta_black * black + alpha_state[state]
    truth = {
        "beta_female": beta_female,
        "beta_black": beta_black,
        "mu_state": mu_state,
        "sigma_state": sigma_state,
    }
    extra = None
    extra_codes: tuple[str, ...] = ()
    if variant == "with_age":
        extra_codes = _SYNTH_AGE
        levels = np.array([-0.5, -0.1, 0.2, 0.6])
        extra = rng.integers(0, len(extra_codes), size=n)
        eta = eta + levels[extra]
        truth["alpha_age"] = levels
    elif variant == "with_edu":
        extra_codes = _SYNTH_EDU
        levels = np.array([0.5, 0.2, -0.1, -0.6])
        extra = rng.integers(0, len(extra_codes), size=n)
        eta = eta + levels[extra]
        truth["alpha_edu"] = levels

    vote = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    table = VoteTable(
        vote=vote,
        female=female,
        black=black,
        state=state,
        state_codes=_SYNTH_STATES,
        extra=extra,
        extra_codes=extra_codes,
    )
    return table, truth
