"""Built-in models, each exposed as a ModelSpec.

Three families:

* a three-component negative-binomial (NB2) mixture for overdispersed counts,
  with the mean prior moment-matched to the data;
* a gamma likelihood with fixed shape and a conjugate gamma prior on the rate
  (the exact-oracle toy model), with its exact posterior and draws;
* hierarchical logistic regression for vote/sex/race/state tables, in three
  variants (base, +age, +edu).

Each model's functions are written once over the last axis, which holds the
parameter vector, so one (P,) theta and an (R, P) batch run the same lines
(see ``ModelSpec``).

The NB2 mixture and the gamma toy need scipy only for ``gammaln``, imported
when they are built or called; the mixture's log-sum-exp is its own max shift,
within a few ulp of scipy's, not bit for bit. The voting code needs numpy alone.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .samplers import ModelSpec, PosteriorDraws, posterior_draws_from
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
    "toy_posterior",
    "toy_posterior_draws",
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
    through log-gamma so large counts and small phi stay finite. Raises
    ``ValueError`` unless mu, phi > 0 are finite and x is a count.
    """
    from scipy.special import gammaln

    x = np.asarray(x, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(phi))):
        raise ValueError("mu and phi must be finite")
    if np.any(mu <= 0) or np.any(phi <= 0):
        raise ValueError("mu and phi must be > 0")
    if np.any(x < 0) or np.any(x != np.floor(x)):
        raise ValueError("x must be a non-negative integer count")
    out = _nb2_terms(gammaln, x, gammaln(x + 1.0), mu, phi)
    return out if out.shape else float(out)


def _nb2_terms(gammaln, x, gammaln_x1, mu, phi):
    """The NB2 log pmf without checks, given ``gammaln(x + 1)``; ``pointwise_row`` shares it.

    ``gammaln`` is scipy's, passed in by callers that imported it once.
    """
    denom = np.log(phi + mu)
    return (
        gammaln(x + phi)
        - gammaln(phi)
        - gammaln_x1
        + phi * (np.log(phi) - denom)
        + x * (np.log(mu) - denom)
    )


def moment_match_mu_prior(data) -> tuple[float, float]:
    """Gamma (shape, rate) whose mean/variance equal the data's sample moments."""
    data = np.asarray(data, dtype=np.float64)
    if data.size < 2:  # before var(ddof=1), which warns and returns NaN
        raise ValueError("need at least 2 counts to moment-match a gamma prior")
    try:  # huge counts overflow the mean's sum, the variance's squares or m * m
        with np.errstate(over="raise"):
            m, v = data.mean(), data.var(ddof=1)
            shape, rate = (m * m / v, m / v) if 0 < v < np.inf else (np.nan, np.nan)
    except FloatingPointError:
        shape = rate = np.nan
    if not (np.isfinite(shape) and np.isfinite(rate)):  # a NaN variance fails too
        raise ValueError("moments must be finite and variance > 0 to moment-match a gamma prior")
    return float(shape), float(rate)


def _gamma_logpdf(x, shape, rate, gammaln_shape):
    """The gamma log density, given the constant ``gammaln(shape)``."""
    return shape * np.log(rate) - gammaln_shape + (shape - 1.0) * np.log(x) - rate * x


# NB2 mixture hyperparameters: flat Dirichlet on weights, diffuse gamma on phi.
_NB2_K = 3
_PHI_PRIOR_SHAPE = 1.0
_PHI_PRIOR_RATE = 0.01


def _logsumexp_components(a, b):
    """log sum_k b[k] exp(a[k]) over the leading axis, by the textbook max shift.

    ``b`` holds (K, R, 1) weights for (K, R, N) components. Zero-weight terms
    are left out and a row with no finite maximum is not shifted, so -inf,
    +inf and NaN rows match ``scipy.special.logsumexp``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # silenced as by scipy
        a = np.where(b == 0, -np.inf, a)
        a_max = a.max(axis=0)
        shift = np.where(np.isfinite(a_max), a_max, 0.0)
        return np.log((b * np.exp(a - shift)).sum(axis=0)) + shift


def nb2_mixture_model(data, ids=None) -> ModelSpec:
    """Three-component NB2 mixture over positive integer counts.

    Parameter layout (constrained): weights pi[0:3] on the simplex, then
    means mu[3:6], then dispersions phi[6:9]. The gamma prior on each mu is
    moment-matched to the data; phi gets Gam(shape=1, rate=0.01).
    """
    from scipy.special import gammaln

    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 1:
        raise ValueError("counts must be 1-D")
    if not np.all(np.isfinite(data) & (data >= 0) & (data == np.floor(data))):
        raise ValueError("counts must be non-negative integers")
    mu_shape, mu_rate = moment_match_mu_prior(data)
    ids = tuple(str(int(x)) for x in data) if ids is None else tuple(ids)
    if len(ids) != data.size:
        raise ValueError(f"{len(ids)} datapoint ids for {data.size} counts")

    K = _NB2_K
    # Everything that does not depend on theta, evaluated once with the same
    # operations, in the same order, as nb2_log_pmf and _gamma_logpdf. The
    # components are scored once per distinct count, then gathered back to
    # the datapoints: every step is elementwise over datapoints, so each value
    # is the one a per-datapoint evaluation gives. Each distinct count is one
    # likelihood cell of the ModelSpec.
    x, inverse = np.unique(data, return_inverse=True)
    gammaln_x1 = gammaln(x + 1.0)
    log_dirichlet = gammaln(K)  # Dirichlet(1,1,1) is the constant log Gamma(3)
    mu_const = mu_shape * np.log(mu_rate) - gammaln(mu_shape)
    phi_const = _PHI_PRIOR_SHAPE * np.log(_PHI_PRIOR_RATE) - gammaln(_PHI_PRIOR_SHAPE)

    # The gamma prior's constant, shape - 1 and rate for mu_1..K, phi_1..K.
    const = np.repeat([mu_const, phi_const], K)
    shape_minus_1 = np.repeat([mu_shape - 1.0, _PHI_PRIOR_SHAPE - 1.0], K)
    rate = np.repeat([mu_rate, _PHI_PRIOR_RATE], K)

    # Each function takes a (..., 9) theta or batch of thetas.
    def log_prior(theta):
        params = theta[..., K:]
        terms = const + shape_minus_1 * np.log(params) - rate * params
        mu_sum, phi_sum = terms.reshape(theta.shape[:-1] + (2, K)).sum(axis=-1).T
        return log_dirichlet + mu_sum + phi_sum

    def pointwise_row(theta):
        # (K, ..., 1) parameters against the (U,) distinct counts: (K, ..., U) components
        by_param = np.ascontiguousarray(theta.T)[..., None]
        pi, mu, phi, params = by_param[:K], by_param[K : 2 * K], by_param[2 * K :], by_param[K:]
        if not params.min() > 0 or not params.max() < np.inf:  # NaN fails both
            nb2_log_pmf(x, mu, phi)  # raises the classified ValueError
        by_count = _logsumexp_components(_nb2_terms(gammaln, x, gammaln_x1, mu, phi), pi)
        return np.take(by_count, inverse, axis=-1)

    def log_joint(theta):
        # The row first: for a bad theta it raises the classified ValueError
        # before the prior can warn on the same values.
        row_sum = pointwise_row(theta).sum(axis=-1)
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
        datapoint_ids=ids,
        prior_mean=prior_mean,
        cells=inverse,
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
    order = np.argsort(mu + mu * mu / phi, axis=1)
    # One gather over the (S, 3, K) view: each block is permuted by its draw's order.
    blocks = draws.reshape(len(draws), 3, K)
    return np.take_along_axis(blocks, order[:, None, :], axis=2).reshape(draws.shape)


# ---------------------------------------------------------------------------
# Gamma-gamma toy model
# ---------------------------------------------------------------------------

TOY_LIK_SHAPE = 5.0
TOY_PRIOR_SHAPE = 1.0
TOY_PRIOR_RATE = 1.0


def _positive_finite(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"{what} must be 1-D")
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError(f"{what} must be strictly positive and finite")
    return values


def gamma_toy_model(data, eval_points=None) -> ModelSpec:
    """Gamma likelihood with fixed shape, gamma prior on the rate.

    The single constrained parameter is the rate. ``eval_points`` swaps the
    scored datapoints (columns of the log-likelihood matrix) without touching
    the posterior, which stays conditioned on ``data``; use it to score a
    grid of hypothetical observations.
    """
    from scipy.special import gammaln

    data = _positive_finite(data, "data")
    pts = data if eval_points is None else _positive_finite(eval_points, "eval points")

    a = TOY_LIK_SHAPE
    gammaln_a = gammaln(a)
    gammaln_prior_shape = gammaln(TOY_PRIOR_SHAPE)
    sum_log_x = float(np.log(data).sum())
    sum_x = float(data.sum())
    n = data.size

    # Each function takes a (..., 1) rate or batch of rates.
    def log_prior(theta):
        return _gamma_logpdf(
            theta[..., 0], TOY_PRIOR_SHAPE, TOY_PRIOR_RATE, gammaln_prior_shape
        )

    def log_joint(theta):
        beta = theta[..., 0]
        total = n * (a * np.log(beta) - gammaln_a) + (a - 1.0) * sum_log_x - beta * sum_x
        return log_prior(theta) + total

    def pointwise_row(theta):
        return _gamma_logpdf(pts, a, theta, gammaln_a)  # (..., 1) rates against (N,) points

    return ModelSpec(
        name="gamma-toy",
        transform=BlockTransform([PositiveBlock(1)]),
        log_prior=log_prior,
        log_joint=log_joint,
        pointwise_row=pointwise_row,
        datapoint_ids=tuple(f"x{i:03d}={x:g}" for i, x in enumerate(pts)),
        prior_mean=np.array([TOY_PRIOR_SHAPE / TOY_PRIOR_RATE]),
    )


def toy_posterior(data) -> tuple[float, float]:
    """The toy's exact posterior (shape, rate) of the rate given ``data``.

    The gamma prior is conjugate to the gamma likelihood of known shape, so
    the update is (TOY_PRIOR_SHAPE + N * TOY_LIK_SHAPE, TOY_PRIOR_RATE + sum(data)).
    """
    data = _positive_finite(data, "data")
    return (
        float(TOY_PRIOR_SHAPE + data.size * TOY_LIK_SHAPE),
        float(TOY_PRIOR_RATE + data.sum()),
    )


def toy_posterior_draws(data, n_draws: int, seed: int) -> PosteriorDraws:
    """Exact i.i.d. draws of the toy's rate from ``toy_posterior(data)``."""
    shape, rate = toy_posterior(data)
    rng = np.random.default_rng(seed)
    beta = rng.gamma(shape, 1.0 / rate, size=n_draws)
    return posterior_draws_from(beta[:, None], 1.0, seed)


def toy_posterior_predictive_logpdf(x_new, data) -> float:
    """Closed-form log p(x_new | data) for the toy model.

    Integrating the gamma likelihood against the conjugate gamma posterior
    Gam(a', b') gives a compound-gamma density:
    Gamma(a'+a) / (Gamma(a) Gamma(a')) * b'^a' * x^(a-1) / (x+b')^(a'+a).
    """
    if x_new <= 0:
        raise ValueError("x_new must be > 0")
    from scipy.special import gammaln

    a = TOY_LIK_SHAPE
    a_post, b_post = toy_posterior(data)
    return float(
        gammaln(a_post + a)
        - gammaln(a)
        - gammaln(a_post)
        + a_post * np.log(b_post)
        + (a - 1.0) * np.log(x_new)
        - (a_post + a) * np.log(x_new + b_post)
    )


def simulate_toy_data(n: int, seed: int = 0) -> np.ndarray:
    """Draw n observations from the toy likelihood Gam(shape=5, rate=1)."""
    rng = np.random.default_rng(seed)
    return rng.gamma(TOY_LIK_SHAPE, 1.0, size=n)


# ---------------------------------------------------------------------------
# Hierarchical logistic regression
# ---------------------------------------------------------------------------

def _bernoulli_logit_loglik(sign, eta):
    """log sigmoid(sign * eta) for sign = 2 vote - 1, element by element.

    -(log1p(exp(-|eta|)) - min(sign eta, 0)) gives the bits of y log sigmoid(eta)
    + (1 - y) log sigmoid(-eta), signed zeros too. It runs once per likelihood
    cell: log_joint costs O(cells); only pointwise_row gathers to the N respondents.
    """
    tail = np.log1p(np.exp(-np.abs(eta)))
    return -(tail - np.minimum(sign * eta, 0.0))


HIER_VARIANTS = ("base", "with_age", "with_edu")
_HYPER_SCALE = 10.0  # Normal(0, 10) hyperpriors on group means and scales


@dataclass(frozen=True, eq=False)
class VoteTable:
    """Observations for the logistic model: one row per respondent.

    ``groups`` maps each group column's name to its category codes and each
    row's index into them. ``"state"`` is required; a variant's own column
    (``"age"`` or ``"edu"``) is an optional second entry. The mapping is
    stored read-only.
    """

    vote: np.ndarray
    female: np.ndarray
    black: np.ndarray
    groups: Mapping[str, tuple[tuple[str, ...], np.ndarray]]

    def __post_init__(self):
        object.__setattr__(self, "groups", MappingProxyType(dict(self.groups)))
        if "state" not in self.groups or not all(isinstance(k, str) and k for k in self.groups):
            raise ValueError("a vote table needs named group columns, 'state' among them")
        index = {name: col for name, (_, col) in self.groups.items()}
        for name, col in {"female": self.female, "black": self.black, **index}.items():
            if col.size != self.vote.size:
                raise ValueError(f"column {name} has wrong length")
        for name in ("vote", "female", "black"):
            if not np.isin(getattr(self, name), (0, 1)).all():
                raise ValueError(f"column {name} must be 0/1")
        if self.vote.size == 0:
            raise ValueError("a vote table needs at least one row")
        for name, (codes, col) in self.groups.items():
            if col.min() < 0 or col.max() >= len(codes):
                raise ValueError(f"column {name} has a code out of range")

    @property
    def n(self) -> int:
        return self.vote.size


def hier_logreg_model(table: VoteTable, variant: str = "base") -> ModelSpec:
    """Hierarchical logistic regression over a VoteTable.

    Linear predictor: beta_female * female + beta_black * black +
    state level (hierarchical normal), plus an age or education level block
    for the with_age / with_edu variants. Group scales are positive and
    sampled through a log transform.

    A respondent's likelihood depends only on its cell, the tuple (vote,
    female, black, state[, age/edu]). The model keeps each distinct cell's
    covariates and respondent count, and each respondent's cell, so log_joint
    costs O(cells) and only pointwise_row gathers to N: the synthetic tables
    have 60 cells for base and 219 for with_age at N = 2000, and 244 for
    with_edu at N = 5000. Each respondent's value is the same float as a
    per-respondent evaluation; the cells are the ModelSpec's likelihood cells.

    Constrained layout: [beta_female, beta_black], then for each group (the
    state, then age or edu) [mu, sigma, alpha (levels)].
    """
    if variant not in HIER_VARIANTS:
        raise ValueError(f"variant must be one of {HIER_VARIANTS}")
    names = ("state",) if variant == "base" else ("state", _SYNTH_EXTRA[variant][0])
    if names[-1] not in table.groups:
        raise ValueError(
            f"variant {variant!r} needs the group column {names[-1]!r}; "
            f"the table has {', '.join(table.groups)}"
        )
    # (per-respondent level, number of levels) of each hierarchical group
    group_columns = [(table.groups[name][1], len(table.groups[name][0])) for name in names]

    # One mixed-radix code per respondent: equal codes mean equal covariates
    # and vote, so equal likelihoods.
    code = np.zeros(table.n, dtype=np.int64)
    digits = [(table.vote, 2), (table.female, 2), (table.black, 2), *group_columns]
    for column, radix in digits:
        code = code * radix + column.astype(np.int64)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    sign = 2.0 * table.vote[first] - 1.0
    count = np.bincount(inverse).astype(np.float64)
    female = table.female[first].astype(np.float64)
    black = table.black[first].astype(np.float64)

    # Each group as (offset of its mu in theta, n levels, per-cell index of
    # its alpha in theta). Positive-constrained scales start at the
    # folded-normal prior mean.
    half_normal_mean = _HYPER_SCALE * np.sqrt(2.0 / np.pi)
    groups, blocks, prior_mean = [], [IdentityBlock(2)], [0.0, 0.0]
    off = 2
    for column, n in group_columns:
        groups.append((off, n, column[first].astype(np.int64) + (off + 2)))
        blocks += [IdentityBlock(1), PositiveBlock(1), IdentityBlock(n)]
        prior_mean += [0.0, half_normal_mean] + [0.0] * n
        off += 2 + n

    # Each function takes a (..., P) theta or batch of thetas. Every array is
    # C-ordered (np.take keeps it so): a batch row sums as a lone row does.
    def by_cell(theta):
        eta = theta[..., 0:1] * female + theta[..., 1:2] * black
        for _, _, alpha_idx in groups:
            eta = eta + np.take(theta, alpha_idx, axis=-1)
        return _bernoulli_logit_loglik(sign, eta)

    log_hyper = np.log(_HYPER_SCALE)
    half_log_2pi = 0.5 * np.log(2.0 * np.pi)

    def normal_logpdf(u, log_scale):
        # Normal log density at x, given u = x / scale and log(scale).
        return -0.5 * (u * u) - log_scale - half_log_2pi

    def unit_normal_logpdf(u):
        # normal_logpdf(u, log(1)) without its "- 0.0", which changes no float.
        return -0.5 * (u * u) - half_log_2pi

    def log_prior(theta):
        # For one theta lp is a numpy scalar, which += rebinds; lp = lp + a - b
        # would group the additions differently and change the last bits.
        lp = unit_normal_logpdf(theta[..., :2]).sum(axis=-1)
        for off, n, _ in groups:
            # mu's and sigma's hyperpriors in one call, added in that order
            hyper = normal_logpdf(theta[..., off : off + 2] / _HYPER_SCALE, log_hyper)
            lp += hyper[..., 0]
            lp += hyper[..., 1]
            mu, sigma = theta[..., off, None], theta[..., off + 1, None]
            u = (theta[..., off + 2 : off + 2 + n] - mu) / sigma
            lp += unit_normal_logpdf(u).sum(axis=-1) - n * np.log(sigma[..., 0])
        return lp

    def pointwise_row(theta):
        return np.take(by_cell(theta), inverse, axis=-1)

    def log_joint(theta):
        return log_prior(theta) + (by_cell(theta) * count).sum(axis=-1)

    return ModelSpec(
        name=f"hier-logreg-{variant}",
        transform=BlockTransform(blocks),
        log_prior=log_prior,
        log_joint=log_joint,
        pointwise_row=pointwise_row,
        datapoint_ids=tuple(f"r{i:05d}" for i in range(table.n)),
        prior_mean=np.array(prior_mean),
        cells=inverse,
    )


_SYNTH_STATES = ("ca", "dc", "ma", "nv", "ny", "wa", "wi", "wy")
_SYNTH_TRUTH = {"beta_female": -0.8, "beta_black": -2.0, "mu_state": 0.3, "sigma_state": 0.7}
# (column, category codes, true levels) of each expanded variant's group. The
# column is the one hier_logreg_model requires of a table for that variant;
# the levels are returned in the truth under "alpha_<column>".
_SYNTH_EXTRA = {
    "with_age": (
        "age",
        ("18-29", "30-44", "45-64", "65+"),
        (-0.5, -0.1, 0.2, 0.6),
    ),
    "with_edu": (
        "edu",
        ("no-hs", "hs", "some-college", "college"),
        (0.5, 0.2, -0.1, -0.6),
    ),
}


def simulate_votes(n: int, seed: int = 0, variant: str = "base") -> tuple[VoteTable, dict]:
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
    truth = dict(_SYNTH_TRUTH)
    alpha_state = truth["mu_state"] + truth["sigma_state"] * rng.standard_normal(
        len(_SYNTH_STATES)
    )

    eta = truth["beta_female"] * female + truth["beta_black"] * black + alpha_state[state]
    groups = {"state": (_SYNTH_STATES, state)}
    if variant != "base":
        column, codes, levels = _SYNTH_EXTRA[variant]
        truth[f"alpha_{column}"] = levels = np.array(levels)
        extra = rng.integers(0, len(codes), size=n)
        groups[column] = (codes, extra)
        eta = eta + levels[extra]

    vote = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    return VoteTable(vote=vote, female=female, black=black, groups=groups), truth
