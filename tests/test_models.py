import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

import pdikit as pk
from pdikit import datasets, models, reportio

from conftest import summarize_one


def gamma_logpdf(x, shape, rate):
    return shape * np.log(rate) - gammaln(shape) + (shape - 1) * np.log(x) - rate * x


class TestNB2:
    def test_hand_values(self):
        assert models.nb2_log_pmf(0, 1.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
        assert models.nb2_log_pmf(1, 1.0, 1.0) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_normalization_brute_force(self):
        xs = np.arange(0, 2001)
        total = np.exp(models.nb2_log_pmf(xs, 5.0, 2.0)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mu,phi", [(0.5, 0.3), (5.0, 2.0), (50.0, 1.0), (20.0, 400.0)])
    def test_normalization_grid(self, mu, phi):
        cutoff = int(mu + 60.0 * math.sqrt(mu + mu * mu / phi)) + 100
        xs = np.arange(0, cutoff)
        total = np.exp(models.nb2_log_pmf(xs, mu, phi)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_moments_match_parameterization(self):
        # Gamma-Poisson mixture representation of the same distribution.
        mu, phi, n = 7.0, 1.5, 400000
        rng = np.random.default_rng(10)
        x = rng.poisson(rng.gamma(phi, mu / phi, size=n))
        se_mean = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - mu) < 3 * se_mean
        dev2 = (x - x.mean()) ** 2
        se_var = dev2.std(ddof=1) / math.sqrt(n)
        assert abs(x.var(ddof=1) - (mu + mu * mu / phi)) < 3 * se_var

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            models.nb2_log_pmf(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            models.nb2_log_pmf(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            models.nb2_log_pmf(0, np.inf, 1.0)


def mixture_log_lik(x, pi, mu, phi):
    """log sum_k pi_k NB2(x; mu_k, phi_k), read off the NB2 mixture model's row."""
    model = models.nb2_mixture_model(np.array([x, x + 1.0]))
    return model.pointwise_row(np.concatenate([pi, mu, phi]))[0]


class TestMixture:
    def test_degenerate_weight(self):
        v = mixture_log_lik(3, (1.0, 0.0, 0.0), (2.0, 9.0, 30.0), (1.0, 1.0, 1.0))
        assert v == pytest.approx(models.nb2_log_pmf(3, 2.0, 1.0), rel=1e-12)

    def test_equal_components_collapse(self):
        v = mixture_log_lik(4, (0.3, 0.3, 0.4), (6.0, 6.0, 6.0), (2.0, 2.0, 2.0))
        assert v == pytest.approx(models.nb2_log_pmf(4, 6.0, 2.0), rel=1e-12)

    def test_hand_value_two_component(self):
        # 0.5 * NB2(0;1,1) + 0.5 * NB2(0;10,1) = 0.5*0.5 + 0.5/11
        v = mixture_log_lik(0, (0.5, 0.5, 0.0), (1.0, 10.0, 1.0), (1.0, 1.0, 1.0))
        assert v == pytest.approx(math.log(0.25 + 0.5 / 11.0), abs=1e-12)
        assert v == pytest.approx(-1.219240, abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pi = rng.dirichlet(np.ones(3))
        mu = rng.gamma(5, 2, size=3)
        phi = rng.gamma(2, 1, size=3)
        base = mixture_log_lik(6, pi, mu, phi)
        perm = [2, 0, 1]
        assert mixture_log_lik(6, pi[perm], mu[perm], phi[perm]) == pytest.approx(
            base, rel=1e-12
        )


class TestMomentMatch:
    def test_fixture(self):
        data = np.array([2.0, 6.0])  # mean 4, sample variance 8
        assert models.moment_match_mu_prior(data) == (2.0, 0.5)

    def test_poisson_boundary(self):
        # mean == variance == m gives shape m, rate 1
        data = np.array([3.0, 5.0, 4.0])  # mean 4, var 1 -> scale to var 4
        data = (data - 4.0) * 2.0 + 4.0  # mean 4, var 4
        shape, rate = models.moment_match_mu_prior(data)
        assert shape == pytest.approx(4.0)
        assert rate == pytest.approx(1.0)

    def test_presidents_round_trip(self):
        days = datasets.presidents_days()
        shape, rate = models.moment_match_mu_prior(days)
        assert shape / rate == pytest.approx(days.mean(), rel=1e-12)
        assert shape / rate**2 == pytest.approx(days.var(ddof=1), rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            models.moment_match_mu_prior(np.full(5, 3.0))
        # One count or none has no sample variance: refused before numpy
        # warns, and before a model is built with NaN prior means.
        for counts in ([3.0], []):
            with pytest.raises(ValueError, match="need at least 2 counts"):
                models.moment_match_mu_prior(np.array(counts))
            with pytest.raises(ValueError, match="need at least 2 counts"):
                models.nb2_mixture_model(np.array(counts))

    @pytest.mark.parametrize(
        "counts", [[0.0, 1e300, 2e300], [1e308, 1.7e308, 3.0], [1e160, 1e160 * (1 + 1e-10)]]
    )
    def test_overflowing_moments_rejected(self, counts):
        # Each overflows one step: the variance's square, the mean's sum, m * m.
        # pytest raises numpy's overflow warning, so a warning fails this test.
        for build in (models.moment_match_mu_prior, models.nb2_mixture_model):
            with pytest.raises(ValueError, match="^moments must be finite and variance > 0"):
                build(np.array(counts))


_STATE = (("AK", "AL"), np.array([0, 1, 0]))


def _vote_table(**changes):
    columns = dict(
        vote=np.array([0, 1, 1]),
        female=np.array([1, 0, 1]),
        black=np.array([0, 0, 1]),
        groups={"state": _STATE},
    )
    return models.VoteTable(**{**columns, **changes})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: models.relabel_by_dispersion(np.zeros((4, 8))), "expected draws with 9 columns"),
        (lambda: _vote_table(female=np.array([1, 0])), "column female has wrong length"),
        (
            lambda: _vote_table(groups={"state": (("AK", "AL"), np.array([0, 2, 1]))}),
            "column state has a code out of range",
        ),
        (
            lambda: _vote_table(groups={"state": _STATE, "age": (("20", "40"), np.array([0, 1]))}),
            "column age has wrong length",
        ),
        (
            lambda: _vote_table(groups={"state": _STATE, "edu": (("hs",), np.array([0, 1, 0]))}),
            "column edu has a code out of range",
        ),
        (
            lambda: _vote_table(groups={"age": (("20",), np.zeros(3, np.int64))}),
            "a vote table needs named group columns, 'state' among them",
        ),
        (
            lambda: _vote_table(groups={"state": _STATE, None: (("20",), np.zeros(3, np.int64))}),
            "a vote table needs named group columns, 'state' among them",
        ),
        (
            lambda: _vote_table(groups={"state": _STATE, "": (("20",), np.zeros(3, np.int64))}),
            "a vote table needs named group columns, 'state' among them",
        ),
        (
            lambda: _vote_table(
                **{c: np.zeros(0, np.int64) for c in ("vote", "female", "black")},
                groups={"state": (("AK",), np.zeros(0, np.int64))},
            ),
            "a vote table needs at least one row",
        ),
        (
            lambda: models.hier_logreg_model(_vote_table(), "with_age"),
            "variant 'with_age' needs the group column 'age'; the table has state",
        ),
        (
            lambda: models.hier_logreg_model(_vote_table(), "with_state"),
            f"variant must be one of {models.HIER_VARIANTS}",
        ),
        (
            lambda: models.simulate_votes(10, seed=0, variant="with_state"),
            f"variant must be one of {models.HIER_VARIANTS}",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestDatasets:
    def test_shape_and_ids(self):
        days = datasets.presidents_days()
        ids = datasets.presidents_ids()
        assert days.size == 43
        assert len(ids) == 43
        assert len(set(ids)) == 43
        assert ids[8] == "Harrison-09" and days[8] == 31
        assert ids[31] == "Roosevelt-32" and days[31] == 4452
        assert ids[19] == "Garfield-20" and days[19] == 199


class TestNB2MixtureModel:
    def test_factorization_identity(self):
        days = datasets.presidents_days()
        model = models.nb2_mixture_model(days)
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = rng.normal(scale=0.5, size=model.dim)
            theta = model.transform.constrain(
                model.transform.unconstrain(model.prior_mean) + z
            )
            total = model.pointwise_row(theta).sum()
            assert model.log_joint(theta) == pytest.approx(
                model.log_prior(theta) + total, rel=1e-10
            )

    def test_target_within_4_eps_of_scipy(self):
        # The model's own max-shift logsumexp is not scipy's algorithm, so
        # rows agree to a few ulp (1 eps measured), ties and zero weights too;
        # log_joint still sums exactly the row the sampler's matrix gets.
        days = datasets.presidents_days()
        model = models.nb2_mixture_model(days)
        shape, rate = models.moment_match_mu_prior(days)
        rng = np.random.default_rng(7)
        for trial in range(240):
            pi = rng.dirichlet(np.ones(3))
            mu = np.exp(rng.uniform(0.0, 9.0, size=3))
            phi = np.exp(rng.uniform(-3.0, 8.0, size=3))
            if trial % 3 == 1:
                mu[1], phi[1] = mu[0], phi[0]
            if trial % 3 == 2:
                pi[trial % 2] = 0.0
            theta = np.concatenate([pi, mu, phi])
            comp = models.nb2_log_pmf(days[:, None], mu, phi)
            expected = logsumexp(comp, axis=1, b=pi)
            row = model.pointwise_row(theta)
            np.testing.assert_allclose(row, expected, rtol=4 * np.finfo(float).eps, atol=0)
            prior = (
                gammaln(3)
                + gamma_logpdf(mu, shape, rate).sum()
                + gamma_logpdf(phi, 1.0, 0.01).sum()
            )
            assert model.log_prior(theta) == prior
            assert model.log_joint(theta) == prior + row.sum()

    def test_non_finite_rows_bitwise_equal_scipy(self):
        # A row with no finite maximum is not shifted. Shifted by -inf, an
        # all -inf row would be NaN, where scipy gives -inf: the sampler
        # stops on a NaN target but rejects a -inf one.
        a = np.array(
            [
                [-np.inf, -np.inf, -np.inf],
                [-1.0, -2.0, -3.0],
                [-1.0, np.inf, -3.0],
                [-1.0, np.nan, -3.0],
                [-0.5, -2.0, -1.0],
            ]
        )
        b = np.full_like(a, 0.25)
        b[1] = 0.0
        got = models._logsumexp_components(a.T[:, :, None], b.T[:, :, None])[:, 0]
        want = np.array([logsumexp(row, b=w) for row, w in zip(a, b)])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert want[0] == want[1] == -np.inf

    def test_repeated_counts_within_4_eps_of_scipy(self):
        # The components are scored once per distinct count and gathered back;
        # here every count repeats, in no particular order.
        data = np.array([40.0, 5.0, 1460.0, 3.0, 40.0, 1460.0, 5.0, 3.0, 1460.0, 40.0])
        model = models.nb2_mixture_model(data)
        rng = np.random.default_rng(11)
        thetas = []
        for trial in range(60):
            pi = rng.dirichlet(np.ones(3))
            mu = np.exp(rng.uniform(0.0, 8.0, size=3))
            phi = np.exp(rng.uniform(-3.0, 8.0, size=3))
            if trial % 3 == 1:
                mu[2], phi[2] = mu[0], phi[0]
            if trial % 3 == 2:
                pi[trial % 2] = 0.0
            thetas.append(np.concatenate([pi, mu, phi]))
            expected = logsumexp(models.nb2_log_pmf(data[:, None], mu, phi), axis=1, b=pi)
            row = model.pointwise_row(thetas[-1])
            np.testing.assert_allclose(row, expected, rtol=4 * np.finfo(float).eps, atol=0)
            assert model.log_joint(thetas[-1]) == model.log_prior(thetas[-1]) + row.sum()
        rows = model.pointwise_row(np.array(thetas))
        assert rows.flags.c_contiguous
        for theta, row in zip(thetas, rows):
            assert np.array_equal(row, model.pointwise_row(theta))

    def test_target_rejects_bad_params(self):
        model = models.nb2_mixture_model(datasets.presidents_days())
        theta = np.array([0.2, 0.3, 0.5, 100.0, 1000.0, 3000.0, 1.0, 10.0, 100.0])
        bad_mu = theta.copy()
        bad_mu[4] = np.inf
        with pytest.raises(ValueError, match="mu and phi must be finite"):
            model.log_joint(bad_mu)
        bad_phi = theta.copy()
        bad_phi[7] = 0.0
        with pytest.raises(ValueError, match="mu and phi must be > 0"):
            model.log_joint(bad_phi)

    def test_prior_mean_layout(self):
        days = datasets.presidents_days()
        model = models.nb2_mixture_model(days)
        assert model.dim == 8
        assert np.allclose(model.prior_mean[:3], 1 / 3)
        assert model.prior_mean[3] == pytest.approx(days.mean())
        assert model.prior_mean[6] == pytest.approx(100.0)

    def test_relabel_by_dispersion(self):
        # two draws with swapped labels; key mu + mu^2/phi
        draw_a = [0.2, 0.3, 0.5, 1461.0, 2896.0, 1578.0, 470.0, 509.0, 1.3]
        draw_b = [0.5, 0.3, 0.2, 1578.0, 2896.0, 1461.0, 1.3, 509.0, 470.0]
        out = models.relabel_by_dispersion(np.array([draw_a, draw_b]))
        assert np.allclose(out[0], out[1])
        assert np.allclose(out[0][3:6], [1461.0, 2896.0, 1578.0])
        assert np.allclose(out[0][:3], [0.2, 0.3, 0.5])

    def test_relabel_equals_per_block_loop(self):
        # The reference is the old per-block loop; keys tie in a third of the draws.
        rng = np.random.default_rng(12)
        draws = rng.gamma(2.0, 50.0, size=(300, 9))
        draws[::3, 4:6] = draws[::3, 3:4]
        draws[::3, 7:9] = draws[::3, 6:7]
        K = 3
        mu, phi = draws[:, K : 2 * K], draws[:, 2 * K :]
        order = np.argsort(mu + mu * mu / phi, axis=1)
        want = draws.copy()
        rows = np.arange(len(draws))[:, None]
        for block in range(3):
            want[:, block * K : block * K + K] = draws[:, block * K : block * K + K][rows, order]
        got = models.relabel_by_dispersion(draws)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rejects_non_counts(self):
        with pytest.raises(ValueError):
            models.nb2_mixture_model(np.array([1.5, 2.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_counts(self, bad):
        counts = np.array([3.0, 5.0, bad, 7.0])
        with pytest.raises(ValueError, match="counts must be non-negative integers"):
            models.nb2_mixture_model(counts)
        with pytest.raises(ValueError, match="counts must be non-negative integers"):
            models.nb2_mixture_model(counts, ids=["a", "b", "c", "d"])

    def test_rejects_counts_not_1d(self):
        # Checked first: these would fail the count check or build no ids.
        for counts in ([[1.0, 2.0], [3.0, 5.0]], [[np.nan, 2.0]], 3.0):
            with pytest.raises(ValueError, match="counts must be 1-D"):
                models.nb2_mixture_model(np.array(counts))

    def test_rejects_ids_of_another_length(self):
        with pytest.raises(ValueError, match="2 datapoint ids for 43 counts"):
            models.nb2_mixture_model(datasets.presidents_days(), ids=("a", "b"))


class TestGammaToy:
    def test_posterior_predictive_matches_quadrature(self):
        data = models.simulate_toy_data(10, seed=123)
        a_post, b_post = models.toy_posterior(data)
        for x in (0.5, 5.0, 15.0):
            closed = models.toy_posterior_predictive_logpdf(x, data)
            val, _ = quad(
                lambda b: np.exp(gamma_logpdf(x, 5.0, b) + gamma_logpdf(b, a_post, b_post)),
                0,
                np.inf,
            )
            assert closed == pytest.approx(math.log(val), abs=1e-8)

    def test_posterior_predictive_normalizes(self):
        data = models.simulate_toy_data(10, seed=123)
        total, _ = quad(
            lambda x: np.exp(models.toy_posterior_predictive_logpdf(x, data)),
            0,
            np.inf,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_posterior_predictive_matches_monte_carlo(self):
        data = models.simulate_toy_data(10, seed=123)
        draws = models.toy_posterior_draws(data, 20000, seed=77)
        beta = draws.draws[:, 0]
        for x in (0.5, 5.0, 15.0):
            col = gamma_logpdf(x, 5.0, beta)
            s = summarize_one(col)
            mc, se = s["log_mu"], s["log_mu_mcse"]
            closed = models.toy_posterior_predictive_logpdf(x, data)
            assert abs(mc - closed) < 3 * se

    def test_eval_points_swap_columns_not_posterior(self):
        data = models.simulate_toy_data(6, seed=0)
        grid = np.array([1.0, 2.0, 3.0])
        model = models.gamma_toy_model(data, eval_points=grid)
        assert model.data_count == 3
        theta = np.array([0.9])
        assert model.pointwise_row(theta) == pytest.approx(
            gamma_logpdf(grid, 5.0, 0.9), rel=1e-12
        )
        # log_joint still conditions on the original 6 observations
        base = models.gamma_toy_model(data)
        assert model.log_joint(theta) == pytest.approx(base.log_joint(theta), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            models.gamma_toy_model(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            models.toy_posterior_predictive_logpdf(0.0, np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, bad):
        with pytest.raises(ValueError, match="data must be strictly positive and finite"):
            models.gamma_toy_model(np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_eval_points(self, bad):
        with pytest.raises(ValueError, match="eval points must be strictly positive and finite"):
            models.gamma_toy_model(np.array([1.0, 2.0]), eval_points=[0.5, bad])

    def test_rejects_data_not_1d(self):
        with pytest.raises(ValueError, match="data must be 1-D"):
            models.gamma_toy_model(np.ones((2, 2)))
        with pytest.raises(ValueError, match="data must be 1-D"):
            models.toy_posterior(np.ones((2, 2)))

    def test_rejects_eval_points_not_1d(self):
        with pytest.raises(ValueError, match="eval points must be 1-D"):
            models.gamma_toy_model(np.array([1.0, 2.0]), eval_points=np.ones((2, 2)))

    def test_factorization_identity(self):
        data = models.simulate_toy_data(7, seed=3)
        model = models.gamma_toy_model(data)
        for beta in (0.3, 1.0, 2.7):
            theta = np.array([beta])
            assert model.log_joint(theta) == pytest.approx(
                model.log_prior(theta) + model.pointwise_row(theta).sum(), rel=1e-10
            )


def log_sigmoid(eta):
    """log(sigmoid(eta)), stable on both tails: the two-call oracle."""
    eta = np.asarray(eta, dtype=np.float64)
    tail = np.log1p(np.exp(-np.abs(eta)))
    return np.where(eta >= 0, -tail, eta - tail)


def log_sigmoid_y1(eta):
    """The logistic log-likelihood of y = 1, which is log sigmoid(eta)."""
    return float(models._bernoulli_logit_loglik(1.0, np.float64(eta)))


class TestLogSigmoid:
    def test_zero(self):
        assert log_sigmoid_y1(0.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_large_positive_stable_form(self):
        assert log_sigmoid_y1(35.0) == -math.log1p(math.exp(-35.0))
        assert log_sigmoid_y1(35.0) != 0.0

    def test_large_negative_linear_tail(self):
        v = log_sigmoid_y1(-35.0)
        assert np.isfinite(v)
        assert v == pytest.approx(-35.0, abs=1e-12)

    def test_one_tail_likelihood_equals_two_calls_bitwise(self):
        rng = np.random.default_rng(3)
        eta = np.concatenate(
            [
                [0.0, -0.0, 700.0, -700.0, 750.0, -750.0, 1e300, -1e300, 5e-324, -5e-324],
                rng.normal(0.0, 3.0, 200),
                rng.normal(0.0, 1e4, 50),
            ]
        )
        for y in (np.zeros(eta.size), np.ones(eta.size), rng.integers(0, 2, eta.size) * 1.0):
            want = y * log_sigmoid(eta) + (1.0 - y) * log_sigmoid(-eta)
            got = models._bernoulli_logit_loglik(2 * y - 1, eta)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestHierLogReg:
    def _table(self, n=60, variant="base", seed=0):
        return models.simulate_votes(n, seed=seed, variant=variant)

    def test_pointwise_values(self):
        table, _ = self._table()
        model = models.hier_logreg_model(table, "base")
        theta = model.prior_mean.copy()
        theta[3] = 1.0  # sigma_state irrelevant to the likelihood path
        row = model.pointwise_row(theta)
        # all latents zero: every observation has probability 1/2
        assert np.allclose(row, math.log(0.5))

    def test_factorization_identity(self):
        for variant in models.HIER_VARIANTS:
            table, _ = self._table(variant=variant, seed=2)
            model = models.hier_logreg_model(table, variant)
            rng = np.random.default_rng(5)
            z = model.transform.unconstrain(model.prior_mean) + 0.3 * rng.standard_normal(
                model.dim
            )
            theta = model.transform.constrain(z)
            assert model.log_joint(theta) == pytest.approx(
                model.log_prior(theta) + model.pointwise_row(theta).sum(), rel=1e-10
            )

    @pytest.mark.parametrize(
        "variant, sigma_coords",
        [("base", [3]), ("with_age", [3, 8]), ("with_edu", [3, 8])],
    )
    def test_parameter_layout(self, variant, sigma_coords):
        # [beta_female, beta_black, mu_s, sigma_s, alpha_s (3)] plus
        # [mu_e, sigma_e, alpha_e (2)] for the expanded variants
        extra = "age" if variant == "with_age" else "edu"
        table = every_cell_table(n_states=3, n_extra=2, extra=extra)
        model = models.hier_logreg_model(table, variant)
        h = 10.0 * math.sqrt(2.0 / math.pi)
        want = [0.0, 0.0, 0.0, h, 0.0, 0.0, 0.0]
        if variant != "base":
            want += [0.0, h, 0.0, 0.0]
        assert model.dim == len(want)
        assert model.prior_mean.tolist() == want
        z = np.random.default_rng(3).standard_normal(model.dim)
        assert model.transform.log_jacobian(z) == z[sigma_coords].sum()
        theta = model.transform.constrain(z)
        free = np.setdiff1d(np.arange(model.dim), sigma_coords)
        assert same_bits(theta[sigma_coords], np.exp(z[sigma_coords]))
        assert same_bits(theta[free], z[free])

    def test_variant_needs_extra_column(self):
        table, _ = self._table(variant="base")
        with pytest.raises(ValueError):
            models.hier_logreg_model(table, "with_age")

    @pytest.mark.parametrize(
        "table_variant, variant, message",
        [
            ("with_edu", "with_age", "needs the group column 'age'; the table has state, edu"),
            ("with_age", "with_edu", "needs the group column 'edu'; the table has state, age"),
        ],
    )
    def test_variant_rejects_the_other_column(self, table_variant, variant, message):
        table, _ = self._table(n=200, variant=table_variant)
        with pytest.raises(ValueError, match=message):
            models.hier_logreg_model(table, variant)

    def test_vote_table_validation(self):
        with pytest.raises(ValueError):
            models.VoteTable(
                vote=np.array([0, 2]),
                female=np.array([0, 1]),
                black=np.array([0, 0]),
                groups={"state": (("aa",), np.array([0, 0]))},
            )

    def test_vote_table_has_no_unnamed_group_column(self):
        table, _ = self._table(variant="with_age")
        assert list(table.groups) == ["state", "age"]
        with pytest.raises(TypeError):
            table.groups["edu"] = table.groups["age"]  # the checked mapping is read-only
        columns = dict(vote=table.vote, female=table.female, black=table.black)
        with pytest.raises(TypeError):  # the removed separate column
            models.VoteTable(**columns, groups=table.groups, extra=table.groups["age"][1])

    def test_synthetic_generator_truth_and_shapes(self):
        table, truth = models.simulate_votes(500, seed=1, variant="with_age")
        assert table.n == 500
        assert list(table.groups) == ["state", "age"]
        assert truth["beta_black"] == -2.0
        assert len(truth["alpha_age"]) == len(table.groups["age"][0])

    def test_sign_recovery_smallish(self):
        # quick version of the acceptance check: N=1200, short chain
        table, truth = models.simulate_votes(1200, seed=11)
        model = models.hier_logreg_model(table, "base")
        d = pk.adaptive_rw_metropolis(
            model, pk.SamplerConfig(warmup_steps=800, kept_draws=400, seed=5)
        )
        assert d.posterior_mean[0] < 0  # beta_female
        assert d.posterior_mean[1] < 0  # beta_black


def std_normal_logpdf(x, scale=1.0):
    x = np.asarray(x, dtype=np.float64)
    return -0.5 * (x / scale) ** 2 - np.log(scale) - 0.5 * np.log(2.0 * np.pi)


def per_respondent_target(table, variant):
    """The voting target evaluated respondent by respondent: (row, prior, joint)."""
    female = table.female.astype(np.float64)
    black = table.black.astype(np.float64)
    y = table.vote.astype(np.float64)
    state_codes, state = table.groups["state"]
    extra_codes, extra = table.groups.get(variant.removeprefix("with_"), ((), None))
    n_states, n_extra = len(state_codes), len(extra_codes)

    def row(theta):
        eta = theta[0] * female + theta[1] * black + theta[4 : 4 + n_states][state]
        if n_extra:
            off = 4 + n_states
            eta = eta + theta[off + 2 : off + 2 + n_extra][extra]
        return y * log_sigmoid(eta) + (1.0 - y) * log_sigmoid(-eta)

    def prior(theta):
        mu_s, sigma_s, alpha_s = theta[2], theta[3], theta[4 : 4 + n_states]
        lp = std_normal_logpdf(theta[:2]).sum()
        lp += std_normal_logpdf(mu_s, 10.0)
        lp += std_normal_logpdf(sigma_s, 10.0)
        lp += std_normal_logpdf((alpha_s - mu_s) / sigma_s).sum() - n_states * np.log(sigma_s)
        if n_extra:
            off = 4 + n_states
            mu_e, sigma_e = theta[off], theta[off + 1]
            alpha_e = theta[off + 2 : off + 2 + n_extra]
            lp += std_normal_logpdf(mu_e, 10.0)
            lp += std_normal_logpdf(sigma_e, 10.0)
            lp += std_normal_logpdf((alpha_e - mu_e) / sigma_e).sum() - n_extra * np.log(
                sigma_e
            )
        return float(lp)

    return row, prior, lambda theta: prior(theta) + float(np.sum(row(theta)))


def same_bits(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def every_cell_table(n_states, n_extra, extra="edu"):
    """One respondent per (vote, female, black, state, extra) tuple, shuffled."""
    grid = np.stack(
        np.meshgrid(*[np.arange(k) for k in (2, 2, 2, n_states, n_extra)], indexing="ij"),
        axis=-1,
    ).reshape(-1, 5)
    grid = grid[np.random.default_rng(4).permutation(len(grid))]
    return models.VoteTable(
        vote=grid[:, 0],
        female=grid[:, 1],
        black=grid[:, 2],
        groups={
            "state": (tuple(f"s{j}" for j in range(n_states)), grid[:, 3]),
            extra: (tuple(f"e{g}" for g in range(n_extra)), grid[:, 4]),
        },
    )


class TestHierLogRegCells:
    """The cell-wise target gives each respondent the bits of a per-respondent evaluation.

    ``log_joint`` adds each cell's value once, weighted by its respondent
    count: bitwise the sum of a cell-count oracle, and within 4 eps relative
    of the per-respondent sum, which adds the same terms in another order
    (1.7 eps is the largest gap seen on these thetas).
    """

    def _thetas(self, model, table):
        rng = np.random.default_rng(17)
        z0 = model.transform.unconstrain(model.prior_mean)
        out = [
            model.transform.constrain(z0 + scale * rng.standard_normal(model.dim))
            for scale in (0.3, 1.0, 3.0)
            for _ in range(6)
        ]
        n_states = len(table.groups["state"][0])
        for sign in (1.0, -1.0):  # etas of +-700 and beyond
            theta = out[0].copy()
            theta[4 : 4 + n_states] = sign * 700.0
            theta[:2] = [0.0, -sign * 0.5]
            out.append(theta)
        return out

    def _check(self, table, variant):
        model = models.hier_logreg_model(table, variant)
        row, prior, joint = per_respondent_target(table, variant)
        _, first, cells = np.unique(model.cells, return_index=True, return_inverse=True)
        assert model.data_count == table.n
        for theta in self._thetas(model, table):
            got = model.pointwise_row(theta)
            assert got.shape == (table.n,)
            assert same_bits(got, row(theta))
            assert same_bits(model.log_prior(theta), prior(theta))
            by_count = prior(theta) + (row(theta)[first] * np.bincount(cells)).sum()
            assert same_bits(model.log_joint(theta), by_count)
            np.testing.assert_allclose(
                model.log_joint(theta), joint(theta), rtol=4 * np.finfo(float).eps, atol=0
            )

    @pytest.mark.parametrize("variant", models.HIER_VARIANTS)
    def test_simulated_tables(self, variant):
        table, _ = models.simulate_votes(400, seed=6, variant=variant)
        self._check(table, variant)
        if variant != "base":
            self._check(table, "base")  # the extra column is ignored

    def test_table_read_from_csv(self, tmp_path):
        rng = np.random.default_rng(9)
        lines = ["vote,sex,race,state,age"] + [
            f"{rng.integers(2)},{rng.integers(2)},{rng.integers(2)},"
            f"{rng.choice(['ny', 'ca', 'tx'])},{rng.choice([20, 40, 70])}"
            for _ in range(150)
        ]
        path = tmp_path / "votes.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = reportio.read_votes_csv(path)
        self._check(table, "base")
        self._check(table, "with_age")

    def test_one_cell(self):
        ones = np.ones(25, dtype=np.int64)
        table = models.VoteTable(
            vote=ones, female=0 * ones, black=ones, groups={"state": (("only",), 0 * ones)}
        )
        self._check(table, "base")

    @pytest.mark.parametrize("variant", ["base", "with_edu"])
    def test_every_respondent_its_own_cell(self, variant):
        self._check(every_cell_table(n_states=3, n_extra=2), variant)

    def test_returned_row_is_a_fresh_array(self):
        table, _ = models.simulate_votes(200, seed=1)
        model = models.hier_logreg_model(table)
        theta = self._thetas(model, table)[1]
        first, joint = model.pointwise_row(theta), model.log_joint(theta)
        want = first.copy()
        first[:] = 0.0
        assert same_bits(model.pointwise_row(theta), want)
        assert same_bits(model.log_joint(theta), joint)

    def test_only_pointwise_row_gathers_to_the_respondents(self):
        table, _ = models.simulate_votes(20000, seed=2)
        model = models.hier_logreg_model(table)
        rng = np.random.default_rng(5)
        z = model.transform.unconstrain(model.prior_mean) + rng.normal(size=(8, model.dim))
        theta = model.transform.constrain(z)
        gathered = 8 * table.n * 8  # bytes of one (8, N) float64 array

        def peak(target):
            tracemalloc.start()
            try:
                target(theta)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # log_joint's arrays are (8, cells), with 64 cells here: a few KB.
        assert peak(model.log_joint) < gathered / 20
        assert peak(model.pointwise_row) >= gathered


def _built_in_models():
    days = datasets.presidents_days()
    out = {
        "nb2": models.nb2_mixture_model(days, datasets.presidents_ids()),
        "gamma-toy": models.gamma_toy_model(models.simulate_toy_data(12, seed=2)),
        "gamma-toy-eval": models.gamma_toy_model(
            models.simulate_toy_data(12, seed=2), eval_points=[0.5, 1.0, 2.0, 4.0, 8.0]
        ),
    }
    for variant in models.HIER_VARIANTS:
        table, _ = models.simulate_votes(400, seed=1, variant=variant)
        out[f"voting-{variant}"] = models.hier_logreg_model(table, variant)
    return out


BUILT_IN_MODELS = _built_in_models()


@pytest.mark.parametrize("name", sorted(BUILT_IN_MODELS))
def test_sizes_agree_with_the_ids_and_the_transform(name):
    model = BUILT_IN_MODELS[name]
    n = len(model.datapoint_ids)
    assert model.data_count == n
    assert model.pointwise_row(model.prior_mean).shape == (n,)
    if model.cells is not None:
        assert len(model.cells) == n
    assert model.prior_mean.shape == (model.transform.constrained_dim,)


class TestBatchedTarget:
    """Each row of an (R, P) batch gets the bits of the same theta passed alone.

    The (P,) theta and the batch run the same lines over the last axis, but
    are two separate evaluations, so the bitwise checks compare real work.
    """

    @given(st.sampled_from(sorted(BUILT_IN_MODELS)), st.integers(1, 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_row_equals_the_single_call(self, name, rows, data):
        model = BUILT_IN_MODELS[name]
        tf = model.transform
        offsets = data.draw(
            hnp.arrays(np.float64, (rows, model.dim), elements=st.floats(-3.0, 3.0))
        )
        z = tf.unconstrain(model.prior_mean) + offsets
        theta = tf.constrain(z)
        log_jac = tf.log_jacobian(z)
        prior, joint = model.log_prior(theta), model.log_joint(theta)
        pointwise = model.pointwise_row(theta)
        assert theta.shape == (rows, tf.constrained_dim)
        assert log_jac.shape == prior.shape == joint.shape == (rows,)
        assert pointwise.shape == (rows, model.data_count)
        for r in range(rows):
            one = tf.constrain(z[r])
            assert same_bits(theta[r], one)
            singles = [tf.log_jacobian(z[r]), model.log_prior(one), model.log_joint(one)]
            assert all(isinstance(v, float) for v in singles)  # np.float64 is a float
            assert same_bits([log_jac[r], prior[r], joint[r]], singles)
            assert same_bits(pointwise[r], model.pointwise_row(one))


class TestDeclaredCells:
    """Datapoints a model declares to share a cell share ``pointwise_row`` bits."""

    @given(
        st.sampled_from(["nb2"] + [f"voting-{v}" for v in models.HIER_VARIANTS]),
        st.integers(1, 8),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cells_are_bitwise_equal(self, name, rows, data):
        model = BUILT_IN_MODELS[name]
        _, first, inverse = np.unique(model.cells, return_index=True, return_inverse=True)
        assert first.size < model.data_count  # some datapoints share a cell
        offsets = data.draw(
            hnp.arrays(np.float64, (rows, model.dim), elements=st.floats(-3.0, 3.0))
        )
        theta = model.transform.constrain(model.transform.unconstrain(model.prior_mean) + offsets)
        pointwise = model.pointwise_row(theta)
        # Each datapoint against the first datapoint of its cell.
        assert same_bits(pointwise, pointwise[:, first[inverse]])
