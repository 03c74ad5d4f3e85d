import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

import pdikit as pk
from pdikit import datasets, models, reportio


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

    def test_target_bitwise_equals_scipy(self):
        # The sampler's chain is only reproducible if the model's own
        # logsumexp returns scipy's bits exactly, ties and zero weights too.
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
            assert np.array_equal(model.pointwise_row(theta), expected)
            prior = (
                gammaln(3)
                + gamma_logpdf(mu, shape, rate).sum()
                + gamma_logpdf(phi, 1.0, 0.01).sum()
            )
            assert model.log_prior(theta) == prior
            assert model.log_joint(theta) == prior + expected.sum()

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

    def test_rejects_non_counts(self):
        with pytest.raises(ValueError):
            models.nb2_mixture_model(np.array([1.5, 2.0]))


class TestGammaToy:
    def test_posterior_predictive_matches_quadrature(self):
        data = models.simulate_toy_data(10, seed=123)
        a_post, b_post = pk.conjugate_gamma_posterior(data, 1.0, 1.0, 5.0)
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
        draws = pk.conjugate_gamma_draws(data, 1.0, 1.0, 5.0, 20000, seed=77)
        beta = draws.draws[:, 0]
        for x in (0.5, 5.0, 15.0):
            col = gamma_logpdf(x, 5.0, beta)
            mc = pk.log_posterior_predictive(col)
            se = pk.log_posterior_predictive_mcse(col)
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
            got = models._bernoulli_logit_loglik(y, eta)
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

    def test_variant_needs_extra_column(self):
        table, _ = self._table(variant="base")
        with pytest.raises(ValueError):
            models.hier_logreg_model(table, "with_age")

    def test_vote_table_validation(self):
        with pytest.raises(ValueError):
            models.VoteTable(
                vote=np.array([0, 2]),
                female=np.array([0, 1]),
                black=np.array([0, 0]),
                state=np.array([0, 0]),
                state_codes=("aa",),
            )

    def test_synthetic_generator_truth_and_shapes(self):
        table, truth = models.simulate_votes(500, seed=1, variant="with_age")
        assert table.n == 500
        assert table.extra is not None
        assert truth["beta_black"] == -2.0
        assert len(truth["alpha_age"]) == len(table.extra_codes)

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
    n_states = len(table.state_codes)
    n_extra = len(table.extra_codes) if variant != "base" else 0

    def row(theta):
        eta = theta[0] * female + theta[1] * black + theta[4 : 4 + n_states][table.state]
        if n_extra:
            off = 4 + n_states
            eta = eta + theta[off + 2 : off + 2 + n_extra][table.extra]
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


def every_cell_table(n_states, n_extra):
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
        state=grid[:, 3],
        state_codes=tuple(f"s{j}" for j in range(n_states)),
        extra=grid[:, 4],
        extra_codes=tuple(f"e{g}" for g in range(n_extra)),
    )


class TestHierLogRegCells:
    """The cell-wise target gives each respondent the bits of a per-respondent evaluation."""

    def _thetas(self, model, table):
        rng = np.random.default_rng(17)
        z0 = model.transform.unconstrain(model.prior_mean)
        out = [
            model.transform.constrain(z0 + scale * rng.standard_normal(model.dim))
            for scale in (0.3, 1.0, 3.0)
            for _ in range(6)
        ]
        n_states = len(table.state_codes)
        for sign in (1.0, -1.0):  # etas of +-700 and beyond
            theta = out[0].copy()
            theta[4 : 4 + n_states] = sign * 700.0
            theta[:2] = [0.0, -sign * 0.5]
            out.append(theta)
        return out

    def _check(self, table, variant):
        model = models.hier_logreg_model(table, variant)
        row, prior, joint = per_respondent_target(table, variant)
        assert model.data_count == table.n
        for theta in self._thetas(model, table):
            got = model.pointwise_row(theta)
            assert got.shape == (table.n,)
            assert same_bits(got, row(theta))
            assert same_bits(model.log_prior(theta), prior(theta))
            assert same_bits(model.log_joint(theta), joint(theta))

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
            vote=ones, female=0 * ones, black=ones, state=0 * ones, state_codes=("only",)
        )
        self._check(table, "base")

    @pytest.mark.parametrize("variant", ["base", "with_edu"])
    def test_every_respondent_its_own_cell(self, variant):
        self._check(every_cell_table(n_states=3, n_extra=2), variant)

    def test_returned_row_is_a_fresh_array(self):
        table, _ = models.simulate_votes(200, seed=1)
        model = models.hier_logreg_model(table)
        theta = self._thetas(model, table)[1]
        first = model.pointwise_row(theta)
        want = first.copy()
        first[:] = 0.0
        assert same_bits(model.pointwise_row(theta), want)
        assert same_bits(model.log_joint(theta), per_respondent_target(table, "base")[2](theta))
