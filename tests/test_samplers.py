import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

import pdikit as pk
from pdikit.transforms import BlockTransform, IdentityBlock, PositiveBlock, SimplexBlock

unconstrained = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)
# Stick-breaking loses precision as sticks shrink; +-5 covers simplex weights
# from well under 1% to over 99% while staying within the 1e-12 contract.
simplex_coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def mcse_mean(values, n_batches: int = 50) -> float:
    """Batch-means Monte Carlo standard error for the mean of a chain."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2 * n_batches:
        raise ValueError(f"need at least {2 * n_batches} values")
    batch = x.size // n_batches
    means = x[: batch * n_batches].reshape(n_batches, batch).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def gaussian_model(sd=1.0):
    return pk.ModelSpec(
        name="gaussian",
        transform=BlockTransform([IdentityBlock(1)]),
        log_prior=lambda th: 0.0,
        log_joint=lambda th: float(-0.5 * (th[0] / sd) ** 2),
        pointwise_row=lambda th: np.array([-0.5 * (th[0] / sd) ** 2]),
        data_count=1,
        datapoint_ids=("x",),
        prior_mean=np.array([0.0]),
    )


def one_dim_model(log_joint):
    return pk.ModelSpec(
        name="bad",
        transform=BlockTransform([IdentityBlock(1)]),
        log_prior=lambda th: 0.0,
        log_joint=log_joint,
        pointwise_row=lambda th: np.array([0.0]),
        data_count=1,
        datapoint_ids=("x",),
        prior_mean=np.array([0.0]),
    )


class TestTransforms:
    @given(st.lists(unconstrained, min_size=1, max_size=5))
    def test_positive_round_trip(self, zs):
        z = np.array(zs)
        block = PositiveBlock(len(zs))
        back = block.unconstrain(block.constrain(z))
        assert np.allclose(back, z, atol=1e-12)

    @given(st.lists(simplex_coord, min_size=2, max_size=4))
    def test_simplex_round_trip_and_constraints(self, zs):
        z = np.array(zs[:-1])
        block = SimplexBlock(len(zs))
        x = block.constrain(z)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert np.all(x > 0)
        assert np.allclose(block.unconstrain(x), z, atol=1e-12)

    def test_simplex_zero_maps_to_uniform(self):
        x = SimplexBlock(4).constrain(np.zeros(3))
        assert np.allclose(x, 0.25, atol=1e-15)

    def test_simplex_jacobian_matches_numeric(self):
        block = SimplexBlock(3)
        z = np.array([0.4, -1.1])
        h = 1e-6
        J = np.zeros((2, 2))
        for i in range(2):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            J[:, i] = (block.constrain(zp)[:2] - block.constrain(zm)[:2]) / (2 * h)
        assert block.log_jacobian(z) == pytest.approx(
            math.log(abs(np.linalg.det(J))), abs=1e-7
        )

    def test_block_transform_concatenation(self):
        tf = BlockTransform([SimplexBlock(3), PositiveBlock(2), IdentityBlock(1)])
        assert tf.unconstrained_dim == 5
        assert tf.constrained_dim == 6
        z = np.array([0.1, -0.2, 1.0, 2.0, -3.0])
        theta = tf.constrain(z)
        assert np.allclose(tf.unconstrain(theta), z, atol=1e-10)
        parts = [
            SimplexBlock(3).log_jacobian(z[:2]),
            PositiveBlock(2).log_jacobian(z[2:4]),
            0.0,
        ]
        assert tf.log_jacobian(z) == pytest.approx(sum(parts), rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PositiveBlock(1).unconstrain(np.array([-1.0]))
        with pytest.raises(ValueError):
            SimplexBlock(3).unconstrain(np.array([0.5, 0.2, 0.2]))
        with pytest.raises(ValueError):
            SimplexBlock(1)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = pk.SamplerConfig()
        assert cfg.kept_draws == 1000
        assert cfg.adaptation_target_acceptance == 0.234

    def test_validation(self):
        with pytest.raises(ValueError):
            pk.SamplerConfig(kept_draws=1)
        with pytest.raises(ValueError):
            pk.SamplerConfig(warmup_steps=-1)
        with pytest.raises(ValueError):
            pk.SamplerConfig(thinning=0)


class TestAdaptiveMetropolis:
    def test_gaussian_mean_within_mc_error(self):
        cfg = pk.SamplerConfig(warmup_steps=2000, kept_draws=20000, seed=7)
        d = pk.adaptive_rw_metropolis(gaussian_model(), cfg)
        se = mcse_mean(d.draws[:, 0])
        assert abs(d.posterior_mean[0]) < 3 * se
        assert d.posterior_var[0] == pytest.approx(1.0, abs=0.1)

    def test_same_seed_identical_draws(self):
        cfg = pk.SamplerConfig(warmup_steps=500, kept_draws=400, seed=11)
        d1 = pk.adaptive_rw_metropolis(gaussian_model(), cfg)
        d2 = pk.adaptive_rw_metropolis(gaussian_model(), cfg)
        assert np.array_equal(d1.draws, d2.draws)
        assert d1.acceptance_rate == d2.acceptance_rate

    def test_different_seed_differs(self):
        d1 = pk.adaptive_rw_metropolis(
            gaussian_model(), pk.SamplerConfig(warmup_steps=500, kept_draws=400, seed=1)
        )
        d2 = pk.adaptive_rw_metropolis(
            gaussian_model(), pk.SamplerConfig(warmup_steps=500, kept_draws=400, seed=2)
        )
        assert not np.array_equal(d1.draws, d2.draws)

    def test_tiny_variance_target_adapts(self):
        cfg = pk.SamplerConfig(warmup_steps=3000, kept_draws=2000, seed=3)
        d = pk.adaptive_rw_metropolis(gaussian_model(sd=1e-4), cfg)
        assert 0.1 <= d.acceptance_rate <= 0.5

    def test_nan_log_joint_aborts_with_point(self):
        def bad_joint(th):
            return float("nan") if th[0] > 0.5 else -0.5 * th[0] ** 2

        with pytest.raises(pk.SamplerError, match="NaN"):
            pk.adaptive_rw_metropolis(
                one_dim_model(bad_joint),
                pk.SamplerConfig(warmup_steps=200, kept_draws=100, seed=0),
            )

    def test_plus_inf_log_joint_aborts_with_point(self):
        # Accepting +inf would freeze the chain there: every later proposal
        # has lp_prop - inf = -inf and is rejected.
        def bad_joint(th):
            return float("inf") if th[0] > 0.5 else -0.5 * th[0] ** 2

        with pytest.raises(pk.SamplerError, match=r"\+inf at unconstrained point"):
            pk.adaptive_rw_metropolis(
                one_dim_model(bad_joint),
                pk.SamplerConfig(warmup_steps=200, kept_draws=100, seed=0),
            )

    def test_nonfinite_start_rejected(self):
        model = one_dim_model(lambda th: float("-inf"))
        with pytest.raises(pk.SamplerError, match="initial point"):
            pk.adaptive_rw_metropolis(
                model, pk.SamplerConfig(warmup_steps=10, kept_draws=10, seed=0)
            )

    def test_low_acceptance_warning_attached(self):
        # no warmup and an absurd step size: essentially nothing is accepted
        cfg = pk.SamplerConfig(
            warmup_steps=0, kept_draws=300, initial_step_size=1e6, seed=0
        )
        d = pk.adaptive_rw_metropolis(gaussian_model(sd=1e-3), cfg)
        assert d.acceptance_rate < 0.01
        assert d.warnings and "acceptance" in d.warnings[0]

    def test_thinning_changes_draw_count_not_validity(self):
        cfg = pk.SamplerConfig(warmup_steps=500, kept_draws=100, thinning=5, seed=4)
        d = pk.adaptive_rw_metropolis(gaussian_model(), cfg)
        assert d.draws.shape == (100, 1)

    def test_constrained_draws_satisfy_constraints(self):
        # Simplex + positive blocks: a Dirichlet-like target over pi and a
        # gamma-ish positive coordinate.
        tf = BlockTransform([SimplexBlock(3), PositiveBlock(1)])

        def log_joint(th):
            pi, lam = th[:3], th[3]
            return float(0.5 * np.sum(np.log(pi)) - lam + 0.2 * np.log(lam))

        model = pk.ModelSpec(
            name="constrained",
            transform=tf,
            log_prior=log_joint,
            log_joint=log_joint,
            pointwise_row=lambda th: np.zeros(1),
            data_count=1,
            datapoint_ids=("x",),
            prior_mean=np.array([1 / 3, 1 / 3, 1 / 3, 1.0]),
        )
        d = pk.adaptive_rw_metropolis(
            model, pk.SamplerConfig(warmup_steps=500, kept_draws=500, seed=8)
        )
        pi = d.draws[:, :3]
        assert np.all(np.abs(pi.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(pi > 0)
        assert np.all(d.draws[:, 3] > 0)


class TestConjugateGamma:
    def test_update_fixture(self):
        data = np.full(10, 5.0)
        assert pk.conjugate_gamma_posterior(data, 1.0, 1.0, 5.0) == (51.0, 51.0)

    def test_empty_data_returns_prior(self):
        shape, rate = pk.conjugate_gamma_posterior(np.array([]), 2.0, 3.0, 5.0)
        assert (shape, rate) == (2.0, 3.0)

    def test_doubling_additivity(self):
        rng = np.random.default_rng(0)
        data = rng.gamma(5.0, 1.0, size=8)
        s1, r1 = pk.conjugate_gamma_posterior(data, 1.0, 1.0, 5.0)
        s2, r2 = pk.conjugate_gamma_posterior(np.concatenate([data, data]), 1.0, 1.0, 5.0)
        assert s2 == pytest.approx(s1 + data.size * 5.0)
        assert r2 == pytest.approx(r1 + data.sum())

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            pk.conjugate_gamma_posterior(np.array([1.0, -2.0]), 1.0, 1.0, 5.0)

    def test_posterior_matches_quadrature_oracle(self):
        # Normalize prior x likelihood numerically and compare its mean to the
        # closed-form posterior mean.
        rng = np.random.default_rng(42)
        data = rng.gamma(5.0, 1.0, size=6)
        a_post, b_post = pk.conjugate_gamma_posterior(data, 1.0, 1.0, 5.0)

        def unnorm(beta):
            log_lik = np.sum(
                5.0 * np.log(beta) - gammaln(5.0) + 4.0 * np.log(data) - beta * data
            )
            log_prior = -beta
            return np.exp(log_lik + log_prior)

        z, _ = quad(unnorm, 0, 50)
        mean, _ = quad(lambda b: b * unnorm(b), 0, 50)
        assert mean / z == pytest.approx(a_post / b_post, rel=1e-8)

    def test_exact_draws_match_posterior_moments(self):
        data = np.full(10, 5.0)
        d = pk.conjugate_gamma_draws(data, 1.0, 1.0, 5.0, 40000, seed=1)
        assert d.posterior_mean[0] == pytest.approx(1.0, abs=0.01)
        assert d.acceptance_rate == 1.0

    def test_mh_agrees_with_analytic_posterior_mean(self):
        from pdikit.models import gamma_toy_model, simulate_toy_data

        data = simulate_toy_data(10, rate=1.0, seed=123)
        a_post, b_post = pk.conjugate_gamma_posterior(data, 1.0, 1.0, 5.0)
        model = gamma_toy_model(data)
        d = pk.adaptive_rw_metropolis(
            model, pk.SamplerConfig(warmup_steps=2000, kept_draws=20000, seed=9)
        )
        se = mcse_mean(d.draws[:, 0])
        assert abs(d.posterior_mean[0] - a_post / b_post) < 3 * se


class TestLogLikMatrixFromDraws:
    def test_entries_and_row_sums(self):
        from pdikit.models import gamma_toy_model, simulate_toy_data

        data = simulate_toy_data(4, seed=5)
        model = gamma_toy_model(data)
        draws = pk.conjugate_gamma_draws(data, 1.0, 1.0, 5.0, 50, seed=2)
        mat = pk.loglik_matrix(model, draws)
        assert mat.values.shape == (50, 4)
        # factorization: row sums equal the likelihood part of the log joint
        for s in (0, 17, 49):
            theta = draws.draws[s]
            total = model.log_joint(theta) - model.log_prior(theta)
            assert mat.values[s].sum() == pytest.approx(total, rel=1e-10)

    def test_single_draw_equals_pointwise(self):
        from pdikit.models import gamma_toy_model

        model = gamma_toy_model(np.array([1.0, 2.0]))
        theta = np.array([0.7])
        row = model.pointwise_row(theta)
        draws = pk.posterior_draws_from(np.array([theta, [1.3]]), 1.0, 0)
        values = pk.loglik_matrix(model, draws).values
        assert values[0, 0] == pytest.approx(row[0])
        assert values[0, 1] == pytest.approx(row[1])

    def test_posterior_draws_moments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 2))
        d = pk.posterior_draws_from(x, 0.5, 9)
        assert np.allclose(d.posterior_mean, x.mean(axis=0))
        assert np.allclose(d.posterior_var, x.var(axis=0, ddof=1), rtol=1e-10)

    def test_constant_draws_zero_variance_exact(self):
        d = pk.posterior_draws_from(np.full((25, 3), 0.123456), 1.0, 0)
        assert np.all(d.posterior_var == 0.0)


class TestMcse:
    def test_iid_matches_theory(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100000)
        se = mcse_mean(x)
        assert se == pytest.approx(1.0 / math.sqrt(100000), rel=0.25)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            mcse_mean(np.zeros(10))
