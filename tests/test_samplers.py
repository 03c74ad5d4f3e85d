import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import gammaln

import pdikit as pk
from pdikit.taylor import pointwise_gradient
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


# The helper models take one theta (P,) or a batch (R, P), as ModelSpec asks.
def gaussian_model(sd=1.0):
    return pk.ModelSpec(
        name="gaussian",
        transform=BlockTransform([IdentityBlock(1)]),
        log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
        log_joint=lambda th: -0.5 * (th[..., 0] / sd) ** 2,
        pointwise_row=lambda th: -0.5 * (th[..., :1] / sd) ** 2,
        data_count=1,
        datapoint_ids=("x",),
        prior_mean=np.array([0.0]),
    )


def one_dim_model(log_joint):
    return pk.ModelSpec(
        name="bad",
        transform=BlockTransform([IdentityBlock(1)]),
        log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
        log_joint=log_joint,
        pointwise_row=lambda th: np.zeros(np.shape(th)[:-1] + (1,)),
        data_count=1,
        datapoint_ids=("x",),
        prior_mean=np.array([0.0]),
    )


def per_stick_simplex(z):
    """Stick-breaking of one point, one scalar stick at a time: (x, log|J|)."""
    k = z.size + 1
    x, stick, log_stick, log_jac = np.empty(k), 1.0, 0.0, 0.0
    for i in range(k - 1):
        a = z[i] - np.log(k - 1 - i)
        u = 1.0 / (1.0 + np.exp(-a)) if a >= 0 else np.exp(a) / (1.0 + np.exp(a))
        x[i] = stick * u
        stick *= 1.0 - u
        log_jac += log_stick - np.logaddexp(0.0, -a) - np.logaddexp(0.0, a)
        log_stick += -np.logaddexp(0.0, a)
    x[-1] = stick
    return x, log_jac


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

    def test_one_point_gives_a_point_and_a_float(self):
        blocks = [IdentityBlock(2), PositiveBlock(2), SimplexBlock(3)]
        tf = BlockTransform(blocks)
        z = np.array([0.3, -1.0, 0.5, 2.0, -0.4, 0.7])
        theta = tf.constrain(z)
        assert type(theta) is np.ndarray and theta.shape == (7,)
        for transform, point in [(tf, z), *zip(blocks, (z[:2], z[2:4], z[4:]))]:
            log_jac = transform.log_jacobian(point)
            assert isinstance(log_jac, float) and np.ndim(log_jac) == 0
        assert tf.log_jacobian(z) == pytest.approx(2.5 + SimplexBlock(3).log_jacobian(z[4:]))

    @given(st.integers(2, 6), st.integers(1, 12), st.data())
    @settings(max_examples=60)
    def test_batch_rows_equal_single_points(self, k, rows, data):
        # Wide enough for both logistic branches and sticks of under 1e-13.
        z = data.draw(hnp.arrays(np.float64, (rows, k + 2), elements=st.floats(-30.0, 30.0)))
        tf = BlockTransform([SimplexBlock(k), PositiveBlock(2), IdentityBlock(1)])
        theta, log_jac = tf.constrain(z), tf.log_jacobian(z)
        assert theta.shape == (rows, k + 3) and log_jac.shape == (rows,)
        for r in range(rows):
            one = tf.constrain(z[r])
            assert np.array_equal(theta[r].view(np.uint64), one.view(np.uint64))
            assert np.float64(log_jac[r]).view(np.uint64) == np.float64(
                tf.log_jacobian(z[r])
            ).view(np.uint64)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60)
    def test_simplex_matches_the_per_stick_loop(self, k, data):
        z = data.draw(hnp.arrays(np.float64, k - 1, elements=st.floats(-30.0, 30.0)))
        block = SimplexBlock(k)
        want_x, want_log_jac = per_stick_simplex(z)
        assert np.array_equal(block.constrain(z).view(np.uint64), want_x.view(np.uint64))
        assert np.float64(block.log_jacobian(z)).view(np.uint64) == np.float64(
            want_log_jac
        ).view(np.uint64)

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


def two_loop_metropolis(model, config):
    """Reference sampler: warmup and sampling as two separate sweeps.

    This was the library's implementation before the two phases were merged
    into one loop; the merged sampler must reproduce it bit for bit, since
    the random draws are consumed in the same order.
    """
    tf = model.transform

    def target(z):
        theta = tf.constrain(z)
        lp = model.log_joint(theta) + tf.log_jacobian(z)
        if np.isnan(lp) or lp == np.inf:
            raise pk.SamplerError("non-finite target")
        return float(lp)

    rng = np.random.default_rng(config.seed)
    dim = tf.unconstrained_dim
    z = tf.unconstrain(np.asarray(model.prior_mean, dtype=np.float64))
    lp = target(z)
    log_step = np.full(dim, np.log(config.initial_step_size))
    accept_target = config.adaptation_target_acceptance

    for t in range(config.warmup_steps):
        gain = (t + 1) ** -0.6
        for d in rng.permutation(dim):
            proposal = z.copy()
            proposal[d] += np.exp(log_step[d]) * rng.standard_normal()
            lp_prop = target(proposal)
            alpha = min(1.0, np.exp(min(0.0, lp_prop - lp)))
            if rng.random() < alpha:
                z, lp = proposal, lp_prop
            log_step[d] += (alpha - accept_target) * gain

    step = np.exp(log_step)
    draws = np.empty((config.kept_draws, tf.constrained_dim))
    accepted = 0
    total_updates = 0
    kept = 0
    for t in range(config.kept_draws * config.thinning):
        for d in rng.permutation(dim):
            proposal = z.copy()
            proposal[d] += step[d] * rng.standard_normal()
            lp_prop = target(proposal)
            if np.log(rng.random()) < lp_prop - lp:
                z, lp = proposal, lp_prop
                accepted += 1
            total_updates += 1
        if (t + 1) % config.thinning == 0:
            draws[kept] = tf.constrain(z)
            kept += 1

    rate = accepted / total_updates
    warnings = ()
    if rate < 0.01:
        warnings = (
            f"post-warmup acceptance rate {rate:.4f} < 0.01; "
            "draws are likely unusable",
        )
    return draws, rate, warnings


def _presidents_model():
    from pdikit import datasets, models

    return models.nb2_mixture_model(datasets.presidents_days(), datasets.presidents_ids())


def _voting_model(variant):
    from pdikit import models

    table, _ = models.simulate_votes(300, seed=0, variant=variant)
    return models.hier_logreg_model(table, variant)


class TestOneSweepMatchesTwoLoopReference:
    @pytest.mark.parametrize(
        "make_model, config",
        [
            (_presidents_model, dict(warmup_steps=150, kept_draws=60, seed=42)),
            (lambda: _voting_model("base"), dict(warmup_steps=100, kept_draws=50, seed=0)),
            (lambda: _voting_model("with_edu"), dict(warmup_steps=100, kept_draws=50, seed=3)),
            (gaussian_model, dict(warmup_steps=200, kept_draws=100, thinning=5, seed=4)),
            (
                lambda: gaussian_model(sd=1e-3),
                dict(warmup_steps=0, kept_draws=300, initial_step_size=1e6, seed=0),
            ),
        ],
        ids=["nb2-presidents", "voting-base", "voting-with-edu", "gaussian-thin5", "no-warmup"],
    )
    def test_bitwise_equal(self, make_model, config):
        model, cfg = make_model(), pk.SamplerConfig(**config)
        draws, rate, warnings = two_loop_metropolis(model, cfg)
        d = pk.adaptive_rw_metropolis(model, cfg)
        assert np.array_equal(d.draws.view(np.uint64), draws.view(np.uint64))
        as_bits = np.array([d.acceptance_rate, rate]).view(np.uint64)
        assert as_bits[0] == as_bits[1]
        assert d.warnings == warnings


def _start_guarded_model(raise_instead):
    """A 2-D standard normal whose target fails where x is still at its start, 0.

    Such a point is a proposal for y made before x has ever moved. A chain
    whose first move is an x step accepted before any y proposal never walks
    to one, but the prefetched sweep builds one speculatively, past that
    acceptance. ``hits`` counts the target calls that met one.
    """
    hits = []

    def log_joint(th):
        x, y = th[..., 0], th[..., 1]
        bad = (x == 0.0) & (y != 0.0)
        if np.any(bad):
            hits.append(np.shape(th))
            if raise_instead:
                raise ValueError("x never moved")
        return np.where(bad, np.nan, -0.5 * (x * x + y * y))

    model = pk.ModelSpec(
        name="start-guarded",
        transform=BlockTransform([IdentityBlock(2)]),
        log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
        log_joint=log_joint,
        pointwise_row=lambda th: np.zeros(np.shape(th)[:-1] + (1,)),
        data_count=1,
        datapoint_ids=("x",),
        prior_mean=np.zeros(2),
    )
    return model, hits


class TestPrefetchedSweep:
    @pytest.mark.parametrize("raise_instead", [False, True], ids=["nan-row", "raising-call"])
    def test_speculative_bad_row_past_an_acceptance_is_never_walked(self, raise_instead):
        model, hits = _start_guarded_model(raise_instead)
        cfg = pk.SamplerConfig(warmup_steps=50, kept_draws=50, seed=0)
        draws, rate, warnings = two_loop_metropolis(model, cfg)
        assert hits == []  # one proposal at a time never meets a bad point
        d = pk.adaptive_rw_metropolis(model, cfg)
        assert hits and hits[0] == (2, 2)  # a batch of two met one
        assert np.array_equal(d.draws.view(np.uint64), draws.view(np.uint64))
        assert d.acceptance_rate == rate and d.warnings == warnings

    @pytest.mark.parametrize("raise_instead", [False, True], ids=["nan-row", "raising-call"])
    def test_walked_bad_row_still_aborts(self, raise_instead):
        # Seed 3 proposes y before x has moved, so the chain walks to a bad point.
        model, _ = _start_guarded_model(raise_instead)
        cfg = pk.SamplerConfig(warmup_steps=50, kept_draws=50, seed=3)
        error = ValueError if raise_instead else pk.SamplerError
        with pytest.raises(error):
            two_loop_metropolis(model, cfg)
        with pytest.raises(error, match="x never moved" if raise_instead else "NaN at"):
            pk.adaptive_rw_metropolis(model, cfg)

    def test_fewer_target_calls_than_coordinate_updates(self):
        model = _presidents_model()
        batches = []

        def log_joint(theta):
            batches.append(len(theta))
            return model.log_joint(theta)

        cfg = pk.SamplerConfig(warmup_steps=150, kept_draws=60, seed=42)
        counted = dataclasses.replace(model, log_joint=log_joint)
        pk.adaptive_rw_metropolis(counted, cfg)
        updates = (150 + 60) * model.dim
        # About one call per sweep and per acceptance (514 here), while every
        # update is still evaluated.
        assert len(batches) < updates // 2
        assert sum(batches) >= updates + 1


def test_functions_written_for_one_theta_are_refused():
    # Given a batch, each returns one value or one row, which would otherwise
    # be broadcast over every row of the batch.
    model = pk.ModelSpec(
        name="one-theta",
        transform=BlockTransform([IdentityBlock(1)]),
        log_prior=lambda th: 0.0,
        log_joint=lambda th: float(-0.5 * np.ravel(th)[0] ** 2),
        pointwise_row=lambda th: np.array([-0.5 * np.ravel(th)[0] ** 2]),
        data_count=1,
        datapoint_ids=("x",),
        prior_mean=np.array([0.0]),
    )
    cfg = pk.SamplerConfig(warmup_steps=5, kept_draws=5, seed=0)
    with pytest.raises(ValueError, match=r"log_joint returned shape \(\) .* needs \(1,\)"):
        pk.adaptive_rw_metropolis(model, cfg)
    draws = pk.posterior_draws_from(np.array([[0.1], [0.2], [0.3]]), 1.0, 0)
    with pytest.raises(ValueError, match=r"pointwise_row returned shape \(1,\) .* \(3, 1\)"):
        pk.loglik_matrix(model, draws)
    with pytest.raises(ValueError, match=r"pointwise_row returned shape \(1,\) .* \(1, 1\)"):
        pointwise_gradient(model, 0, np.array([0.3]))


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
            return np.where(th[..., 0] > 0.5, np.nan, -0.5 * th[..., 0] ** 2)

        with pytest.raises(pk.SamplerError, match="NaN"):
            pk.adaptive_rw_metropolis(
                one_dim_model(bad_joint),
                pk.SamplerConfig(warmup_steps=200, kept_draws=100, seed=0),
            )

    def test_plus_inf_log_joint_aborts_with_point(self):
        # Accepting +inf would freeze the chain there: every later proposal
        # has lp_prop - inf = -inf and is rejected.
        def bad_joint(th):
            return np.where(th[..., 0] > 0.5, np.inf, -0.5 * th[..., 0] ** 2)

        with pytest.raises(pk.SamplerError, match=r"\+inf at unconstrained point"):
            pk.adaptive_rw_metropolis(
                one_dim_model(bad_joint),
                pk.SamplerConfig(warmup_steps=200, kept_draws=100, seed=0),
            )

    def test_nonfinite_start_rejected(self):
        model = one_dim_model(lambda th: np.full(np.shape(th)[:-1], -np.inf))
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
            pi, lam = th[..., :3], th[..., 3]
            return 0.5 * np.sum(np.log(pi), axis=-1) - lam + 0.2 * np.log(lam)

        model = pk.ModelSpec(
            name="constrained",
            transform=tf,
            log_prior=log_joint,
            log_joint=log_joint,
            pointwise_row=lambda th: np.zeros(np.shape(th)[:-1] + (1,)),
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
    def test_batched_rows_equal_single_draws(self):
        model = _voting_model("with_edu")
        rng = np.random.default_rng(6)
        z = model.transform.unconstrain(model.prior_mean) + rng.normal(size=(40, model.dim))
        draws = pk.posterior_draws_from(model.transform.constrain(z), 0.5, 0)
        calls = []

        def pointwise_row(theta):
            calls.append(len(theta))
            return model.pointwise_row(theta)

        counted = dataclasses.replace(model, pointwise_row=pointwise_row)
        values = pk.loglik_matrix(counted, draws).values
        want = np.array([model.pointwise_row(theta) for theta in draws.draws])
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
        assert calls == [13, 13, 13, 1]  # 2^12 cells per batch at N = 300

    def test_matrix_adopts_the_values_it_fills(self):
        from pdikit import models

        table, _ = models.simulate_votes(4000, seed=0, variant="base")
        model = models.hier_logreg_model(table, "base")
        rng = np.random.default_rng(7)
        z = model.transform.unconstrain(model.prior_mean) + rng.normal(size=(250, model.dim))
        draws = pk.posterior_draws_from(model.transform.constrain(z), 0.5, 0)
        tracemalloc.start()
        try:
            mat = pk.loglik_matrix(model, draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.values.shape == (250, 4000)
        assert peak <= 1.5 * mat.values.nbytes
        assert not mat.values.flags.writeable

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

    def test_nan_entry_names_first_draw_and_datapoint(self):
        # Draw 2 is NaN at both datapoints; draw 1, at datapoint 1 only.
        def row(th):
            x = th[..., 0]
            return np.stack([np.where(x > 0.8, np.nan, 0.0), np.where(x > 0.5, np.nan, -1.0)], -1)

        model = pk.ModelSpec(
            name="nan-row",
            transform=BlockTransform([IdentityBlock(1)]),
            log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
            log_joint=lambda th: np.zeros(np.shape(th)[:-1]),
            pointwise_row=row,
            data_count=2,
            datapoint_ids=("a", "b"),
            prior_mean=np.array([0.0]),
        )
        draws = pk.posterior_draws_from(np.array([[0.1], [0.7], [0.9]]), 1.0, 0)
        with pytest.raises(pk.SamplerError, match=r"at draw 1, datapoint 1$"):
            pk.loglik_matrix(model, draws)

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
