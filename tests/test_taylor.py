import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import spearmanr

import pdikit as pk
from pdikit import datasets, models
from pdikit.taylor import (
    _FD_STEP,
    _jacobian,
    _taylor,
    compare_exact_vs_taylor,
    pointwise_gradient,
)
from pdikit.transforms import BlockTransform, IdentityBlock


def taylor_one(model, n, posterior_mean, posterior_var, log_mu_n):
    """First-order WAPDI of one datapoint: ``_taylor`` on its one-row gradient."""
    return float(_taylor(pointwise_gradient(model, n, posterior_mean), posterior_var, log_mu_n))


@pytest.fixture(scope="module")
def toy_setup():
    data = models.simulate_toy_data(10, seed=123)
    grid = np.linspace(0.4, 16.0, 40)
    model = models.gamma_toy_model(data, eval_points=grid)
    draws = models.toy_posterior_draws(data, 20000, seed=77)
    return data, grid, model, draws


class TestGradient:
    def test_matches_analytic_toy_gradient(self, toy_setup):
        _, grid, model, draws = toy_setup
        beta_hat = draws.posterior_mean[0]
        for n in (0, 13, 39):
            g = pointwise_gradient(model, n, draws.posterior_mean)
            analytic = models.TOY_LIK_SHAPE / beta_hat - grid[n]
            assert g[0] == pytest.approx(analytic, rel=1e-6)

    def test_zero_gradient_detected(self):
        model = pk.ModelSpec(
            name="flat",
            transform=BlockTransform([IdentityBlock(2)]),
            log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
            log_joint=lambda th: np.zeros(np.shape(th)[:-1]),
            pointwise_row=lambda th: np.full(np.shape(th)[:-1] + (1,), -1.5),
            datapoint_ids=("x",),
            prior_mean=np.zeros(2),
        )
        g = pointwise_gradient(model, 0, np.array([0.3, -0.8]))
        assert np.all(g == 0.0)


def per_coordinate_jacobian(model, theta):
    """The Jacobian from two single-theta ``pointwise_row`` calls per coordinate."""
    jac = np.empty((model.data_count, theta.size))
    for d in range(theta.size):
        h = _FD_STEP * max(1.0, abs(theta[d]))
        up, dn = theta.copy(), theta.copy()
        up[d] += h
        dn[d] -= h
        jac[:, d] = (model.pointwise_row(up) - model.pointwise_row(dn)) / (2.0 * h)
    return jac


@pytest.mark.parametrize("variant", ["nb2", "with_edu"])
def test_jacobian_is_two_batched_calls_with_per_coordinate_bits(variant):
    if variant == "nb2":
        model = models.nb2_mixture_model(datasets.presidents_days())
    else:
        table, _ = models.simulate_votes(300, seed=2, variant=variant)
        model = models.hier_logreg_model(table, variant)
    rng = np.random.default_rng(8)
    z = model.transform.unconstrain(model.prior_mean) + 0.5 * rng.normal(size=model.dim)
    theta = model.transform.constrain(z)
    calls = []

    def pointwise_row(th):
        calls.append(np.shape(th))
        return model.pointwise_row(th)

    jac = _jacobian(dataclasses.replace(model, pointwise_row=pointwise_row), theta)
    assert calls == [(theta.size, theta.size)] * 2  # the steps up, then down
    want = per_coordinate_jacobian(model, theta)
    assert np.array_equal(jac.view(np.uint64), want.view(np.uint64))


class TestTaylorValue:
    def test_zero_gradient_gives_exact_zero(self):
        model = pk.ModelSpec(
            name="flat",
            transform=BlockTransform([IdentityBlock(2)]),
            log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
            log_joint=lambda th: np.zeros(np.shape(th)[:-1]),
            pointwise_row=lambda th: np.full(np.shape(th)[:-1] + (1,), -1.5),
            datapoint_ids=("x",),
            prior_mean=np.zeros(2),
        )
        v = taylor_one(model, 0, np.array([0.3, -0.8]), np.array([2.0, 5.0]), -1.5)
        assert v == 0.0

    def test_near_singular_log_mu_flagged(self, toy_setup):
        _, _, model, draws = toy_setup
        v = taylor_one(model, 0, draws.posterior_mean, draws.posterior_var, 1e-12)
        assert math.isnan(v)

    def test_rapid_change_ordering(self, toy_setup):
        data, _, _, draws = toy_setup
        pair = models.gamma_toy_model(data, eval_points=[4.53, 15.0])
        mat = pk.loglik_matrix(pair, draws)
        log_mus = pk.summarize(mat)["log_mu"]
        at_mode = taylor_one(pair, 0, draws.posterior_mean, draws.posterior_var, log_mus[0])
        at_tail = taylor_one(pair, 1, draws.posterior_mean, draws.posterior_var, log_mus[1])
        assert abs(at_mode) < abs(at_tail)

    def test_sign_agreement(self, toy_setup):
        _, _, model, draws = toy_setup
        mat = pk.loglik_matrix(model, draws)
        for n, log_mu in enumerate(pk.summarize(mat)["log_mu"].tolist()):
            assert log_mu < 0
            v = taylor_one(model, n, draws.posterior_mean, draws.posterior_var, log_mu)
            assert v <= 0


class TestCompareReport:
    def test_spearman_above_09_on_grid(self, toy_setup):
        _, _, model, draws = toy_setup
        mat = pk.loglik_matrix(model, draws)
        rep = compare_exact_vs_taylor(model, draws, mat)
        exact = [r.wapdi_exact for r in rep.rows]
        approx = [r.wapdi_taylor for r in rep.rows]
        assert spearmanr(exact, approx).statistic > 0.9

    def test_sorted_by_abs_error_desc(self, toy_setup):
        _, _, model, draws = toy_setup
        mat = pk.loglik_matrix(model, draws)
        rep = compare_exact_vs_taylor(model, draws, mat)
        errs = [r.abs_error for r in rep.rows]
        assert errs == sorted(errs, reverse=True)
        assert rep.rows[0].gradient.shape == (1,)

    def test_zero_variance_posterior_both_zero(self, toy_setup):
        data, _, model, _ = toy_setup
        const = pk.posterior_draws_from(np.full((50, 1), 0.87), 1.0, 0)
        mat = pk.loglik_matrix(model, const)
        rep = compare_exact_vs_taylor(model, const, mat)
        assert all(r.wapdi_exact == 0.0 for r in rep.rows)
        assert all(r.wapdi_taylor == 0.0 for r in rep.rows)

    def test_single_point_report(self, toy_setup):
        data, _, _, draws = toy_setup
        single = models.gamma_toy_model(data, eval_points=[5.0])
        mat = pk.loglik_matrix(single, draws)
        rep = compare_exact_vs_taylor(single, draws, mat)
        assert len(rep.rows) == 1

    def test_gradients_equal_per_entry_differences(self):
        table, _ = models.simulate_votes(30, seed=5)
        model = models.hier_logreg_model(table)
        rng = np.random.default_rng(2)
        z0 = model.transform.unconstrain(model.prior_mean)
        draws = pk.posterior_draws_from(
            [model.transform.constrain(z0 + 0.3 * rng.standard_normal(z0.size)) for _ in range(40)],
            1.0,
            0,
        )
        rep = compare_exact_vs_taylor(model, draws, pk.loglik_matrix(model, draws))
        theta = draws.posterior_mean
        step = np.cbrt(np.finfo(np.float64).eps)
        for row in rep.rows:
            n = model.datapoint_ids.index(row.datapoint_id)
            expected = np.empty(theta.size)
            for d in range(theta.size):
                h = step * max(1.0, abs(theta[d]))
                up, dn = theta.copy(), theta.copy()
                up[d] += h
                dn[d] -= h
                expected[d] = (model.pointwise_row(up)[n] - model.pointwise_row(dn)[n]) / (2.0 * h)
            assert np.array_equal(row.gradient, expected)
            assert np.array_equal(pointwise_gradient(model, n, theta), expected)
        assert not np.shares_memory(rep.rows[0].gradient, rep.rows[1].gradient)
        with pytest.raises(IndexError):
            pointwise_gradient(model, 30, theta)

    def test_column_count_mismatch_rejected(self, toy_setup):
        data, _, model, draws = toy_setup
        other = models.gamma_toy_model(data, eval_points=[1.0, 2.0])
        mat = pk.loglik_matrix(other, draws)
        with pytest.raises(ValueError):
            compare_exact_vs_taylor(model, draws, mat)


def tied_and_singular_model():
    """Datapoints a and b tie bitwise; z is 0 at every draw, so its error is NaN."""

    def pointwise_row(th):
        t = np.asarray(th)[..., 0]
        tied = -0.5 * t * t - 1.0
        return np.stack([tied, 0.0 * t, tied, -2.0 * t * t - 1.0], axis=-1)

    return pk.ModelSpec(
        name="ties",
        transform=BlockTransform([IdentityBlock(1)]),
        log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
        log_joint=lambda th: np.zeros(np.shape(th)[:-1]),
        pointwise_row=pointwise_row,
        datapoint_ids=("a", "z", "b", "c"),
        prior_mean=np.zeros(1),
    )


def test_table_order_ties_and_nan_and_one_row_case():
    model = tied_and_singular_model()
    theta = np.random.default_rng(3).normal(0.4, 0.3, size=(200, 1))
    draws = pk.posterior_draws_from(theta, 1.0, 0)
    mat = pk.loglik_matrix(model, draws)
    rep = compare_exact_vs_taylor(model, draws, mat)
    by_id = {r.datapoint_id: r for r in rep.rows}
    assert by_id["a"].abs_error == by_id["b"].abs_error
    assert by_id["c"].abs_error > by_id["a"].abs_error
    assert math.isnan(by_id["z"].abs_error)
    assert [r.datapoint_id for r in rep.rows] == ["c", "a", "b", "z"]
    log_mu = pk.summarize(mat)["log_mu"]
    for row in rep.rows:
        n = model.datapoint_ids.index(row.datapoint_id)
        one = taylor_one(model, n, draws.posterior_mean, draws.posterior_var, log_mu[n])
        assert type(row.wapdi_taylor) is float
        assert np.array([row.wapdi_taylor]).view(np.uint64) == np.array([one]).view(np.uint64)
