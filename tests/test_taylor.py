import math

import numpy as np
import pytest
from scipy.stats import spearmanr

import pdikit as pk
from pdikit import models
from pdikit.taylor import compare_exact_vs_taylor, pointwise_gradient, wapdi_taylor
from pdikit.transforms import BlockTransform, IdentityBlock


@pytest.fixture(scope="module")
def toy_setup():
    data = models.simulate_toy_data(10, seed=123)
    grid = np.linspace(0.4, 16.0, 40)
    model = models.gamma_toy_model(data, eval_points=grid)
    draws = pk.conjugate_gamma_draws(data, 1.0, 1.0, 5.0, 20000, seed=77)
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
            log_prior=lambda th: 0.0,
            log_joint=lambda th: 0.0,
            pointwise_row=lambda th: np.array([-1.5]),
            data_count=1,
            datapoint_ids=("x",),
            prior_mean=np.zeros(2),
        )
        g = pointwise_gradient(model, 0, np.array([0.3, -0.8]))
        assert np.all(g == 0.0)


class TestTaylorValue:
    def test_zero_gradient_gives_exact_zero(self):
        model = pk.ModelSpec(
            name="flat",
            transform=BlockTransform([IdentityBlock(2)]),
            log_prior=lambda th: 0.0,
            log_joint=lambda th: 0.0,
            pointwise_row=lambda th: np.array([-1.5]),
            data_count=1,
            datapoint_ids=("x",),
            prior_mean=np.zeros(2),
        )
        v = wapdi_taylor(model, 0, np.array([0.3, -0.8]), np.array([2.0, 5.0]), -1.5)
        assert v == 0.0

    def test_near_singular_log_mu_flagged(self, toy_setup):
        _, _, model, draws = toy_setup
        v = wapdi_taylor(model, 0, draws.posterior_mean, draws.posterior_var, 1e-12)
        assert math.isnan(v)

    def test_rapid_change_ordering(self, toy_setup):
        data, _, _, draws = toy_setup
        pair = models.gamma_toy_model(data, eval_points=[4.53, 15.0])
        mat = pk.loglik_matrix(pair, draws)
        log_mus = [pk.log_posterior_predictive(mat.values[:, j]) for j in range(2)]
        at_mode = wapdi_taylor(pair, 0, draws.posterior_mean, draws.posterior_var, log_mus[0])
        at_tail = wapdi_taylor(pair, 1, draws.posterior_mean, draws.posterior_var, log_mus[1])
        assert abs(at_mode) < abs(at_tail)

    def test_sign_agreement(self, toy_setup):
        _, _, model, draws = toy_setup
        mat = pk.loglik_matrix(model, draws)
        for n in range(model.data_count):
            log_mu = pk.log_posterior_predictive(mat.values[:, n])
            assert log_mu < 0
            v = wapdi_taylor(model, n, draws.posterior_mean, draws.posterior_var, log_mu)
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
