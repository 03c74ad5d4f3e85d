"""Acceptance suite: every release-gating check, one test per criterion.

Each test prints an ``ACCEPTANCE <name>: PASS/FAIL`` line via conftest. Run
with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import gammaln
from scipy.stats import spearmanr

import pdikit as pk
from pdikit import datasets, models
from pdikit.cli import main
from pdikit.taylor import compare_exact_vs_taylor, pointwise_gradient

from conftest import assert_same_bits, summarize_one


def gamma_logpdf(x, shape, rate):
    return shape * np.log(rate) - gammaln(shape) + (shape - 1) * np.log(x) - rate * x


PRESIDENTS_SEED = 42


@pytest.fixture(scope="module")
def presidents_fit():
    days = datasets.presidents_days()
    ids = datasets.presidents_ids()
    model = models.nb2_mixture_model(days, ids)
    cfg = pk.SamplerConfig(warmup_steps=5000, kept_draws=1000, seed=PRESIDENTS_SEED)
    t0 = time.monotonic()
    raw = pk.adaptive_rw_metropolis(model, cfg)
    draws = pk.posterior_draws_from(
        models.relabel_by_dispersion(raw.draws), raw.acceptance_rate, raw.seed
    )
    matrix = pk.loglik_matrix(model, draws)
    report = pk.rank_report(pk.summarize(matrix), ids)
    elapsed = time.monotonic() - t0
    return draws, report, elapsed


@pytest.fixture(scope="module")
def toy_posterior():
    data = models.simulate_toy_data(10, seed=123)
    draws = models.toy_posterior_draws(data, 20000, seed=77)
    return data, draws


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240801)
    checked = 0
    for _ in range(1000):
        S = int(rng.integers(2, 6))
        N = int(rng.integers(1, 5))
        vals = rng.uniform(-5.0, 0.0, size=(S, N))
        s = pk.summarize(pk.LogLikMatrix(vals))
        for j in range(N):
            lik = np.exp(vals[:, j])
            log_mu = math.log(lik.mean())
            sigma2 = lik.var(ddof=1)
            sigma2_log = np.var(vals[:, j], ddof=1)
            ref = {
                "log_mu": log_mu,
                "mu_log": vals[:, j].mean(),
                "log_sigma2": math.log(sigma2) if sigma2 > 0 else -math.inf,
                "sigma2_log": sigma2_log,
                "wapdi": sigma2_log / log_mu,
                "pdi_ratio_log": math.log(sigma2) - log_mu,
                "waic_term": -log_mu + sigma2_log,
            }
            for name in ref:
                assert s[name][j] == pytest.approx(ref[name], rel=1e-10, abs=1e-12), name
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 1000
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_2_hand_fixtures():
    col = np.log([0.2, 0.4])
    s = summarize_one(col)
    assert s["log_mu"] == pytest.approx(-1.203973, abs=1e-6)
    assert s["mu_log"] == pytest.approx(-1.262864, abs=1e-6)
    assert s["sigma2_log"] == pytest.approx(0.240227, abs=1e-6)
    assert s["log_sigma2"] == pytest.approx(-3.912023, abs=1e-6)
    assert s["wapdi"] == pytest.approx(-0.199529, abs=1e-6)
    assert s["pdi_ratio_log"] == pytest.approx(-2.708050, abs=1e-6)
    assert s["waic_term"] == pytest.approx(1.444200, abs=1e-6)
    report = pk.rank_report(pk.summarize(pk.LogLikMatrix(col[:, None])), ["a"])
    assert report.waic == pytest.approx(1.444200, abs=1e-6)
    # three-point column: variance 0.640604 over log mean 0.375
    s3 = summarize_one(np.log([0.5, 0.5, 0.125]))
    assert s3["sigma2_log"] == pytest.approx(0.640604, abs=1e-6)
    assert s3["wapdi"] == pytest.approx(-0.653125, abs=1e-6)


def test_criterion_3_toy_triangle(toy_posterior):
    t0 = time.monotonic()
    data, draws = toy_posterior
    # The conjugate update written out, so the oracle shares no code with the toy.
    a_post, b_post = 1.0 + 5.0 * data.size, 1.0 + data.sum()
    beta = draws.draws[:, 0]
    for x in (0.5, 5.0, 15.0):
        closed = models.toy_posterior_predictive_logpdf(x, data)
        integral, _ = quad(
            lambda b: np.exp(gamma_logpdf(x, 5.0, b) + gamma_logpdf(b, a_post, b_post)),
            0.0,
            np.inf,
        )
        col = gamma_logpdf(x, 5.0, beta)
        s = summarize_one(col)
        mc, se = s["log_mu"], s["log_mu_mcse"]
        assert closed == pytest.approx(math.log(integral), abs=1e-8)
        assert abs(mc - closed) < 3 * se
    assert time.monotonic() - t0 < 30.0


def test_criterion_4_wapdi_order_of_magnitude_separation(toy_posterior):
    data, draws = toy_posterior
    beta = draws.draws[:, 0]
    predictive = lambda x: models.toy_posterior_predictive_logpdf(x, data)
    mode = minimize_scalar(
        lambda x: -predictive(x), bounds=(0.1, 12.0), method="bounded"
    ).x
    x_high = 15.0
    assert x_high > mode
    target = predictive(x_high)
    x_low = brentq(lambda x: predictive(x) - target, 1e-9, mode, xtol=1e-12)
    assert x_low < mode
    assert abs(predictive(x_low) - target) < 1e-3
    w_low = summarize_one(gamma_logpdf(x_low, 5.0, beta))["wapdi"]
    w_high = summarize_one(gamma_logpdf(x_high, 5.0, beta))["wapdi"]
    assert w_low < 0 and w_high < 0
    assert w_high / w_low >= 2.0


def test_criterion_5_presidents_case_study(presidents_fit):
    draws, report, elapsed = presidents_fit
    assert elapsed < 300.0, f"presidents fit took {elapsed:.1f}s"

    mu_hat = draws.posterior_mean[3:6]
    phi_hat = draws.posterior_mean[6:9]
    # components sorted by implied variance: two concentrated, one dispersed
    assert abs(mu_hat[0] - 1461.0) / 1461.0 < 0.10
    assert abs(mu_hat[1] - 2896.0) / 2896.0 < 0.10
    assert phi_hat[2] < 20.0

    worst5 = {r.datapoint_id for r in report.rows[:5]}
    assert {"Harrison-09", "Roosevelt-32", "Garfield-20"} <= worst5

    log_mu = {r.datapoint_id: r.summary.log_mu for r in report.rows}
    for pid in ("Coolidge-30", "Nixon-37", "Johnson-36"):
        assert log_mu[pid] < log_mu["Harrison-09"]

    worst10 = {r.datapoint_id for r in report.rows[:10]}
    assert {"McKinley-25", "Arthur-21"} <= worst10


def test_criterion_6_lemma_diagnostics(toy_posterior):
    data, draws = toy_posterior
    grid = np.linspace(0.4, 16.0, 40)
    model = models.gamma_toy_model(data, eval_points=grid)
    beta_hat = draws.posterior_mean[0]

    # finite differences against the analytic rate derivative
    for n in (0, 20, 39):
        g = pointwise_gradient(model, n, draws.posterior_mean)
        assert g[0] == pytest.approx(models.TOY_LIK_SHAPE / beta_hat - grid[n], rel=1e-6)

    matrix = pk.loglik_matrix(model, draws)
    rep = compare_exact_vs_taylor(model, draws, matrix)
    rho = spearmanr(
        [r.wapdi_exact for r in rep.rows], [r.wapdi_taylor for r in rep.rows]
    ).statistic
    assert rho > 0.9

    flat = pk.ModelSpec(
        name="flat",
        transform=model.transform,
        log_prior=lambda th: np.zeros(np.shape(th)[:-1]),
        log_joint=lambda th: np.zeros(np.shape(th)[:-1]),
        pointwise_row=lambda th: np.full(np.shape(th)[:-1] + (1,), -2.0),
        datapoint_ids=("x",),
        prior_mean=np.array([1.0]),
    )
    flat_rep = compare_exact_vs_taylor(flat, draws, pk.loglik_matrix(flat, draws))
    assert flat_rep.rows[0].wapdi_taylor == 0.0


def test_criterion_7_property_suites():
    rng = np.random.default_rng(99)

    # Jensen gap on random matrices, equality on constant columns
    vals = rng.normal(-12, 4, size=(30, 8))
    base = pk.summarize(pk.LogLikMatrix(vals))
    assert (base["log_mu"] >= base["mu_log"]).all()
    const = pk.summarize(pk.LogLikMatrix(np.full((6, 2), -3.5)))
    assert (np.abs(const["log_mu"] - const["mu_log"]) <= 1e-12).all()

    # draw-permutation bitwise invariance
    perm = rng.permutation(vals.shape[0])
    assert_same_bits(pk.summarize(pk.LogLikMatrix(vals[perm])), base)

    # likelihood scaling identities
    log_k = 0.987
    scaled = pk.summarize(pk.LogLikMatrix(vals + log_k))
    assert scaled["pdi_ratio_log"] == pytest.approx(base["pdi_ratio_log"] + log_k, rel=1e-10)
    assert scaled["sigma2_log"] == pytest.approx(base["sigma2_log"], rel=1e-10)
    assert scaled["log_mu"] == pytest.approx(base["log_mu"] + log_k, rel=1e-10)

    # simplex and positivity constraints on actual sampler draws
    days = datasets.presidents_days()
    model = models.nb2_mixture_model(days)
    d = pk.adaptive_rw_metropolis(
        model, pk.SamplerConfig(warmup_steps=300, kept_draws=150, seed=6)
    )
    pi = d.draws[:, :3]
    assert np.all(np.abs(pi.sum(axis=1) - 1.0) <= 1e-12)
    assert np.all(pi > 0)
    assert np.all(d.draws[:, 3:] > 0)

    # NB2 normalization
    xs = np.arange(0, 3001)
    for mu, phi in ((5.0, 2.0), (1.0, 1.0), (20.0, 0.7)):
        assert np.exp(models.nb2_log_pmf(xs, mu, phi)).sum() == pytest.approx(
            1.0, abs=1e-9
        )


def test_criterion_8_cli_determinism(tmp_path):
    args = [
        "fit",
        "--model",
        "presidents-nb2",
        "--warmup",
        "400",
        "--draws",
        "200",
        "--seed",
        str(PRESIDENTS_SEED),
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "summary.csv").read_bytes()
    b2 = (out2 / "summary.csv").read_bytes()
    assert b1 == b2


def test_synthetic_voting_sign_recovery_and_grouping():
    table, truth = models.simulate_votes(5000, seed=11, variant="base")
    model = models.hier_logreg_model(table, "base")
    d = pk.adaptive_rw_metropolis(
        model, pk.SamplerConfig(warmup_steps=1500, kept_draws=1000, seed=5)
    )
    beta_female, beta_black = d.posterior_mean[0], d.posterior_mean[1]
    assert math.copysign(1, beta_female) == math.copysign(1, truth["beta_female"])
    assert math.copysign(1, beta_black) == math.copysign(1, truth["beta_black"])

    matrix = pk.loglik_matrix(model, d)
    codes, index = table.groups["state"]
    labels = dict(zip(model.datapoint_ids, (codes[i] for i in index)))
    report = pk.rank_report(pk.summarize(matrix), model.datapoint_ids, labels)
    groups = pk.group_aggregate(report)
    assert set(groups) == set(table.groups["state"][0])
    assert sum(g.count for g in groups.values()) == table.n
    assert all(np.isfinite(g.mean_wapdi) for g in groups.values())
