import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pdikit as pk
from pdikit import dispersion
from pdikit.dispersion import FLAG_NEAR_SINGULAR, FLAG_NONFINITE, FLAG_ZERO_VARIANCE

from conftest import assert_same_bits, summarize_one

LOG_2_4 = np.log([0.2, 0.4])
FLAGS = (FLAG_NONFINITE, FLAG_ZERO_VARIANCE, FLAG_NEAR_SINGULAR)


def waic(matrix):
    """The WAIC scalar and every datapoint's term, through ``summarize``."""
    summaries = pk.summarize(matrix)
    return pk.rank_report(summaries, matrix.datapoint_ids).waic, summaries["waic_term"]


def summaries_of(wapdis, log_mus=None):
    """``summarize``-shaped arrays with the given WAPDI and log_mu and no flag set."""
    wapdi = np.array(wapdis, dtype=np.float64)
    log_mu = np.array(log_mus or [-1.0] * wapdi.size, dtype=np.float64)
    zero = np.zeros(wapdi.size)
    unset = np.zeros(wapdi.size, dtype=bool)
    return {
        "log_mu": log_mu,
        "mu_log": log_mu,
        "log_sigma2": zero,
        "sigma2_log": -wapdi * log_mu,
        "wapdi": wapdi,
        "pdi_ratio_log": zero,
        "waic_term": -log_mu,
        **dict.fromkeys(FLAGS, unset),
    }


def naive_column(col):
    """Linear-domain oracle: safe only for small matrices with mild entries."""
    lik = np.exp(col)
    mu = lik.mean()
    sigma2 = lik.var(ddof=1)
    mu_log = col.mean()
    sigma2_log = np.var(col, ddof=1)
    return {
        "log_mu": np.log(mu),
        "mu_log": mu_log,
        "log_sigma2": np.log(sigma2) if sigma2 > 0 else -np.inf,
        "sigma2_log": sigma2_log,
        "wapdi": sigma2_log / np.log(mu),
        "pdi_ratio_log": np.log(sigma2) - np.log(mu) if sigma2 > 0 else -np.inf,
        "waic_term": -np.log(mu) + sigma2_log,
    }


finite_columns = st.lists(
    st.floats(min_value=-40.0, max_value=5.0, allow_nan=False), min_size=2, max_size=64
).map(np.array)


class TestColumnEstimators:
    def test_log_posterior_predictive_hand_value(self):
        assert summarize_one(LOG_2_4)["log_mu"] == pytest.approx(math.log(0.3), abs=1e-12)
        assert summarize_one(LOG_2_4)["log_mu"] == pytest.approx(-1.203973, abs=1e-6)

    def test_extreme_shift_no_overflow(self):
        assert summarize_one(np.array([-1000.0, -1000.0]))["log_mu"] == -1000.0
        assert summarize_one(np.array([700.0, 700.0]))["log_mu"] == 700.0

    def test_mean_log_lik_hand_value(self):
        mu_log = summarize_one(LOG_2_4)["mu_log"]
        assert mu_log == pytest.approx(math.log(0.08) / 2, abs=1e-12)
        assert mu_log == pytest.approx(-1.262864, abs=1e-6)

    def test_mean_log_lik_constant(self):
        assert summarize_one(np.array([-2.5, -2.5, -2.5]))["mu_log"] == -2.5

    def test_var_log_lik_hand_value(self):
        expected = math.log(2.0) ** 2 / 2.0
        assert summarize_one(LOG_2_4)["sigma2_log"] == pytest.approx(expected, abs=1e-12)
        assert summarize_one(LOG_2_4)["sigma2_log"] == pytest.approx(0.240227, abs=1e-6)

    def test_var_log_lik_constant_exact_zero(self):
        assert summarize_one(np.array([-1.3, -1.3, -1.3, -1.3]))["sigma2_log"] == 0.0

    def test_var_log_lik_shift_invariant(self):
        rng = np.random.default_rng(0)
        col = rng.normal(-3, 1, size=30)
        a, b = summarize_one(col)["sigma2_log"], summarize_one(col + 123.456)["sigma2_log"]
        assert a == pytest.approx(b, rel=1e-12)

    def test_log_var_lik_hand_value(self):
        log_sigma2 = summarize_one(LOG_2_4)["log_sigma2"]
        assert log_sigma2 == pytest.approx(math.log(0.02), abs=1e-12)
        assert log_sigma2 == pytest.approx(-3.912023, abs=1e-6)

    def test_log_var_lik_degenerate(self):
        assert summarize_one(np.array([-4.0, -4.0]))["log_sigma2"] == -np.inf

    def test_log_var_lik_scale_shift(self):
        col = LOG_2_4
        assert summarize_one(col - 500.0)["log_sigma2"] == pytest.approx(
            summarize_one(col)["log_sigma2"] - 1000.0, rel=1e-12
        )

    def test_wapdi_hand_value(self):
        assert summarize_one(LOG_2_4)["wapdi"] == pytest.approx(-0.199529, abs=1e-6)

    def test_wapdi_zero_variance(self):
        assert summarize_one(np.array([-0.5, -0.5, -0.5]))["wapdi"] == 0.0

    def test_wapdi_three_point_hand_value(self):
        # var of {ln .5, ln .5, ln .125} is 0.640604 (S-1 divisor); the ratio
        # against log 0.375 follows directly.
        col = np.log([0.5, 0.5, 0.125])
        var = np.var(col, ddof=1)
        assert var == pytest.approx(0.640604, abs=1e-6)
        assert summarize_one(col)["wapdi"] == pytest.approx(var / math.log(0.375), rel=1e-12)
        assert summarize_one(col)["wapdi"] == pytest.approx(-0.653125, abs=1e-6)

    def test_wapdi_near_singular_flagged(self):
        # log mu ~ 0: likelihoods straddling 1
        col = np.log([1.0 - 1e-12, 1.0 + 1e-12])
        assert math.isnan(summarize_one(col)["wapdi"])

    def test_pdi_ratio_hand_value(self):
        ratio = summarize_one(LOG_2_4)["pdi_ratio_log"]
        assert ratio == pytest.approx(math.log(0.02 / 0.3), abs=1e-12)
        assert ratio == pytest.approx(-2.708050, abs=1e-6)

    def test_pdi_ratio_degenerate_propagates(self):
        assert summarize_one(np.array([-2.0, -2.0]))["pdi_ratio_log"] == -np.inf

    def test_pdi_ratio_scaling_identity(self):
        rng = np.random.default_rng(3)
        col = rng.normal(-4, 0.7, size=25)
        log_k = 2.345
        assert summarize_one(col + log_k)["pdi_ratio_log"] == pytest.approx(
            summarize_one(col)["pdi_ratio_log"] + log_k, rel=1e-10
        )

    def test_waic_flag_mode_leaves_out_nonfinite_terms(self):
        m = pk.LogLikMatrix(
            [[-np.inf, -1.0], [-2.0, -1.5]], allow_degenerate=True
        )
        scalar, terms = waic(m)
        assert math.isnan(terms[0]) and not math.isnan(terms[1])
        assert scalar == terms[1]

    def test_rejects_empty_and_nan(self):
        # A single column is checked as the S x 1 matrix it is scored as.
        for col, message in (
            ([], "need at least 2 posterior draws, got 0"),
            ([0.0, float("nan")], "NaN log-likelihood at draw 1, datapoint 0"),
            ([-1.0], "need at least 2 posterior draws, got 1"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                pk.LogLikMatrix(np.array(col)[:, None])


class TestJensen:
    @given(finite_columns)
    @settings(max_examples=200)
    def test_log_mu_dominates_mu_log(self, col):
        s = summarize_one(col)
        gap = s["log_mu"] - s["mu_log"]
        assert gap >= -1e-12 * max(1.0, abs(s["mu_log"]))
        assert s["sigma2_log"] >= 0.0

    def test_equality_iff_constant(self):
        s = summarize_one(np.full(7, -3.25))
        assert s["log_mu"] == s["mu_log"]
        s2 = summarize_one(np.array([-3.0, -2.0]))
        assert s2["log_mu"] > s2["mu_log"]


class TestOracleEquivalence:
    def test_small_matrices_match_naive(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            S = rng.integers(2, 6)
            N = rng.integers(1, 5)
            vals = rng.uniform(-5, 0, size=(S, N))
            s = pk.summarize(pk.LogLikMatrix(vals))
            for j in range(N):
                ref = naive_column(vals[:, j])
                for name, want in ref.items():
                    assert s[name][j] == pytest.approx(want, rel=1e-10, abs=1e-12), name


class TestSummaryIdentities:
    @given(
        st.lists(
            st.lists(
                st.floats(min_value=-5.0, max_value=0.0, allow_nan=False),
                min_size=2,
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150)
    def test_wapdi_and_waic_identities(self, rows):
        s = pk.summarize(pk.LogLikMatrix(np.array(rows).T))
        ok = ~np.isnan(s["wapdi"])
        assert np.array_equal(s["wapdi"][ok], s["sigma2_log"][ok] / s["log_mu"][ok])
        assert np.array_equal(s["waic_term"], -s["log_mu"] + s["sigma2_log"])
        assert np.array_equal(s["pdi_ratio_log"], s["log_sigma2"] - s["log_mu"])
        assert (s["sigma2_log"] >= 0.0).all()


class TestMonteCarloConsistency:
    def test_log_mu_error_shrinks_with_draws(self):
        # Columns are log-likelihoods exp(Z), Z ~ N(-2, 1): true log mu = -1.5.
        true = -1.5
        err_small, err_big = [], []
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            z = rng.normal(-2.0, 1.0, size=40000)
            err_small.append(abs(summarize_one(z[:100])["log_mu"] - true))
            err_big.append(abs(summarize_one(z)["log_mu"] - true))
        assert np.median(err_big) < np.median(err_small)

    def test_summary_estimates_the_toy_closed_forms(self):
        # What each column estimates, on the gamma toy's exact posterior draws:
        # x ~ Gamma(5, rate beta), beta ~ Gamma(1, 1), so beta | data is
        # Gamma(a, b) with a = 1 + 5 n and b = 1 + sum(x). With
        # c = 4 log x - log Gamma(5), log p(x | beta) = 5 log beta + c - beta x.
        from scipy.special import digamma, gammaln, polygamma

        from pdikit import models

        x = models.simulate_toy_data(10, seed=123)
        alpha, a, b = 5.0, 1.0 + 5.0 * x.size, 1.0 + x.sum()
        c = (alpha - 1.0) * np.log(x) - gammaln(alpha)

        def log_moment(k):  # log E[p(x | beta)^k]
            shape = a + k * alpha
            return k * c + a * np.log(b) + gammaln(shape) - gammaln(a) - shape * np.log(b + k * x)

        log_mu, log_p2 = log_moment(1), log_moment(2)
        # Var(alpha log beta - beta x), with Cov(log beta, beta) = 1 / b.
        sigma2_log = alpha**2 * polygamma(1, a) + x**2 * a / b**2 - 2.0 * alpha * x / b
        closed = {
            "log_mu": log_mu,
            "mu_log": alpha * (digamma(a) - np.log(b)) + c - x * a / b,
            "sigma2_log": sigma2_log,
            "log_sigma2": log_p2 + np.log1p(-np.exp(2.0 * log_mu - log_p2)),
            "wapdi": sigma2_log / log_mu,
        }
        model, R = models.gamma_toy_model(x), 100
        reps = [
            pk.summarize(pk.loglik_matrix(model, models.toy_posterior_draws(x, 2000, seed)))
            for seed in range(R)
        ]
        for key, want in closed.items():
            got = np.array([rep[key] for rep in reps])
            z = (got.mean(axis=0) - want) / (got.std(axis=0, ddof=1) / np.sqrt(R))
            # The largest |z| over these 10 points, measured on 30 blocks of
            # 100 seeds, was 0.55-2.62 (1.66 on this block).
            assert np.abs(z).max() < 4.0, key


class TestExtremeMagnitudes:
    def test_deep_underflow_columns_stay_finite(self):
        import warnings as _warnings

        rng = np.random.default_rng(7)
        base = rng.normal(0, 2, size=(20, 3))
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # any numpy warning fails the test
            for offset in (-1e6, -745.0, 0.0, 700.0):
                s = pk.summarize(pk.LogLikMatrix(base + offset))
                for name in ("log_mu", "mu_log", "sigma2_log", "log_sigma2", "wapdi"):
                    assert np.isfinite(s[name]).all(), name

    def test_huge_span_within_column(self):
        # one dominant draw, the rest hopeless: mean is carried by the max
        col = np.array([-2.0, -900.0, -1500.0])
        s = summarize_one(col)
        assert s["log_mu"] == pytest.approx(-2.0 + math.log(1.0 / 3.0), abs=1e-12)
        assert s["sigma2_log"] > 0
        assert np.isfinite(s["log_sigma2"])


class TestMatrixAndSummaries:
    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            pk.LogLikMatrix(np.zeros((1, 3)))  # S < 2
        with pytest.raises(ValueError):
            pk.LogLikMatrix(np.zeros((2, 0)))
        with pytest.raises(ValueError):
            pk.LogLikMatrix([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValueError):
            pk.LogLikMatrix([[0.0, -np.inf], [0.0, 0.0]])
        m = pk.LogLikMatrix([[0.0, -np.inf], [0.0, -1.0]], allow_degenerate=True)
        assert m.allow_degenerate

    def test_neginf_refusal_names_the_keyword(self):
        # A library caller keeps -inf entries with the constructor's keyword.
        message = r"^-inf .* datapoint 1 \(zero-likelihood draw; pass allow_degenerate=True to keep it\)$"
        with pytest.raises(ValueError, match=message):
            pk.LogLikMatrix([[0.0, -np.inf], [0.0, 0.0]])

    def test_summarize_2x2_fixture(self):
        m = pk.LogLikMatrix(np.log([[0.2, 0.5], [0.4, 0.5]]), ["a", "b"])
        s = pk.summarize(m)
        assert s["wapdi"][0] == pytest.approx(-0.199529, abs=1e-6)
        assert s["wapdi"][1] == 0.0
        assert s["log_mu"][1] == pytest.approx(math.log(0.5), abs=1e-12)
        assert s[FLAG_ZERO_VARIANCE].tolist() == [False, True]

    def test_zero_variance_wapdi_is_positive_zero(self):
        # 0 / log mu has a negative denominator; the kernel writes +0.0.
        vals = np.column_stack([LOG_2_4, np.full(2, math.log(0.5)), np.full(2, -3.0)])
        summaries = pk.summarize(pk.LogLikMatrix(vals, ["a", "b", "c"]))
        assert summaries[FLAG_ZERO_VARIANCE].tolist() == [False, True, True]
        for w in summaries["wapdi"][1:].tolist():
            assert w == 0.0 and math.copysign(1.0, w) == 1.0
        assert math.copysign(1.0, summarize_one(np.full(3, -0.5))["wapdi"]) == 1.0
        report = pk.rank_report(summaries, ["a", "b", "c"])
        ranks = {r.datapoint_id: (r.rank_wapdi, r.rank_log_mu) for r in report.rows}
        assert ranks == {"a": (1, 2), "b": (3, 3), "c": (2, 1)}

    def test_summarize_single_column(self):
        m = pk.LogLikMatrix([[-1.0], [-2.0]])
        assert all(values.shape == (1,) for values in pk.summarize(m).values())

    def test_row_permutation_bitwise_invariance(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(-10, 3, size=(23, 6))
        perm = rng.permutation(23)
        s1 = pk.summarize(pk.LogLikMatrix(vals))
        s2 = pk.summarize(pk.LogLikMatrix(vals[perm]))
        assert_same_bits(s1, s2)

    def test_scaling_identities(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(-8, 2, size=(40, 3))
        log_k = 1.7
        base = pk.summarize(pk.LogLikMatrix(vals))
        scaled = pk.summarize(pk.LogLikMatrix(vals + log_k))
        for name, shift in (("pdi_ratio_log", log_k), ("log_mu", log_k), ("sigma2_log", 0.0)):
            assert scaled[name] == pytest.approx(base[name] + shift, rel=1e-10), name

    def test_near_singular_column_flagged_not_fatal(self):
        vals = np.array([[math.log(1.0 - 1e-13), -2.0], [math.log(1.0 + 1e-13), -3.0]])
        s = pk.summarize(pk.LogLikMatrix(vals))
        assert math.isnan(s["wapdi"][0])
        assert s[FLAG_NEAR_SINGULAR].tolist() == [True, False]
        assert not math.isnan(s["wapdi"][1])

    def test_degenerate_entries_flag_mode(self):
        vals = np.array([[-np.inf, -1.0], [-2.0, -1.5], [-3.0, -2.0]])
        m = pk.LogLikMatrix(vals, allow_degenerate=True)
        s = pk.summarize(m)
        assert s[FLAG_NONFINITE][0]
        assert math.isnan(s["sigma2_log"][0])
        assert math.isnan(s["wapdi"][0])
        assert s["mu_log"][0] == -np.inf
        assert np.isfinite(s["log_mu"][0])  # two finite draws still average
        assert not any(s[flag][1] for flag in FLAGS)

    def test_all_neginf_column(self):
        # Third column: one -inf draw and mean likelihood 1, so log mu ~ 0; it
        # is flagged nonfinite only, not near-singular.
        lin = math.log(1.5)
        vals = np.array(
            [[-np.inf, -1.0, -np.inf], [-np.inf, -1.5, lin], [-np.inf, -2.0, lin]]
        )
        summaries = pk.summarize(pk.LogLikMatrix(vals, allow_degenerate=True))
        assert [summaries[flag][2] for flag in FLAGS] == [True, False, False]
        s = summarize_one(vals[:, 0])
        assert s["log_mu"] == -np.inf
        assert s["mu_log"] == -np.inf
        assert s["log_sigma2"] == -np.inf
        for name in ("sigma2_log", "wapdi", "pdi_ratio_log", "waic_term"):
            assert math.isnan(s[name])
        assert [s[flag] for flag in FLAGS] == [True, True, False]
        first = pk.summarize(pk.LogLikMatrix(vals[:, :1], allow_degenerate=True))
        assert_same_bits(first, {key: values[:1] for key, values in summaries.items()})

    def test_blocks_match_single_columns(self):
        # Constant and partly -inf columns on both sides of each block seam.
        S = 512
        step = dispersion.BLOCK_CELLS // S
        rng = np.random.default_rng(11)
        vals = rng.normal(-4.0, 1.5, size=(S, 3 * step + 5))
        vals[:, step - 1] = -2.25
        vals[::3, step] = -np.inf
        vals[::5, 2 * step - 1] = -np.inf
        vals[:, 2 * step] = -0.75
        m = pk.LogLikMatrix(vals, allow_degenerate=True)
        blocked = pk.summarize(m)
        single = [
            pk.summarize(pk.LogLikMatrix(vals[:, j : j + 1], allow_degenerate=True))
            for j in range(vals.shape[1])
        ]
        assert_same_bits(blocked, {k: np.concatenate([s[k] for s in single]) for k in blocked})
        assert blocked[FLAG_NONFINITE][step]
        assert blocked[FLAG_ZERO_VARIANCE][2 * step]
        permuted = pk.LogLikMatrix(vals[rng.permutation(S)], allow_degenerate=True)
        assert_same_bits(pk.summarize(permuted), blocked)

    def test_caller_array_unchanged(self):
        col = np.array([-1.0, -3.0, -2.0, -0.5])
        before = col.copy()
        m = pk.LogLikMatrix(col[:, None])
        assert_same_bits(pk.summarize(m), pk.summarize(pk.LogLikMatrix(before[:, None])))
        assert np.array_equal(m.values[:, 0], before)

    def test_waic_2x1_fixture(self):
        m = pk.LogLikMatrix(LOG_2_4[:, None])
        scalar, terms = waic(m)
        assert terms[0] == pytest.approx(1.444200, abs=1e-6)
        assert scalar == terms[0]

    def test_waic_constant_matrix(self):
        m = pk.LogLikMatrix(np.full((4, 2), -1.75))
        scalar, terms = waic(m)
        assert scalar == pytest.approx(1.75, abs=1e-12)
        assert np.allclose(terms, 1.75)

    def test_waic_terms_are_the_summaries_terms_across_blocks(self):
        # 64 draws x 10000 points spans three kernel blocks of 4096 columns.
        values = np.random.default_rng(4).normal(-5.0, 1.0, size=(64, 10000))
        values[:, 4100] = -2.0  # a zero-variance column in the second block
        m = pk.LogLikMatrix(values)
        scalar, terms = waic(m)
        want = pk.summarize(m)["waic_term"]
        assert np.array_equal(terms.view(np.uint64), want.view(np.uint64))
        assert scalar == float(np.mean(want))

    def test_waic_identical_columns(self):
        col = LOG_2_4[:, None]
        one, _ = waic(pk.LogLikMatrix(col))
        two, _ = waic(pk.LogLikMatrix(np.hstack([col, col])))
        assert one == pytest.approx(two, rel=1e-14)


def mcse_oracle(col):
    """``log_mu``'s i.i.d. standard error of one column on its own, with numpy's
    ``std`` and ``mean``: sd(w) / (mean(w) sqrt(S)) with w = exp(col - max)."""
    col = np.sort(np.asarray(col, dtype=np.float64))
    w = np.exp(col - col[-1])
    return float(np.std(w, ddof=1) / (np.mean(w) * np.sqrt(col.size)))


def mcse_bits(matrix):
    return pk.summarize(matrix)["log_mu_mcse"].view(np.uint64)


def assert_mcse_is_oracle(matrix):
    want = np.array([mcse_oracle(col) for col in matrix.values.T])
    assert np.array_equal(mcse_bits(matrix), want.view(np.uint64))


class TestLogMuMcse:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 64), st.integers(1, 6)),
            elements=st.floats(min_value=-800.0, max_value=5.0, allow_nan=False),
        )
    )
    @settings(max_examples=150)
    def test_hypothesis_matrices_match_the_oracle(self, values):
        assert_mcse_is_oracle(pk.LogLikMatrix(values))

    def test_blocks_columns_and_permutations_match_the_oracle(self):
        rng = np.random.default_rng(11)
        S = 3000
        step = dispersion.BLOCK_CELLS // S
        vals = rng.normal(-3.0, 2.0, size=(S, 2 * step + 3))  # three kernel blocks
        m = pk.LogLikMatrix(vals)
        assert_mcse_is_oracle(m)
        for j in (0, step, 2 * step + 2):
            assert_mcse_is_oracle(pk.LogLikMatrix(vals[:, j : j + 1]))
        permuted = pk.LogLikMatrix(vals[rng.permutation(S)])
        assert np.array_equal(mcse_bits(permuted), mcse_bits(m))

    def test_cell_matrix_matches_the_oracle(self):
        from pdikit import models

        table, _ = models.simulate_votes(200, seed=2)
        model = models.hier_logreg_model(table)
        config = pk.SamplerConfig(warmup_steps=50, kept_draws=200, seed=3)
        m = pk.loglik_matrix(model, pk.adaptive_rw_metropolis(model, config))
        assert m._column_of is not None  # datapoints share stored columns
        assert_mcse_is_oracle(m)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: pk.LogLikMatrix(np.zeros(3)),
            "log-likelihood matrix must be 2-D (draws x datapoints)",
        ),
        (lambda: pk.LogLikMatrix(np.zeros((2, 3)), ["a", "b"]), "2 datapoint ids for 3 columns"),
        (lambda: pk.rank_report(summaries_of([-1.0, -2.0]), ["a"]), "2 summaries for 1 ids"),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestRanking:
    def test_basic_ranks(self):
        rep = pk.rank_report(summaries_of([-0.1, -0.3]), ["p", "q"])
        assert [r.datapoint_id for r in rep.rows] == ["q", "p"]
        assert [r.rank_wapdi for r in rep.rows] == [1, 2]

    def test_tie_break_log_mu_then_id(self):
        s = summaries_of([-0.2, -0.2, -0.2], log_mus=[-1.0, -3.0, -1.0])
        rep = pk.rank_report(s, ["b", "c", "a"])
        assert [r.datapoint_id for r in rep.rows] == ["c", "a", "b"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pk.rank_report(summaries_of([-0.1, -0.2]), ["x", "x"])

    def test_flagged_rows_rank_last(self):
        s = summaries_of([-0.5, float("nan"), -0.1])
        rep = pk.rank_report(s, ["a", "b", "c"])
        assert [r.datapoint_id for r in rep.rows] == ["a", "c", "b"]
        assert sorted(r.rank_wapdi for r in rep.rows) == [1, 2, 3]

    def test_waic_is_mean_of_terms(self):
        s = summaries_of([-0.1, -0.2], log_mus=[-1.0, -2.0])
        rep = pk.rank_report(s, ["a", "b"])
        assert rep.waic == pytest.approx(np.mean([r.summary.waic_term for r in rep.rows]))

    def test_waic_leaves_out_nonfinite_terms(self):
        rng = np.random.default_rng(8)
        log_mus = rng.normal(-3.0, 2.0, 1001).tolist()
        s = summaries_of([-0.1] * len(log_mus), log_mus=log_mus)
        terms = s["waic_term"].copy()
        ids = [f"p{i}" for i in range(len(log_mus))]
        rep = pk.rank_report(s, ids)
        # All finite: exactly the plain mean.
        assert rep.n_excluded == 0
        assert rep.waic == float(np.mean(terms))
        s["waic_term"][3] = float("nan")
        s["waic_term"][7] = float("inf")
        rep = pk.rank_report(s, ids)
        assert rep.n_excluded == 2
        assert rep.waic == float(np.mean(np.delete(terms, [3, 7])))
        none_finite = summaries_of([-0.1] * 3)
        none_finite["waic_term"][:] = float("nan")
        rep = pk.rank_report(none_finite, ["a", "b", "c"])
        assert math.isnan(rep.waic) and rep.n_excluded == 3

    @pytest.mark.parametrize("bad", ["a,b", 'say "hi"', "a\nb", "a\r", "a\u2028b", "\x0c", "#b"])
    def test_ids_that_break_a_csv_row_rejected(self, bad):
        s = summaries_of([-0.1, -0.2, -0.3])
        message = f"datapoint id {bad!r} at index 1 contains"
        with pytest.raises(ValueError, match=re.escape(message)):
            pk.rank_report(s, ["ok", bad, "fine"])

    @pytest.mark.parametrize("index", [0, 1])
    def test_empty_id_rejected(self, index):
        ids = ["a", "b", "c"]
        ids[index] = ""
        with pytest.raises(ValueError, match=f"^datapoint id at index {index} is empty$"):
            pk.rank_report(summaries_of([-0.1, -0.2, -0.3]), ids)

    def test_rank_log_mu(self):
        s = summaries_of([-0.1, -0.2], log_mus=[-5.0, -1.0])
        rep = pk.rank_report(s, ["a", "b"])
        by_id = {r.datapoint_id: r for r in rep.rows}
        assert by_id["a"].rank_log_mu == 1  # most negative log_mu is worst
        assert by_id["b"].rank_log_mu == 2


class TestGrouping:
    def _report(self, wapdis, log_mus, ids, labels):
        return pk.rank_report(summaries_of(wapdis, log_mus), ids, labels)

    def test_two_rows_one_label(self):
        rep = self._report([-0.2, -0.4], [-1, -1], ["a", "b"], {"a": "g", "b": "g"})
        out = pk.group_aggregate(rep)
        assert out["g"].mean_wapdi == pytest.approx(-0.3)
        assert out["g"].count == 2

    def test_singleton_groups(self):
        rep = self._report([-0.2, -0.4], [-1, -2], ["a", "b"], {"a": "x", "b": "y"})
        out = pk.group_aggregate(rep)
        assert out["x"].mean_wapdi == pytest.approx(-0.2)
        assert out["y"].mean_log_mu == pytest.approx(-2.0)

    def test_single_group_equals_global(self):
        wapdis, log_mus = [-0.1, -0.2, -0.6], [-1.0, -2.0, -3.0]
        rep = self._report(wapdis, log_mus, ["a", "b", "c"], {k: "all" for k in "abc"})
        out = pk.group_aggregate(rep)
        assert out["all"].mean_wapdi == pytest.approx(np.mean(wapdis))
        assert out["all"].mean_log_mu == pytest.approx(np.mean(log_mus))

    def test_flagged_rows_left_out_of_means(self):
        wapdis, log_mus = [-0.2, float("nan"), -0.4, -0.7], [-1.0, -np.inf, -3.0, -2.0]
        labels = {"a": "g", "b": "g", "c": "g", "d": "h"}
        out = pk.group_aggregate(self._report(wapdis, log_mus, list("abcd"), labels))
        assert out["g"].mean_wapdi == float(np.mean([-0.2, -0.4]))
        assert out["g"].mean_log_mu == float(np.mean([-1.0, -3.0]))
        assert out["g"].count == 3
        assert out["h"].mean_wapdi == -0.7
        only_flagged = self._report([float("nan")], [-1.0], ["a"], {"a": "g"})
        assert math.isnan(pk.group_aggregate(only_flagged)["g"].mean_wapdi)

    def test_means_are_taken_in_rank_order(self):
        rng = np.random.default_rng(3)
        wapdis = rng.normal(-0.3, 0.2, 1000) * 10 ** rng.uniform(-3, 3, 1000)
        log_mus = rng.normal(-3.0, 1.0, 1000)
        ids = [f"p{i}" for i in range(1000)]
        rep = self._report(wapdis.tolist(), log_mus.tolist(), ids, dict.fromkeys(ids, "g"))
        ranked = [r.summary for r in rep.rows]
        got = pk.group_aggregate(rep)["g"]
        want_wapdi = float(np.mean([s.wapdi for s in ranked]))
        # The order of the sum shows in these values' last bits.
        assert want_wapdi != float(np.mean(wapdis))
        assert want_wapdi != float(np.mean([s.wapdi for s in ranked[::-1]]))
        assert got.mean_wapdi == want_wapdi
        assert got.mean_log_mu == float(np.mean([s.log_mu for s in ranked]))

    def test_missing_label_rejected(self):
        rep = self._report([-0.1, -0.2], [-1, -1], ["a", "b"], {"a": "g"})
        with pytest.raises(ValueError, match="'b' has no group label"):
            pk.group_aggregate(rep)
        unlabelled = self._report([-0.1, -0.2], [-1, -1], ["a", "b"], None)
        with pytest.raises(ValueError, match="carries no group labels"):
            pk.group_aggregate(unlabelled)

    def test_labels_sorted(self):
        rep = self._report([-0.1, -0.2], [-1, -1], ["a", "b"], {"a": "zz", "b": "aa"})
        assert list(pk.group_aggregate(rep)) == ["aa", "zz"]
