import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdikit as pk
from pdikit import dispersion
from pdikit.dispersion import FLAG_NEAR_SINGULAR, FLAG_NONFINITE, FLAG_ZERO_VARIANCE

LOG_2_4 = np.log([0.2, 0.4])


def summarize_one(col):
    """Summary of a single column, through an S x 1 matrix."""
    return pk.summarize(pk.LogLikMatrix(col[:, None], allow_degenerate=True))[0]


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
        assert pk.log_posterior_predictive(LOG_2_4) == pytest.approx(
            math.log(0.3), abs=1e-12
        )
        assert pk.log_posterior_predictive(LOG_2_4) == pytest.approx(-1.203973, abs=1e-6)

    def test_single_draw_identity(self):
        assert pk.log_posterior_predictive([-3.7]) == -3.7

    def test_extreme_shift_no_overflow(self):
        assert pk.log_posterior_predictive([-1000.0, -1000.0]) == -1000.0
        assert pk.log_posterior_predictive([700.0, 700.0]) == 700.0

    def test_mean_log_lik_hand_value(self):
        assert pk.mean_log_lik(LOG_2_4) == pytest.approx(math.log(0.08) / 2, abs=1e-12)
        assert pk.mean_log_lik(LOG_2_4) == pytest.approx(-1.262864, abs=1e-6)

    def test_mean_log_lik_constant(self):
        assert pk.mean_log_lik([-2.5, -2.5, -2.5]) == -2.5

    def test_var_log_lik_hand_value(self):
        expected = math.log(2.0) ** 2 / 2.0
        assert pk.var_log_lik(LOG_2_4) == pytest.approx(expected, abs=1e-12)
        assert pk.var_log_lik(LOG_2_4) == pytest.approx(0.240227, abs=1e-6)

    def test_var_log_lik_constant_exact_zero(self):
        assert pk.var_log_lik([-1.3, -1.3, -1.3, -1.3]) == 0.0

    def test_var_log_lik_shift_invariant(self):
        rng = np.random.default_rng(0)
        col = rng.normal(-3, 1, size=30)
        a, b = pk.var_log_lik(col), pk.var_log_lik(col + 123.456)
        assert a == pytest.approx(b, rel=1e-12)

    def test_log_var_lik_hand_value(self):
        assert pk.log_var_lik(LOG_2_4) == pytest.approx(math.log(0.02), abs=1e-12)
        assert pk.log_var_lik(LOG_2_4) == pytest.approx(-3.912023, abs=1e-6)

    def test_log_var_lik_degenerate(self):
        assert pk.log_var_lik([-4.0, -4.0]) == -np.inf

    def test_log_var_lik_scale_shift(self):
        col = LOG_2_4
        assert pk.log_var_lik(col - 500.0) == pytest.approx(
            pk.log_var_lik(col) - 1000.0, rel=1e-12
        )

    def test_wapdi_hand_value(self):
        assert pk.wapdi(LOG_2_4) == pytest.approx(-0.199529, abs=1e-6)

    def test_wapdi_zero_variance(self):
        assert pk.wapdi([-0.5, -0.5, -0.5]) == 0.0

    def test_wapdi_three_point_hand_value(self):
        # var of {ln .5, ln .5, ln .125} is 0.640604 (S-1 divisor); the ratio
        # against log 0.375 follows directly.
        col = np.log([0.5, 0.5, 0.125])
        var = np.var(col, ddof=1)
        assert var == pytest.approx(0.640604, abs=1e-6)
        assert pk.wapdi(col) == pytest.approx(var / math.log(0.375), rel=1e-12)
        assert pk.wapdi(col) == pytest.approx(-0.653125, abs=1e-6)

    def test_wapdi_near_singular_flagged(self):
        # log mu ~ 0: likelihoods straddling 1
        col = np.log([1.0 - 1e-12, 1.0 + 1e-12])
        assert math.isnan(pk.wapdi(col))

    def test_pdi_ratio_hand_value(self):
        assert pk.pdi_ratio(LOG_2_4) == pytest.approx(math.log(0.02 / 0.3), abs=1e-12)
        assert pk.pdi_ratio(LOG_2_4) == pytest.approx(-2.708050, abs=1e-6)

    def test_pdi_ratio_degenerate_propagates(self):
        assert pk.pdi_ratio([-2.0, -2.0]) == -np.inf

    def test_pdi_ratio_scaling_identity(self):
        rng = np.random.default_rng(3)
        col = rng.normal(-4, 0.7, size=25)
        log_k = 2.345
        assert pk.pdi_ratio(col + log_k) == pytest.approx(
            pk.pdi_ratio(col) + log_k, rel=1e-10
        )

    def test_waic_flag_mode_leaves_out_nonfinite_terms(self):
        m = pk.LogLikMatrix(
            [[-np.inf, -1.0], [-2.0, -1.5]], allow_degenerate=True
        )
        scalar, terms = pk.waic(m)
        assert math.isnan(terms[0]) and not math.isnan(terms[1])
        assert scalar == terms[1]

    def test_rejects_empty_and_nan(self):
        with pytest.raises(ValueError):
            pk.log_posterior_predictive([])
        with pytest.raises(ValueError):
            pk.log_posterior_predictive([0.0, float("nan")])
        with pytest.raises(ValueError):
            pk.var_log_lik([-1.0])


class TestJensen:
    @given(finite_columns)
    @settings(max_examples=200)
    def test_log_mu_dominates_mu_log(self, col):
        gap = pk.log_posterior_predictive(col) - pk.mean_log_lik(col)
        assert gap >= -1e-12 * max(1.0, abs(pk.mean_log_lik(col)))
        assert pk.var_log_lik(col) >= 0.0

    def test_equality_iff_constant(self):
        col = np.full(7, -3.25)
        assert pk.log_posterior_predictive(col) == pk.mean_log_lik(col)
        col2 = np.array([-3.0, -2.0])
        assert pk.log_posterior_predictive(col2) > pk.mean_log_lik(col2)


class TestOracleEquivalence:
    def test_small_matrices_match_naive(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            S = rng.integers(2, 6)
            N = rng.integers(1, 5)
            vals = rng.uniform(-5, 0, size=(S, N))
            m = pk.LogLikMatrix(vals)
            for j, s in enumerate(pk.summarize(m)):
                ref = naive_column(vals[:, j])
                for name, got in [
                    ("log_mu", s.log_mu),
                    ("mu_log", s.mu_log),
                    ("log_sigma2", s.log_sigma2),
                    ("sigma2_log", s.sigma2_log),
                    ("wapdi", s.wapdi),
                    ("pdi_ratio_log", s.pdi_ratio_log),
                    ("waic_term", s.waic_term),
                ]:
                    assert got == pytest.approx(ref[name], rel=1e-10, abs=1e-12), name


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
        m = pk.LogLikMatrix(np.array(rows).T)
        for s in pk.summarize(m):
            if not math.isnan(s.wapdi):
                assert s.wapdi == s.sigma2_log / s.log_mu
            assert s.waic_term == -s.log_mu + s.sigma2_log
            assert s.pdi_ratio_log == s.log_sigma2 - s.log_mu
            assert s.sigma2_log >= 0.0


class TestMonteCarloConsistency:
    def test_log_mu_error_shrinks_with_draws(self):
        # Columns are log-likelihoods exp(Z), Z ~ N(-2, 1): true log mu = -1.5.
        true = -1.5
        err_small, err_big = [], []
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep)
            z = rng.normal(-2.0, 1.0, size=40000)
            err_small.append(abs(pk.log_posterior_predictive(z[:100]) - true))
            err_big.append(abs(pk.log_posterior_predictive(z) - true))
        assert np.median(err_big) < np.median(err_small)


class TestExtremeMagnitudes:
    def test_deep_underflow_columns_stay_finite(self):
        import warnings as _warnings

        rng = np.random.default_rng(7)
        base = rng.normal(0, 2, size=(20, 3))
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # any numpy warning fails the test
            for offset in (-1e6, -745.0, 0.0, 700.0):
                m = pk.LogLikMatrix(base + offset)
                for s in pk.summarize(m):
                    assert np.isfinite(s.log_mu)
                    assert np.isfinite(s.mu_log)
                    assert np.isfinite(s.sigma2_log)
                    assert np.isfinite(s.log_sigma2)
                    assert not math.isnan(s.wapdi)

    def test_huge_span_within_column(self):
        # one dominant draw, the rest hopeless: mean is carried by the max
        col = np.array([-2.0, -900.0, -1500.0])
        assert pk.log_posterior_predictive(col) == pytest.approx(
            -2.0 + math.log(1.0 / 3.0), abs=1e-12
        )
        assert pk.var_log_lik(col) > 0
        assert np.isfinite(pk.log_var_lik(col))


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

    def test_summarize_2x2_fixture(self):
        m = pk.LogLikMatrix(np.log([[0.2, 0.5], [0.4, 0.5]]), ["a", "b"])
        s = pk.summarize(m)
        assert s[0].wapdi == pytest.approx(-0.199529, abs=1e-6)
        assert s[1].wapdi == 0.0
        assert s[1].log_mu == pytest.approx(math.log(0.5), abs=1e-12)
        assert FLAG_ZERO_VARIANCE in s[1].flags

    def test_zero_variance_wapdi_is_positive_zero(self):
        # 0 / log mu has a negative denominator; the kernel writes +0.0.
        vals = np.column_stack([LOG_2_4, np.full(2, math.log(0.5)), np.full(2, -3.0)])
        summaries = pk.summarize(pk.LogLikMatrix(vals, ["a", "b", "c"]))
        for s in summaries[1:]:
            assert FLAG_ZERO_VARIANCE in s.flags
            assert s.wapdi == 0.0 and math.copysign(1.0, s.wapdi) == 1.0
        assert math.copysign(1.0, pk.wapdi([-0.5, -0.5, -0.5])) == 1.0
        report = pk.rank_report(summaries, ["a", "b", "c"])
        ranks = {r.datapoint_id: (r.rank_wapdi, r.rank_log_mu) for r in report.rows}
        assert ranks == {"a": (1, 2), "b": (3, 3), "c": (2, 1)}

    def test_summarize_single_column(self):
        m = pk.LogLikMatrix([[-1.0], [-2.0]])
        assert len(pk.summarize(m)) == 1

    def test_row_permutation_bitwise_invariance(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(-10, 3, size=(23, 6))
        perm = rng.permutation(23)
        s1 = pk.summarize(pk.LogLikMatrix(vals))
        s2 = pk.summarize(pk.LogLikMatrix(vals[perm]))
        assert s1 == s2

    def test_scaling_identities(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(-8, 2, size=(40, 3))
        log_k = 1.7
        base = pk.summarize(pk.LogLikMatrix(vals))
        scaled = pk.summarize(pk.LogLikMatrix(vals + log_k))
        for b, s in zip(base, scaled):
            assert s.pdi_ratio_log == pytest.approx(b.pdi_ratio_log + log_k, rel=1e-10)
            assert s.log_mu == pytest.approx(b.log_mu + log_k, rel=1e-10)
            assert s.sigma2_log == pytest.approx(b.sigma2_log, rel=1e-10)

    def test_near_singular_column_flagged_not_fatal(self):
        vals = np.array([[math.log(1.0 - 1e-13), -2.0], [math.log(1.0 + 1e-13), -3.0]])
        s = pk.summarize(pk.LogLikMatrix(vals))
        assert math.isnan(s[0].wapdi)
        assert FLAG_NEAR_SINGULAR in s[0].flags
        assert not math.isnan(s[1].wapdi)

    def test_degenerate_entries_flag_mode(self):
        vals = np.array([[-np.inf, -1.0], [-2.0, -1.5], [-3.0, -2.0]])
        m = pk.LogLikMatrix(vals, allow_degenerate=True)
        s = pk.summarize(m)
        assert FLAG_NONFINITE in s[0].flags
        assert math.isnan(s[0].sigma2_log)
        assert math.isnan(s[0].wapdi)
        assert s[0].mu_log == -np.inf
        assert np.isfinite(s[0].log_mu)  # two finite draws still average
        assert s[1].flags == ()

    def test_all_neginf_column(self):
        # Third column: one -inf draw and mean likelihood 1, so log mu ~ 0; it
        # is flagged nonfinite only, not near-singular.
        lin = math.log(1.5)
        vals = np.array(
            [[-np.inf, -1.0, -np.inf], [-np.inf, -1.5, lin], [-np.inf, -2.0, lin]]
        )
        summaries = pk.summarize(pk.LogLikMatrix(vals, allow_degenerate=True))
        assert summaries[2].flags == (FLAG_NONFINITE,)
        s = summaries[0]
        assert s.log_mu == -np.inf
        assert s.mu_log == -np.inf
        assert s.log_sigma2 == -np.inf
        for value in (s.sigma2_log, s.wapdi, s.pdi_ratio_log, s.waic_term):
            assert math.isnan(value)
        assert s.flags == (FLAG_NONFINITE, FLAG_ZERO_VARIANCE)
        assert summarize_one(vals[:, 0]) == s

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
        single = [summarize_one(vals[:, j]) for j in range(vals.shape[1])]
        assert blocked == single
        assert FLAG_NONFINITE in blocked[step].flags
        assert FLAG_ZERO_VARIANCE in blocked[2 * step].flags
        permuted = pk.LogLikMatrix(vals[rng.permutation(S)], allow_degenerate=True)
        assert pk.summarize(permuted) == blocked

    def test_caller_array_unchanged(self):
        col = np.array([-1.0, -3.0, -2.0, -0.5])
        before = col.copy()
        for fn in (
            pk.log_posterior_predictive,
            pk.log_posterior_predictive_mcse,
            pk.mean_log_lik,
            pk.var_log_lik,
            pk.log_var_lik,
            pk.wapdi,
            pk.pdi_ratio,
        ):
            fn(col)
            assert np.array_equal(col, before), fn.__name__
        m = pk.LogLikMatrix(col[:, None])
        assert pk.summarize(m) == [summarize_one(before)]
        assert np.array_equal(m.values[:, 0], before)

    def test_waic_2x1_fixture(self):
        m = pk.LogLikMatrix(LOG_2_4[:, None])
        scalar, terms = pk.waic(m)
        assert terms[0] == pytest.approx(1.444200, abs=1e-6)
        assert scalar == terms[0]

    def test_waic_constant_matrix(self):
        m = pk.LogLikMatrix(np.full((4, 2), -1.75))
        scalar, terms = pk.waic(m)
        assert scalar == pytest.approx(1.75, abs=1e-12)
        assert np.allclose(terms, 1.75)

    def test_waic_identical_columns(self):
        col = LOG_2_4[:, None]
        one, _ = pk.waic(pk.LogLikMatrix(col))
        two, _ = pk.waic(pk.LogLikMatrix(np.hstack([col, col])))
        assert one == pytest.approx(two, rel=1e-14)


class TestRanking:
    def _summaries(self, wapdis, log_mus=None):
        log_mus = log_mus or [-1.0] * len(wapdis)
        return [
            pk.PointwiseSummary(
                log_mu=lm,
                mu_log=lm,
                log_sigma2=0.0,
                sigma2_log=-w * lm,
                wapdi=w,
                pdi_ratio_log=0.0,
                waic_term=-lm,
            )
            for w, lm in zip(wapdis, log_mus)
        ]

    def test_basic_ranks(self):
        rep = pk.rank_report(self._summaries([-0.1, -0.3]), ["p", "q"])
        assert [r.datapoint_id for r in rep.rows] == ["q", "p"]
        assert [r.rank_wapdi for r in rep.rows] == [1, 2]

    def test_tie_break_log_mu_then_id(self):
        s = self._summaries([-0.2, -0.2, -0.2], log_mus=[-1.0, -3.0, -1.0])
        rep = pk.rank_report(s, ["b", "c", "a"])
        assert [r.datapoint_id for r in rep.rows] == ["c", "a", "b"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pk.rank_report(self._summaries([-0.1, -0.2]), ["x", "x"])

    def test_flagged_rows_rank_last(self):
        s = self._summaries([-0.5, float("nan"), -0.1])
        rep = pk.rank_report(s, ["a", "b", "c"])
        assert [r.datapoint_id for r in rep.rows] == ["a", "c", "b"]
        assert sorted(r.rank_wapdi for r in rep.rows) == [1, 2, 3]

    def test_waic_is_mean_of_terms(self):
        s = self._summaries([-0.1, -0.2], log_mus=[-1.0, -2.0])
        rep = pk.rank_report(s, ["a", "b"])
        assert rep.waic == pytest.approx(np.mean([r.summary.waic_term for r in rep.rows]))

    def test_waic_leaves_out_nonfinite_terms(self):
        rng = np.random.default_rng(8)
        log_mus = rng.normal(-3.0, 2.0, 1001).tolist()
        s = self._summaries([-0.1] * len(log_mus), log_mus=log_mus)
        terms = [x.waic_term for x in s]
        rep = pk.rank_report(s, [f"p{i}" for i in range(len(s))])
        # All finite: exactly the plain mean.
        assert rep.n_excluded == 0
        assert rep.waic == float(np.mean(terms))
        nan_term = dataclasses.replace(s[3], waic_term=float("nan"))
        inf_term = dataclasses.replace(s[7], waic_term=float("inf"))
        flagged = [nan_term if i == 3 else inf_term if i == 7 else x for i, x in enumerate(s)]
        rep = pk.rank_report(flagged, [f"p{i}" for i in range(len(s))])
        assert rep.n_excluded == 2
        kept = [t for i, t in enumerate(terms) if i not in (3, 7)]
        assert rep.waic == float(np.mean(kept))
        none_finite = [dataclasses.replace(x, waic_term=float("nan")) for x in s[:3]]
        rep = pk.rank_report(none_finite, ["a", "b", "c"])
        assert math.isnan(rep.waic) and rep.n_excluded == 3

    @pytest.mark.parametrize("bad", ["a,b", 'say "hi"', "a\nb", "a\r", "a\u2028b", "\x0c"])
    def test_ids_that_break_a_csv_row_rejected(self, bad):
        s = self._summaries([-0.1, -0.2, -0.3])
        message = f"datapoint id {bad!r} at index 1 contains"
        with pytest.raises(ValueError, match=re.escape(message)):
            pk.rank_report(s, ["ok", bad, "fine"])

    def test_rank_log_mu(self):
        s = self._summaries([-0.1, -0.2], log_mus=[-5.0, -1.0])
        rep = pk.rank_report(s, ["a", "b"])
        by_id = {r.datapoint_id: r for r in rep.rows}
        assert by_id["a"].rank_log_mu == 1  # most negative log_mu is worst
        assert by_id["b"].rank_log_mu == 2


class TestGrouping:
    def _report(self, wapdis, log_mus, ids, labels):
        summaries = [
            pk.PointwiseSummary(lm, lm, 0.0, -w * lm, w, 0.0, -lm)
            for w, lm in zip(wapdis, log_mus)
        ]
        return pk.rank_report(summaries, ids, labels)

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

    def test_missing_label_rejected(self):
        rep = self._report([-0.1, -0.2], [-1, -1], ["a", "b"], None)
        with pytest.raises(ValueError):
            pk.group_aggregate(rep, {"a": "g"})

    def test_labels_sorted(self):
        rep = self._report([-0.1, -0.2], [-1, -1], ["a", "b"], {"a": "zz", "b": "aa"})
        assert list(pk.group_aggregate(rep)) == ["aa", "zz"]
