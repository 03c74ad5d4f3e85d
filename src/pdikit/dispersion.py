"""Posterior dispersion estimators over log-likelihood matrices.

Everything here consumes an S x N matrix of pointwise log-likelihood values
(S posterior draws, N datapoints) and works per column. All heavy quantities
stay in the log domain; linear-domain likelihoods are never materialized at
full scale, so columns sitting at -1000 nats are as safe as columns at -1.

One row kernel computes every per-column quantity. It copies a block of
columns into a C-ordered (columns x draws) array, sorts each row and shifts
it by its max. Every moment is then a reduction along the contiguous last
axis, which numpy sums in the same pairwise order as a lone 1-D column.
Sorting makes each row independent of the draw order, so every estimator is
bitwise-invariant under permutation of the posterior draws, and the
single-column functions (the same kernel on one column) agree bitwise with
``summarize``. ``summarize`` runs the kernel over blocks of about
``BLOCK_CELLS`` cells; degenerate columns are handled by masks.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "NEAR_SINGULAR_EPS",
    "LogLikMatrix",
    "PointwiseSummary",
    "ReportRow",
    "MismatchReport",
    "GroupStats",
    "log_posterior_predictive",
    "log_posterior_predictive_mcse",
    "mean_log_lik",
    "var_log_lik",
    "log_var_lik",
    "wapdi",
    "pdi_ratio",
    "waic",
    "summarize",
    "rank_report",
    "group_aggregate",
]

# |log mu| below this is treated as a singular WAPDI denominator.
NEAR_SINGULAR_EPS = 1e-8

FLAG_ZERO_VARIANCE = "zero_variance"
FLAG_NEAR_SINGULAR = "near_singular_log_mu"
FLAG_NONFINITE = "nonfinite_loglik"
# Order in which flags are listed on a summary.
_FLAGS = (FLAG_NONFINITE, FLAG_ZERO_VARIANCE, FLAG_NEAR_SINGULAR)

# A datapoint id may hold none of these: the CSV writers do not quote, and
# the readers split lines wherever str.splitlines does.
_BAD_ID_CHARS = re.compile('[,"\n\r\v\f\x1c-\x1e\x85\u2028\u2029]')

# Cells per kernel call in ``summarize``: keeps each of the kernel's
# temporaries at a few MB however large the matrix is.
BLOCK_CELLS = 2**18


@dataclass(frozen=True)
class LogLikMatrix:
    """S x N matrix of pointwise log-likelihoods plus column labels.

    Rows are posterior draws, columns are datapoints. Entries must be finite;
    pass ``allow_degenerate=True`` to keep columns containing -inf (zero
    likelihood under some draw), which are then summarized with flags instead
    of aborting.

    ``values`` is read-only. The constructor copies it, so the caller's array
    stays writeable; ``read_loglik_csv`` and ``loglik_matrix`` hand over a
    fresh array through ``_adopt``, which freezes it without a copy.
    """

    values: np.ndarray
    datapoint_ids: tuple[str, ...]
    allow_degenerate: bool = False

    def __init__(self, values, datapoint_ids=None, allow_degenerate=False):
        self._take(np.array(values, dtype=np.float64, order="C"), datapoint_ids, allow_degenerate)

    @classmethod
    def _adopt(cls, values: np.ndarray, datapoint_ids=None, allow_degenerate=False):
        """The matrix over ``values`` itself: a float64 array the caller gives up."""
        return cls.__new__(cls)._take(values, datapoint_ids, allow_degenerate)

    def _take(self, values: np.ndarray, datapoint_ids, allow_degenerate) -> LogLikMatrix:
        """Validate, then freeze ``values`` in place as this matrix's own."""
        if values.ndim != 2:
            raise ValueError("log-likelihood matrix must be 2-D (draws x datapoints)")
        n_draws, n_points = values.shape
        if n_draws < 2:
            raise ValueError(f"need at least 2 posterior draws, got {n_draws}")
        if n_points < 1:
            raise ValueError("need at least 1 datapoint column")
        if not np.isfinite(values).all():
            if np.isnan(values).any():
                s, n = np.argwhere(np.isnan(values))[0]
                raise ValueError(f"NaN log-likelihood at draw {s}, datapoint {n}")
            if np.isposinf(values).any():
                s, n = np.argwhere(np.isposinf(values))[0]
                raise ValueError(f"+inf log-likelihood at draw {s}, datapoint {n}")
            if not allow_degenerate:
                s, n = np.argwhere(np.isneginf(values))[0]
                raise ValueError(
                    f"-inf log-likelihood at draw {s}, datapoint {n} "
                    "(zero-likelihood draw; pass allow_degenerate=True to keep it)"
                )
        if datapoint_ids is None:
            datapoint_ids = tuple(str(j) for j in range(n_points))
        else:
            datapoint_ids = tuple(str(i) for i in datapoint_ids)
            if len(datapoint_ids) != n_points:
                raise ValueError(
                    f"{len(datapoint_ids)} datapoint ids for {n_points} columns"
                )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "datapoint_ids", datapoint_ids)
        object.__setattr__(self, "allow_degenerate", bool(allow_degenerate))
        return self

    @property
    def draw_count(self) -> int:
        return self.values.shape[0]

    @property
    def point_count(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PointwiseSummary:
    """All per-datapoint dispersion quantities for one column.

    ``log_sigma2`` is -inf when the linear-domain variance is exactly zero
    (all draws equal); ``wapdi`` is NaN when flagged. ``flags`` names every
    degeneracy hit while summarizing the column.
    """

    log_mu: float
    mu_log: float
    log_sigma2: float
    sigma2_log: float
    wapdi: float
    pdi_ratio_log: float
    waic_term: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ReportRow:
    datapoint_id: str
    summary: PointwiseSummary
    rank_wapdi: int
    rank_log_mu: int


@dataclass(frozen=True)
class MismatchReport:
    """Ranked per-datapoint records, worst WAPDI first, plus the WAIC scalar.

    ``waic`` averages the finite WAIC terms; ``n_excluded`` counts the
    datapoints whose term is not finite and so left out.
    """

    rows: tuple[ReportRow, ...]
    waic: float
    group_labels: dict[str, str] | None = None
    n_excluded: int = 0


@dataclass(frozen=True)
class GroupStats:
    mean_wapdi: float
    mean_log_mu: float
    count: int


def _finite_mean(values) -> tuple[float, int]:
    """Mean of the finite entries of ``values``, and how many were left out.

    With every entry finite this is exactly ``np.mean(values)``; with none
    finite the mean is NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    kept = values[np.isfinite(values)]
    mean = float(np.mean(kept)) if kept.size else _NAN
    return mean, values.size - kept.size


def _var_rows(rows: np.ndarray, row_mean: np.ndarray) -> np.ndarray:
    # Sample variance (S-1 divisor) of each row: np.var(ddof=1)'s arithmetic,
    # without its warning for S = 1 (the result is then NaN and unused).
    d = rows - row_mean[:, None]
    d *= d
    return d.sum(axis=1) / (rows.shape[1] - 1)


def _dispersion_rows(block: np.ndarray) -> dict[str, np.ndarray]:
    """Every per-column quantity of an S x n block, as n-arrays.

    Keys are the ``PointwiseSummary`` fields plus one boolean mask per flag.
    """
    # np.array always copies (a one-column block would otherwise come back
    # as a view, and the in-place sort would reorder the caller's data).
    rows = np.array(block.T, order="C")
    rows.sort(axis=1)
    top = rows[:, -1]
    nonfinite = np.isneginf(rows[:, 0])
    # An all -inf row is shifted by 0 instead of its max: it stays -inf, its
    # likelihoods are 0, so log_mu, mu_log and log_sigma2 come out -inf.
    m = np.where(np.isneginf(top), 0.0, top)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows -= m[:, None]
        lik = np.exp(rows)
        mean_lik = lik.mean(axis=1)
        log_mu = m + np.log(mean_lik)
        mean_shifted = rows.mean(axis=1)
        sigma2_log = _var_rows(rows, mean_shifted)
        var_lik = _var_rows(lik, mean_lik)
        zero_variance = var_lik == 0.0
        log_sigma2 = np.where(zero_variance, -np.inf, 2.0 * m + np.log(var_lik))
        small = np.abs(log_mu) < NEAR_SINGULAR_EPS
        # Rows with a -inf entry never get the near-singular flag; their
        # sigma2_log, and so their wapdi, is already NaN. Adding 0.0 turns the
        # -0.0 of a zero-variance row into 0.0 and changes no other value.
        wapdi_val = np.where(small, np.nan, sigma2_log / log_mu + 0.0)
        return {
            "log_mu": log_mu,
            "mu_log": m + mean_shifted,
            "log_sigma2": log_sigma2,
            "sigma2_log": sigma2_log,
            "wapdi": wapdi_val,
            "pdi_ratio_log": log_sigma2 - log_mu,
            "waic_term": -log_mu + sigma2_log,
            FLAG_NONFINITE: nonfinite,
            FLAG_ZERO_VARIANCE: zero_variance,
            FLAG_NEAR_SINGULAR: small & ~nonfinite,
        }


_FIELDS = tuple(f.name for f in fields(PointwiseSummary) if f.name != "flags")
_NAN = float("nan")


def _summaries(k: dict[str, np.ndarray]) -> list[PointwiseSummary]:
    values = zip(*(k[f].tolist() for f in _FIELDS))
    hits = zip(*(k[f].tolist() for f in _FLAGS))
    out = []
    for vals, hit in zip(values, hits):
        flags = tuple(f for f, on in zip(_FLAGS, hit) if on)
        if flags:
            # NaN only appears in flagged rows; one shared NaN object lets
            # equal summaries compare equal.
            vals = [_NAN if v != v else v for v in vals]
        out.append(PointwiseSummary(*vals, flags))
    return out


def _as_column(column, min_draws: int = 1) -> np.ndarray:
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1:
        raise ValueError("expected a 1-D column of log-likelihood values")
    if col.size == 0:
        raise ValueError("empty log-likelihood column")
    if col.size < min_draws:
        raise ValueError(f"need at least {min_draws} draws, got {col.size}")
    if np.isnan(col).any():
        raise ValueError("NaN in log-likelihood column")
    if not np.isfinite(col).all():
        raise ValueError("non-finite log-likelihood in column")
    return col


def _column_field(column, field: str, min_draws: int = 2):
    col = _as_column(column, min_draws)
    return float(_dispersion_rows(col[:, None])[field][0])


def log_posterior_predictive(column) -> float:
    """log of the posterior-draw average of exp(column), via shifted log-sum-exp.

    This is log mu(n): the log posterior predictive density of datapoint n
    estimated from S draws. Exact for constant columns by construction.
    """
    return _column_field(column, "log_mu", min_draws=1)


def log_posterior_predictive_mcse(column) -> float:
    """Standard error of ``log_posterior_predictive`` under i.i.d. draws.

    Delta method on the shifted linear-domain mean: se(log mu) ~= sd(w) /
    (mean(w) * sqrt(S)) with w = exp(column - max). Only meaningful when the
    draws are independent (exact samplers); MCMC draws need batching instead.
    """
    col = np.sort(_as_column(column, min_draws=2))
    w = np.exp(col - col[-1])
    return float(np.std(w, ddof=1) / (np.mean(w) * np.sqrt(col.size)))


def mean_log_lik(column) -> float:
    """Posterior mean of the log-likelihood, mu_log(n)."""
    return _column_field(column, "mu_log", min_draws=1)


def var_log_lik(column) -> float:
    """Sample variance (S-1 divisor) of the log-likelihood, sigma2_log(n)."""
    return _column_field(column, "sigma2_log")


def log_var_lik(column) -> float:
    """log of the sample variance of the linear-domain likelihood.

    Computed fully shifted: with m = max(column), returns
    2m + log(var(exp(column - m))). Returns -inf (the degenerate marker) when
    the shifted variance is exactly zero, i.e. all draws agree.
    """
    return _column_field(column, "log_sigma2")


def wapdi(column) -> float:
    """var_log_lik / log_posterior_predictive for one column.

    Negative for well-behaved columns (log mu < 0, positive variance);
    small magnitudes mean a well-modeled point. Returns NaN when |log mu| <
    ``NEAR_SINGULAR_EPS`` -- a near-singular denominator is flagged rather
    than amplified.
    """
    return _column_field(column, "wapdi")


def pdi_ratio(column) -> float:
    """log-domain variance-to-mean ratio: log sigma2(n) - log mu(n).

    The degenerate -inf marker from ``log_var_lik`` propagates through.
    """
    return _column_field(column, "pdi_ratio_log")


def _kernel_blocks(matrix: LogLikMatrix):
    """``_dispersion_rows`` over blocks of about ``BLOCK_CELLS`` cells, in column order."""
    values = matrix.values
    step = max(1, BLOCK_CELLS // matrix.draw_count)
    for start in range(0, matrix.point_count, step):
        yield _dispersion_rows(values[:, start : start + step])


def summarize(matrix: LogLikMatrix) -> list[PointwiseSummary]:
    """Apply every column estimator to each column of the matrix.

    Columns are independent; degeneracies are recorded per row via flags and
    never abort the rest of the matrix.
    """
    out: list[PointwiseSummary] = []
    for k in _kernel_blocks(matrix):
        out += _summaries(k)
    return out


def waic(matrix: LogLikMatrix) -> tuple[float, np.ndarray]:
    """WAIC as the mean over datapoints of t(n) = -log mu(n) + sigma2_log(n).

    Returns (scalar, per-point terms). Zero-variance columns contribute a
    zero penalty term; non-finite terms (flagged columns) are left out of the
    scalar.
    """
    terms = np.concatenate([k["waic_term"] for k in _kernel_blocks(matrix)])
    return _finite_mean(terms)[0], terms


def rank_report(
    summaries: list[PointwiseSummary],
    ids,
    group_labels: dict[str, str] | None = None,
) -> MismatchReport:
    """Rank datapoints by WAPDI (rank 1 = most negative = worst).

    Ties break by ascending log_mu, then by id. The secondary ranking by
    log_mu uses the mirrored key (log_mu, wapdi, id). Duplicate ids, ids
    holding a comma, a double quote or a line break, and ids starting with
    ``#`` (which every reader skips as a comment) are rejected. The WAIC
    scalar averages the finite terms only.
    """
    ids = [str(i) for i in ids]
    if len(summaries) != len(ids):
        raise ValueError(f"{len(summaries)} summaries for {len(ids)} ids")
    for index, datapoint_id in enumerate(ids):
        if _BAD_ID_CHARS.search(datapoint_id):
            raise ValueError(
                f"datapoint id {datapoint_id!r} at index {index} contains a comma, "
                "a double quote or a line break"
            )
        if datapoint_id.startswith("#"):
            raise ValueError(
                f"datapoint id {datapoint_id!r} at index {index} contains a leading "
                "'#', which readers skip as a comment line"
            )
    counts = Counter(ids)
    if len(counts) != len(ids):
        dupes = sorted(i for i, c in counts.items() if c > 1)
        raise ValueError(f"duplicate datapoint ids: {', '.join(dupes)}")

    id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))
    log_mu = np.array([s.log_mu for s in summaries], dtype=np.float64)
    wapdi_val = np.array([s.wapdi for s in summaries], dtype=np.float64)
    # NaN (flagged) entries sort after every finite value so ranks stay a
    # permutation of 1..N; in the log_mu ranking they tie-break as 0.
    flagged = np.isnan(wapdi_val)
    wapdi_key = np.where(flagged, 0.0, wapdi_val)
    order_w = np.lexsort((id_rank, log_mu, wapdi_key, flagged))
    order_m = np.lexsort((id_rank, wapdi_key, log_mu))
    rank_w = (np.argsort(order_w) + 1).tolist()
    rank_m = (np.argsort(order_m) + 1).tolist()

    rows = tuple(
        ReportRow(
            datapoint_id=ids[i],
            summary=summaries[i],
            rank_wapdi=rank_w[i],
            rank_log_mu=rank_m[i],
        )
        for i in order_w.tolist()
    )
    waic_scalar, n_excluded = _finite_mean([s.waic_term for s in summaries])
    labels = dict(group_labels) if group_labels is not None else None
    return MismatchReport(
        rows=rows, waic=waic_scalar, group_labels=labels, n_excluded=n_excluded
    )


def group_aggregate(
    report: MismatchReport, grouping: dict[str, str] | None = None
) -> dict[str, GroupStats]:
    """Per-group arithmetic means of WAPDI and log_mu, ordered by label.

    ``grouping`` maps datapoint id to label; defaults to the report's own
    group labels. Every row must be covered. Each mean is over the finite
    values only (a flagged row's NaN WAPDI is left out); ``count`` is every
    row of the group.
    """
    if grouping is None:
        grouping = report.group_labels
    if grouping is None:
        raise ValueError("no grouping given and the report carries no group labels")
    buckets: dict[str, list[ReportRow]] = {}
    for row in report.rows:
        if row.datapoint_id not in grouping:
            raise ValueError(f"datapoint {row.datapoint_id!r} has no group label")
        buckets.setdefault(grouping[row.datapoint_id], []).append(row)
    out: dict[str, GroupStats] = {}
    for label in sorted(buckets):
        rows = buckets[label]
        out[label] = GroupStats(
            mean_wapdi=_finite_mean([r.summary.wapdi for r in rows])[0],
            mean_log_mu=_finite_mean([r.summary.log_mu for r in rows])[0],
            count=len(rows),
        )
    return out
