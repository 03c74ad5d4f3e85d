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
bitwise-invariant under permutation of the posterior draws, and a column
gets the same bits alone (as a one-column matrix) as inside any matrix.
``summarize`` runs the kernel over blocks of about ``BLOCK_CELLS`` cells
and returns its arrays, one per quantity and one mask per degeneracy flag; a
matrix whose datapoints share columns (see ``LogLikMatrix``) runs the kernel
once per distinct column. ``rank_report`` reorders those arrays into rank
order and keeps them as columns; a report builds per-datapoint
``ReportRow`` objects only when its ``rows`` are read.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "NEAR_SINGULAR_EPS",
    "LogLikMatrix",
    "PointwiseSummary",
    "ReportRow",
    "MismatchReport",
    "GroupStats",
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
# temporaries at half a MB however large the matrix is.
BLOCK_CELLS = 2**16


@dataclass(frozen=True, eq=False)
class LogLikMatrix:
    """S x N matrix of pointwise log-likelihoods plus column labels.

    Rows are posterior draws, columns are datapoints. Entries must be finite;
    pass ``allow_degenerate=True`` to keep columns containing -inf (zero
    likelihood under some draw), which are then summarized with flags instead
    of aborting.

    It is stored as S x C distinct columns plus each datapoint's column
    among them: ``loglik_matrix`` stores one column per model cell (see
    ``ModelSpec``), the constructor and ``read_loglik_csv`` every datapoint's
    own (C = N). ``summarize`` scores each stored column once.

    ``values`` is the read-only S x N array. The constructor copies it, so
    the caller's array stays writeable; ``read_loglik_csv`` and
    ``loglik_matrix`` hand over a fresh array through ``_adopt``, which
    freezes it without a copy. A matrix with shared columns builds a new
    ``values`` array on each access.
    """

    datapoint_ids: tuple[str, ...]
    allow_degenerate: bool
    _columns: np.ndarray  # S x C, read-only
    _column_of: np.ndarray | None  # each datapoint's column; None when C = N

    def __init__(self, values, datapoint_ids=None, allow_degenerate=False):
        values = np.array(values, dtype=np.float64, order="C")
        self._take(values, datapoint_ids, allow_degenerate, "allow_degenerate=True", None)

    @classmethod
    def _adopt(
        cls, values, datapoint_ids=None, allow_degenerate=False, keep_option=None, column_of=None
    ):
        """The matrix over ``values`` itself: a float64 array the caller gives up.

        ``keep_option`` is what the caller's own user passes to keep -inf
        entries, named in the refusal; ``None`` when there is no such option.
        ``column_of``, if given, holds each datapoint's column of ``values``.
        """
        matrix = cls.__new__(cls)
        return matrix._take(values, datapoint_ids, allow_degenerate, keep_option, column_of)

    def _take(
        self, values: np.ndarray, datapoint_ids, allow_degenerate, keep_option, column_of
    ) -> LogLikMatrix:
        """Validate, then freeze ``values`` in place as this matrix's own."""
        if values.ndim != 2:
            raise ValueError("log-likelihood matrix must be 2-D (draws x datapoints)")
        n_draws = values.shape[0]
        n_points = values.shape[1] if column_of is None else column_of.size
        if n_draws < 2:
            raise ValueError(f"need at least 2 posterior draws, got {n_draws}")
        if n_points < 1:
            raise ValueError("need at least 1 datapoint column")

        def first_at(mask) -> str:
            # The full S x N matrix's first hit in row-major order: the first
            # draw with a hit, then the first datapoint whose column has one.
            s = np.argmax(mask.any(axis=1))
            row = mask[s] if column_of is None else mask[s, column_of]
            return f"at draw {s}, datapoint {np.argmax(row)}"

        # min and max allocate no mask the size of the matrix; NaN fails both.
        if not (values.min() > -np.inf and values.max() < np.inf):
            if np.isnan(values).any():
                raise ValueError(f"NaN log-likelihood {first_at(np.isnan(values))}")
            if np.isposinf(values).any():
                raise ValueError(f"+inf log-likelihood {first_at(np.isposinf(values))}")
            if not allow_degenerate:
                keep = f"; pass {keep_option} to keep it" if keep_option else ""
                raise ValueError(
                    f"-inf log-likelihood {first_at(np.isneginf(values))} "
                    f"(zero-likelihood draw{keep})"
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
        object.__setattr__(self, "datapoint_ids", datapoint_ids)
        object.__setattr__(self, "allow_degenerate", bool(allow_degenerate))
        object.__setattr__(self, "_columns", values)
        object.__setattr__(self, "_column_of", column_of)
        return self

    @property
    def values(self) -> np.ndarray:
        """The read-only S x N matrix."""
        if self._column_of is None:
            return self._columns
        values = np.take(self._columns, self._column_of, axis=1)
        values.flags.writeable = False
        return values

    @property
    def draw_count(self) -> int:
        return self._columns.shape[0]

    @property
    def point_count(self) -> int:
        return len(self.datapoint_ids)


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


@dataclass(frozen=True, eq=False)
class MismatchReport:
    """Ranked per-datapoint columns, worst WAPDI first, plus the WAIC scalar.

    Entry k of every column belongs to the datapoint of WAPDI rank k + 1:
    ``ids``, the read-only arrays in ``columns`` (``summarize``'s keys but
    ``log_mu_mcse``: one float array per ``PointwiseSummary`` field and one
    boolean mask per flag), ``rank_wapdi`` (1..N) and ``rank_log_mu``.
    ``rows`` holds the same data as one ``ReportRow`` per datapoint, built on
    first access. ``waic`` averages the finite WAIC terms; ``n_excluded``
    counts the datapoints whose term is not finite and so left out. Reports
    compare by identity.
    """

    ids: tuple[str, ...]
    columns: dict[str, np.ndarray]
    rank_wapdi: np.ndarray
    rank_log_mu: np.ndarray
    waic: float
    group_labels: dict[str, str] | None = None
    n_excluded: int = 0

    @cached_property
    def rows(self) -> tuple[ReportRow, ...]:
        """One ``ReportRow`` per datapoint, in rank order."""
        values = zip(*(self.columns[f].tolist() for f in _FIELDS))
        return tuple(
            ReportRow(
                datapoint_id=datapoint_id,
                summary=PointwiseSummary(*vals, flags),
                rank_wapdi=rank,
                rank_log_mu=rank_log_mu,
            )
            for datapoint_id, rank, rank_log_mu, vals, flags in zip(
                self.ids, self.rank_wapdi.tolist(), self.rank_log_mu.tolist(), values, self.flags
            )
        )

    @cached_property
    def flags(self) -> list[tuple[str, ...]]:
        """Each datapoint's flags, as its ``PointwiseSummary`` lists them."""
        code = sum(self.columns[f] << bit for bit, f in enumerate(_FLAGS))
        sets = [
            tuple(f for bit, f in enumerate(_FLAGS) if c >> bit & 1)
            for c in range(1 << len(_FLAGS))
        ]
        return [sets[c] for c in code.tolist()]

    @cached_property
    def float_reprs(self) -> dict[str, list[str]]:
        """``repr`` of each entry of each float column, made once for every writer."""
        return {f: list(map(repr, self.columns[f].tolist())) for f in _FIELDS}


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
    mean = float(np.mean(kept)) if kept.size else float("nan")
    return mean, values.size - kept.size


def _var_rows(rows: np.ndarray, row_mean: np.ndarray) -> np.ndarray:
    # Sample variance (S-1 divisor) of each row: np.var(ddof=1)'s arithmetic,
    # from the row means already at hand.
    d = rows - row_mean[:, None]
    d *= d
    return d.sum(axis=1) / (rows.shape[1] - 1)


def _dispersion_rows(block: np.ndarray) -> dict[str, np.ndarray]:
    """Every per-column quantity of an S x n block, as n-arrays.

    Keys are the ``PointwiseSummary`` fields, ``log_mu_mcse`` and one
    boolean mask per flag.
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
            "log_mu_mcse": np.sqrt(var_lik) / (mean_lik * np.sqrt(rows.shape[1])),
            FLAG_NONFINITE: nonfinite,
            FLAG_ZERO_VARIANCE: zero_variance,
            FLAG_NEAR_SINGULAR: small & ~nonfinite,
        }


_FIELDS = tuple(f.name for f in fields(PointwiseSummary) if f.name != "flags")


def summarize(matrix: LogLikMatrix) -> dict[str, np.ndarray]:
    """Every per-datapoint quantity of the matrix, as length-N arrays.

    Keys are the ``PointwiseSummary`` fields, ``log_mu_mcse`` and one
    boolean mask per flag, each array in datapoint order. ``log_mu_mcse`` is
    the delta-method standard error of ``log_mu`` for i.i.d. draws, sd(w) /
    (mean(w) sqrt(S)) with w = exp(column - max); MCMC draws need their
    effective sample size instead of S. Columns are independent;
    degeneracies are recorded in the masks and never abort the rest of the
    matrix. Each stored column is summarized once, in blocks of about
    ``BLOCK_CELLS`` cells; datapoints that share it share its entries. A
    single column is scored as a one-column matrix:
    ``summarize(LogLikMatrix(col[:, None]))["wapdi"][0]``.
    """
    columns = matrix._columns
    step = max(1, BLOCK_CELLS // matrix.draw_count)
    blocks = [
        _dispersion_rows(columns[:, start : start + step])
        for start in range(0, columns.shape[1], step)
    ]
    out = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
    if matrix._column_of is not None:
        out = {key: values[matrix._column_of] for key, values in out.items()}
    return out


def _check_ids(ids: list[str]) -> None:
    """Raise ``ValueError`` for ids that a summary file could not carry and read back."""
    for index, datapoint_id in enumerate(ids):
        if not datapoint_id:
            raise ValueError(f"datapoint id at index {index} is empty")
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


def rank_report(
    summaries: dict[str, np.ndarray],
    ids,
    group_labels: dict[str, str] | None = None,
) -> MismatchReport:
    """Rank datapoints by WAPDI (rank 1 = most negative = worst).

    ``summaries`` is what ``summarize`` returns. Ties break by ascending
    log_mu, then by id. The secondary ranking by log_mu uses the mirrored key
    (log_mu, wapdi, id). Empty or repeated ids, ids starting with ``#`` and
    ids holding a comma, a double quote or a line break are rejected
    (``_check_ids``). The WAIC scalar averages the finite terms only.
    """
    ids = [str(i) for i in ids]
    log_mu = summaries["log_mu"]
    wapdi_val = summaries["wapdi"]
    if len(log_mu) != len(ids):
        raise ValueError(f"{len(log_mu)} summaries for {len(ids)} ids")
    _check_ids(ids)

    id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))
    # NaN (flagged) entries sort after every finite value so ranks stay a
    # permutation of 1..N; in the log_mu ranking they tie-break as 0.
    flagged = np.isnan(wapdi_val)
    wapdi_key = np.where(flagged, 0.0, wapdi_val)
    order_w = np.lexsort((id_rank, log_mu, wapdi_key, flagged))
    order_m = np.lexsort((id_rank, wapdi_key, log_mu))
    rank_m = np.argsort(order_m) + 1

    # Entry k of each column is datapoint order_w[k], of WAPDI rank k + 1.
    columns = {key: summaries[key][order_w] for key in (*_FIELDS, *_FLAGS)}
    rank_wapdi = np.arange(1, len(ids) + 1)
    rank_log_mu = rank_m[order_w]
    for values in (*columns.values(), rank_wapdi, rank_log_mu):
        values.flags.writeable = False
    waic_scalar, n_excluded = _finite_mean(summaries["waic_term"])
    labels = dict(group_labels) if group_labels is not None else None
    return MismatchReport(
        ids=tuple(ids[i] for i in order_w.tolist()),
        columns=columns,
        rank_wapdi=rank_wapdi,
        rank_log_mu=rank_log_mu,
        waic=waic_scalar,
        group_labels=labels,
        n_excluded=n_excluded,
    )


def group_aggregate(report: MismatchReport) -> dict[str, GroupStats]:
    """Per-group arithmetic means of WAPDI and log_mu, ordered by label.

    The groups are the report's own ``group_labels`` (datapoint id to label,
    from ``rank_report``), which must cover every datapoint. Each mean is
    over the finite values only (a flagged datapoint's NaN WAPDI is left
    out), taken in rank order; ``count`` is every datapoint of the group.
    """
    grouping = report.group_labels
    if grouping is None:
        raise ValueError("the report carries no group labels")
    buckets: dict[str, list[int]] = {}
    for k, datapoint_id in enumerate(report.ids):
        if datapoint_id not in grouping:
            raise ValueError(f"datapoint {datapoint_id!r} has no group label")
        buckets.setdefault(grouping[datapoint_id], []).append(k)
    wapdi_val, log_mu = report.columns["wapdi"], report.columns["log_mu"]
    out: dict[str, GroupStats] = {}
    for label in sorted(buckets):
        ranked = buckets[label]
        out[label] = GroupStats(
            mean_wapdi=_finite_mean(wapdi_val[ranked])[0],
            mean_log_mu=_finite_mean(log_mu[ranked])[0],
            count=len(ranked),
        )
    return out
