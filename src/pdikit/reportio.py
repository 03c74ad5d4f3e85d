"""File formats: log-likelihood matrix CSV, summary tables, run metadata, SVG.

Matrix CSV: a header row of datapoint ids, then one row per posterior draw,
comma-separated floats. Every reader skips blank lines and ``#`` comment
lines and reports errors with the file's own line numbers. Summary CSV: one
comment line carrying the tool version and seed, a header, then one row per
datapoint sorted by WAPDI rank; floats are written with repr so a read-back
reproduces every bit. JSON outputs are strict: non-finite floats are null.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import LogLikMatrix, MismatchReport, ReportRow

__all__ = [
    "InputFormatError",
    "meta_line",
    "read_meta_line",
    "read_loglik_csv",
    "format_summary_row",
    "write_summary_csv",
    "read_summary_csv",
    "write_summary_ndjson",
    "write_run_json",
    "write_wapdi_svg",
    "read_group_labels_csv",
    "read_votes_csv",
    "read_values_csv",
]

# Float and rank columns, each named once; the summary writer and reader iterate them.
_FLOAT_COLUMNS = (
    "log_mu",
    "mu_log",
    "sigma2_log",
    "log_sigma2",
    "wapdi",
    "pdi_log",
    "waic_term",
)
_RANK_COLUMNS = ("rank_wapdi", "rank_logpred")
SUMMARY_COLUMNS = ("id", *_FLOAT_COLUMNS, *_RANK_COLUMNS, "flags")


class InputFormatError(ValueError):
    """Malformed input file; maps to exit code 3 in the CLI."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(path: Path, cell: str, line_no: int, col_no: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InputFormatError(
            f"{path}: non-numeric value {cell!r} at line {line_no}, column {col_no}"
        ) from None


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(file line number, line) for every line that is not blank or a ``#`` comment.

    Streamed from the open file; each physical line is split again with
    ``str.splitlines``, so lines are numbered as ``read_text().splitlines()``
    numbers them (breaking at ``\\f``, U+2028, ...). A file that cannot be
    opened, or a byte that is not UTF-8, raises an ``InputFormatError``
    (for a byte, with its line and whole-file offset).
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        try:
            pieces = (piece for physical in fh for piece in physical.splitlines())
            for i, line in enumerate(pieces, 1):
                if line.strip() and not line.startswith("#"):
                    yield i, line
        except UnicodeDecodeError:
            data = path.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:  # at the whole-file byte offset
                line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
                raise InputFormatError(
                    f"{path}: line {line_no}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
                ) from None
            raise


def _parse_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """Header ids and the S x N draw values of a matrix CSV; see ``read_loglik_csv``.

    The draw lines stream from the file into ``np.loadtxt``, so about one
    line of text is alive next to the values. The re-scan reads the file
    again.
    """
    with contextlib.closing(_data_lines(path)) as rows:
        first = next(rows, None)
        if first is None:
            raise InputFormatError(f"{path}: empty file")
        header = [c.strip() for c in first[1].split(",")]
        n_cols = len(header)
        peeked = list(itertools.islice(rows, 2))
        if len(peeked) == 2:
            fed = 0  # draw lines handed to loadtxt

            def draw_lines():
                nonlocal fed
                for fed, (_, line) in enumerate(itertools.chain(peeked, rows), 1):
                    yield line

            try:
                values = np.loadtxt(draw_lines(), delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
            else:
                if values.shape == (fed, n_cols):
                    return header, values
    scanned = []
    with contextlib.closing(_data_lines(path)) as rows:
        next(rows)  # the header
        for line_no, line in rows:
            cells = line.split(",")
            if len(cells) != n_cols:
                raise InputFormatError(
                    f"{path}: line {line_no} has {len(cells)} values, expected {n_cols}"
                )
            scanned.append(
                [_parse_float(path, c.strip(), line_no, j) for j, c in enumerate(cells, 1)]
            )
    return header, np.array(scanned, dtype=np.float64)


def read_loglik_csv(
    path, allow_degenerate: bool = False, keep_option: str = "allow_degenerate=True"
) -> LogLikMatrix:
    """Read a draws-by-datapoints log-likelihood matrix.

    The header row holds datapoint ids; every following row is one posterior
    draw. Blank lines and lines starting with ``#`` are skipped wherever they
    are; a cell is any literal Python's ``float()`` accepts. Ragged rows and
    non-numeric cells are rejected with their file line and column.

    The draw rows stream from the file into one ``np.loadtxt`` call, which
    parses ASCII cells with the same C routine as ``float()`` and so gives
    the same bits, in a fraction of the time and memory of a per-cell loop.
    ``loadtxt`` rejects some literals that ``float()`` accepts (``1_0``,
    non-ASCII digits) and does not say where a bad cell is in the file, so
    when it fails or returns the wrong shape the file is re-scanned cell by
    cell: the re-scan either raises the positioned error or returns the
    values ``loadtxt`` declined. Fewer than two draws skip ``loadtxt``, so
    the draw-count check reports them as before.

    The parsed array is fresh, so the matrix adopts it: it is frozen in
    place, not copied (``LogLikMatrix(values)`` itself copies).

    A -inf cell without ``allow_degenerate`` is refused with a message that
    says to pass ``keep_option``: the CLI names its ``--allow-degenerate``.
    """
    path = Path(path)
    header, values = _parse_matrix(path)
    if len(values) < 2:
        raise InputFormatError(
            f"{path}: need at least 2 posterior draws, found {len(values)}"
        )
    try:
        return LogLikMatrix._adopt(values, header, allow_degenerate, keep_option)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def meta_line(seed) -> str:
    return f"# pdikit {__version__} seed={seed}"


def read_meta_line(path) -> str | None:
    """First ``# pdikit`` comment of a file, if any."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    return first.rstrip("\n") if first.startswith("# pdikit") else None


def format_summary_row(record: dict) -> str:
    """One summary CSV line from a record keyed by ``SUMMARY_COLUMNS``."""
    return ",".join(
        [
            record["id"],
            *[_fmt(record[c]) for c in _FLOAT_COLUMNS],
            *[str(record[c]) for c in _RANK_COLUMNS],
            ";".join(record["flags"]),
        ]
    )


def _summary_record(row: ReportRow) -> dict:
    s = row.summary
    return {
        "id": row.datapoint_id,
        "log_mu": s.log_mu,
        "mu_log": s.mu_log,
        "sigma2_log": s.sigma2_log,
        "log_sigma2": s.log_sigma2,
        "wapdi": s.wapdi,
        "pdi_log": s.pdi_ratio_log,
        "waic_term": s.waic_term,
        "rank_wapdi": row.rank_wapdi,
        "rank_logpred": row.rank_log_mu,
        "flags": list(s.flags),
    }


def write_summary_csv(path, report: MismatchReport, seed: int) -> None:
    lines = [meta_line(seed), ",".join(SUMMARY_COLUMNS)]
    lines += [format_summary_row(_summary_record(row)) for row in report.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_summary_csv(path) -> list[dict]:
    """Read back a summary table as a list of per-row dicts."""
    path = Path(path)
    rows = list(_data_lines(path))
    if not rows:
        raise InputFormatError(f"{path}: empty summary file")
    header = rows[0][1].split(",")
    if list(header) != list(SUMMARY_COLUMNS):
        raise InputFormatError(f"{path}: unexpected summary header {header}")
    out = []
    for line_no, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != len(SUMMARY_COLUMNS):
            raise InputFormatError(f"{path}: ragged row at line {line_no}")
        rec = dict(zip(SUMMARY_COLUMNS, cells))
        rec["flags"] = tuple(f for f in rec["flags"].split(";") if f)
        for col_no, (name, cell) in enumerate(zip(SUMMARY_COLUMNS, cells), 1):
            if name in _FLOAT_COLUMNS:
                rec[name] = _parse_float(path, cell, line_no, col_no)
            elif name in _RANK_COLUMNS:
                try:
                    rec[name] = int(cell)
                except ValueError:
                    raise InputFormatError(
                        f"{path}: non-integer rank {cell!r} at line {line_no}, column {col_no}"
                    ) from None
        out.append(rec)
    return out


def _finite_or_null(obj):
    """``obj`` with every non-finite float, in dicts and lists too, as ``None``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _strict_json(obj, **kwargs) -> str:
    """``json.dumps`` with every non-finite float written as ``null``.

    Strict JSON has no NaN or infinity; the summary flags say why a value is
    missing. Most records hold none, so they are dumped once, unconverted.
    """
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        return json.dumps(_finite_or_null(obj), allow_nan=False, **kwargs)


def write_summary_ndjson(path, report: MismatchReport, seed: int) -> None:
    header = {"pdikit": __version__, "seed": seed, "waic": report.waic}
    lines = [_strict_json(header, sort_keys=True)]
    lines += [_strict_json(_summary_record(row), sort_keys=True) for row in report.rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_run_json(path, payload: dict) -> None:
    payload = {"pdikit": __version__, **payload}
    Path(path).write_text(
        _strict_json(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_wapdi_svg(path, report: MismatchReport, seed: int, top_k: int | None = None) -> None:
    """Self-contained horizontal bar chart of WAPDI, most negative at top.

    Presentation only: values come straight from the report. Flagged (NaN)
    rows are skipped.
    """
    import html  # only here, so that importing the CLI does not pay for it

    rows = [r for r in report.rows if not np.isnan(r.summary.wapdi)]
    if top_k is not None:
        rows = rows[:top_k]
    bar_h, gap, label_w, chart_w = 14, 4, 160, 420
    height = len(rows) * (bar_h + gap) + 30
    width = label_w + chart_w + 80
    max_mag = max((abs(r.summary.wapdi) for r in rows), default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- pdikit {__version__} seed={seed} -->",
        '<style>text{font-family:monospace;font-size:11px}</style>',
        f'<text x="{label_w}" y="14">WAPDI, worst datapoints first</text>',
    ]
    y = 24
    for row in rows:
        w = abs(row.summary.wapdi) / max_mag * chart_w
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 3}" text-anchor="end">'
            f"{html.escape(row.datapoint_id, quote=False)}</text>"
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.2f}" height="{bar_h}" '
            'fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{label_w + w + 4:.2f}" y="{y + bar_h - 3}">'
            f"{row.summary.wapdi:.4f}</text>"
        )
        y += bar_h + gap
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def read_group_labels_csv(path) -> dict[str, str]:
    """Two-column id,label file mapping datapoints to groups."""
    path = Path(path)
    rows = list(_data_lines(path))
    out: dict[str, str] = {}
    start = 1 if rows and rows[0][1].lower().replace(" ", "") == "id,label" else 0
    for line_no, line in rows[start:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise InputFormatError(f"{path}: line {line_no} is not 'id,label'")
        if cells[0] in out:
            raise InputFormatError(f"{path}: duplicate id {cells[0]!r}")
        out[cells[0]] = cells[1]
    return out


def read_values_csv(path) -> np.ndarray:
    """One positive finite number per line; a single leading header line is allowed."""
    path = Path(path)
    rows = [(line_no, line.strip()) for line_no, line in _data_lines(path)]
    if not rows:
        raise InputFormatError(f"{path}: empty file")
    try:
        float(rows[0][1])
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise InputFormatError(f"{path}: no numeric rows")
    values = []
    for line_no, line in rows:
        x = _parse_float(path, line, line_no, 1)
        if not 0.0 < x < math.inf:
            raise InputFormatError(
                f"{path}: line {line_no}: {line!r} is not a positive finite number"
            )
        values.append(x)
    return np.array(values)


_VOTE_REQUIRED = ("vote", "sex", "race", "state")


def _category_index(values) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct values, as strings, and each value's index among them."""
    distinct, index = np.unique(values, return_inverse=True)
    return tuple(str(v) for v in distinct.tolist()), index


def read_votes_csv(path) -> VoteTable:
    """Read the survey schema: vote,sex,race,state[,age|edu].

    vote: 0/1; sex: 0=male, 1=female; race: 1=black, 0 otherwise; state: a
    string code; age or edu (at most one of them): small non-negative integer
    category codes. Category indices are assigned from the sorted distinct
    codes in the file.
    """
    # Imported only when a votes file is read: compute and report never load models.
    from .models import VoteTable

    path = Path(path)
    rows = list(_data_lines(path))
    if len(rows) < 2:
        raise InputFormatError(f"{path}: need a header and at least one row")
    header = [c.strip().lower() for c in rows[0][1].split(",")]
    missing = [c for c in _VOTE_REQUIRED if c not in header]
    if missing:
        raise InputFormatError(f"{path}: missing columns: {', '.join(missing)}")
    if "age" in header and "edu" in header:
        raise InputFormatError(f"{path}: columns 'age' and 'edu' both present; keep one")
    extra_col = next((c for c in ("age", "edu") if c in header), None)
    idx = {c: header.index(c) for c in header}

    def int_cell(cells, col, line_no, allowed=None):
        raw = cells[idx[col]].strip()
        try:
            val = int(raw)
        except ValueError:
            raise InputFormatError(
                f"{path}: line {line_no}: column {col!r} must be an integer, got {raw!r}"
            ) from None
        if allowed is not None and val not in allowed:
            raise InputFormatError(
                f"{path}: line {line_no}: column {col!r} must be in {sorted(allowed)}"
            )
        return val

    vote, female, black, state_raw, extra_raw = [], [], [], [], []
    for line_no, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise InputFormatError(f"{path}: ragged row at line {line_no}")
        vote.append(int_cell(cells, "vote", line_no, {0, 1}))
        female.append(int_cell(cells, "sex", line_no, {0, 1}))
        black.append(int_cell(cells, "race", line_no, {0, 1}))
        state_raw.append(cells[idx["state"]].strip())
        if extra_col:
            extra_raw.append(int_cell(cells, extra_col, line_no))

    state_codes, state = _category_index(state_raw)
    extra_codes, extra = _category_index(extra_raw) if extra_col else ((), None)
    return VoteTable(
        vote=np.array(vote),
        female=np.array(female),
        black=np.array(black),
        state=state,
        state_codes=state_codes,
        extra=extra,
        extra_codes=extra_codes,
        extra_name=extra_col,
    )
