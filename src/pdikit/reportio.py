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
import stat
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import LogLikMatrix, MismatchReport

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

# Float and rank columns, each named once; the summary writers and reader
# iterate them. Each float column names the report column it prints.
_FLOAT_COLUMNS = {
    "log_mu": "log_mu",
    "mu_log": "mu_log",
    "sigma2_log": "sigma2_log",
    "log_sigma2": "log_sigma2",
    "wapdi": "wapdi",
    "pdi_log": "pdi_ratio_log",
    "waic_term": "waic_term",
}
_RANK_COLUMNS = ("rank_wapdi", "rank_logpred")
SUMMARY_COLUMNS = ("id", *_FLOAT_COLUMNS, *_RANK_COLUMNS, "flags")
# One summary.ndjson record, its keys sorted as ``json.dumps(sort_keys=True)`` sorts them.
_NDJSON_RECORD = "{" + ", ".join(f'"{c}": %s' for c in sorted(SUMMARY_COLUMNS)) + "}"


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


def _lines(fh) -> Iterator[str]:
    """The lines ``str.splitlines`` makes of an open text file, some keeping a final ``\\n``.

    A physical line holds no break but its final ``\\n`` unless it holds one
    of the other ASCII breaks ``str.splitlines`` knows or is not ASCII
    (U+2028, ...); only such a line is split again, and the others are
    passed on as they are.
    """
    for physical in fh:
        if physical.isascii() and not (
            "\v" in physical
            or "\f" in physical
            or "\x1c" in physical
            or "\x1d" in physical
            or "\x1e" in physical
        ):
            yield physical
        else:
            yield from physical.splitlines()


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(file line number, line) for every line that is not blank or a ``#`` comment.

    Streamed from the open file, lines are broken and numbered as
    ``read_text().splitlines()`` breaks and numbers them (at ``\\f``,
    U+2028, ...). A UTF-8 byte-order mark at the start of the file is
    dropped. A file that cannot be opened, or a byte that is not UTF-8,
    raises an ``InputFormatError`` (for a byte, with its line and whole-file
    offset).
    """
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        try:
            for i, line in enumerate(_lines(fh), 1):
                # isspace() is True for the "\n" of an empty line, False for "".
                if line and not line.isspace() and not line.startswith("#"):
                    yield i, line.removesuffix("\n")
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


def _row_budget(size: int, header: str, draws: list[str], n_cols: int) -> int:
    """How many draw rows to size ``np.loadtxt``'s output for, ahead of the parse.

    ``size`` is the file's byte count, and each character of ``header`` and
    of the first two draw lines ``draws`` took at least one byte of it. The
    budget spreads the bytes after the header over rows as long as those
    two, with a quarter of headroom (rows never filled cost address space,
    not memory). It is capped at the most rows those bytes can hold: an
    accepted row has ``n_cols`` non-empty cells, ``n_cols - 1`` commas and a
    line break.
    """
    bytes_left = size - len(header) - 1
    per_row = (len(draws[0]) + len(draws[1])) / 2 + 1
    return min(math.ceil(1.25 * bytes_left / per_row), bytes_left // (2 * n_cols) + 1)


def _parse_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """Header ids and the S x N draw values of a matrix CSV; see ``read_loglik_csv``.

    The draw lines stream from the file into ``np.loadtxt``, so about one
    line of text is alive next to the values. For a regular file ``loadtxt``
    is told how many rows to expect (``_row_budget``), so it allocates its
    output once instead of growing it; draw lines left over past that budget
    are parsed by a second ``loadtxt`` and appended. A pipe has no size to
    go by, so its output grows. The re-scan reads the file again.
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

            info = path.stat()
            budget = None
            if stat.S_ISREG(info.st_mode):
                draws = [line for _, line in peeked]
                budget = _row_budget(info.st_size, first[1], draws, n_cols)
            lines = draw_lines()
            try:
                values = np.loadtxt(
                    lines, delimiter=",", comments=None, ndmin=2, max_rows=budget
                )
                rest = next(lines, None)
                if rest is not None:
                    more = np.loadtxt(
                        itertools.chain([rest], lines), delimiter=",", comments=None, ndmin=2
                    )
                    values = np.concatenate([values, more])
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
    with open(path, encoding="utf-8-sig") as fh:
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


def _number_texts(report: MismatchReport) -> dict[str, list[str]]:
    """The float and rank columns' text per datapoint, in rank order.

    The floats are the report's ``float_reprs``, made once however many
    writers print them.
    """
    texts = {c: report.float_reprs[field] for c, field in _FLOAT_COLUMNS.items()}
    texts["rank_wapdi"] = list(map(str, report.rank_wapdi.tolist()))
    texts["rank_logpred"] = list(map(str, report.rank_log_mu.tolist()))
    return texts


def write_summary_csv(path, report: MismatchReport, seed: int) -> None:
    """The summary table: what ``format_summary_row`` writes for each datapoint."""
    texts = _number_texts(report)
    texts["id"] = report.ids
    texts["flags"] = [";".join(flags) for flags in report.flags]
    lines = [meta_line(seed), ",".join(SUMMARY_COLUMNS)]
    lines += map(",".join, zip(*(texts[c] for c in SUMMARY_COLUMNS)))
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
    """A header record, then one record per datapoint keyed by ``SUMMARY_COLUMNS``.

    Each line is what ``_strict_json(..., sort_keys=True)`` writes for it:
    floats as repr or, when not finite, ``null``; ids through ``json``'s own
    ASCII string encoder; flags as a list.
    """
    texts = _number_texts(report)
    for c, field in _FLOAT_COLUMNS.items():
        finite = np.isfinite(report.columns[field]).tolist()
        texts[c] = [text if ok else "null" for text, ok in zip(texts[c], finite)]
    texts["id"] = list(map(encode_basestring_ascii, report.ids))
    flag_lists = {flags: json.dumps(list(flags)) for flags in set(report.flags)}
    texts["flags"] = [flag_lists[flags] for flags in report.flags]
    header = {"pdikit": __version__, "seed": seed, "waic": report.waic}
    lines = [_strict_json(header, sort_keys=True)]
    lines += map(_NDJSON_RECORD.__mod__, zip(*(texts[c] for c in sorted(SUMMARY_COLUMNS))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_run_json(path, payload: dict) -> None:
    payload = {"pdikit": __version__, **payload}
    Path(path).write_text(
        _strict_json(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_wapdi_svg(path, report: MismatchReport, seed: int, top_k: int | None = None) -> None:
    """Self-contained horizontal bar chart of WAPDI, most negative at top.

    Presentation only: values come straight from the report. Flagged (NaN)
    datapoints are skipped.
    """
    import html  # only here, so that importing the CLI does not pay for it

    wapdi = report.columns["wapdi"]
    drawn = np.flatnonzero(~np.isnan(wapdi))[:top_k]
    bars = list(zip([report.ids[k] for k in drawn.tolist()], wapdi[drawn].tolist()))
    bar_h, gap, label_w, chart_w = 14, 4, 160, 420
    height = len(bars) * (bar_h + gap) + 30
    width = label_w + chart_w + 80
    max_mag = max((abs(value) for _, value in bars), default=1.0) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- pdikit {__version__} seed={seed} -->",
        '<style>text{font-family:monospace;font-size:11px}</style>',
        f'<text x="{label_w}" y="14">WAPDI, worst datapoints first</text>',
    ]
    y = 24
    for datapoint_id, value in bars:
        w = abs(value) / max_mag * chart_w
        parts.append(
            f'<text x="{label_w - 6}" y="{y + bar_h - 3}" text-anchor="end">'
            f"{html.escape(datapoint_id, quote=False)}</text>"
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.2f}" height="{bar_h}" '
            'fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{label_w + w + 4:.2f}" y="{y + bar_h - 3}">'
            f"{value:.4f}</text>"
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
