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
import mmap
import os
import stat
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .dispersion import LogLikMatrix, MismatchReport, _check_ids

__all__ = [
    "InputFormatError",
    "meta_line",
    "read_meta_line",
    "read_loglik_csv",
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


def _parse_float(path: Path, cell: str, line_no: int, col_no: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InputFormatError(
            f"{path}: non-numeric value {cell!r} at line {line_no}, column {col_no}"
        ) from None


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for every line that is not blank or a ``#`` comment.

    The file is read in binary, one physical line (up to ``b"\\n"``) at a
    time. Each physical line is decoded alone and broken as
    ``read_text().splitlines()`` breaks the whole file (at ``\\r``, ``\\f``,
    U+2028, ...): only a line that holds a break other than its final
    ``\\n``, or is not ASCII, is split again. A UTF-8 byte-order mark at byte
    0 is dropped. A file that cannot be opened, or a byte that is not UTF-8,
    raises an ``InputFormatError`` (for a byte, with its line and file
    offset).
    """
    try:
        # A draw line can run to 100 KB; the default 8 KB buffer reads it
        # in pieces, about three times slower than this one.
        fh = open(path, "rb", buffering=2**18)
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        offset, line_no = 0, 0
        for raw in fh:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line_no += len((raw[: exc.start].decode("utf-8") + "x").splitlines())
                raise InputFormatError(
                    f"{path}: line {line_no}: not valid UTF-8 "
                    f"({exc.reason} at byte {offset + exc.start})"
                ) from None
            if not offset:
                text = text.removeprefix("\ufeff")
            offset += len(raw)
            # str.isascii() is O(1); each `in` is one memchr-speed scan.
            if text.isascii() and not (
                "\r" in text
                or "\v" in text
                or "\f" in text
                or "\x1c" in text
                or "\x1d" in text
                or "\x1e" in text
            ):
                lines = [text.removesuffix("\n")]
            else:
                lines = text.splitlines()
            for line_no, line in enumerate(lines, line_no + 1):
                # isspace() is False for "", the line of a bare line break.
                if line and not line.isspace() and not line.startswith("#"):
                    yield line_no, line


# The draw lines go to np.loadtxt in blocks of about this many cells; a
# block's lines and values are all the reader holds beside the matrix. Blocks
# of 2^18 cells left compute's peak about 1 MB higher, for no faster read.
_BLOCK_CELLS = 2**16

# A regular matrix file of this many bytes or more is parsed in two processes
# when the reader may run on two CPUs. On a 2-vCPU Xeon (median of 9 reads in
# each of four processes, rows of 200 and of 10000 six-digit cells) the two
# processes broke even at about 1 MiB: at 1 MiB 9-30 against 9-21 ms, at 4 MiB
# 25-75 against 36-65 ms (faster in 7 of 8), at 8 MiB 50-73 against 72-115 ms.
# Blocks alternate by rows, so in a file of a few blocks the parent can parse
# one block more than the child.
_SPLIT_BYTES = 4 * 2**20


class _Rows:
    """float64 draw rows in one anonymous shared mapping, after a count word.

    A file of ``size`` bytes gets room for the most rows those bytes can
    hold: an accepted row has ``n_cols`` non-empty cells, ``n_cols - 1``
    commas and a line break. Pages never written cost address space, not
    memory. A buffer that a forked child writes into is ``fixed`` and
    refuses rows past that room. Any other doubles when full: a pipe has no
    size to go by, and the room can be more address space than the system
    lends.
    """

    def __init__(self, n_cols: int, size: int | None, fixed: bool):
        self.n_cols, self.fixed = n_cols, fixed
        rows = size // (2 * n_cols) + 1 if size is not None else _BLOCK_CELLS // n_cols + 1
        try:
            self.map = mmap.mmap(-1, 8 + 8 * n_cols * rows)
        except OSError:
            if fixed:
                raise
            self.map = mmap.mmap(-1, 8 + 8 * n_cols)

    def put(self, row: int, values: np.ndarray) -> None:
        start = 8 + 8 * self.n_cols * row
        stop = start + values.nbytes
        if stop > len(self.map):
            if self.fixed:
                raise InputFormatError("more draw rows than the file's size can hold")
            bigger = mmap.mmap(-1, max(stop, 2 * len(self.map)))
            with memoryview(self.map) as old:
                bigger[:start] = old[:start]
            self.map.close()
            self.map = bigger
        self.map[start:stop] = values

    @property
    def count(self) -> int:
        """The word before the rows: how many a forked child wrote."""
        return int.from_bytes(self.map[:8], "little")

    @count.setter
    def count(self, rows: int) -> None:
        self.map[:8] = rows.to_bytes(8, "little")

    def array(self, rows: int) -> np.ndarray:
        """The first ``rows`` rows as an array over the mapping itself, not a copy."""
        values = np.frombuffer(self.map, np.float64, rows * self.n_cols, 8)
        return values.reshape(rows, self.n_cols)


def _parse_block(path: Path, block: list[tuple[int, str]], n_cols: int) -> np.ndarray:
    """The values of numbered draw lines: ``np.loadtxt``'s, or ``float()``'s cell by cell.

    ``loadtxt`` rejects some literals that ``float()`` accepts (``1_0``,
    non-ASCII digits) and does not say where a bad cell is, so when it
    fails or returns the wrong shape the block's lines are re-scanned from
    memory: the re-scan either raises the positioned error or returns the
    values ``loadtxt`` declined.
    """
    try:
        values = np.loadtxt([line for _, line in block], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if values.shape == (len(block), n_cols):
            return values
    scanned = []
    for line_no, line in block:
        cells = line.split(",")
        if len(cells) != n_cols:
            raise InputFormatError(
                f"{path}: line {line_no} has {len(cells)} values, expected {n_cols}"
            )
        scanned.append(
            [_parse_float(path, c.strip(), line_no, j) for j, c in enumerate(cells, 1)]
        )
    return np.array(scanned, dtype=np.float64)


def _parse_draws(path: Path, lines, n_cols: int, out: _Rows, parity: int | None = None) -> int:
    """Parse numbered draw lines into ``out`` block by block; return the row count.

    With a ``parity``, only the even (0) or the odd (1) blocks are parsed.
    """
    block_rows = max(1, _BLOCK_CELLS // n_cols)
    row = index = 0
    while block := list(itertools.islice(lines, block_rows)):
        if parity in (None, index % 2):
            out.put(row, _parse_block(path, block, n_cols))
        row, index = row + len(block), index + 1
    return row


def _header(path: Path, first: tuple[int, str] | None) -> list[str]:
    """The datapoint ids of the numbered header line, refused before any draw is parsed."""
    if first is None:
        raise InputFormatError(f"{path}: empty file")
    ids = [c.strip() for c in first[1].split(",")]
    try:
        _check_ids(ids)
    except ValueError as exc:
        raise InputFormatError(f"{path}: line {first[0]}: {exc}") from None
    return ids


def _parse_in_two(path: Path, size: int) -> tuple[list[str], np.ndarray] | None:
    """``_parse_matrix`` in two processes, or ``None`` to read the file in one.

    After the header, both processes walk every draw line in the same
    blocks of ``_BLOCK_CELLS`` cells, so both know where each block's rows
    go in the shared buffer. This process parses the even blocks. A forked
    child parses the odd ones and writes its row total into the buffer's
    count word. Any failure, or totals that differ, returns ``None``: the
    read in one process then raises the error of the first bad line in the
    file.
    """
    import signal  # only here, so that importing the CLI does not pay for it

    with contextlib.closing(_data_lines(path)) as lines:
        header = _header(path, next(lines, None))
        n_cols = len(header)
        try:
            out = _Rows(n_cols, size, fixed=True)
            pid = os.fork()
        except OSError:  # no room for the buffer, or no process to spare
            return None
        if pid == 0:  # its own file: the parent's shares the parent's offset
            status = 1
            try:
                with contextlib.closing(_data_lines(path)) as own:
                    next(own)  # the header
                    out.count = _parse_draws(path, own, n_cols, out, parity=1)
                status = 0
            finally:
                os._exit(status)
        rows = None
        try:
            rows = _parse_draws(path, lines, n_cols, out, parity=0)
        except InputFormatError:
            pass
        finally:
            if rows is None:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
    if rows is not None and status == 0 and out.count == rows:
        return header, out.array(rows)
    return None


def _cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _parse_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """Header ids and the S x N draw values of a matrix CSV; see ``read_loglik_csv``.

    The draws are parsed block by block into one ``_Rows`` buffer, sized
    from a regular file's size. A large regular file is parsed in two
    processes (``_parse_in_two``); a pipe is read in one.
    """
    try:
        info = path.stat()
    except OSError:
        info = None  # opening the file says why
    size = info.st_size if info is not None and stat.S_ISREG(info.st_mode) else None
    if size is not None and size >= _SPLIT_BYTES and _cpus() > 1:
        parsed = _parse_in_two(path, size)
        if parsed is not None:
            return parsed
    with contextlib.closing(_data_lines(path)) as lines:
        header = _header(path, next(lines, None))
        n_cols = len(header)
        out = _Rows(n_cols, size, fixed=False)
        rows = _parse_draws(path, lines, n_cols, out)
    return header, out.array(rows)


def read_loglik_csv(
    path, allow_degenerate: bool = False, keep_option: str = "allow_degenerate=True"
) -> LogLikMatrix:
    """Read a draws-by-datapoints log-likelihood matrix.

    The header row holds datapoint ids; every following row is one posterior
    draw. Blank lines and lines starting with ``#`` are skipped wherever they
    are; a cell is any literal Python's ``float()`` accepts. Ragged rows and
    non-numeric cells are rejected with their file line and column.

    The draw rows stream from the file into ``np.loadtxt`` in blocks, which
    parses ASCII cells with the same C routine as ``float()`` and so gives
    the same bits, in a fraction of the time and memory of a per-cell loop.
    A block that ``loadtxt`` declines is re-scanned cell by cell from memory
    (``_parse_block``), so a pipe is read once, like a file. A large regular
    file is parsed in two processes, each taking every other block
    (``_parse_in_two``).

    The values are parsed into a fresh buffer, so the matrix adopts a view
    of it: it is frozen in place, not copied (``LogLikMatrix(values)``
    itself copies).

    A -inf cell without ``allow_degenerate`` is refused with a message that
    says to pass ``keep_option``: the CLI names its ``--allow-degenerate``.
    """
    path = Path(path)
    header, values = _parse_matrix(path)
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
    """The summary table, the only writer of its row format.

    ``meta_line(seed)``, the ``SUMMARY_COLUMNS`` header, then per datapoint in rank
    order: its id, the floats in repr form, the two integer ranks, ``;``-joined flags.
    """
    texts = _number_texts(report)
    texts["id"] = report.ids
    texts["flags"] = [";".join(flags) for flags in report.flags]
    lines = [meta_line(seed), ",".join(SUMMARY_COLUMNS)]
    lines += map(",".join, zip(*(texts[c] for c in SUMMARY_COLUMNS)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _summary_rows(path) -> list[tuple[dict, str]]:
    """Each data row of a summary table, validated, as (record, its line in the file)."""
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
        out.append((rec, line))
    return out


def read_summary_csv(path) -> list[dict]:
    """Read back a summary table as a list of per-row dicts."""
    return [rec for rec, _ in _summary_rows(path)]


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
    missing.
    """
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
    """Two-column id,label file mapping datapoints to groups, refusing empty cells."""
    path = Path(path)
    rows = list(_data_lines(path))
    out: dict[str, str] = {}
    start = 1 if rows and rows[0][1].lower().replace(" ", "") == "id,label" else 0
    for line_no, line in rows[start:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise InputFormatError(f"{path}: line {line_no} is not 'id,label'")
        if "" in cells:
            raise InputFormatError(f"{path}: line {line_no} has an empty id or label")
        if cells[0] in out:
            raise InputFormatError(f"{path}: duplicate id {cells[0]!r} at line {line_no}")
        out[cells[0]] = cells[1]
    return out


def read_values_csv(path) -> np.ndarray:
    """One positive finite number per line, after an optional header name.

    Only a first line that ``float()`` refuses and that is a name
    (``str.isidentifier()``, like ``--dump-data``'s ``x``) is a header; every
    other line is parsed, and a bad one is refused with its line and column.
    """
    path = Path(path)
    rows = [(line_no, line.strip()) for line_no, line in _data_lines(path)]
    if not rows:
        raise InputFormatError(f"{path}: empty file")
    try:
        float(rows[0][1])
    except ValueError:
        if rows[0][1].isidentifier():
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
    string code; age or edu (at most one of them): small-integer category
    codes, any integer (a -1 is one more category, not a missing value).
    Category indices are assigned from the sorted distinct codes in the file.
    """
    # Imported only when a votes file is read: compute and report never load models.
    from .models import VoteTable

    path = Path(path)
    rows = list(_data_lines(path))
    if len(rows) < 2:
        raise InputFormatError(f"{path}: need a header and at least one row")
    header = [c.strip().lower() for c in rows[0][1].split(",")]
    dupes = ", ".join(repr(c) for c in sorted(set(header)) if header.count(c) > 1)
    if dupes:
        raise InputFormatError(f"{path}: line {rows[0][0]}: repeated columns: {dupes}")
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

    groups = {"state": _category_index(state_raw)}
    if extra_col:
        groups[extra_col] = _category_index(extra_raw)
    return VoteTable(
        vote=np.array(vote), female=np.array(female), black=np.array(black), groups=groups
    )
