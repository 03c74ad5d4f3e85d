"""Readers and strict JSON writers in ``pdikit.reportio``."""

import contextlib
import errno
import json
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdikit as pk
from pdikit import reportio
from pdikit.cli import main

FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

any_float = st.floats(allow_nan=True, allow_infinity=True)
cell_text = st.one_of(
    any_float.map(repr),
    any_float.map(lambda x: "%.6g" % x),
    # float() accepts these, np.loadtxt does not
    st.integers(0, 10**6).map(lambda i: f"{i:_}"),
    st.integers(0, 999).map(lambda i: str(i).translate(FULLWIDTH)),
    # padding both readers strip
    any_float.map(lambda x: f"\t{x!r} "),
)
filler = st.sampled_from(["", "   ", "# a comment", "#", "#x,y,z"])


@st.composite
def matrix_files(draw):
    """Lines of a matrix CSV, the cell texts of each draw row and its file line."""
    n_rows = draw(st.integers(2, 6))
    n_cols = draw(st.integers(1, 5))
    cells = [draw(st.lists(cell_text, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    lines = draw(st.lists(filler, max_size=2))
    lines.append(",".join(f"c{j}" for j in range(n_cols)))
    line_nos = []
    for row in cells:
        lines += draw(st.lists(filler, max_size=2))
        lines.append(",".join(row))
        line_nos.append(len(lines))
    lines += draw(st.lists(filler, max_size=2))
    return lines, cells, line_nos


def oracle(cells) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in cells], dtype=np.float64)


def write(tmp_path, lines):
    p = tmp_path / "m.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


# Every line break str.splitlines knows; iterating a text file knows the first three.
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def splitlines_oracle(path):
    """``_data_lines`` of a file, as a whole-file ``splitlines`` numbers it."""
    text = path.read_text(encoding="utf-8")
    return [
        (i, line)
        for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.startswith("#")
    ]


def read_bits(path):
    """The bits of the matrix a file reads as, or its error without the path."""
    try:
        return reportio.read_loglik_csv(path, allow_degenerate=True).values.view(np.uint64)
    except reportio.InputFormatError as exc:
        return str(exc).removeprefix(f"{path}: ")


@contextlib.contextmanager
def piped(data: bytes):
    """A ``/dev/fd`` path to a pipe that holds ``data`` (within the pipe's buffer)."""
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


@contextlib.contextmanager
def split_reads():
    """Read every regular matrix file in two processes, whatever its size and the CPUs.

    Yields what each two-process read did, ``"parsed"`` or ``"fell back"``
    (to the read in one process). On exit no child process is left.
    """
    outcomes, real = [], reportio._parse_in_two

    def spy(path, size):
        parsed = real(path, size)
        outcomes.append("fell back" if parsed is None else "parsed")
        return parsed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reportio, "_SPLIT_BYTES", 0)
        mp.setattr(reportio, "_cpus", lambda: 2)
        mp.setattr(reportio, "_parse_in_two", spy)
        yield outcomes
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def two_processes():
    with split_reads() as outcomes:
        yield outcomes


class TestMatrixReaderContract:
    @given(matrix_files())
    @settings(max_examples=300)
    def test_cells_parse_bitwise_like_float(self, tmp_path_factory, case):
        lines, cells, line_nos = case
        path = write(tmp_path_factory.mktemp("m"), lines)
        assert [no for no, _ in list(reportio._data_lines(path))[1:]] == line_nos
        header, got = reportio._parse_matrix(path)
        assert header == [f"c{j}" for j in range(len(cells[0]))]
        want = oracle(cells)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(matrix_files())
    @settings(max_examples=150)
    def test_read_equals_oracle_matrix(self, tmp_path_factory, case):
        lines, cells, _ = case
        path = write(tmp_path_factory.mktemp("m"), lines)
        ids = [f"c{j}" for j in range(len(cells[0]))]
        try:
            want = pk.LogLikMatrix(oracle(cells), ids, allow_degenerate=True)
        except ValueError as exc:
            with pytest.raises(reportio.InputFormatError) as err:
                reportio.read_loglik_csv(path, allow_degenerate=True)
            assert str(err.value) == f"{path}: {exc}"
        else:
            got = reportio.read_loglik_csv(path, allow_degenerate=True)
            assert got.datapoint_ids == want.datapoint_ids
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))

    @given(matrix_files(), st.data())
    @settings(max_examples=200)
    def test_lines_break_and_count_like_splitlines(self, tmp_path_factory, case, data):
        lines = case[0]
        n = len(lines)
        breaks = data.draw(st.lists(st.sampled_from(BREAKS), min_size=n, max_size=n))
        tmp = tmp_path_factory.mktemp("m")
        path = tmp / "breaks.csv"
        path.write_text("".join(map(str.__add__, lines, breaks)), encoding="utf-8", newline="")
        assert list(reportio._data_lines(path)) == splitlines_oracle(path)
        got, want = read_bits(path), read_bits(write(tmp, lines))
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_crlf_matrix_across_read_chunks(self, tmp_path):
        values = np.random.default_rng(4).normal(-3.0, 2.0, size=(60, 150))
        # The comment line's CR is byte 8191 and its LF byte 8192, so the
        # CRLF straddles a read boundary; the rows' breaks fall anywhere.
        lines = ["#" + "x" * 8190, ",".join(f"c{j}" for j in range(150))]
        lines += [",".join(map(repr, row)) for row in values.tolist()]
        path = tmp_path / "crlf.csv"
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
        assert path.stat().st_size > 64 * 1024
        assert list(reportio._data_lines(path)) == splitlines_oracle(path)
        assert np.array_equal(read_bits(path), values.view(np.uint64))

    @pytest.mark.parametrize("split", [False, True], ids=["one-process", "two-process"])
    @pytest.mark.parametrize(
        "header, message",
        [
            ("a,b,a", "duplicate datapoint ids: a"),
            (",b,c", "datapoint id at index 0 is empty"),
            ("a,#b,c", "datapoint id '#b' at index 1 contains a leading '#'"),
        ],
    )
    def test_bad_header_id_refused_before_the_draws(self, tmp_path, split, header, message):
        # The draw line holds a bad cell too: the header is refused first.
        path = write(tmp_path, ["# ids", header, "-1.0,oops,-2.0"])
        with split_reads() if split else contextlib.nullcontext() as outcomes:
            with pytest.raises(reportio.InputFormatError) as err:
                reportio.read_loglik_csv(path)
        assert str(err.value).startswith(f"{path}: line 2: {message}")
        assert not outcomes  # the two-process read refused it too, before any fork

    def test_bad_utf8_names_its_whole_file_offset(self, tmp_path):
        head = b"a,b\n" + b"-1.0,-2.0\n" * 2000  # past the first read of the file
        path = tmp_path / "m.csv"
        path.write_bytes(head + b"-1.0,-2\xff\n")
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path)
        assert str(err.value) == (
            f"{path}: line 2002: not valid UTF-8 (invalid start byte at byte {len(head) + 7})"
        )

    def test_bad_utf8_line_counts_like_splitlines(self, tmp_path):
        path = tmp_path / "m.csv"
        head = "a,b\r\n-1.0,-2.0\u2028-1.5,-2.5\n".encode()
        path.write_bytes(head + b"-3\xff\n")
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path)
        assert str(err.value) == (
            f"{path}: line 4: not valid UTF-8 (invalid start byte at byte {len(head) + 2})"
        )

    @pytest.mark.parametrize("bad", ["input", "groups"])
    def test_bad_utf8_cli_error_names_file_and_line(self, tmp_path, capsys, bad):
        files = {"input": tmp_path / "m.csv", "groups": tmp_path / "g.csv"}
        lead = dict.fromkeys(files, b"")
        lead[bad] = b"\xff"  # starts line 3 of that file
        files["input"].write_bytes(b"a,b\n-1.0,-2.0\n" + lead["input"] + b"-1.1,-2.5\n-1.2,-2.2\n")
        files["groups"].write_bytes(b"id,label\na,g1\n" + lead["groups"] + b"b,g2\n")
        out = tmp_path / "out"
        argv = ["compute", "--input", str(files["input"]), "--groups", str(files["groups"])]
        assert main(argv + ["--out", str(out), "--formats", "csv,ndjson,svg"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"pdikit: error: {files[bad]}: line 3: not valid UTF-8 (")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_utf8_in_a_pipe_names_its_line_and_offset(self, tmp_path, capsys):
        out = tmp_path / "out"
        with piped(b"a,b\n-1,-2\n-1,\xff\n") as fd_path:
            assert main(["compute", "--input", fd_path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"pdikit: error: {fd_path}: line 3: not valid UTF-8 (invalid start byte at byte 13)\n"
        )
        assert not out.exists()

    def test_float_only_literals_take_the_rescan(self, tmp_path):
        path = write(tmp_path, ["a,b,c", "1_0,１,\t-2.5 ", "-1.0,-2.0,-3.0"])
        m = reportio.read_loglik_csv(path)
        assert m.values.tolist() == [[10.0, 1.0, -2.5], [-1.0, -2.0, -3.0]]

    @given(matrix_files(), st.data())
    @settings(max_examples=200)
    def test_malformed_row_names_its_file_line(self, tmp_path_factory, case, data):
        lines, cells, line_nos = case
        n_cols = len(cells[0])
        k = data.draw(st.integers(0, len(cells) - 1))
        line_no = line_nos[k]
        row = list(cells[k])
        kinds = ["trailing_comma", "extra_cell", "non_numeric"]
        if n_cols >= 2:  # one empty or missing cell of a 1-column row is a blank line
            kinds += ["empty_cell", "missing_cell"]
        kind = data.draw(st.sampled_from(kinds))
        if kind in ("empty_cell", "non_numeric"):
            j = data.draw(st.integers(0, n_cols - 1))
            row[j] = "" if kind == "empty_cell" else "oops"
            expected = f"non-numeric value {row[j]!r} at line {line_no}, column {j + 1}"
        else:
            row = {
                "trailing_comma": row + [""],
                "extra_cell": row + ["1.0"],
                "missing_cell": row[:-1],
            }[kind]
            expected = f"line {line_no} has {len(row)} values, expected {n_cols}"
        lines[line_no - 1] = ",".join(row)
        path = write(tmp_path_factory.mktemp("m"), lines)
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path, allow_degenerate=True)
        assert str(err.value) == f"{path}: {expected}"

    @pytest.mark.parametrize(
        "lines, got",
        [
            (["a,b"], 0),
            (["# c", "a,b", "", "# only a comment"], 0),
            (["a,b", "-1.0,-2.0"], 1),
            (["a,b", "# c", "-1_0,１"], 1),
        ],
    )
    def test_too_few_draws_keep_their_message(self, tmp_path, lines, got):
        path = write(tmp_path, lines)
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path)
        assert str(err.value) == f"{path}: need at least 2 posterior draws, got {got}"

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["a,b", "# c", "-1.0"], "line 3 has 1 values, expected 2"),
            # every row equally wide, only not as wide as the header
            (["a,b", "1,2,3", "", "4,5,6"], "line 2 has 3 values, expected 2"),
        ],
    )
    def test_ragged_against_the_header(self, tmp_path, lines, message):
        path = write(tmp_path, lines)
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path)
        assert str(err.value) == f"{path}: {message}"


LONG = "-1.2345678901234567"


def _rows(n_rows, n_cols, cell):
    return [",".join([cell] * n_cols)] * n_rows


class TestRowBudget:
    """The output's row capacity and the block size never change what is read."""

    @pytest.mark.parametrize(
        "lines, newline",
        [
            # later draws much shorter than the first two
            pytest.param(
                ["a,b,c,d,e", *_rows(2, 5, LONG), *_rows(100, 5, "-1")], "\n", id="short-rest"
            ),
            # the first two much shorter than the rest
            pytest.param(
                ["a,b,c,d,e", *_rows(2, 5, "-1"), *_rows(100, 5, LONG)], "\n", id="long-rest"
            ),
            pytest.param(
                ["# c", "a,b", "", "-1.5,-2", "# c", "", "-3e-7,-4", "   ", "-5,-6", "#", "-7,-8"],
                "\n",
                id="comments-and-blanks",
            ),
            pytest.param(
                ["a,b,c", *_rows(2, 3, LONG), "", *_rows(40, 3, "-2.5"), "# c"],
                "\r\n",
                id="crlf-short-rest",
            ),
            pytest.param(
                ["a,b,c", *_rows(2, 3, "-1"), "# c", *_rows(40, 3, LONG), ""],
                "\r\n",
                id="crlf-long-rest",
            ),
        ],
    )
    def test_read_is_bitwise_float(self, tmp_path, monkeypatch, lines, newline):
        path = tmp_path / "m.csv"
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        cells = [line.split(",") for _, line in splitlines_oracle(path)[1:]]
        n_cols = len(cells[0])
        monkeypatch.setattr(reportio, "_BLOCK_CELLS", 7 * n_cols)  # blocks of 7 draw lines
        calls, real_loadtxt = [], np.loadtxt

        def loadtxt(lines, *args, **kwargs):
            calls.append(len(lines))
            return real_loadtxt(lines, *args, **kwargs)

        def rescan(*args):
            raise AssertionError("the per-cell re-scan ran")

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        monkeypatch.setattr(reportio, "_parse_float", rescan)
        m = reportio.read_loglik_csv(path)
        full, last = divmod(len(cells), 7)
        assert calls == [7] * full + [last] * (last > 0)
        assert np.array_equal(m.values.view(np.uint64), oracle(cells).view(np.uint64))

    def test_a_pipe_reads_without_a_budget(self, tmp_path, monkeypatch):
        lines = ["a,b", *_rows(2, 2, "-1"), *_rows(50, 2, LONG)]
        path = write(tmp_path, lines)
        # Blocks of 2 draws into a buffer of 3 rows, doubled as it fills.
        monkeypatch.setattr(reportio, "_BLOCK_CELLS", 4)
        with piped(path.read_bytes()) as fd_path:
            piped_values = reportio.read_loglik_csv(fd_path).values
        assert np.array_equal(piped_values.view(np.uint64), read_bits(path))

    def test_a_capacity_the_system_will_not_map_falls_back_to_growing(
        self, tmp_path, monkeypatch, two_processes
    ):
        path = write(tmp_path, ["a,b", *_rows(50, 2, LONG)])  # room for 502 rows: 8 KB
        real_mmap = mmap.mmap

        def small_only(fileno, length, *args, **kwargs):
            if length > 4000:
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            return real_mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", small_only)
        got = reportio.read_loglik_csv(path).values
        assert got.tolist() == [[float(LONG)] * 2] * 50
        assert two_processes == ["fell back"]

    def test_densest_file_fills_the_fixed_buffer(self, tmp_path, two_processes):
        # Every draw is as short as a draw can be, so the rows fill the
        # shared buffer sized for the most rows the file's bytes can hold.
        path = write(tmp_path, ["a,b,c", *_rows(50, 3, "1")])
        assert reportio.read_loglik_csv(path).values.tolist() == [[1.0] * 3] * 50
        assert two_processes == ["parsed"]

    def test_a_fixed_buffer_refuses_rows_past_its_room(self):
        # 10 bytes hold at most 3 rows of 2 cells, each at least "1,1\n".
        fixed = reportio._Rows(2, 10, fixed=True)
        fixed.put(0, np.ones((3, 2)))
        with pytest.raises(reportio.InputFormatError, match="^more draw rows than the file"):
            fixed.put(3, np.ones((1, 2)))
        assert fixed.array(3).tolist() == [[1.0, 1.0]] * 3


class TestPipedMatrix:
    """A pipe is read once: a block ``np.loadtxt`` declines is re-scanned from memory."""

    @pytest.mark.parametrize(
        "draw, message",
        [
            ("-1,x", "non-numeric value 'x' at line 3, column 2"),
            ("-1,-2,-3", "line 3 has 3 values, expected 2"),
        ],
        ids=["bad-cell", "ragged-row"],
    )
    def test_bad_draw_is_one_positioned_error(self, tmp_path, capsys, draw, message):
        out = tmp_path / "out"
        with piped(f"a,b\n-1,-2\n{draw}\n-2,-3\n".encode()) as fd_path:
            assert main(["compute", "--input", fd_path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"pdikit: error: {fd_path}: {message}\n"
        assert not out.exists()

    def test_float_only_literal_rescans_only_its_block(self, monkeypatch):
        lines = ["a,b", "-1,-2", "-3,-4", "# c", "-5,1_0", "-7,-8", "-9,-10"]
        monkeypatch.setattr(reportio, "_BLOCK_CELLS", 4)  # blocks of 2 draws
        scanned, real = [], reportio._parse_float

        def spy(path, cell, line_no, col_no):
            scanned.append((line_no, col_no))
            return real(path, cell, line_no, col_no)

        monkeypatch.setattr(reportio, "_parse_float", spy)
        with piped("\n".join(lines).encode()) as fd_path:
            m = reportio.read_loglik_csv(fd_path)
        draws = [line for line in lines[1:] if not line.startswith("#")]
        assert m.values.tolist() == [[float(c) for c in d.split(",")] for d in draws]
        assert scanned == [(5, 1), (5, 2), (6, 1), (6, 2)]  # the second block only


class TestTwoProcessRead:
    """Read in two processes, a file gives the bits, or the error, it gives in one."""

    @given(matrix_files(), st.data())
    @settings(max_examples=150)
    def test_matrix_files_read_alike(self, tmp_path_factory, case, data):
        lines, cells, line_nos = case
        k = data.draw(st.integers(0, len(cells) - 1))
        row = data.draw(st.sampled_from([cells[k], cells[k] + ["1.0"], [*cells[k][1:], "oops"]]))
        lines[line_nos[k] - 1] = ",".join(row)
        path = write(tmp_path_factory.mktemp("m"), lines)
        # Blocks of 1, 2 or 3 draws, so that both processes parse, or of the real size.
        n_cols = len(cells[0])
        block_cells = data.draw(st.sampled_from([n_cols, 2 * n_cols, 3 * n_cols, 2**16]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reportio, "_BLOCK_CELLS", block_cells)
            one = read_bits(path)
            with split_reads() as outcomes:
                two = read_bits(path)
        assert len(outcomes) == 1
        assert type(two) is type(one)
        if isinstance(one, str):
            assert two == one
        else:
            assert np.array_equal(two, one)

    def test_blocks_of_both_parities_read_as_in_one_process(self, tmp_path, monkeypatch):
        lines = ["a,b,c"] + [f"-{i}.5,{LONG},-{i}e-3" if i % 7 else "# c" for i in range(1, 41)]
        path = write(tmp_path, lines)
        monkeypatch.setattr(reportio, "_BLOCK_CELLS", 3 * 4)  # blocks of 4 draws: 9 blocks
        one = read_bits(path)
        with split_reads() as outcomes:
            two = read_bits(path)
        assert outcomes == ["parsed"]
        assert np.array_equal(two, one)
        assert one.shape == (35, 3)

    def test_one_block_leaves_the_child_nothing(self, tmp_path, two_processes):
        path = write(tmp_path, ["a,b", "# c", "-1.5,-2", "", "-3e-7,-4"])
        one = reportio.read_loglik_csv(path).values
        assert two_processes == ["parsed"]
        assert one.tolist() == [[-1.5, -2.0], [-3e-7, -4.0]]

    @pytest.mark.parametrize("bad_line", [5, 9, 36], ids=["block-0", "block-1", "block-7"])
    def test_bad_cell_in_either_parity(self, tmp_path, monkeypatch, two_processes, bad_line):
        lines = ["a,b,c"] + [f"-{i}.5,-2,-3" if i % 7 else "# c" for i in range(1, 41)]
        lines[bad_line - 1] = "-1,oops,-3"
        path = write(tmp_path, lines)
        monkeypatch.setattr(reportio, "_BLOCK_CELLS", 3 * 4)  # blocks of 4 draws
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path)
        assert str(err.value) == f"{path}: non-numeric value 'oops' at line {bad_line}, column 2"
        assert two_processes == ["fell back"]

    def test_a_failed_child_stops_this_process(self, tmp_path, monkeypatch, two_processes):
        lines = ["a,b"] + [f"-{i}.5,-2" for i in range(1, 41)]
        lines[3] = "-1,oops"  # line 4, in block 1: the child's first block
        path = write(tmp_path, lines)
        monkeypatch.setattr(reportio, "_BLOCK_CELLS", 2 * 2)  # 20 blocks of 2 draws
        parent, parsed, real = os.getpid(), [], reportio._parse_block

        def spy(path, block, n_cols):
            if os.getpid() == parent:
                if not parsed:  # wait for the child to exit, leaving it to be reaped
                    os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
                parsed.append(block[0][0])
            return real(path, block, n_cols)

        monkeypatch.setattr(reportio, "_parse_block", spy)
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path)
        assert str(err.value) == f"{path}: non-numeric value 'oops' at line 4, column 2"
        assert two_processes == ["fell back"]
        # Block 0 of this process's 10, then blocks 0 and 1 read in one process.
        assert parsed == [2, 2, 4]

    def test_header_after_long_comments_reads_in_two_processes(self, tmp_path, two_processes):
        # Over 4 MiB, so the two-process read is tried at its real size; the
        # first half of the file is comment lines before the header.
        comments = ["# " + "c" * 1022] * 2400
        lines = ["a,b,c,d", *[f"-{i}.{i % 97},{LONG},-{i}e-3,-7" for i in range(1, 52000)]]
        path = write(tmp_path, comments + lines)
        size = path.stat().st_size
        assert size >= 4 * 2**20 and 1024 * len(comments) > size // 2
        two = read_bits(path)
        assert two_processes == ["parsed"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reportio, "_cpus", lambda: 1)
            one = read_bits(path)
        assert two_processes == ["parsed"]  # the second read did not try
        assert np.array_equal(two, one)
        assert one.shape == (len(lines) - 1, 4)

    @pytest.mark.parametrize("block_cells", range(0, 120, 4))
    def test_breaks_next_to_the_midpoint(self, tmp_path, monkeypatch, block_cells):
        # Blocks of 1 to 58 draws of 2 cells: as they grow, a block edge
        # falls after every kind of break, and from 30 draws on the one edge
        # is at or past the middle draw.
        breaks = ["\n", "\r\n", "\f", "\u2028", "\r", "\n\n", "\x85"]
        text = "\ufeffa,b\r\n# c\n"
        text += "".join(f"-{i}.25,-{i}{breaks[i % len(breaks)]}" for i in range(1, 61))
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8", newline="")
        monkeypatch.setattr(reportio, "_BLOCK_CELLS", block_cells)
        one = read_bits(path)
        with split_reads() as outcomes:
            two = read_bits(path)
        assert outcomes == ["parsed"]
        assert np.array_equal(two, one)
        assert one.shape == (60, 2)


class TestMemoryAndOwnership:
    """The reader holds about one S x N array, and the matrix adopts it."""

    def test_read_peak_is_at_most_twice_the_matrix(self, tmp_path):
        values = np.random.default_rng(5).normal(-3.0, 2.0, size=(400, 3000))
        path = tmp_path / "m.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"c{j}" for j in range(3000)) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in values.tolist())
        tracemalloc.start()
        try:
            m = reportio.read_loglik_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(m.values.view(np.uint64), values.view(np.uint64))
        assert peak <= 2 * m.values.nbytes
        # tracemalloc does not see the mapping the rows are parsed into, only
        # the transients: a few blocks of draw lines and their values.
        longest = max(len(line) for line in path.read_text().splitlines())
        block_bytes = reportio._BLOCK_CELLS // 3000 * (longest + 8 * 3000)
        assert peak <= 3 * block_bytes < m.values.nbytes
        assert not m.values.flags.writeable

    def test_adopting_allocates_no_matrix_sized_mask(self):
        values = np.random.default_rng(7).normal(-3.0, 2.0, size=(2000, 500))
        tracemalloc.start()
        try:
            m = pk.LogLikMatrix._adopt(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(m.values, values)
        assert peak < values.nbytes / 16

    def test_constructor_copies_and_freezes_the_copy(self):
        a = np.asfortranarray(np.random.default_rng(6).normal(size=(4, 3)))
        m = pk.LogLikMatrix(a)
        assert a.flags.writeable and not m.values.flags.writeable
        assert not np.shares_memory(m.values, a)
        assert m.values.flags.c_contiguous and np.array_equal(m.values, a)


class TestReaderLineNumbers:
    """Each reader reports the file's own line, counting comment lines."""

    def _raises(self, reader, path, message):
        with pytest.raises(reportio.InputFormatError) as err:
            reader(path)
        assert str(err.value) == f"{path}: {message}"

    def test_loglik(self, tmp_path):
        path = write(tmp_path, ["a,b", "-1.0,-2.0", "# c", "-1.5,oops"])
        self._raises(
            reportio.read_loglik_csv, path, "non-numeric value 'oops' at line 4, column 2"
        )

    def test_values(self, tmp_path):
        path = write(tmp_path, ["# c", "x", "1.0", "bad"])
        self._raises(
            reportio.read_values_csv, path, "non-numeric value 'bad' at line 4, column 1"
        )

    def test_group_labels(self, tmp_path):
        path = write(tmp_path, ["id,label", "# c", "a,g1", "b"])
        self._raises(reportio.read_group_labels_csv, path, "line 4 is not 'id,label'")

    def test_votes(self, tmp_path):
        path = write(tmp_path, ["vote,sex,race,state", "# c", "1,x,0,ny"])
        self._raises(
            reportio.read_votes_csv, path, "line 3: column 'sex' must be an integer, got 'x'"
        )

    def test_summary(self, tmp_path):
        m = pk.LogLikMatrix(np.random.default_rng(0).normal(-3, 1, size=(5, 3)))
        path = tmp_path / "summary.csv"
        reportio.write_summary_csv(path, pk.rank_report(pk.summarize(m), m.datapoint_ids), 0)
        lines = path.read_text().splitlines()  # meta line, header, rows from line 3
        cells = lines[3].split(",")
        cells[1] = "bad"
        lines[3] = ",".join(cells)
        lines.insert(3, "# c")
        path.write_text("\n".join(lines) + "\n")
        self._raises(
            reportio.read_summary_csv, path, "non-numeric value 'bad' at line 5, column 2"
        )
        path.write_text("\n".join(lines[:2] + ["a,1.0"]) + "\n")
        self._raises(reportio.read_summary_csv, path, "ragged row at line 3")

    @pytest.mark.parametrize(
        "reader, lines, message",
        [
            ("read_loglik_csv", [], "empty file"),
            ("read_loglik_csv", ["# only a comment", ""], "empty file"),
            ("read_summary_csv", ["# pdikit", ""], "empty summary file"),
            (
                "read_summary_csv",
                ["id,wapdi", "a,1.0"],
                "unexpected summary header ['id', 'wapdi']",
            ),
            (
                "read_group_labels_csv",
                ["id,label", "a,g1", "# c", "a,g2"],
                "duplicate id 'a' at line 4",
            ),
            ("read_values_csv", [], "empty file"),
            ("read_values_csv", ["# c", "x"], "no numeric rows"),
            (
                "read_votes_csv",
                ["# c", "vote,sex,race,state"],
                "need a header and at least one row",
            ),
            ("read_votes_csv", ["vote,sex,race,state", "# c", "1,0,0"], "ragged row at line 3"),
            # only a name is a header: a mistyped first value is refused, not skipped
            (
                "read_values_csv",
                ["1.O", "2.0", "3.0"],
                "non-numeric value '1.O' at line 1, column 1",
            ),
            ("read_values_csv", ["# c", "x,y", "2"], "non-numeric value 'x,y' at line 2, column 1"),
            ("read_values_csv", ["inf", "2.0"], "line 1: 'inf' is not a positive finite number"),
            # a second column of one name was once read as nothing at all
            (
                "read_votes_csv",
                ["# c", "vote,sex,race,state,state", "1,0,0,ny,ca"],
                "line 2: repeated columns: 'state'",
            ),
            (
                "read_votes_csv",
                ["VOTE,sex,race,Age,state,age,vote,,", "1,0,0,3,ny,3,1,,"],
                "line 1: repeated columns: '', 'age', 'vote'",
            ),
            ("read_group_labels_csv", ["id,label", "a,g1", "b,"], "line 3 has an empty id or label"),
            ("read_group_labels_csv", [" ,g1", "b,g2"], "line 1 has an empty id or label"),
        ],
    )
    def test_refusals(self, tmp_path, reader, lines, message):
        self._raises(getattr(reportio, reader), write(tmp_path, lines), message)


# Pieces of every reader's format, joined at random: headers, rows, cells,
# separators, every line break, comment marks and bytes that are not UTF-8.
_FUZZ_PIECES = [
    "vote,sex,race,state", ",age", ",edu", "1,0,1,ny", "0,1,0,wy,3", "id,label", "a,g",
    ",".join(reportio.SUMMARY_COLUMNS), "x", "a,b", "-1.5,-2", "0", "1", "-1.5", "1e308",
    "-inf", "nan", "1_0", "１", "ny", ",", "\t", " ", "#", "\n", "\n", "\n", "\r", "\r\n",
    "\f", "\x1c", "\u2028", "\ufeff", "é",
]
fuzz_texts = st.lists(
    st.sampled_from([piece.encode() for piece in _FUZZ_PIECES] + [b"\xff", b"\xe2\x80"]),
    max_size=40,
).map(b"".join)
_READERS = (
    reportio.read_loglik_csv,
    reportio.read_summary_csv,
    reportio.read_group_labels_csv,
    reportio.read_values_csv,
    reportio.read_votes_csv,
)


@given(fuzz_texts)
@settings(max_examples=300, deadline=None)
def test_readers_refuse_only_with_their_path(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(data)
    for reader in _READERS:
        try:
            reader(path)
        except reportio.InputFormatError as exc:
            assert str(exc).startswith(f"{path}: ")


@pytest.mark.parametrize("col_no", range(2, 9))
def test_bad_float_cell_names_its_position(tmp_path, col_no):
    m = pk.LogLikMatrix(np.random.default_rng(0).normal(-3, 1, size=(5, 3)))
    path = tmp_path / "summary.csv"
    reportio.write_summary_csv(path, pk.rank_report(pk.summarize(m), m.datapoint_ids), 0)
    lines = path.read_text().splitlines()  # meta line, header, rows from line 3
    cells = lines[3].split(",")
    cells[col_no - 1] = "y"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(reportio.InputFormatError) as err:
        reportio.read_summary_csv(path)
    assert str(err.value) == f"{path}: non-numeric value 'y' at line 4, column {col_no}"


@pytest.mark.parametrize("col_no", [9, 10])
def test_bad_rank_cell_names_its_position(tmp_path, capsys, col_no):
    m = pk.LogLikMatrix(np.random.default_rng(0).normal(-3, 1, size=(5, 3)))
    path = tmp_path / "summary.csv"
    reportio.write_summary_csv(path, pk.rank_report(pk.summarize(m), m.datapoint_ids), 0)
    lines = path.read_text().splitlines()  # meta line, header, rows from line 3
    cells = lines[3].split(",")
    cells[col_no - 1] = "x"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: non-integer rank 'x' at line 4, column {col_no}"
    with pytest.raises(reportio.InputFormatError) as err:
        reportio.read_summary_csv(path)
    assert str(err.value) == message
    assert main(["report", "--input", str(path)]) == 3
    assert capsys.readouterr().err == f"pdikit: error: {message}\n"


# An id the summary CSV can carry, which ``rank_report`` accepts: not empty,
# no comma, double quote or line break, and no leading "#", which every
# reader takes for a comment line.
safe_id = st.text(min_size=1, max_size=6).filter(
    lambda s: not ("," in s or '"' in s or s.startswith("#"))
    and len((s + "x").splitlines()) == 1
)


@st.composite
def degenerate_matrices(draw):
    """(values, ids): finite, constant, -inf-holding and all-zero columns."""
    n_draws = draw(st.integers(2, 5))
    value = st.floats(-1e4, 50.0)
    columns = []
    kinds = st.sampled_from(["free", "constant", "neginf", "zero"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "free":
            col = draw(st.lists(value, min_size=n_draws, max_size=n_draws))
        elif kind == "constant":
            col = [draw(value)] * n_draws
        elif kind == "neginf":
            col = draw(st.lists(value, min_size=n_draws, max_size=n_draws))
            col[draw(st.integers(0, n_draws - 1))] = -np.inf
        else:
            col = [0.0] * n_draws
        columns.append(col)
    n = len(columns)
    ids = draw(st.lists(safe_id, min_size=n, max_size=n, unique=True))
    return np.array(columns).T, ids


@given(degenerate_matrices(), st.integers(0, 2**32))
@settings(max_examples=150)
def test_summary_csv_round_trip_is_bitwise(tmp_path_factory, case, seed):
    values, ids = case
    m = pk.LogLikMatrix(values, ids, allow_degenerate=True)
    report = pk.rank_report(pk.summarize(m), m.datapoint_ids)
    path = tmp_path_factory.mktemp("rt") / "summary.csv"
    reportio.write_summary_csv(path, report, seed)
    got = reportio.read_summary_csv(path)
    assert [r["id"] for r in got] == [row.datapoint_id for row in report.rows]
    for rec, row in zip(got, report.rows):
        s = row.summary
        want = [s.log_mu, s.mu_log, s.sigma2_log, s.log_sigma2, s.wapdi]
        want += [s.pdi_ratio_log, s.waic_term]
        want = np.array(want)
        read = np.array([rec[c] for c in reportio.SUMMARY_COLUMNS[1:8]])
        # The text "nan" carries no sign, so a NaN reads back as a NaN; every
        # other value reads back with its bits.
        kept = ~np.isnan(want)
        assert np.array_equal(np.isnan(read), ~kept)
        assert np.array_equal(read[kept].view(np.uint64), want[kept].view(np.uint64))
        assert rec["rank_wapdi"] == row.rank_wapdi
        assert rec["rank_logpred"] == row.rank_log_mu
        assert rec["flags"] == s.flags


# The writers as they were written one report row at a time: the
# references that the columnar writers and group_aggregate must match.


def row_record(row) -> dict:
    """One datapoint's summary record, keyed by ``SUMMARY_COLUMNS``."""
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


def row_csv_line(row) -> str:
    r = row_record(row)
    cells = [r["id"], *(repr(r[c]) for c in reportio.SUMMARY_COLUMNS[1:8])]
    cells += [str(r["rank_wapdi"]), str(r["rank_logpred"]), ";".join(r["flags"])]
    return ",".join(cells)


def row_json_line(record: dict) -> str:
    nulled = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in record.items()
    }
    return json.dumps(nulled, sort_keys=True, allow_nan=False)


def row_group_means(report) -> dict:
    """(mean_wapdi, mean_log_mu, count) per label, from the rows in rank order."""
    buckets = {}
    for row in report.rows:
        buckets.setdefault(report.group_labels[row.datapoint_id], []).append(row.summary)
    out = {}
    for label, summaries in buckets.items():
        means = []
        for values in ([s.wapdi for s in summaries], [s.log_mu for s in summaries]):
            kept = [v for v in values if math.isfinite(v)]
            means.append(float(np.mean(kept)) if kept else float("nan"))
        out[label] = (*means, len(summaries))
    return out


def degenerate_report(case, labels=None):
    values, ids = case
    m = pk.LogLikMatrix(values, ids, allow_degenerate=True)
    return pk.rank_report(pk.summarize(m), m.datapoint_ids, labels)


class TestNdjsonWriter:
    @given(degenerate_matrices(), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_written_lines_equal_strict_json_dumps(self, tmp_path_factory, case, seed):
        report = degenerate_report(case)
        path = tmp_path_factory.mktemp("nd") / "summary.ndjson"
        reportio.write_summary_ndjson(path, report, seed)
        header = {"pdikit": pk.__version__, "seed": seed, "waic": report.waic}
        records = [header] + [row_record(row) for row in report.rows]
        want = "".join(row_json_line(r) + "\n" for r in records)
        assert path.read_bytes() == want.encode("utf-8")


@given(degenerate_matrices(), st.integers(0, 2**32))
@settings(max_examples=50)
def test_summary_csv_lines_equal_per_row_reference(tmp_path_factory, case, seed):
    report = degenerate_report(case)
    path = tmp_path_factory.mktemp("csv") / "summary.csv"
    reportio.write_summary_csv(path, report, seed)
    lines = [reportio.meta_line(seed), ",".join(reportio.SUMMARY_COLUMNS)]
    lines += [row_csv_line(row) for row in report.rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@given(degenerate_matrices(), st.data())
@settings(max_examples=50)
def test_group_means_equal_per_row_reference(case, data):
    ids = case[1]
    label = st.sampled_from(["g1", "g2", "ü"])
    labels = data.draw(st.lists(label, min_size=len(ids), max_size=len(ids)))
    report = degenerate_report(case, dict(zip(ids, labels)))
    got = {
        label: (g.mean_wapdi, g.mean_log_mu, g.count)
        for label, g in pk.group_aggregate(report).items()
    }
    want = row_group_means(report)
    assert list(got) == sorted(want)
    for label, (wapdi, log_mu, count) in want.items():
        bits = np.array([wapdi, log_mu]).view(np.uint64)
        assert np.array_equal(np.array(got[label][:2]).view(np.uint64), bits), label
        assert got[label][2] == count


def _strict(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_degenerate_matrix_writes_null(self, tmp_path):
        matrix = write(tmp_path, ["a,b", "-1.0,-2.0", "-inf,-2.5", "-1.2,-2.2"])
        groups = tmp_path / "g.csv"
        groups.write_text("id,label\na,g1\nb,g2\n")
        out = tmp_path / "out"
        argv = ["compute", "--input", str(matrix), "--groups", str(groups), "--out", str(out)]
        assert main(argv + ["--allow-degenerate", "--formats", "csv,ndjson"]) == 0
        run = _strict((out / "run.json").read_text())
        records = [_strict(line) for line in (out / "summary.ndjson").read_text().splitlines()]
        by_id = {r["id"]: r for r in records[1:]}
        assert by_id["a"]["flags"] == ["nonfinite_loglik"]
        assert by_id["a"]["wapdi"] is None and by_id["a"]["log_mu"] is not None
        assert None not in by_id["b"].values()
        # The WAIC scalar and the group means average the finite terms only.
        assert run["n_excluded"] == 1
        assert run["waic"] == by_id["b"]["waic_term"]
        assert records[0]["waic"] == run["waic"]
        assert run["group_means"]["g1"]["mean_wapdi"] is None  # its only row is flagged
        assert run["group_means"]["g1"]["mean_log_mu"] == by_id["a"]["log_mu"]
        assert run["group_means"]["g2"]["mean_wapdi"] == by_id["b"]["wapdi"]
        # summary.csv keeps repr floats, nan included
        rows = {r["id"]: r for r in reportio.read_summary_csv(out / "summary.csv")}
        assert np.isnan(rows["a"]["wapdi"])

    def test_quote_in_header_id_rejected(self, tmp_path, capsys):
        matrix = write(tmp_path, ['a,say "b"', "-1.0,-2.0", "-1.1,-2.5"])
        out = tmp_path / "out"
        assert main(["compute", "--input", str(matrix), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"pdikit: error: {matrix}: line 1: datapoint id 'say \"b\"' at index 1 "
            "contains a comma, a double quote or a line break\n"
        )
        assert not (out / "summary.csv").exists()

    def test_leading_hash_header_id_rejected(self, tmp_path, capsys):
        # Every reader skips a line starting with '#', so a summary row for
        # '#b' would be written and then never read back.
        matrix = write(tmp_path, ["a,#b", "-1.0,-2.0", "-1.1,-2.5"])
        out = tmp_path / "out"
        assert main(["compute", "--input", str(matrix), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"pdikit: error: {matrix}: line 1: datapoint id '#b' at index 1 contains a leading '#'"
        )
        assert not out.exists()

    def test_nested_non_finite_values_become_null(self, tmp_path):
        payload = {"x": [1.0, float("-inf")], "y": {"z": float("nan"), "w": (2.0, "s")}}
        reportio.write_run_json(tmp_path / "run.json", payload)
        run = _strict((tmp_path / "run.json").read_text())
        assert run["x"] == [1.0, None]
        assert run["y"] == {"z": None, "w": [2.0, "s"]}


def _category_index_by_dict(values):
    """The dict-based category index ``reportio._category_index`` replaced."""
    distinct = sorted(set(values))
    lookup = {v: i for i, v in enumerate(distinct)}
    return tuple(str(v) for v in distinct), np.array([lookup[v] for v in values])


@pytest.mark.parametrize(
    "values",
    [
        ["wy", "ca", "ny", "ca", "Ab", "b", "wy", "aa"],
        [7, 3, 12, 3, 0, 7, 45, 12],
    ],
)
def test_category_index_matches_the_dict_version(values):
    codes, index = reportio._category_index(values)
    want_codes, want_index = _category_index_by_dict(values)
    assert codes == want_codes
    assert all(type(c) is str for c in codes)
    assert np.array_equal(index, want_index)
    assert index.dtype == want_index.dtype
