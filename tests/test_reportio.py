"""Readers and strict JSON writers in ``pdikit.reportio``."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    def test_bad_utf8_names_its_whole_file_offset(self, tmp_path):
        head = b"a,b\n" + b"-1.0,-2.0\n" * 2000  # past the first read of the file
        path = tmp_path / "m.csv"
        path.write_bytes(head + b"-1.0,-2\xff\n")
        with pytest.raises(UnicodeDecodeError) as err:
            reportio.read_loglik_csv(path)
        assert err.value.start == len(head) + 7

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
        "lines, found",
        [
            (["a,b"], 0),
            (["# c", "a,b", "", "# only a comment"], 0),
            (["a,b", "-1.0,-2.0"], 1),
            (["a,b", "# c", "-1_0,１"], 1),
        ],
    )
    def test_too_few_draws_keep_their_message(self, tmp_path, lines, found):
        path = write(tmp_path, lines)
        with pytest.raises(reportio.InputFormatError) as err:
            reportio.read_loglik_csv(path)
        assert str(err.value) == f"{path}: need at least 2 posterior draws, found {found}"

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
        assert not m.values.flags.writeable

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


# An id the summary CSV can carry, which ``rank_report`` accepts: no comma,
# double quote or line break, and no leading "#", which every reader takes
# for a comment line.
safe_id = st.text(max_size=6).filter(
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
        read = [rec[c] for c in reportio.SUMMARY_COLUMNS[1:8]]
        assert np.array_equal(np.array(read).view(np.uint64), np.array(want).view(np.uint64))
        assert rec["rank_wapdi"] == row.rank_wapdi
        assert rec["rank_logpred"] == row.rank_log_mu
        assert rec["flags"] == s.flags


ndjson_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def summary_records(draw):
    """Summary records as ``write_summary_ndjson`` builds them."""
    record = {"id": draw(safe_id)}
    record.update((c, draw(ndjson_float)) for c in reportio.SUMMARY_COLUMNS[1:8])
    record["rank_wapdi"] = draw(st.integers(1, 10**9))
    record["rank_logpred"] = draw(st.integers(1, 10**9))
    flags = st.sampled_from(["nonfinite_loglik", "zero_variance", "near_singular_log_mu"])
    record["flags"] = draw(st.lists(flags, unique=True))
    return record


class TestNdjsonTemplate:
    @given(summary_records())
    @settings(max_examples=300)
    @example(
        {
            "id": "é\\t\u2603\\",
            **dict.fromkeys(reportio.SUMMARY_COLUMNS[1:4], float("nan")),
            **dict.fromkeys(reportio.SUMMARY_COLUMNS[4:6], float("-inf")),
            **dict.fromkeys(reportio.SUMMARY_COLUMNS[6:8], float("inf")),
            "rank_wapdi": 1,
            "rank_logpred": 2,
            "flags": ["nonfinite_loglik", "zero_variance"],
        }
    )
    def test_line_equals_strict_json_dumps(self, record):
        assert reportio._ndjson_line(record) == reportio._strict_json(record, sort_keys=True)

    @given(degenerate_matrices(), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_written_lines_equal_strict_json_dumps(self, tmp_path_factory, case, seed):
        values, ids = case
        m = pk.LogLikMatrix(values, ids, allow_degenerate=True)
        report = pk.rank_report(pk.summarize(m), m.datapoint_ids)
        path = tmp_path_factory.mktemp("nd") / "summary.ndjson"
        reportio.write_summary_ndjson(path, report, seed)
        header = {"pdikit": pk.__version__, "seed": seed, "waic": report.waic}
        records = [header] + [reportio._summary_record(row) for row in report.rows]
        want = "".join(reportio._strict_json(r, sort_keys=True) + "\n" for r in records)
        assert path.read_bytes() == want.encode("utf-8")


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
            "pdikit: error: datapoint id 'say \"b\"' at index 1 contains a comma, "
            "a double quote or a line break\n"
        )
        assert not (out / "summary.csv").exists()

    def test_leading_hash_header_id_rejected(self, tmp_path, capsys):
        # Every reader skips a line starting with '#', so a summary row for
        # '#b' would be written and then never read back.
        matrix = write(tmp_path, ["a,#b", "-1.0,-2.0", "-1.1,-2.5"])
        out = tmp_path / "out"
        assert main(["compute", "--input", str(matrix), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "pdikit: error: datapoint id '#b' at index 1 contains a leading '#'"
        )
        assert not out.exists()

    def test_nested_non_finite_values_become_null(self, tmp_path):
        payload = {"x": [1.0, float("-inf")], "y": {"z": float("nan"), "w": (2.0, "s")}}
        reportio.write_run_json(tmp_path / "run.json", payload)
        run = _strict((tmp_path / "run.json").read_text())
        assert run["x"] == [1.0, None]
        assert run["y"] == {"z": None, "w": [2.0, "s"]}
