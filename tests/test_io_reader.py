"""The data-file reader and writer: the one-step parse against the line-by-line reader,
and the join writer against csv.writer."""

import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodid import io as gio
from geodid.errors import GeodidError, MissingOutcomeError, ParseError
from geodid.spaces.wasserstein import FORMAT_QUANTILE

WHERE = "unit u period 0"

# cells that are numbers to `float`, some of them odd
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["1_000", "inf", "-Infinity", "nan", "-nan", "1e400", "1e-400", "+1", "1.", ".5",
         " 3 ", "\t4", "\x0c5", "6 ", "\u30007", "\uff11", "\u0661\u0662"]
    ),
)
# cells the line-by-line reader skips, unquotes or rejects
OTHERS = st.one_of(
    st.sampled_from(
        ["", " ", "\t", '"1.5"', '" 2 "', '""', '"1,5"', "1 2", "_1", "1__0", ".", "0x10",
         "1d5", "abc", "1\x00", '1"', '"1', "\ufeff1"]
    ),
    st.text(alphabet="0123456789.eE+-_ a", max_size=5),
)
LINE_ENDS = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def data_texts(draw):
    """A data file: lines of cells, each ended by any line end, the last one optionally not.

    The cells are numbers but for up to two others, and maybe a blank line, placed
    anywhere, so that one odd cell in a file of numbers is common.
    """
    lines = draw(st.lists(st.lists(NUMBERS, min_size=1, max_size=6), min_size=1, max_size=5))
    for cell in draw(st.lists(OTHERS, max_size=2)):
        line = lines[draw(st.integers(0, len(lines) - 1))]
        line.insert(draw(st.integers(0, len(line))), cell)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), [])
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def per_line_outcome(path):
    """The outcome as the line-by-line reader alone reads it, its errors wrapped as a load wraps them."""
    try:
        return np.asarray([x for row in gio._read_csv_lines(path) for x in row], dtype=float)
    except (ValueError, csv.Error) as exc:
        raise ParseError(f"{WHERE}: {exc}") from None


def outcome_or_error(read, *args):
    try:
        array = read(*args)
    except Exception as exc:  # compared by type and message
        return "error", type(exc), str(exc)
    return "array", array.shape, array.dtype, array.tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(text=data_texts())
def test_reader_matches_the_line_by_line_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        fast = gio._read_numbers_csv(str(path))
        expected = outcome_or_error(per_line_outcome, path)
        if fast is not None:
            assert outcome_or_error(lambda: fast) == expected
        assert outcome_or_error(gio._read_outcome, "c.csv", FORMAT_QUANTILE, tmp, WHERE) == expected


def write(tmp_path, text, name="c.csv"):
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize(
    "text",
    ["0.1,0.2\n0.3\n0.4,0.5,0.6\n", "0.1\r\n0.2,0.3,0.4\r\n0.5,0.6", "0.1,0.2\r0.3\r0.4,0.5,0.6\r"],
    ids=["unequal-lines", "unequal-lines-crlf", "cr-only"],
)
def test_one_step_read_of_a_curve_over_lines(tmp_path, text):
    path = write(tmp_path, text)
    expected = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    np.testing.assert_array_equal(gio._read_numbers_csv(str(path)), expected)
    np.testing.assert_array_equal(
        gio._read_outcome(path.name, FORMAT_QUANTILE, str(tmp_path), WHERE), expected
    )


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0.1,0.2\n\n0.3\n", [0.1, 0.2, 0.3]),
        ("0.1,0.2\r\n \r\n0.3", [0.1, 0.2, 0.3]),
        ('0.1,"0.2",,0.3,\n', [0.1, 0.2, 0.3]),
        ("", []),
    ],
    ids=["blank-line", "blank-line-spaces", "quoted-and-blank-cells", "empty-file"],
)
def test_files_the_cast_rejects_are_read_line_by_line(tmp_path, text, expected):
    path = write(tmp_path, text)
    assert gio._read_numbers_csv(str(path)) is None
    np.testing.assert_array_equal(
        gio._read_outcome(path.name, FORMAT_QUANTILE, str(tmp_path), WHERE), expected
    )


def test_cell_over_the_field_limit_is_left_to_csv(tmp_path, monkeypatch):
    path = write(tmp_path, "0.1," + "0" * 20 + "1\n")
    assert gio._read_numbers_csv(str(path)) is not None
    monkeypatch.setattr(csv, "field_size_limit", lambda: 10)
    assert gio._read_numbers_csv(str(path)) is None


def csv_writer_bytes(data, fmt):
    """What the writer wrote when it used csv.writer."""
    rows = data if fmt == "matrix-csv" else [data]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([repr(float(x)) for x in row] for row in rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("fmt", ["quantile-csv", "composition-csv", "matrix-csv"])
def test_writer_bytes_match_csv_writer(tmp_path, fmt):
    rng = np.random.default_rng(11)
    magnitudes = 10.0 ** rng.uniform(-300, 300, 60)
    values = rng.choice([-1.0, 1.0], 60) * magnitudes
    values[:6] = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]
    data = values.reshape(6, 10).tolist() if fmt == "matrix-csv" else values.tolist()
    path = tmp_path / "w.csv"
    gio._write_data_file(path, data, fmt)
    assert path.read_bytes() == csv_writer_bytes(data, fmt)


def line_reader_outcome(path):
    """The outcome as a load reads a file the one-step read gives up on."""
    try:
        return per_line_outcome(path)
    except OSError as exc:
        raise MissingOutcomeError(f"{WHERE}: {exc}") from None


def longer_than_a_chunk():
    """Numbers past one os.read, a three-byte number character astride the chunk boundary."""
    head = b"1.25," * (gio._READ_CHUNK // 5)
    head += b"0" * (gio._READ_CHUNK - 1 - len(head))
    return head + "\u30007\n".encode() + b"2.5\r\n" * 10


BYTE_FILES = {
    "invalid-utf8": b"0.1,\xff0.2\n",
    "utf8-bom": b"\xef\xbb\xbf0.1,0.2\n",
    "longer-than-a-chunk": longer_than_a_chunk(),
    "empty": b"",
    "directory": None,
    "missing": None,
}


def make_data_file(tmp_path, case):
    path = tmp_path / "c.csv"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes(BYTE_FILES[case])
    return path


@pytest.mark.parametrize("case", BYTE_FILES)
def test_byte_level_files_read_as_the_line_by_line_reader_reads_them(tmp_path, case):
    path = make_data_file(tmp_path, case)
    expected = outcome_or_error(line_reader_outcome, path)
    fast = gio._read_numbers_csv(str(path))
    # only the file of numbers is read in one step; the rest fall back
    assert (fast is None) == (case != "longer-than-a-chunk")
    if fast is not None:
        assert len(path.read_bytes()) > gio._READ_CHUNK
        assert outcome_or_error(lambda: fast) == expected
    assert outcome_or_error(gio._read_outcome, "c.csv", FORMAT_QUANTILE, str(tmp_path), WHERE) == expected


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_loads_that_fall_back_or_fail_leave_no_file_open(tmp_path):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for case in BYTE_FILES:
        folder = tmp_path / case
        folder.mkdir()
        make_data_file(folder, case)
        manifest = folder / "m.json"
        unit = {"id": "u", "treatment": [0], "outcomes": ["c.csv"]}
        manifest.write_text(json.dumps({"space": "wasserstein", "periods": 1,
                                        "format": FORMAT_QUANTILE, "units": [unit]}))
        try:
            gio.load_panel(manifest)
        except GeodidError:
            pass
    assert open_fds() == before
