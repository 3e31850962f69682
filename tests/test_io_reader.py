"""The data-file reader and writer: the block parse against `float` and the
line-by-line reader, and the join writer against csv.writer.

The differential tests take their example count from the Hypothesis profile
(see conftest.py); `--hypothesis-profile=ci` runs ten times as many.
"""

import codecs
import csv
import decimal
import io
import json
import locale
import math
import os
import re
import sys
import tempfile
import warnings
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geodid import io as gio
from geodid.cli import EXIT_INVALID_INPUT, main
from geodid.errors import GeodidError, InvariantViolationError, MissingOutcomeError, ParseError
from geodid.spaces.wasserstein import FORMAT_QUANTILE, FORMAT_SAMPLES

WHERE = "unit u period 0"
DBL_MAX = sys.float_info.max

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
         "1d5", "abc", "1\x00", '1"', '"1', "\ufeff1", "[", "]", "],[", "[1]", "1],[2"]
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


def read_outcome(name, folder, label=WHERE):
    """One outcome, read and named by `label` as a load reads and names it."""
    return gio._outcome_reader(FORMAT_QUANTILE, str(folder))([name], lambda i: label)[0]


def block_of_one(path):
    """A file's numbers as the block parse reads it alone, or None where a load reads it line by line."""
    if csv.field_size_limit() < gio._CELL_MAX:
        return None
    rows = gio._read_block([str(path)])
    return None if rows is None else rows[0]


def outcome_or_error(read, *args):
    try:
        array = read(*args)
    except Exception as exc:  # compared by type and message
        return "error", type(exc), str(exc)
    return "array", array.shape, array.dtype, array.tobytes()


@given(text=data_texts())
def test_reader_matches_the_line_by_line_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        fast = block_of_one(path)
        expected = outcome_or_error(per_line_outcome, path)
        if fast is not None:
            assert outcome_or_error(lambda: fast) == expected
        assert outcome_or_error(read_outcome, "c.csv", tmp) == expected


@st.composite
def number_files(draw, width):
    """A data file of `width` numbers as `repr` writes them, on one line or split over several."""
    cells = draw(st.lists(st.floats().map(repr), min_size=width, max_size=width))
    cuts = sorted(draw(st.sets(st.integers(1, width - 1), max_size=2))) if width > 1 else []
    lines = [",".join(cells[a:b]) for a, b in zip([0, *cuts], [*cuts, width])]
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


@st.composite
def block_texts(draw):
    """1-8 data files read as one block: files of numbers of one width, most
    often, so that the block parse runs, any file of `data_texts`, and a file
    spelling two rows of the block's JSON text, `<row>],[<row>`."""
    width = draw(st.integers(1, 6))
    two_rows = st.tuples(number_files(width), number_files(width)).map(
        lambda rows: rows[0].rstrip("\r\n") + "],[" + rows[1]
    )
    files = st.one_of(number_files(width), number_files(width), data_texts(), two_rows)
    return draw(st.lists(files, min_size=1, max_size=8))


def where(i):
    return f"unit u period {i}"


def read_block_of_files(folder, names):
    """The outcomes of the files `names` in `folder`, read as a load reads them."""
    return gio._outcome_reader(FORMAT_QUANTILE, str(folder))(names, where)


@given(texts=block_texts())
def test_block_reads_each_file_as_a_lone_read_does(texts):
    with tempfile.TemporaryDirectory() as tmp:
        names = [f"c{i}.csv" for i in range(len(texts))]
        for name, text in zip(names, texts):
            with open(Path(tmp, name), "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
        expected = [
            outcome_or_error(read_outcome, name, tmp, where(i))
            for i, name in enumerate(names)
        ]
        first_error = next((e for e in expected if e[0] == "error"), None)
        try:
            arrays = read_block_of_files(tmp, names)
        except Exception as exc:  # compared by type and message
            assert ("error", type(exc), str(exc)) == first_error
        else:
            assert first_error is None
            assert [outcome_or_error(lambda a=a: a) for a in arrays] == expected


def test_two_line_file_and_blank_file_keep_their_places_in_a_block(tmp_path):
    # read as lines, the second file's two rows and the blank file's none
    # would still give one row per file
    texts = ["0.1,0.2\r\n", "0.3,0.4\n0.5,0.6\n", "", "0.7,0.8\r\n"]
    names = [f"c{i}.csv" for i in range(len(texts))]
    for name, text in zip(names, texts):
        (tmp_path / name).write_bytes(text.encode())
    arrays = read_block_of_files(tmp_path, names)
    for i, (name, array) in enumerate(zip(names, arrays)):
        lone = read_outcome(name, tmp_path, where(i))
        assert (array.shape, array.tobytes()) == (lone.shape, lone.tobytes())
    assert [a.tolist() for a in arrays] == [[0.1, 0.2], [0.3, 0.4, 0.5, 0.6], [], [0.7, 0.8]]


def curve_manifest(folder, n_units, periods, texts, fmt=FORMAT_QUANTILE):
    """A manifest in `fmt` of `n_units` x `periods` data files holding `texts`, unit-major."""
    units = []
    for i in range(n_units):
        outcomes = []
        for t in range(periods):
            name = f"u{i}_t{t}.csv"
            (folder / name).write_bytes(texts[i * periods + t].encode())
            outcomes.append(name)
        units.append({"id": f"u{i}", "treatment": [0] * periods, "outcomes": outcomes})
    manifest = folder / "m.json"
    manifest.write_text(json.dumps({"space": "wasserstein", "periods": periods,
                                    "format": fmt, "units": units}))
    return manifest


def clean_curves(count):
    """`count` increasing curves of 5 numbers each, one line per file as save_panel writes it."""
    values = np.arange(count)[:, None] + np.linspace(0.1, 0.9, 5)
    return values, [",".join(map(repr, row)) + "\r\n" for row in values.tolist()]


def ragged_draws(count):
    """`count` files of 2 to 40 seeded draws each, some over two lines."""
    rng = np.random.default_rng(0)
    draws = [rng.normal(size=rng.integers(2, 41)).tolist() for _ in range(count)]
    texts = [",".join(map(repr, row[:3])) + "\n" + ",".join(map(repr, row[3:])) if i % 5 == 0
             else ",".join(map(repr, row)) + "\r\n" for i, row in enumerate(draws)]
    return draws, texts


def counted_load(manifest, monkeypatch, parses=math.ceil(300 / gio._BLOCK_FILES), twice=()):
    """`load_panel(manifest)` of 300 data files, checked to open each file
    once, but the files named in `twice`, which the line reader reads after
    the block parse gave up on them, twice, and to parse every other file in
    one of `parses` `orjson.loads` calls that succeed."""
    opened, blocks = [], []
    os_open, loads, read_lines = os.open, orjson.loads, gio._read_csv_lines

    def counting_open(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return os_open(path, *args, **kwargs)

    def counting_read_lines(path):
        opened.append(os.path.basename(path))
        return read_lines(path)

    def counting_loads(text):
        rows = loads(text)
        blocks.append(len(rows))
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", counting_open)
        patch.setattr(gio, "_read_csv_lines", counting_read_lines)
        patch.setattr(orjson, "loads", counting_loads)
        panel = gio.load_panel(manifest)
    opens = Counter(name for name in opened if name.endswith(".csv"))
    assert len(opens) == 300
    assert {name: n for name, n in opens.items() if n != 1} == dict.fromkeys(twice, 2)
    assert len(blocks) == parses
    assert sum(blocks) == 300 - len(twice)
    return panel


def test_clean_manifest_opens_each_file_once_and_parses_a_block_per_call(tmp_path, monkeypatch):
    values, texts = clean_curves(300)
    panel = counted_load(curve_manifest(tmp_path, 100, 3, texts), monkeypatch)
    np.testing.assert_array_equal(panel.data.reshape(300, 5), values)


def test_ragged_samples_manifest_opens_each_file_once_and_parses_a_block_per_call(tmp_path, monkeypatch):
    draws, texts = ragged_draws(300)
    assert len(set(map(len, draws))) > 1
    manifest = curve_manifest(tmp_path, 100, 3, texts, FORMAT_SAMPLES)
    panel = counted_load(manifest, monkeypatch)
    assert outcome_or_error(lambda: panel.data) == line_by_line_load(manifest, monkeypatch)


def test_a_block_holding_a_file_that_fails_the_gate_is_read_whole_by_the_line_reader(tmp_path, monkeypatch):
    values, texts = clean_curves(300)
    # file 5 of the second block holds a quoted cell, which the line reader unquotes
    bad = gio._BLOCK_FILES + 5
    first, rest = texts[bad].split(",", 1)
    texts[bad] = f'"{first}",{rest}'
    manifest = curve_manifest(tmp_path, 100, 3, texts)
    # every file of that block is opened by the block read, then by the line
    # reader; the other two blocks are parsed in one call each
    block = range(gio._BLOCK_FILES, 2 * gio._BLOCK_FILES)
    twice = [f"u{i // 3}_t{i % 3}.csv" for i in block]
    panel = counted_load(manifest, monkeypatch, parses=2, twice=twice)
    np.testing.assert_array_equal(panel.data.reshape(300, 5), values)
    assert outcome_or_error(lambda: panel.data) == line_by_line_load(manifest, monkeypatch)


@pytest.mark.parametrize("unreadable", ["missing", "directory"])
@pytest.mark.parametrize(
    "kinds", [("good", "bad", "unreadable"), ("unreadable", "good", "bad")], ids=["bad-first", "unreadable-first"]
)
def test_block_holding_an_unreadable_file_reports_its_first_error(tmp_path, monkeypatch, unreadable, kinds):
    texts = {"good": "0.5,1\r\n", "bad": "0.5,abc\r\n", "unreadable": "0.5,1\r\n"}
    manifest = curve_manifest(tmp_path, 1, 3, [texts[kind] for kind in kinds])
    path = tmp_path / f"u0_t{kinds.index('unreadable')}.csv"
    path.unlink()
    if unreadable == "directory":
        path.mkdir()
    # the line reader reads the block in order, so the first of the two bad files reports
    first = "unreadable" if kinds[0] == "unreadable" else "bad"
    kind = {"unreadable": MissingOutcomeError, "bad": ParseError}[first]
    with pytest.raises(kind, match=f"^unit u0 period {kinds.index(first)}: "):
        gio.load_panel(manifest)
    assert load_data_or_error(manifest) == line_by_line_load(manifest, monkeypatch)


def test_inline_outcome_among_files_loads_as_the_line_by_line_reader_loads_it(tmp_path, monkeypatch):
    values, texts = clean_curves(300)
    manifest = curve_manifest(tmp_path, 100, 3, texts)
    payload = json.loads(manifest.read_text())
    # unit 50's period 1 is file 151, in the second block of 128
    payload["units"][50]["outcomes"][1] = values[151].tolist()
    manifest.write_text(json.dumps(payload))
    panel = gio.load_panel(manifest)
    assert load_data_or_error(manifest) == line_by_line_load(manifest, monkeypatch)
    np.testing.assert_array_equal(panel.data.reshape(300, 5), values)


def test_blocks_of_two_widths_name_the_first_odd_outcome(tmp_path):
    _, texts = clean_curves(300)
    # the second block's files, each parsed with the rest of its block, hold 6 numbers
    wide = np.arange(128, 256)[:, None] + np.linspace(0.1, 0.9, 6)
    texts[128:256] = [",".join(map(repr, row)) + "\r\n" for row in wide.tolist()]
    manifest = curve_manifest(tmp_path, 100, 3, texts)
    with pytest.raises(InvariantViolationError) as info:
        gio.load_panel(manifest)
    # file 128 is unit 42's period 2
    assert str(info.value) == "unit u42 period 2: outcome shape (6,) differs from the first outcome's (5,)"


def test_bad_cell_deep_in_a_clean_manifest_names_its_file_and_line(tmp_path):
    _, texts = clean_curves(300)
    texts[137] = "0.1,0.2\r\n0.3,abc,0.5\r\n"
    manifest = curve_manifest(tmp_path, 100, 3, texts)
    with pytest.raises(ParseError) as info:
        gio.load_panel(manifest)
    # file 137 is unit 45's period 2
    assert str(info.value) == (
        f"unit u45 period 2: {tmp_path / 'u45_t2.csv'}:2: "
        "could not convert string to float: 'abc'"
    )


@pytest.mark.parametrize("text", ["", " \r\n\t\n"], ids=["empty", "whitespace-only"])
def test_blank_files_exit_2_with_one_line_and_no_warning(tmp_path, capsys, text):
    manifest = curve_manifest(tmp_path, 1, 2, [text, text])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--manifest", str(manifest)]) == EXIT_INVALID_INPUT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvariantViolationError"


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
    np.testing.assert_array_equal(block_of_one(path), expected)
    np.testing.assert_array_equal(read_outcome(path.name, tmp_path), expected)


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
    assert block_of_one(path) is None
    np.testing.assert_array_equal(read_outcome(path.name, tmp_path), expected)


def test_cell_over_the_field_limit_is_left_to_csv(tmp_path, monkeypatch):
    path = write(tmp_path, "0.1,1" + "0" * 20 + "\n")
    assert block_of_one(path) is not None
    monkeypatch.setattr(csv, "field_size_limit", lambda: 10)
    assert block_of_one(path) is None


def test_files_over_the_field_limit_with_short_cells_open_once_and_parse_a_block_per_call(
    tmp_path, monkeypatch
):
    # a field limit of 1000 bytes, past every cell a block admits, and files of 2000
    draws, _ = ragged_draws(300)
    texts = [",".join(f"{x:.17f}" for x in row * 50) + "\n" for row in draws]
    assert min(map(len, texts)) > 1000
    limit = csv.field_size_limit(1000)
    try:
        manifest = curve_manifest(tmp_path, 100, 3, texts, FORMAT_SAMPLES)
        panel = counted_load(manifest, monkeypatch)
        assert outcome_or_error(lambda: panel.data) == line_by_line_load(manifest, monkeypatch)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("limit, parsed", [(765, False), (766, True)])
def test_a_cell_of_the_longest_length_a_block_admits_loads_as_the_line_reader_loads_it(
    tmp_path, monkeypatch, limit, parsed
):
    # commas at bytes 384 and 1151 of the block's text, the start of one aligned
    # stretch and the end of the next: a 766-byte cell between them, the longest
    # one a block admits, so a field limit of 765 leaves the load to the line reader
    cell = "1." + "0" * 763 + "1"
    text = "1," * 190 + "11," + cell + ",2\n"
    assert len(cell) == gio._CELL_MAX
    manifest = curve_manifest(tmp_path, 1, 2, [text, text], FORMAT_SAMPLES)
    old = csv.field_size_limit(limit)
    try:
        assert (block_of_one(tmp_path / "u0_t0.csv") is not None) == parsed
        assert load_data_or_error(manifest) == line_by_line_load(manifest, monkeypatch)
    finally:
        csv.field_size_limit(old)


def load_data_or_error(manifest):
    return outcome_or_error(lambda: gio.load_panel(manifest).data)


def line_by_line_load(manifest, monkeypatch):
    """What `load_panel` gives when every data file is read by the line-by-line reader."""
    with monkeypatch.context() as patch:
        patch.setattr(gio, "_read_block", lambda paths: None)
        return load_data_or_error(manifest)


# a file's text for each case of the block parse's gate, with whether the
# block parse reads it; the rest fall back to the line-by-line reader
GATE_CASES = {
    "minus-zero": ("-0,1", False),
    "minus-zero-exponent": ("-0e5,1", True),
    "true": ("true,1", False),
    "null": ("null,1", False),
    "bracketed": ("[1],2", False),
    "crafted-rows": ("1],[2", False),
    "NaN": ("NaN,1", False),
    "Infinity": ("0,Infinity", False),
    "nan": ("nan,1", False),
    "inf": ("0,inf", False),
    "leading-space": (" 1.5,2", False),
    "leading-zero": ("01,2", False),
    "no-integer-part": (".5,1", False),
    "no-fraction": ("1.,2", False),
    "plus-sign": ("+1,2", False),
    "overflow": ("0,1e400", False),
    "underflow": ("1e-400,1", True),
    "20-digit-integer": ("12345678901234567890,1e30", True),
    "30-digit-integer": ("123456789012345678901234567890,1e30", True),
    "utf8-bom": ("\ufeff0.5,1", False),
}


@pytest.mark.parametrize("case", GATE_CASES)
def test_gate_case_loads_as_the_line_by_line_reader_loads_it(tmp_path, monkeypatch, case):
    text, parsed = GATE_CASES[case]
    manifest = curve_manifest(tmp_path, 1, 3, ["0.5,1\r\n", text + "\r\n", "0.5,1\r\n"])
    assert (block_of_one(tmp_path / "u0_t1.csv") is not None) == parsed
    expected = line_by_line_load(manifest, monkeypatch)
    assert load_data_or_error(manifest) == expected
    if case == "minus-zero":
        assert np.signbit(gio.load_panel(manifest).data[0, 1, 0])


@pytest.mark.parametrize("index", [gio._BLOCK_FILES - 1, 60], ids=["last-file", "middle-file"])
def test_minus_zero_ending_a_file_of_a_block_loads_as_the_line_by_line_reader_loads_it(
    tmp_path, monkeypatch, index
):
    _, texts = clean_curves(300)
    texts[index] = "-0.75,-0.5,-0.25,-0.125,-0\r\n"
    manifest = curve_manifest(tmp_path, 100, 3, texts)
    assert load_data_or_error(manifest) == line_by_line_load(manifest, monkeypatch)
    assert np.signbit(gio.load_panel(manifest).data.reshape(300, 5)[index, 4])


@pytest.mark.parametrize(
    "encoding, raw",
    # utf-7 cannot decode "+5,"; utf-16 spells every character in two bytes
    [("utf-7", b"1e+5,1e+300\r\n"), ("utf-16", "0.5,1\r\n".encode("utf-16"))],
)
def test_locale_that_spells_numbers_otherwise_skips_the_block_parse(tmp_path, monkeypatch, encoding, raw):
    assert not gio._block_parse_applies(encoding)
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: encoding)
    manifest = curve_manifest(tmp_path, 1, 3, ["0.5,1\r\n"] * 3)
    for name in ("u0_t0.csv", "u0_t1.csv", "u0_t2.csv"):
        (tmp_path / name).write_bytes(raw)
    # the bytes a utf-7 file holds parse as JSON; only the encoding check keeps them out
    assert (block_of_one(tmp_path / "u0_t0.csv") is not None) == (encoding == "utf-7")
    expected = line_by_line_load(manifest, monkeypatch)
    assert load_data_or_error(manifest) == expected


@pytest.mark.parametrize("encoding", ["utf-8", "ascii", "latin-1", "cp1252", "shift_jis"])
def test_ascii_compatible_locales_keep_the_block_parse(encoding):
    assert gio._block_parse_applies(encoding)


def halfway(x):
    """The decimal exactly halfway between the double x >= 0 and the next one up."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        return Decimal(x) + Decimal(math.ulp(x)) / 2


@st.composite
def hard_decimals(draw):
    """A JSON number that is hard to round correctly: the exact halfway point
    between adjacent doubles (normal, subnormal or near DBL_MAX), or a hair
    either side of it, in full or rounded to 17-40 digits, or a 17-40-digit
    mantissa at any exponent."""
    kind = draw(st.sampled_from(["halfway", "mantissa"]))
    sign = draw(st.sampled_from(["", "-"]))
    if kind == "mantissa":
        digits = draw(st.text("0123456789", min_size=16, max_size=39))
        digits = draw(st.sampled_from("123456789")) + digits
        point = draw(st.integers(0, len(digits) - 1))
        number = f"{digits[:point]}.{digits[point:]}" if point else digits
        exponent = draw(st.one_of(st.none(), st.integers(-360, 330)))
        return sign + number + ("" if exponent is None else f"e{exponent}")
    x = draw(
        st.one_of(
            st.floats(0, DBL_MAX),
            st.floats(0, sys.float_info.min),  # subnormal
            st.floats(1.7e308, DBL_MAX),
        )
    )
    nudge = draw(st.sampled_from([0, -1, 1]))
    # a halfway point of a subnormal or a small normal spells out in about
    # 750 digits; rounded to 17-40 of them it is still a hard case, and short
    digits = draw(st.one_of(st.none(), st.integers(17, 40)))
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        value = halfway(x) * (1 + nudge * Decimal("1e-60"))
        if digits:
            ctx.prec = digits
            value = +value
    spell = draw(st.sampled_from([str, lambda d: format(d, "e")]))
    return sign + spell(value)


@given(
    cells=st.integers(1, 4).flatmap(
        lambda width: st.lists(st.lists(hard_decimals(), min_size=width, max_size=width), min_size=1, max_size=4)
    )
)
def test_block_parse_rounds_hard_decimals_as_float_does(cells):
    expected = np.array([[float(cell) for cell in row] for row in cells])
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"c{i}.csv") for i in range(len(cells))]
        for path, row in zip(paths, cells):
            Path(path).write_bytes((",".join(row) + "\r\n").encode())
        rows = [block_of_one(path) for path in paths]
    for row, file_cells, file_expected in zip(rows, cells, expected):
        if row is None:
            # a number past DBL_MAX fails the parse, where `float` makes it
            # infinite, and a cell that with the brackets beside it may fill
            # a `_COMMA_STRETCH` keeps the file from the parse
            longest = max(map(len, file_cells))
            assert np.isinf(file_expected).any() or longest >= gio._COMMA_STRETCH - 2
        else:
            assert (row.shape, row.tobytes()) == (file_expected.shape, file_expected.tobytes())


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
    # a row that orjson spells as repr does, beside rows that take repr's join
    values[10:20] = rng.normal(size=10)
    # six data files of one row, or three of two rows
    stack = values.reshape(3, 2, 10) if fmt == "matrix-csv" else values.reshape(6, 10)
    for i, text in enumerate(gio._data_texts(stack, fmt)):
        path = tmp_path / f"w{i}.csv"
        gio._write_data_file(path, text)
        assert path.read_bytes() == csv_writer_bytes(stack[i].tolist(), fmt)


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
    "numbers-longer-than-a-chunk": b"1.25," * (gio._READ_CHUNK // 5) + b"2.5\r\n" * 10,
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
    fast = block_of_one(path)
    # only the file of JSON numbers and commas is parsed; the rest fall back
    assert (fast is None) == (case != "numbers-longer-than-a-chunk")
    if fast is not None:
        assert len(path.read_bytes()) > gio._READ_CHUNK
        assert outcome_or_error(lambda: fast) == expected
    assert outcome_or_error(read_outcome, "c.csv", tmp_path) == expected


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


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="the bytes are invalid UTF-8",
)
@pytest.mark.parametrize(
    "raw, line, offset",
    [(b"0.5," * 5000 + b"\xff\n", 1, 20000), (b"0.1\r\n0.2\r0.3\n0.4,\xe2\x82\n", 4, 17)],
    ids=["past-a-text-chunk", "mixed-line-ends"],
)
def test_undecodable_byte_is_named_by_file_line_and_offset(tmp_path, raw, line, offset):
    (tmp_path / "c.csv").write_bytes(raw)
    with pytest.raises(ParseError) as info:
        read_outcome("c.csv", tmp_path)
    message = str(info.value)
    assert message.startswith(f"{WHERE}: {tmp_path / 'c.csv'}:{line}: ")
    # the codec's position is the byte's offset in the file, not in a chunk of it
    assert re.search(rf"decode bytes? (0x{raw[offset]:02x} )?in position {offset}\b", message)
