"""The JSON writer against `json.dumps(payload, indent=1)`, and the float
speller that it and the data files share, `io._rows_text`, against the repr
join it replaces, byte for byte."""

import contextlib
import csv
import io
import json
import locale
import struct
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geodid import io as gio
from geodid.cli import _emit
from geodid.geometry import _BACKENDS
from geodid.panel import PanelDataset

GOLDEN = Path(__file__).resolve().parent / "golden"


def emitted(payload):
    """What `_emit` writes for `payload` to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(payload, None)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_writer_matches_json_dumps_on_the_golden_payloads(name):
    payload = json.loads((GOLDEN / name).read_text())
    assert emitted(payload) == json.dumps(payload, indent=1) + "\n"


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300, 1e-300,
         -1e-300, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]
    ),
)
# non-ASCII, control characters and json's escapes
TEXTS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "\x00", "\x1f\x7f", '"\\/', "\n\r\t\b\f", "é ", "\U0001f600"]),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXTS)
PAYLOADS = st.recursive(
    SCALARS | st.lists(FLOATS, max_size=8),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(TEXTS, inner, max_size=4),
        # types the writer leaves to json.dumps, at any depth
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), inner, max_size=3),
    ),
    max_leaves=12,
)


@given(payload=PAYLOADS)
def test_writer_matches_json_dumps(payload):
    assert emitted(payload) == json.dumps(payload, indent=1) + "\n"


# every float64 bit pattern, nan payloads included, and the ranges where
# orjson and repr spell a float differently: |x| < 1e-4, |x| >= 1e16, nan, inf
ANY_FLOAT = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.floats(1e-5, 1e-4, exclude_max=True),
    st.floats(-1e-4, -1e-5, exclude_min=True),
    st.floats(min_value=1e16),
    st.floats(max_value=-1e16),
    st.floats(-1e16, 1e16),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-4, 9.999999999999999e-05,
         1e16, 9999999999999998.0, float("nan"), float("inf"), float("-inf")]
    ),
)


@given(values=st.lists(ANY_FLOAT, max_size=12))
def test_rows_text_is_the_repr_join(values):
    assert gio._rows_text([values]) == [",".join(map(float.__repr__, values))]


@given(rows=st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(ANY_FLOAT, min_size=w, max_size=w), min_size=1, max_size=6)))
def test_rows_text_spells_an_array_as_its_lists(rows):
    assert gio._rows_text(np.array(rows)) == gio._rows_text(rows) == [",".join(map(float.__repr__, row)) for row in rows]


@pytest.mark.parametrize(
    "values", [[1, 2.0], [2.0, "x"], [None], [True, 0.5]], ids=["int", "str", "none", "bool"]
)
def test_writer_spells_a_list_with_a_non_float_item_by_item(values):
    assert emitted(values) == json.dumps(values, indent=1) + "\n"


def csv_writer_files(panel, manifest, text_open):
    """The bytes of each data file `save_panel` wrote next to `manifest`, and
    what `csv.writer` writes for the same rows through `text_open`."""
    written = {}
    with text_open(manifest) as fh:
        units = json.load(fh)["units"]
    for unit in units:
        for t, rel in enumerate(unit["outcomes"]):
            path = manifest.parent / rel
            data = _BACKENDS[panel.space_id].to_data(panel.data[int(unit["id"][1:]), t]).tolist()
            rows = data if panel.space_id == "frobenius" else [data]
            with text_open(path.with_suffix(".expected"), "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            written[rel] = (path.read_bytes(), path.with_suffix(".expected").read_bytes())
    return written


def utf16_open(file, mode="r", *args, **kwargs):
    """`open`, as in a locale whose encoding is UTF-16."""
    if "b" not in mode:
        kwargs.setdefault("encoding", "utf-16")
    return open(file, mode, *args, **kwargs)


@pytest.mark.parametrize("utf16", [False, True], ids=["locale", "utf-16"])
@pytest.mark.parametrize(
    "space, fmt", [("wasserstein", "quantile-csv"), ("sphere", "composition-csv"), ("frobenius", "matrix-csv")]
)
def test_data_files_are_what_csv_writer_wrote(tmp_path, monkeypatch, utf16, space, fmt):
    text_open = open
    if utf16:
        # text-mode open takes its default encoding from C, not from the
        # locale module, so the io module's own open is replaced too
        monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-16")
        monkeypatch.setattr(gio, "open", utf16_open, raising=False)
        text_open = utf16_open
    rng = np.random.default_rng(71)
    # 140 data files: a save spells them in two blocks, the second partial;
    # odd units hold numbers that repr spells with an exponent, even ones not
    n = gio._BLOCK_FILES // 2 + 6
    odd = (np.arange(n) % 2 == 1)[:, None, None]
    data = {
        "wasserstein": (np.cumsum(rng.uniform(1e-6, 1e17, (n, 2, 6)), axis=-1) - 1e17) * np.where(odd, 1.0, 1e-14),
        "sphere": np.sqrt(rng.dirichlet(np.ones(4), (n, 2)) * np.where(odd, [1e-9, 1.0, 1.0, 1.0], 1.0)),
        "frobenius": np.tile(rng.normal(0.0, 1e-5, (n, 2, 3, 1)) * np.where(odd, 1.0, 1e5)[..., None], 3),
    }[space]
    if space == "sphere":
        data /= np.linalg.norm(data, axis=-1, keepdims=True)
    if space == "frobenius":
        data = data + np.swapaxes(data, -1, -2)
    fields = {"kind": "free"} if space == "frobenius" else {}
    panel = PanelDataset.from_array(data, np.zeros((n, 2), dtype=int), space, fields, unit_ids=[f"u{i}" for i in range(n)])
    manifest = gio.save_panel(panel, tmp_path / "p.json", fmt=fmt)
    files = csv_writer_files(panel, manifest, text_open)
    for rel, (written, expected) in files.items():
        assert written == expected, rel
    assert all(written.startswith(b"\xff\xfe") for written, _ in files.values()) == utf16
