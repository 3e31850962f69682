"""The command line's JSON writer against `json.dumps(payload, indent=1)`, byte for byte."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodid.cli import _emit

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


@settings(max_examples=200, deadline=None, database=None)
@given(payload=PAYLOADS)
def test_writer_matches_json_dumps(payload):
    assert emitted(payload) == json.dumps(payload, indent=1) + "\n"
