"""Property test of the command line's input contract.

Whatever manifest and options it is given, `geodid estimate`, `staggered` and
`placebo` return 0, 2 (invalid input) or 3 (estimation failure), and a failure
writes exactly one JSON line to stderr and no traceback (geodid's own warnings
are left out; see the test).
Manifests are drawn for every space and format, from a valid panel with some
of its parts replaced by malformed values; JSON nested past the parser's
recursion limit, in a manifest or a data file, is tested on its own.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geodid.cli import EXIT_ESTIMATION, EXIT_INVALID_INPUT, EXIT_OK, main
from geodid.errors import KindViolationWarning, OrthantExitWarning
from geodid.geometry import _BACKENDS

SPACE_FORMATS = [(space, fmt) for space in sorted(_BACKENDS) for fmt in _BACKENDS[space].FORMATS]
FILE_EXTENSIONS = {"matrix-json": "json"}
# what a malformed value may replace: an outcome, a unit's field, a unit, or a manifest key
PARTS = ["outcome", "id", "treatment", "outcomes", "unit", "periods", "grid_size", "matrix_kind",
         "space", "format", "units"]

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    # beyond the largest float
    st.integers(2**1024, 2**1100),
    st.booleans(),
)
# JSON values that are not a well-formed outcome
junk = st.recursive(
    st.one_of(st.none(), numbers, st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)


def valid_outcome(space, fmt):
    """Strategy for one well-formed outcome of the space, as JSON data."""
    finite = st.floats(-10, 10, allow_nan=False)
    if fmt == "samples-csv":
        return st.lists(finite, min_size=2, max_size=5)
    if space == "wasserstein":
        return st.lists(finite, min_size=3, max_size=3).map(sorted)
    if space == "sphere":
        return st.floats(0, 1).map(lambda a: [a, 1.0 - a])
    return st.tuples(finite, finite, finite).map(lambda v: [[v[0], v[1]], [v[1], v[2]]])


def file_text(fmt, data):
    """A data file holding `data` (any JSON value) in the format, or as near as it goes."""
    if fmt == "matrix-json":
        return json.dumps(data)
    rows = data if isinstance(data, list) else [data]
    rows = [row if isinstance(row, list) else [row] for row in rows]
    return "\n".join(",".join(str(x) for x in row) for row in rows)


@st.composite
def manifests(draw):
    """(manifest, {data file name: text}): a valid panel, then up to three parts made malformed."""
    space, fmt = draw(st.sampled_from(SPACE_FORMATS))
    # mostly two periods, which `estimate` needs
    periods = draw(st.sampled_from([2, 2, 1, 3]))
    n_units = draw(st.integers(2, 4))
    # unit 0 is never treated and unit 1 is treated from the last period
    first = [periods, periods - 1]
    first += draw(st.lists(st.integers(1, periods), min_size=n_units - 2, max_size=n_units - 2))
    cells = n_units * periods
    data = draw(st.lists(valid_outcome(space, fmt), min_size=cells, max_size=cells))
    manifest = {"space": space, "periods": periods, "format": fmt, "units": []}
    if fmt == "samples-csv":
        manifest["grid_size"] = draw(st.integers(2, 9))
    files = {}
    for i in range(n_units):
        outcomes = data[i * periods:(i + 1) * periods]
        if fmt != "inline":
            names = [f"u{i}_t{t}.{FILE_EXTENSIONS.get(fmt, 'csv')}" for t in range(periods)]
            files.update((name, file_text(fmt, x)) for name, x in zip(names, outcomes))
            outcomes = names
        treatment = [int(t >= first[i]) for t in range(periods)]
        manifest["units"].append({"id": f"u{i}", "treatment": treatment, "outcomes": outcomes})
    # half of the malformed values replace an outcome
    part = st.one_of(st.just("outcome"), st.sampled_from(PARTS))
    corruptions = draw(st.lists(st.tuples(part, junk), max_size=3))
    # outcomes first, then units' fields, then units, then the manifest's keys
    for part, value in sorted(corruptions, key=lambda c: PARTS.index(c[0])):
        i, t = draw(st.integers(0, n_units - 1)), draw(st.integers(0, periods - 1))
        name = f"u{i}_t{t}.{FILE_EXTENSIONS.get(fmt, 'csv')}"
        if part == "outcome":
            how = draw(st.sampled_from(["spec", "file", "no-file"])) if fmt != "inline" else "spec"
            if how == "spec":
                manifest["units"][i]["outcomes"][t] = value
            elif how == "file":
                files[name] = file_text(fmt, value)
            else:
                files.pop(name, None)
        elif part in ("id", "treatment", "outcomes"):
            manifest["units"][i][part] = value
        elif part == "unit":
            manifest["units"][i] = value
        else:
            manifest[part] = value
    return manifest, files


CONTRACT = settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def check_contract(case, argv):
    """Run `geodid <argv> --manifest M` on the drawn manifest; check the exit
    code and that a failure writes one JSON line to stderr."""
    manifest, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        path = Path(tmp, "m.json")
        path.write_text(json.dumps(manifest), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with (
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            warnings.catch_warnings(),
        ):
            # geodid's own warnings reach stderr through the warnings module, not
            # through `main`'s error report, which is what this test checks; a
            # numpy RuntimeWarning stays an error, as the test configuration makes it
            warnings.filterwarnings("ignore", category=OrthantExitWarning)
            warnings.filterwarnings("ignore", category=KindViolationWarning)
            code = main([*argv, "--manifest", str(path)])
    assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_ESTIMATION)
    if code == EXIT_OK:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


@CONTRACT
@given(manifests())
def test_estimate_exits_0_2_or_3_with_one_json_error_line(case):
    check_contract(case, ["estimate"])


# staggered's and placebo's own options, out of range as well as in it: a
# manifest has at most three periods; the `=` form passes a negative value
staggered_argv = st.tuples(
    st.integers(-2, 4).map(lambda delta: f"--delta={delta}"),
    st.sampled_from(["never", "notyet"]).map(lambda comparison: f"--comparison={comparison}"),
    st.sampled_from([[], ["--force-recursive"]]),
).map(lambda a: ["staggered", a[0], a[1], *a[2]])
# (0, 1) is the one pair that a drawn three-period panel can pass
placebo_argv = st.one_of(st.just([0, 1]), st.lists(st.integers(-1, 4), min_size=1, max_size=3)).map(
    lambda periods: ["placebo", "--pre-periods=" + ",".join(map(str, periods))]
)


@CONTRACT
@given(manifests(), st.one_of(staggered_argv, placebo_argv))
def test_staggered_and_placebo_exit_0_2_or_3_with_one_json_error_line(case, argv):
    check_contract(case, argv)


# deeper than the recursion limit of Python's json parser
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("nested", ["manifest", "data-file"])
def test_json_nested_past_the_recursion_limit_exits_2_with_one_json_line(tmp_path, nested):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON, encoding="utf-8")
    if nested == "manifest":
        argv, named = ["staggered", "--manifest", str(deep)], str(deep)
    else:
        unit = {"id": "u0", "treatment": [0, 0], "outcomes": ["deep.json", "deep.json"]}
        manifest = {"space": "frobenius", "periods": 2, "format": "matrix-json", "units": [unit]}
        (tmp_path / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
        argv, named = ["estimate", "--manifest", str(tmp_path / "m.json")], "unit u0 period 0"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_INVALID_INPUT
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ParseError"
    assert error["message"].startswith(named + ": ")
