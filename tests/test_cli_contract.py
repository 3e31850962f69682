"""Property test of the command line's input contract.

Whatever manifest and options it is given, `geodid estimate`, `staggered` and
`placebo` return 0, 2 (invalid input) or 3 (estimation failure), and a failure
writes exactly one JSON line to stderr and no traceback (geodid's own warnings
are left out; see the test). `simulate` keeps the same contract for any
coefficients and probabilities, and a report it writes holds no NaN or
infinity. Manifests are drawn for every space and format, from a valid panel
with some of its parts replaced by malformed values; JSON nested past the
parser's recursion limit, in a manifest or a data file, is tested on its own.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geodid.cli import EXIT_ESTIMATION, EXIT_INVALID_INPUT, EXIT_OK, main
from geodid.errors import KindViolationWarning, OrthantExitWarning
from geodid.geometry import _BACKENDS
from geodid.simulate import _DGPS

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


# the example count is the profile's (tests/conftest.py)
CONTRACT = settings(
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def check_contract(case, argv):
    """Run `geodid <argv> --manifest M` on the drawn manifest, and `check_exit`."""
    manifest, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        path = Path(tmp, "m.json")
        path.write_text(json.dumps(manifest), encoding="utf-8")
        check_exit([*argv, "--manifest", str(path)])


def reject_constant(name):
    raise AssertionError(f"output holds {name}")


def check_exit(argv):
    """Run `geodid <argv>`; check the exit code, that an output holds no NaN
    or infinity, and that a failure writes one JSON line to stderr."""
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
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INVALID_INPUT, EXIT_ESTIMATION)
    if code == EXIT_OK:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=reject_constant)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
    return code


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


# simulate's coefficients and probabilities, in range and out of it:
# 0, negative, non-finite and huge values among them
values = st.one_of(
    st.sampled_from([0.0, 0.5, -1.0, 1e150, 1e200, 1e300, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(0, 1),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def simulate_argv(draw):
    """`simulate` with every size knob tiny, and drawn values for up to two of
    `treat_prob` and the coefficients, and for the edge probabilities: all three
    one value, or up to two of them."""
    argv = ["simulate", "--space", draw(st.sampled_from(list(_DGPS)))]
    argv += ["--n", draw(st.sampled_from(["8,10", "6,8,10", "8"])), f"--q={draw(st.integers(1, 2))}"]
    argv += [f"--seed={draw(st.integers(0, 3))}", f"--grid-size={draw(st.integers(2, 4))}"]
    argv += [f"--samples-per-dist={draw(st.integers(2, 3))}"]
    argv += [f"--m1={draw(st.integers(0, 2))}", f"--m2={draw(st.integers(1, 3))}"]
    coefs = ["treat-prob", "alpha1", "alpha2", "alpha3", "beta"]
    argv += [f"--{knob}={draw(values)!r}" for knob in draw(st.lists(st.sampled_from(coefs), max_size=2, unique=True))]
    edges = ["p11", "p12", "p22"]
    shared = draw(st.none() | values)
    if shared is None:
        chosen = {edge: draw(values) for edge in draw(st.lists(st.sampled_from(edges), max_size=2, unique=True))}
    else:
        chosen = dict.fromkeys(edges, shared)
    return argv + [f"--{edge}={value!r}" for edge, value in chosen.items()]


@CONTRACT
@given(simulate_argv())
def test_simulate_exits_0_2_or_3_with_one_json_error_line(argv):
    with mock.patch.dict(os.environ, {"GEODID_THREADS": "1"}):
        check_exit(argv)


@pytest.mark.parametrize(
    "knobs, expected",
    [
        # no edge can exist, yet the trend weights overflow: every error is 0
        (["--p11=0", "--p12=0", "--p22=0", "--alpha1=1e308", "--alpha2=1e308"], EXIT_OK),
        # a block size past the float range
        ([f"--m1={10**400}"], EXIT_INVALID_INPUT),
    ],
    ids=["overflowing weights, no edges", "block size of 400 digits"],
)
def test_simulate_network_config_edges_keep_the_contract(knobs, expected):
    argv = ["simulate", "--space", "network", "--n", "8,10", "--q", "2", *knobs]
    with mock.patch.dict(os.environ, {"GEODID_THREADS": "1"}):
        assert check_exit(argv) == expected


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
