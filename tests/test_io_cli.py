import json

import numpy as np
import pytest

from geodid import cli
from geodid import io as gio
from geodid.cli import EXIT_ESTIMATION, EXIT_INVALID_INPUT, EXIT_OK, main
from geodid.errors import (
    InvariantViolationError,
    MissingOutcomeError,
    ParseError,
    SpaceMismatchError,
)
from geodid.geometry import _BACKENDS, distance
from geodid.panel import PanelDataset
from geodid.simulate import SimConfig, single_run_error
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.sphere import embed_composition
from geodid.spaces.wasserstein import QuantileCurve, quantile_from_samples

from conftest import one_unit_cohort_panel, random_composition, random_curve, random_matrix


def write_manifest(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def scalar_manifest(tmp_path, name="panel.json"):
    """Inline 1x1 matrix panel: one control (0 -> 1), one treated (0 -> 3)."""
    payload = {
        "space": "frobenius",
        "periods": 2,
        "format": "inline",
        "units": [
            {"id": "c", "treatment": [0, 0], "outcomes": [[[0.0]], [[1.0]]]},
            {"id": "t", "treatment": [0, 1], "outcomes": [[[0.0]], [[3.0]]]},
        ],
    }
    return write_manifest(tmp_path / name, payload)


def test_load_inline_scalar_panel(tmp_path):
    panel = gio.load_panel(scalar_manifest(tmp_path))
    assert panel.n_units == 2
    assert panel.space_id == "frobenius"
    assert panel.unit_ids == ("c", "t")
    assert panel.point(1, 1).entries[0, 0] == 3.0


def test_load_rejects_unknown_space(tmp_path):
    path = write_manifest(
        tmp_path / "bad.json", {"space": "mystery", "periods": 2, "units": []}
    )
    with pytest.raises(ParseError):
        gio.load_panel(path)


def test_load_rejects_format_space_mismatch(tmp_path):
    path = write_manifest(
        tmp_path / "bad.json",
        {
            "space": "sphere",
            "periods": 1,
            "format": "samples-csv",
            "units": [{"id": "a", "treatment": [0], "outcomes": [[1.0]]}],
        },
    )
    with pytest.raises(ParseError):
        gio.load_panel(path)


# a data file that is never written
MISSING = object()
# a data file named with a NUL byte, which no path may hold
NUL_NAME = object()


def data_manifest(tmp_path, space, fmt, outcomes, ids=None, **fields):
    """Manifest of units with outcomes[i]: inline data or, in a file format, each file's text.

    Unit i is treated in its last period when i is odd.
    """
    units = []
    for i, row in enumerate(outcomes):
        uid = ids[i] if ids else f"u{i}"
        specs = []
        for t, value in enumerate(row):
            if fmt != "inline":
                name = f"{uid}_t{t}.{'json' if fmt == 'matrix-json' else 'csv'}"
                if value is NUL_NAME:
                    name = "\0" + name
                elif value is not MISSING:
                    (tmp_path / name).write_text(value)
                value = name
            specs.append(value)
        units.append({"id": uid, "treatment": [0] * (len(row) - 1) + [i % 2], "outcomes": specs})
    payload = {"space": space, "periods": len(outcomes[0]), "format": fmt, "units": units}
    return write_manifest(tmp_path / "m.json", {**payload, **fields})


@pytest.mark.parametrize(
    "space, fmt, good, bad, error",
    [
        ("wasserstein", "quantile-csv", "0.1,0.2,0.3", "0.1,0.5,0.2", InvariantViolationError),
        ("sphere", "composition-csv", "0.2,0.3,0.5", "0.7,0.4,-0.1", InvariantViolationError),
        ("sphere", "composition-csv", "0.5,0.5", "0.9,0.3", InvariantViolationError),
        ("sphere", "inline", [0.5, 0.5], [0.9, 0.3], InvariantViolationError),
        ("frobenius", "matrix-csv", "1,2\n2,1", "1,2\n3,4", InvariantViolationError),
        ("wasserstein", "samples-csv", "0.3\n-1.2,0.8", "1.5", InvariantViolationError),
        ("wasserstein", "samples-csv", "0.3,-1.2,0.8,0.1", "1.5", InvariantViolationError),
        ("wasserstein", "samples-csv", "0.3\n-1.2,0.8", "1.5,inf", InvariantViolationError),
        ("wasserstein", "samples-csv", "0.3\n-1.2,0.8", "0.1,nan,0.2,0.4", InvariantViolationError),
        ("wasserstein", "quantile-csv", "0.1,0.2,0.3", "0.1,abc,0.3", ParseError),
        ("wasserstein", "quantile-csv", "0.1,0.2,0.3", MISSING, MissingOutcomeError),
        ("wasserstein", "quantile-csv", "0.1,0.2,0.3", NUL_NAME, ParseError),
        ("frobenius", "inline", [[1.0]], {"a": 1}, ParseError),
        ("wasserstein", "inline", [0.1, 0.2], [0.1, 2**1024], ParseError),
    ],
    ids=[
        "quantile-drop",
        "composition-negative",
        "composition-bad-sum",
        "inline-composition-bad-sum",
        "matrix-asymmetric",
        "samples-one-draw",
        "samples-one-draw-among-longer",
        "samples-inf-draw",
        "samples-nan-draw",
        "non-numeric-cell",
        "missing-file",
        "nul-in-file-name",
        "non-numeric-inline",
        "inline-integer-beyond-float",
    ],
)
def test_load_reports_bad_outcome_with_context(tmp_path, recwarn, space, fmt, good, bad, error):
    path = data_manifest(tmp_path, space, fmt, [[good, good], [good, bad]], ids=["a", "u7"])
    with pytest.raises(error) as exc:
        gio.load_panel(path)
    assert str(exc.value).startswith("unit u7 period 1: ")
    # a bad outcome is reported before numpy computes anything from it
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_samples_of_two_draw_counts_load_as_quantile_from_samples(tmp_path):
    rng = np.random.default_rng(12)
    # the draw counts alternate, so each count's outcomes are interleaved in the panel
    draws = [[rng.normal(t, 1.0 + i, 7 if (i + t) % 2 else 12) for t in range(3)] for i in range(4)]
    texts = [[",".join(map(repr, d.tolist())) for d in row] for row in draws]
    panel = gio.load_panel(data_manifest(tmp_path, "wasserstein", "samples-csv", texts, grid_size=9))
    for i, row in enumerate(draws):
        for t, d in enumerate(row):
            expected = quantile_from_samples(d, grid_size=9).values
            assert panel.data[i, t].tobytes() == expected.tobytes()


def test_load_joins_an_outcome_split_over_lines(tmp_path):
    # a curve or a composition may run over lines of unequal length
    curves = [["0.1\n0.2,0.3", "0.1,0.2\n0.4"]] * 2
    panel = gio.load_panel(data_manifest(tmp_path, "wasserstein", "quantile-csv", curves))
    np.testing.assert_array_equal(panel.point(1, 1).values, [0.1, 0.2, 0.4])
    shares = [["0.2\n0.3,0.5", "0.5,0.5\n0.0"]] * 2
    panel = gio.load_panel(data_manifest(tmp_path, "sphere", "composition-csv", shares))
    expected = embed_composition([0.2, 0.3, 0.5]).coords
    np.testing.assert_array_equal(panel.point(0, 0).coords, expected)


@pytest.mark.parametrize(
    "space, fmt",
    [(space, fmt) for space in sorted(_BACKENDS) for fmt in _BACKENDS[space].FORMATS],
)
def test_load_validates_once_and_builds_no_point(tmp_path, monkeypatch, space, fmt):
    rng = np.random.default_rng(3)
    sample = {"wasserstein": random_curve, "sphere": random_composition, "frobenius": random_matrix}
    points = tuple(tuple(sample[space](rng) for _ in range(3)) for _ in range(4))
    panel = PanelDataset(points, np.array([[0, 0, 0], [0, 0, 1]] * 2))
    if fmt == "samples-csv":
        draws = [
            [",".join(map(repr, rng.normal(size=5).tolist())) for _ in range(3)] for _ in range(4)
        ]
        path = data_manifest(tmp_path, space, fmt, draws, grid_size=7)
    else:
        gio.save_panel(panel, tmp_path / "m.json", fmt=fmt)
        path = tmp_path / "m.json"
    backend = _BACKENDS[space]
    checked, validate = [], backend.validate

    def counting_validate(stack, **fields):
        checked.append(len(stack))
        validate(stack, **fields)

    def no_point(*args, **kwargs):
        raise AssertionError("a point was built")

    monkeypatch.setattr(backend, "validate", counting_validate)
    monkeypatch.setattr(backend, "wrap", no_point)
    loaded = gio.load_panel(path)
    assert checked == [12]
    if fmt != "samples-csv":
        # the sphere stores shares, coords**2, whose square roots may differ in the last bit
        np.testing.assert_allclose(loaded.data, panel.data, rtol=0, atol=1e-15)
        # saving reads the panel's array and fields, and builds no point either
        gio.save_panel(loaded, tmp_path / "again.json", fmt=fmt)
        assert checked == [12]


@pytest.mark.parametrize(
    "space, fmt, small, large",
    [
        ("wasserstein", "quantile-csv", "0.1,0.2,0.3", "0.1,0.2,0.3,0.4"),
        ("sphere", "inline", [0.5, 0.5], [0.2, 0.3, 0.5]),
        ("frobenius", "inline", [[1.0]], [[1.0, 0.0], [0.0, 1.0]]),
    ],
)
def test_cli_rejects_outcomes_of_mixed_shapes(tmp_path, capsys, space, fmt, small, large):
    manifest = data_manifest(tmp_path, space, fmt, [[small, small], [small, large]])
    assert main(["estimate", "--manifest", manifest]) == EXIT_INVALID_INPUT
    error = single_error_line(capsys)
    assert error["error"] == "InvariantViolationError"
    assert error["message"].startswith("unit u1 period 1: outcome shape ")


def test_panel_of_points_of_mixed_shapes_is_a_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        PanelDataset([[QuantileCurve([0.1, 0.2])], [QuantileCurve([0.1, 0.2, 0.3])]], [[0], [0]])


def test_load_missing_outcome_names_unit(tmp_path):
    payload = {
        "space": "frobenius",
        "periods": 2,
        "format": "inline",
        "units": [{"id": "x", "treatment": [0, 0], "outcomes": [[[0.0]]]}],
    }
    path = write_manifest(tmp_path / "short.json", payload)
    with pytest.raises(MissingOutcomeError) as exc:
        gio.load_panel(path)
    assert "x" in str(exc.value)


def test_samples_csv_matches_direct_construction(tmp_path):
    samples = [float(x) for x in np.random.default_rng(2).normal(size=40)]
    csv_path = tmp_path / "draws.csv"
    csv_path.write_text("\n".join(repr(x) for x in samples))
    payload = {
        "space": "wasserstein",
        "periods": 1,
        "format": "samples-csv",
        "grid_size": 20,
        "units": [{"id": "a", "treatment": [0], "outcomes": ["draws.csv"]}],
    }
    path = write_manifest(tmp_path / "m.json", payload)
    panel = gio.load_panel(path)
    expected = quantile_from_samples(samples, grid_size=20)
    np.testing.assert_array_equal(panel.point(0, 0).values, expected.values)


@pytest.mark.parametrize("fmt", ["inline", "matrix-csv", "matrix-json"])
def test_matrix_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(2, 2, 3, 3))
    outcomes = tuple(
        tuple(SymmetricMatrixPoint(m + m.T) for m in row) for row in mats
    )
    panel = PanelDataset(outcomes, np.array([[0, 0], [0, 1]]))
    path = tmp_path / "rt.json"
    gio.save_panel(panel, path, fmt=fmt)
    loaded = gio.load_panel(path)
    for i in range(2):
        for t in range(2):
            assert distance(loaded.point(i, t), panel.point(i, t)) < 1e-15


@pytest.mark.parametrize(
    "ids", [("u", "u"), (1, "1"), ("a", "b/c")], ids=["same", "same-text", "separator"]
)
def test_save_rejects_unit_ids_that_name_one_file(tmp_path, ids):
    curves = [[QuantileCurve([0.0, 1.0 + i + t]) for t in range(2)] for i in range(2)]
    panel = PanelDataset(curves, np.array([[0, 0], [0, 1]]), unit_ids=ids)
    with pytest.raises(ValueError, match="unit ids"):
        gio.save_panel(panel, tmp_path / "q.json", fmt="quantile-csv")
    assert not any(tmp_path.iterdir())
    # inline data names no file
    gio.save_panel(panel, tmp_path / "q.json")
    assert gio.load_panel(tmp_path / "q.json").point(1, 1).values[1] == 3.0


def test_quantile_round_trip(tmp_path):
    curves = tuple(
        tuple(QuantileCurve(np.sort(np.random.default_rng(i * 2 + t).normal(size=30)))
              for t in range(2))
        for i in range(2)
    )
    panel = PanelDataset(curves, np.array([[0, 0], [0, 1]]))
    path = tmp_path / "q.json"
    gio.save_panel(panel, path, fmt="quantile-csv")
    loaded = gio.load_panel(path)
    for i in range(2):
        for t in range(2):
            np.testing.assert_array_equal(
                loaded.point(i, t).values, panel.point(i, t).values
            )


def test_composition_round_trip(tmp_path):
    points = tuple(
        tuple(embed_composition(s) for s in row)
        for row in (
            ([0.2, 0.3, 0.5], [0.1, 0.4, 0.5]),
            ([0.6, 0.2, 0.2], [0.3, 0.3, 0.4]),
        )
    )
    panel = PanelDataset(points, np.array([[0, 0], [0, 1]]))
    path = tmp_path / "c.json"
    gio.save_panel(panel, path, fmt="composition-csv")
    loaded = gio.load_panel(path)
    for i in range(2):
        for t in range(2):
            assert distance(loaded.point(i, t), panel.point(i, t)) < 1e-15


@pytest.mark.parametrize(
    "shares",
    [[1.0, -1e-9], [1 + 1e-9, -1e-9], [0.5 + 5e-9, 0.5, -5e-9]],
    ids=["negative-share", "negative-share-and-excess", "three-parts"],
)
def test_composition_with_a_tiny_negative_share_embeds(tmp_path, capsys, shares):
    # a share down to -1e-8 is clipped to 0, and the total is the clipped
    # shares' total, so the embedding is a unit vector
    coords = embed_composition(shares).coords
    assert coords[-1] == 0.0
    assert abs(np.linalg.norm(coords) - 1.0) <= 1e-15
    row = ",".join(map(repr, shares))
    manifest = data_manifest(tmp_path, "sphere", "composition-csv", [[row, row], [row, row]])
    assert main(["estimate", "--manifest", manifest]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["estimate"]["magnitude"] == 0.0


def test_cli_estimate_scalar_oracle(tmp_path, capsys):
    manifest = scalar_manifest(tmp_path)
    assert main(["estimate", "--manifest", manifest]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    # treated moves 0 -> 3, control trend is +1, so the effect magnitude is 2
    assert payload["estimate"]["magnitude"] == pytest.approx(2.0, abs=1e-12)
    assert payload["space"] == "frobenius"
    assert set(payload["estimate"]["means"]) == {"nu_00", "nu_01", "nu_10", "nu_11"}


def test_cli_estimate_writes_out_file(tmp_path):
    manifest = scalar_manifest(tmp_path)
    out = tmp_path / "result.json"
    assert main(["estimate", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1


def test_cli_malformed_manifest_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["estimate", "--manifest", str(bad)]) == EXIT_INVALID_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParseError"


def test_cli_manifest_that_cannot_be_opened_exits_2_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["estimate", "--manifest", str(missing)]) == EXIT_INVALID_INPUT
    assert single_error_line(capsys) == {
        "error": "ParseError",
        "message": f"cannot read manifest: [Errno 2] No such file or directory: {str(missing)!r}",
    }


@pytest.mark.parametrize(
    "space, fmt", [("wasserstein", "samples-csv"), ("sphere", "matrix-csv")], ids=["samples-csv", "other-space"]
)
def test_save_panel_refuses_samples_csv_and_another_spaces_format(tmp_path, space, fmt):
    data = {"wasserstein": np.array([[[0.0, 1.0]]]), "sphere": np.array([[[0.6, 0.8]]])}[space]
    panel = PanelDataset.from_array(data, np.zeros((1, 1), dtype=int), space, {})
    with pytest.raises(ValueError) as info:
        gio.save_panel(panel, tmp_path / "p.json", fmt=fmt)
    assert str(info.value) == f"cannot save space {space!r} in format {fmt!r}"
    assert not any(tmp_path.iterdir())


def single_error_line(capsys):
    """The one JSON line a failed command writes to stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "payload, error, message",
    [
        ([{"space": "frobenius", "periods": 2}], "ParseError", "JSON object"),
        (
            {"space": "frobenius", "periods": "2", "format": "inline", "units": [{}]},
            "ParseError",
            "positive integer",
        ),
        (
            {"space": "frobenius", "periods": 0, "format": "inline", "units": [{}]},
            "ParseError",
            "positive integer",
        ),
        (
            {
                "space": "frobenius",
                "periods": 2,
                "format": "inline",
                "units": [
                    {"id": "c", "treatment": [0, 0], "outcomes": [[[0.0]], [[1.0]]]},
                    {"id": "t", "treatment": [0, 0.5], "outcomes": [[[0.0]], [[3.0]]]},
                ],
            },
            "InvariantViolationError",
            "0 or 1",
        ),
        ({"space": ["frobenius"], "periods": 2}, "ParseError", "space"),
        ({"space": "frobenius", "format": ["inline"], "periods": 2}, "ParseError", "format"),
        ({"space": "frobenius", "periods": 2, "units": 5}, "ParseError", "'units' array"),
        (
            {"space": "frobenius", "periods": 2, "units": [{"treatment": 5, "outcomes": []}]},
            "ParseError",
            "treatment must list 2",
        ),
        (
            {"space": "frobenius", "periods": 2, "units": [{"treatment": [0, 0], "outcomes": 7}]},
            "MissingOutcomeError",
            "expected 2 outcomes",
        ),
    ]
    + [
        (
            {
                "space": "frobenius",
                "periods": 2,
                "format": "inline",
                "units": [
                    {"id": "c", "treatment": [0, 0], "outcomes": [[[0.0]], [[1.0]]]},
                    {"id": "t", "treatment": treat, "outcomes": [[[0.0]], [[3.0]]]},
                ],
            },
            "ParseError",
            "unit t: treatment must list 2 indicators of 0 or 1",
        )
        for treat in ([0, [1]], [[0], [1]], [0, "1"], [0, None])
    ]
    + [
        (
            {
                "space": "wasserstein",
                "periods": 1,
                "format": "samples-csv",
                "grid_size": grid_size,
                "units": [{"id": "a", "treatment": [0], "outcomes": [[0.0, 1.0, 2.0]]}],
            },
            "ParseError",
            "'grid_size' must be an integer >= 2",
        )
        for grid_size in (1.5, "7", True, 1)
    ],
    ids=[
        "top-level-array",
        "periods-string",
        "periods-zero",
        "fractional-treatment",
        "space-not-string",
        "format-not-string",
        "units-not-array",
        "treatment-not-array",
        "outcomes-not-array",
        "treatment-entry-list",
        "treatment-entries-lists",
        "treatment-entry-string",
        "treatment-entry-null",
        "grid-size-fraction",
        "grid-size-string",
        "grid-size-bool",
        "grid-size-one",
    ],
)
def test_cli_rejects_malformed_manifest(tmp_path, capsys, payload, error, message):
    manifest = write_manifest(tmp_path / "bad.json", payload)
    assert main(["estimate", "--manifest", manifest]) == EXIT_INVALID_INPUT
    err = single_error_line(capsys)
    assert err["error"] == error
    assert message in err["message"]


@pytest.mark.parametrize("fmt", ["inline", "quantile-csv"])
def test_grid_size_must_match_the_curves_outside_samples_csv(tmp_path, capsys, fmt):
    curves = [[0.0, 1.0, 2.0], [0.5, 1.5, 2.5]]
    outcomes = curves
    if fmt == "quantile-csv":
        outcomes = []
        for t, curve in enumerate(curves):
            (tmp_path / f"c{t}.csv").write_text(",".join(map(repr, curve)))
            outcomes.append(f"c{t}.csv")
    units = [{"id": uid, "treatment": [0, d], "outcomes": outcomes} for uid, d in (("c", 0), ("t", 1))]
    payload = {"space": "wasserstein", "periods": 2, "format": fmt, "grid_size": 7, "units": units}
    manifest = write_manifest(tmp_path / "m.json", payload)
    assert main(["estimate", "--manifest", manifest]) == EXIT_INVALID_INPUT
    err = single_error_line(capsys)
    assert err["error"] == "ParseError"
    assert err["message"] == "'grid_size' is 7, but the curves hold 3 values"
    # the curves' own length, as save_panel writes it, loads
    payload["grid_size"] = 3
    assert gio.load_panel(write_manifest(tmp_path / "m.json", payload)).data.shape == (2, 2, 3)


def test_load_accepts_boolean_and_float_indicators(tmp_path):
    payload = json.loads(open(scalar_manifest(tmp_path)).read())
    payload["units"][0]["treatment"] = [False, 0.0]
    payload["units"][1]["treatment"] = [0, True]
    panel = gio.load_panel(write_manifest(tmp_path / "m.json", payload))
    np.testing.assert_array_equal(panel.treatment, [[0, 0], [0, 1]])


@pytest.mark.parametrize(
    "space, large, small",
    [("frobenius", [[1e308]], [[0.0]]), ("wasserstein", [0.0, 1e308], [0.0, 1.0])],
    ids=["frobenius", "wasserstein"],
)
def test_cli_mean_that_overflows_is_an_estimation_failure(tmp_path, capsys, space, large, small):
    # two control outcomes of 1e308 are valid, and their sum is not finite
    payload = {
        "space": space,
        "periods": 2,
        "format": "inline",
        "units": [
            {"id": "c1", "treatment": [0, 0], "outcomes": [large, large]},
            {"id": "c2", "treatment": [0, 0], "outcomes": [large, large]},
            {"id": "t", "treatment": [0, 1], "outcomes": [small, small]},
        ],
    }
    manifest = write_manifest(tmp_path / "m.json", payload)
    assert main(["estimate", "--manifest", manifest]) == EXIT_ESTIMATION
    err = single_error_line(capsys)
    assert err["error"] == "GeodidError"
    assert "overflows" in err["message"]


@pytest.mark.parametrize(
    "bad",
    [
        ["--n", ","], ["--n", "20,20,40"], ["--samples-per-dist", "0"], ["--samples-per-dist", "1"],
        ["--grid-size", "1"], ["--grid-size", "0"], ["--grid-size", "-3"],
    ],
    ids=["no-sizes", "repeated-sizes", "no-samples", "one-sample",
         "one-grid-value", "no-grid", "negative-grid"],
)
def test_cli_simulate_rejects_bad_arguments(tmp_path, capsys, bad):
    out = tmp_path / "r.json"
    args = ["simulate", "--space", "wasserstein", "--n", "20", "--q", "2", "--out", str(out)]
    assert main(args + bad) == EXIT_INVALID_INPUT
    assert single_error_line(capsys)["error"] in ("ParseError", "ValueError")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--space", "network", "--q", "abc"],
        ["staggered", "--manifest", "m.json", "--delta", "x"],
        ["staggered", "--manifest", "m.json", "--comparison", "bogus"],
        ["estimate"],
        ["frobnicate"],
    ],
    ids=["bad-int", "bad-delta", "bad-choice", "missing-manifest", "unknown-command"],
)
def test_cli_argument_error_is_one_json_line(capsys, argv):
    assert main(argv) == EXIT_INVALID_INPUT
    assert single_error_line(capsys)["error"] == "ParseError"


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["staggered", "--help"])
    assert exc.value.code == EXIT_OK
    assert "--manifest" in capsys.readouterr().out


@pytest.mark.parametrize("callee", ["run_monte_carlo", "estimate_gatt"])
def test_cli_memory_error_is_an_estimation_failure(tmp_path, capsys, monkeypatch, callee):
    # an allocation too large for the machine, without making one
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, callee, exhausted)
    command = {
        "run_monte_carlo": ["simulate", "--space", "network", "--n", "20,40", "--q", "2"],
        "estimate_gatt": ["estimate", "--manifest", scalar_manifest(tmp_path)],
    }[callee]
    assert main(command) == EXIT_ESTIMATION
    assert single_error_line(capsys) == {
        "error": "MemoryError", "message": "Unable to allocate 745. GiB for an array"
    }


def three_period_manifest(tmp_path):
    """Inline 1x1 matrix panel over three periods: one unit never treated, one from period 2."""
    payload = {
        "space": "frobenius",
        "periods": 3,
        "format": "inline",
        "units": [
            {"id": "c", "treatment": [0, 0, 0], "outcomes": [[[0.0]], [[1.0]], [[2.0]]]},
            {"id": "t", "treatment": [0, 0, 1], "outcomes": [[[0.0]], [[1.0]], [[5.0]]]},
        ],
    }
    return write_manifest(tmp_path / "three.json", payload)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("estimate", "--out"),
        ("placebo", "--out"),
        ("staggered", "--out"),
        ("simulate", "--out"),
        ("simulate", "--errors-csv"),
    ],
)
def test_cli_unwritable_output_path_is_invalid_input(tmp_path, capsys, command, flag):
    argv = {
        "estimate": ["estimate", "--manifest", scalar_manifest(tmp_path)],
        "placebo": ["placebo", "--manifest", three_period_manifest(tmp_path)],
        "staggered": ["staggered", "--manifest", three_period_manifest(tmp_path)],
        "simulate": ["simulate", "--space", "wasserstein", "--n", "20", "--q", "2"],
    }[command]
    if flag != "--out":
        argv += ["--out", str(tmp_path / "report.json")]
    argv += [flag, str(tmp_path / "no-such-dir" / "out")]
    assert main(argv) == EXIT_INVALID_INPUT
    assert single_error_line(capsys)["error"] == "FileNotFoundError"
    # a run that exits 2 leaves no report behind for a caller to take as a success
    assert not (tmp_path / "report.json").exists()


def test_cli_estimation_failure_exit_code(tmp_path, capsys):
    # valid panel but no treated units: estimation fails, not parsing
    payload = {
        "space": "frobenius",
        "periods": 2,
        "format": "inline",
        "units": [
            {"id": "a", "treatment": [0, 0], "outcomes": [[[0.0]], [[1.0]]]},
            {"id": "b", "treatment": [0, 0], "outcomes": [[[0.0]], [[1.0]]]},
        ],
    }
    manifest = write_manifest(tmp_path / "nt.json", payload)
    assert main(["estimate", "--manifest", manifest]) == EXIT_ESTIMATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "EmptyGroupError"


def test_cli_placebo(tmp_path, capsys):
    payload = {
        "space": "frobenius",
        "periods": 3,
        "format": "inline",
        "units": [
            {"id": "a", "treatment": [0, 0, 0], "outcomes": [[[0.0]], [[1.0]], [[2.0]]]},
            {"id": "b", "treatment": [0, 0, 1], "outcomes": [[[5.0]], [[6.0]], [[9.0]]]},
        ],
    }
    manifest = write_manifest(tmp_path / "p.json", payload)
    assert main(["placebo", "--manifest", manifest, "--pre-periods", "0,1"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["estimate"]["magnitude"] == pytest.approx(0.0, abs=1e-12)


def test_cli_staggered(tmp_path, capsys):
    payload = {
        "space": "frobenius",
        "periods": 3,
        "format": "inline",
        "units": [
            {"id": "n1", "treatment": [0, 0, 0], "outcomes": [[[0.0]], [[1.0]], [[2.0]]]},
            {"id": "g1", "treatment": [0, 1, 1], "outcomes": [[[0.0]], [[2.0]], [[4.0]]]},
            {"id": "g2", "treatment": [0, 0, 1], "outcomes": [[[0.0]], [[1.0]], [[3.0]]]},
        ],
    }
    manifest = write_manifest(tmp_path / "s.json", payload)
    assert main(["staggered", "--manifest", manifest]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    cells = {(c["g"], c["t"]): c for c in out["cells"]}
    assert set(cells) == {(1, 1), (1, 2), (2, 2)}
    assert cells[(1, 1)]["magnitude"] == pytest.approx(1.0, abs=1e-12)
    assert cells[(2, 2)]["magnitude"] == pytest.approx(1.0, abs=1e-12)


def test_cli_staggered_rejects_negative_delta_on_a_panel_without_cells(tmp_path, capsys):
    payload = {
        "space": "frobenius",
        "periods": 2,
        "format": "inline",
        "units": [
            {"id": f"n{i}", "treatment": [0, 0], "outcomes": [[[0.0]], [[1.0]]]} for i in range(2)
        ],
    }
    manifest = write_manifest(tmp_path / "s.json", payload)
    out = tmp_path / "r.json"
    argv = ["staggered", "--manifest", manifest, "--delta", "-1", "--out", str(out)]
    assert main(argv) == EXIT_INVALID_INPUT
    assert single_error_line(capsys)["error"] == "ValueError"
    assert not out.exists()


def test_cli_staggered_notyet_with_one_unit_cohorts(tmp_path, capsys):
    # seed 3's one-unit cohorts give sphere means of one point, whose
    # angle to itself must not become a 0/0 (a RuntimeWarning) or a nan step
    shares, treatment = one_unit_cohort_panel(3)
    units = [
        {"id": f"u{i}", "treatment": row.tolist(), "outcomes": unit.tolist()}
        for i, (row, unit) in enumerate(zip(treatment, shares))
    ]
    payload = {"space": "sphere", "periods": 5, "format": "inline", "units": units}
    manifest = write_manifest(tmp_path / "s.json", payload)
    assert main(["staggered", "--manifest", manifest, "--comparison", "notyet"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(json.loads(captured.out)["cells"]) == 6


def test_cli_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = [
        "simulate", "--space", "wasserstein",
        "--n", "20,40", "--q", "3", "--seed", "7",
    ]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert payload["space"] == "wasserstein"
    assert set(payload["errors"]) == {"20", "40"}


def test_cli_simulate_excludes_a_replicate_whose_error_cannot_be_measured(tmp_path):
    # with two draws per distribution, replicate 2 at n=50 estimates a constant
    # start curve, which the quotient metric cannot transport
    out = tmp_path / "r.json"
    args = [
        "simulate", "--space", "wasserstein", "--n", "50,200", "--q", "5", "--seed", "0",
        "--samples-per-dist", "2", "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    payload = json.loads(out.read_text())
    assert sum(payload["excluded"].values()) >= 1
    for n, errors in payload["errors"].items():
        assert len(errors) + payload["excluded"][n] == 5


@pytest.mark.filterwarnings("ignore::geodid.errors.KindViolationWarning")
def test_cli_simulate_errors_csv(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "errs.csv"
    args = [
        "simulate", "--space", "network",
        "--n", "20", "--q", "2", "--seed", "3",
        "--out", str(out), "--errors-csv", str(csv_path),
    ]
    assert main(args) == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,run,error"
    assert len(lines) >= 2


@pytest.mark.filterwarnings("ignore::geodid.errors.KindViolationWarning")
def test_cli_simulate_errors_csv_names_each_row_by_its_run(tmp_path):
    # at this seed replicates 0, 2 and 4 at n=4 and 2, 3 and 4 at n=8 have no
    # treated unit; a row's run is the replicate it holds, not its position
    csv_path = tmp_path / "errs.csv"
    args = [
        "simulate", "--space", "network", "--n", "4,8", "--q", "6", "--treat-prob", "0.2",
        "--seed", "3", "--out", str(tmp_path / "r.json"), "--errors-csv", str(csv_path),
    ]
    assert main(args) == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,run,error"
    expected = []
    for n in (4, 8):
        config = SimConfig(space="network", n=n, q=6, treat_prob=0.2, seed=3)
        errors = [single_run_error(config, run) for run in range(6)]
        expected += [f"{n},{run},{err!r}" for run, err in enumerate(errors) if err is not None]
    assert lines[1:] == expected
    assert [row.split(",")[1] for row in lines[1:]] == ["1", "3", "5", "0", "1", "5"]


def test_point_json_floats_round_trip():
    curve = QuantileCurve([0.1, 0.2, 0.30000000000000004])
    payload = json.loads(json.dumps(gio.point_to_jsonable(curve)))
    np.testing.assert_array_equal(payload["quantiles"], curve.values)
