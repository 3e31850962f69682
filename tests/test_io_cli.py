import json

import numpy as np
import pytest

from geodid import io as gio
from geodid.cli import EXIT_ESTIMATION, EXIT_INVALID_INPUT, EXIT_OK, main
from geodid.errors import (
    InvariantViolationError,
    MissingOutcomeError,
    ParseError,
)
from geodid.geometry import distance
from geodid.panel import PanelDataset
from geodid.spaces.matrix import SymmetricMatrixPoint
from geodid.spaces.sphere import embed_composition
from geodid.spaces.wasserstein import QuantileCurve, quantile_from_samples


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


def test_load_reports_bad_composition_with_context(tmp_path):
    payload = {
        "space": "sphere",
        "periods": 2,
        "format": "inline",
        "units": [
            {
                "id": "u7",
                "treatment": [0, 0],
                "outcomes": [[0.5, 0.5], [0.9, 0.3]],
            },
        ],
    }
    path = write_manifest(tmp_path / "bad.json", payload)
    with pytest.raises(InvariantViolationError) as exc:
        gio.load_panel(path)
    assert "u7" in str(exc.value)
    assert "period 1" in str(exc.value)


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
    ],
)
def test_cli_rejects_malformed_manifest(tmp_path, capsys, payload, error, message):
    manifest = write_manifest(tmp_path / "bad.json", payload)
    assert main(["estimate", "--manifest", manifest]) == EXIT_INVALID_INPUT
    err = single_error_line(capsys)
    assert err["error"] == error
    assert message in err["message"]


@pytest.mark.parametrize(
    "bad",
    [["--n", ","], ["--samples-per-dist", "0"], ["--samples-per-dist", "1"]],
    ids=["no-sizes", "no-samples", "one-sample"],
)
def test_cli_simulate_rejects_bad_arguments(tmp_path, capsys, bad):
    out = tmp_path / "r.json"
    args = ["simulate", "--space", "wasserstein", "--n", "20", "--q", "2", "--out", str(out)]
    assert main(args + bad) == EXIT_INVALID_INPUT
    assert single_error_line(capsys)["error"] in ("ParseError", "ValueError")
    assert not out.exists()


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


def test_point_json_floats_round_trip():
    curve = QuantileCurve([0.1, 0.2, 0.30000000000000004])
    payload = json.loads(json.dumps(gio.point_to_jsonable(curve)))
    np.testing.assert_array_equal(payload["quantiles"], curve.values)
