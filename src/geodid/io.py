"""Panel ingestion from manifest files and JSON serialization of results.

A manifest is a JSON file describing the space, the number of periods and
one record per unit with its treatment path and per-period outcomes. Each
outcome is either inline data or a path (relative to the manifest) to a data
file in the declared format.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .errors import (
    InvariantViolationError,
    MissingOutcomeError,
    ParseError,
)
from .geometry import _BACKENDS, backend_of
from .panel import PanelDataset
from .spaces import FORMAT_INLINE
from .spaces.matrix import FORMAT_MATRIX_CSV, FORMAT_MATRIX_JSON
from .spaces.sphere import FORMAT_COMPOSITION
from .spaces.wasserstein import FORMAT_QUANTILE, FORMAT_SAMPLES

SCHEMA_VERSION = 1


def _read_numbers_csv(path):
    try:
        rows = []
        with open(path, newline="") as fh:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                cells = [cell for cell in row if cell.strip()]
                if not cells:
                    continue
                try:
                    rows.append([float(cell) for cell in cells])
                except ValueError as exc:
                    raise ParseError(f"{path}:{line_no}: {exc}") from None
        return rows
    except OSError as exc:
        raise MissingOutcomeError(f"cannot read {path}: {exc}") from None


def _load_outcome(backend, spec, manifest, base_dir, where):
    if spec is None:
        raise MissingOutcomeError(f"{where}: outcome missing")
    data = spec
    if isinstance(spec, str):
        path = Path(base_dir) / spec
        fmt = manifest.get("format", FORMAT_INLINE)
        if fmt == FORMAT_MATRIX_JSON:
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise MissingOutcomeError(f"{where}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: {exc}") from None
        else:
            rows = _read_numbers_csv(path)
            if fmt in (FORMAT_SAMPLES, FORMAT_QUANTILE, FORMAT_COMPOSITION):
                data = [x for row in rows for x in row]
            else:
                data = rows
    try:
        return backend.from_data(data, manifest)
    except InvariantViolationError as exc:
        raise InvariantViolationError(f"{where}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_panel(manifest_path):
    """Load a PanelDataset from a manifest file, validating all invariants."""
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read manifest: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: manifest must be a JSON object")

    space = manifest.get("space")
    if not isinstance(space, str) or space not in _BACKENDS:
        raise ParseError(f"unknown or missing space {space!r}")
    fmt = manifest.get("format", FORMAT_INLINE)
    if not isinstance(fmt, str) or fmt not in _BACKENDS[space].FORMATS:
        raise ParseError(f"format {fmt!r} is not valid for space {space!r}")
    units = manifest.get("units")
    if not units or not isinstance(units, list):
        raise ParseError("manifest needs a non-empty 'units' array")
    periods = manifest.get("periods")
    if periods is None:
        raise ParseError("manifest lacks 'periods'")
    if type(periods) is not int or periods < 1:
        raise ParseError(f"'periods' must be a positive integer, got {periods!r}")

    backend = _BACKENDS[space]
    base_dir = manifest_path.parent
    outcomes, treatment, ids = [], [], []
    for k, unit in enumerate(units):
        if not isinstance(unit, dict):
            raise ParseError(f"unit {k}: record must be a JSON object")
        uid = unit.get("id", f"unit{k}")
        treat = unit.get("treatment")
        if not isinstance(treat, list) or len(treat) != periods:
            raise ParseError(
                f"unit {uid}: treatment must list {periods} indicators"
            )
        outs = unit.get("outcomes")
        if not isinstance(outs, list) or len(outs) != periods:
            raise MissingOutcomeError(
                f"unit {uid}: expected {periods} outcomes, got "
                f"{len(outs) if isinstance(outs, list) else 0}"
            )
        row = [
            _load_outcome(backend, spec, manifest, base_dir, f"unit {uid} period {t}")
            for t, spec in enumerate(outs)
        ]
        outcomes.append(tuple(row))
        treatment.append(list(treat))
        ids.append(uid)
    return PanelDataset(tuple(outcomes), np.array(treatment), unit_ids=tuple(ids))


def save_panel(panel, manifest_path, fmt=FORMAT_INLINE):
    """Write a panel back to a manifest (plus per-cell data files if not inline)."""
    manifest_path = Path(manifest_path)
    space = panel.space_id
    backend = _BACKENDS[space]
    if fmt not in backend.FORMATS or fmt == FORMAT_SAMPLES:
        raise ValueError(f"cannot save space {space!r} in format {fmt!r}")
    manifest = {
        "space": space,
        "periods": panel.n_periods,
        "format": fmt,
        "units": [],
        **backend.manifest_fields(panel.point(0, 0)),
    }
    base_dir = manifest_path.parent
    for i in range(panel.n_units):
        uid = str(panel._name(i))
        record = {
            "id": uid,
            "treatment": [int(x) for x in panel.treatment[i]],
            "outcomes": [],
        }
        for t in range(panel.n_periods):
            data = backend.to_data(panel.data[i, t])
            if fmt == FORMAT_INLINE:
                record["outcomes"].append(data)
                continue
            ext = "json" if fmt == FORMAT_MATRIX_JSON else "csv"
            rel = f"{manifest_path.stem}_{uid}_t{t}.{ext}"
            _write_data_file(base_dir / rel, data, fmt)
            record["outcomes"].append(rel)
        manifest["units"].append(record)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest_path


def _write_data_file(path, data, fmt):
    if fmt == FORMAT_MATRIX_JSON:
        with open(path, "w") as fh:
            json.dump(data, fh)
        return
    rows = data if fmt == FORMAT_MATRIX_CSV else [data]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])


def point_to_jsonable(point):
    """Serialize a point; floats round-trip exactly through json."""
    return backend_of(point).to_jsonable(point)


def gatt_to_jsonable(estimate, space):
    means = {
        f"nu_{d}{t}": point_to_jsonable(p) for (d, t), p in sorted(estimate.means.items())
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "space": space,
        "estimate": {
            "start": point_to_jsonable(estimate.effect.start),
            "end": point_to_jsonable(estimate.effect.end),
            "magnitude": estimate.magnitude,
            "means": means,
        },
    }


def staggered_to_jsonable(results, space, delta, comparison):
    return {
        "schema_version": SCHEMA_VERSION,
        "space": space,
        "delta": delta,
        "comparison": comparison,
        "cells": [
            {
                "g": r.cell.g,
                "t": r.cell.t,
                "estimator_form": r.estimator_form,
                "magnitude": r.magnitude,
                "effect": {
                    "start": point_to_jsonable(r.effect.start),
                    "end": point_to_jsonable(r.effect.end),
                },
                "beta_path": [point_to_jsonable(p) for p in r.beta_path],
            }
            for r in results
        ],
    }


def report_to_jsonable(report):
    return {
        "schema_version": SCHEMA_VERSION,
        "space": report.space,
        "seed": report.seed,
        "q": report.q,
        "n_values": list(report.n_values),
        "errors": {str(n): errs for n, errs in report.errors.items()},
        "mean_error": {str(n): e for n, e in report.mean_error.items()},
        "excluded": {str(n): c for n, c in report.excluded.items()},
        "slope": report.slope,
        "intercept": report.intercept,
    }


def write_errors_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "run", "error"])
        for n in sorted(report.errors):
            for run, err in enumerate(report.errors[n]):
                writer.writerow([n, run, repr(err)])
