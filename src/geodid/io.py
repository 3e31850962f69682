"""Panel ingestion from manifest files and JSON serialization of results.

A manifest is a JSON file describing the space, the number of periods and
one record per unit with its treatment path and per-period outcomes. Each
outcome is either inline data or a path (relative to the manifest) to a data
file in the declared format.
"""

import csv
import json
import locale
import os
from collections import Counter
from io import StringIO
from pathlib import Path

import numpy as np

from .errors import InvariantViolationError, MissingOutcomeError, ParseError
from .geometry import _BACKENDS, backend_of
from .panel import PanelDataset, locate
from .spaces import FORMAT_INLINE
from .spaces.matrix import FORMAT_MATRIX_CSV, FORMAT_MATRIX_JSON
from .spaces.sphere import FORMAT_COMPOSITION
from .spaces.wasserstein import DEFAULT_GRID_SIZE, FORMAT_QUANTILE, FORMAT_SAMPLES

SCHEMA_VERSION = 1
# bytes asked of each os.read of a data file
_READ_CHUNK = 1 << 16
# the JSON types of a treatment indicator
_INDICATOR_TYPES = frozenset((int, float, bool))


def _read_csv_lines(path):
    """The numbers on each non-blank line of a data file (blank cells skipped, quoted ones read).

    The bytes are decoded once, strictly, as text-mode `open` decodes them. A bad
    cell or undecodable byte raises ValueError naming the file and line.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError as exc:
        # csv ends a line at \r\n, \r or \n
        line = len(raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"))
        raise ValueError(f"{path}:{line}: {exc}") from None
    rows = []
    for line_no, row in enumerate(csv.reader(StringIO(text, newline="")), start=1):
        try:
            if numbers := [float(cell) for cell in row if cell.strip()]:
                rows.append(numbers)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return rows


def _read_numbers_csv(path, encoding=None, limit=None):
    """All the numbers of a data file in reading order, split and cast in one step each.

    The file's bytes are read with one `os.open` and decoded once, strictly,
    with `encoding`: by default the one text-mode `open` uses. `limit` is csv's
    field limit, by default the current one; a load looks both up once per
    manifest. numpy's string-to-float cast accepts and rejects the same cells
    as `float`, so a file whose every cell is a number reads as
    `_read_csv_lines` reads it. Returns None for any other file (blank, quoted
    or bad cells, a cell over the field limit, or a file that cannot be opened
    or decoded): the caller reads it line by line, which skips, unquotes or
    names the line.
    """
    if encoding is None:
        encoding = locale.getpreferredencoding(False)
    if limit is None:
        limit = csv.field_size_limit()
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
        text = b"".join(chunks).decode(encoding)
        cells = text.replace("\r\n", ",").replace("\r", ",").replace("\n", ",").split(",")
        if text.endswith(("\r", "\n")):
            cells.pop()
        if len(text) <= limit or max(map(len, cells)) <= limit:
            return np.array(cells, dtype=float)
    except (OSError, ValueError):
        pass
    return None


def _outcome_reader(fmt, base_dir):
    """A function reading one of a manifest's outcomes as a float array: its
    inline data or the numbers in its data file.

    What every read shares is worked out here, once per manifest. The function
    raises MissingOutcomeError for a null outcome, OSError for a file it cannot
    read and TypeError, ValueError, OverflowError or csv.Error for bad data;
    `_outcome_error` names the outcome.
    """
    # one curve or composition may run over several lines of any length
    flat = fmt in (FORMAT_SAMPLES, FORMAT_QUANTILE, FORMAT_COMPOSITION)
    encoding = locale.getpreferredencoding(False)
    limit = csv.field_size_limit()

    def read(spec):
        if spec is None:
            raise MissingOutcomeError("outcome missing")
        if not isinstance(spec, str):
            return np.asarray(spec, dtype=float)
        # os.path.join costs a few microseconds less per file than a Path join
        if flat and (
            numbers := _read_numbers_csv(os.path.join(base_dir, spec), encoding, limit)
        ) is not None:
            return numbers
        # matrix files, and flat files the one-step read gives up on; an error
        # names the file as Path spells it
        path = Path(base_dir) / spec
        if fmt == FORMAT_MATRIX_JSON:
            with open(path) as fh:
                return np.asarray(json.load(fh), dtype=float)
        rows = _read_csv_lines(path)
        if flat:
            rows = [x for row in rows for x in row]
        return np.asarray(rows, dtype=float)

    return read


# what an outcome reader raises for an outcome it cannot read
_OUTCOME_ERRORS = (MissingOutcomeError, OSError, TypeError, ValueError, OverflowError, csv.Error)


def _outcome_error(exc, where):
    """The error a load raises for `exc`, one of `_OUTCOME_ERRORS`, named by `where`."""
    kind = MissingOutcomeError if isinstance(exc, (MissingOutcomeError, OSError)) else ParseError
    return kind(f"{where}: {exc}")


def _read_outcome(spec, fmt, base_dir, where):
    """One outcome as a float array, read and named by `where` as a load reads and names it."""
    try:
        return _outcome_reader(fmt, base_dir)(spec)
    except _OUTCOME_ERRORS as exc:
        raise _outcome_error(exc, where) from None


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
    if type(periods) is not int or periods < 1:
        raise ParseError(f"'periods' must be a positive integer, got {periods!r}")
    grid_size = manifest.get("grid_size", DEFAULT_GRID_SIZE)
    if type(grid_size) is not int or grid_size < 2:
        raise ParseError(f"'grid_size' must be an integer >= 2, got {grid_size!r}")

    read = _outcome_reader(fmt, str(manifest_path.parent))
    outcomes, treatment, ids = [], [], []
    for k, unit in enumerate(units):
        if not isinstance(unit, dict):
            raise ParseError(f"unit {k}: record must be a JSON object")
        uid = unit.get("id", f"unit{k}")
        treat = unit.get("treatment")
        # the panel checks the values; here a list, string or null entry is no indicator
        if not (
            isinstance(treat, list)
            and len(treat) == periods
            and _INDICATOR_TYPES.issuperset(map(type, treat))
        ):
            raise ParseError(f"unit {uid}: treatment must list {periods} indicators of 0 or 1")
        outs = unit.get("outcomes")
        if not isinstance(outs, list) or len(outs) != periods:
            got = len(outs) if isinstance(outs, list) else 0
            raise MissingOutcomeError(f"unit {uid}: expected {periods} outcomes, got {got}")
        for t, spec in enumerate(outs):
            try:
                outcomes.append(read(spec))
            except _OUTCOME_ERRORS as exc:
                # the label is built only for an error
                raise _outcome_error(exc, f"unit {uid} period {t}") from None
        treatment.append(treat)
        ids.append(uid)
    try:
        stack, fields = _BACKENDS[space].from_data(outcomes, manifest)
    except InvariantViolationError as exc:
        raise locate(exc, periods, ids) from None
    data = stack.reshape(len(ids), periods, *stack.shape[1:])
    return PanelDataset.from_array(data, np.array(treatment), space, fields, unit_ids=ids)


def save_panel(panel, manifest_path, fmt=FORMAT_INLINE):
    """Write a panel back to a manifest (plus per-cell data files if not inline)."""
    manifest_path = Path(manifest_path)
    space = panel.space_id
    backend = _BACKENDS[space]
    if fmt not in backend.FORMATS or fmt == FORMAT_SAMPLES:
        raise ValueError(f"cannot save space {space!r} in format {fmt!r}")
    uids = [str(panel._name(i)) for i in range(panel.n_units)]
    # a unit's id names its data files
    clashes = [uid for uid, n in Counter(uids).items() if n > 1 or "/" in uid or os.sep in uid]
    if clashes and fmt != FORMAT_INLINE:
        raise ValueError(f"unit ids repeated or holding a path separator: {clashes[:5]}")
    manifest = {
        "space": space,
        "periods": panel.n_periods,
        "format": fmt,
        "units": [],
        **backend.manifest_fields(panel.data.shape[2:], **panel.fields),
    }
    base_dir = manifest_path.parent
    for i, uid in enumerate(uids):
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
    # the bytes csv.writer writes: no cell needs quoting, and "\r\n" ends each row
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(map(repr, map(float, row))) + "\r\n" for row in rows))


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


def write_errors_csv(report, fh):
    """Write every run's error as `n,run,error` rows to `fh`, a text file opened with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(["n", "run", "error"])
    for n in sorted(report.errors):
        for run, err in enumerate(report.errors[n]):
            writer.writerow([n, run, repr(err)])
