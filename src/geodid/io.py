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
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import orjson

from .errors import InvariantViolationError, MissingOutcomeError, ParseError
from .geometry import _BACKENDS, backend_of
from .panel import PanelDataset, label, locate
from .spaces import FORMAT_INLINE
from .spaces.matrix import FORMAT_MATRIX_JSON
from .spaces.sphere import FORMAT_COMPOSITION
from .spaces.wasserstein import DEFAULT_GRID_SIZE, FORMAT_QUANTILE, FORMAT_SAMPLES

SCHEMA_VERSION = 1
# bytes asked of each os.read of a data file
_READ_CHUNK = 1 << 16
# flat data files parsed per orjson.loads call, and data files spelled per
# orjson.dumps call
_BLOCK_FILES = 128
# the bytes of a flat data file that the block parse reads: JSON's number
# characters and the comma (line ends are turned into commas first)
_NUMBER_BYTES = b"0123456789.eE+-,"
# the bytes of a flat data file that may join a block: those and the line ends
_FILE_BYTES = _NUMBER_BYTES + b"\r\n"
# every aligned stretch of this many bytes of a block's JSON text must hold a
# comma, so that no number in it runs to 767 bytes: orjson reads at most 768
# significant digits of a number and rounds as if any digits past them were
# not all zeros, so a halfway number spelled in more can round the wrong way
_COMMA_STRETCH = 384
# so no cell of a block, brackets included, is longer than this many bytes,
# and a csv field limit of at least this many admits every cell of any block
_CELL_MAX = 2 * _COMMA_STRETCH - 2
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


def _read_bytes(path):
    """A file's bytes, read with one `os.open`."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _block_parse_applies(encoding):
    """Whether `encoding` spells `_FILE_BYTES` as ASCII does, both ways, so
    that a file of those bytes is the text the line reader decodes."""
    text = _FILE_BYTES.decode("ascii")
    try:
        return text.encode(encoding) == _FILE_BYTES and _FILE_BYTES.decode(encoding) == text
    except UnicodeError:
        return False


def _read_block(paths):
    """The numbers of each flat data file of a block, parsed by one `orjson.loads` call.

    Each file becomes one JSON array of its bytes: its line ends at the end
    dropped, as the line reader skips blank lines, and any other turned into a
    comma. The block is the text `[[<file 1>],[<file 2>],...]`. A file may
    join it only if it holds nothing but `_NUMBER_BYTES`: no name such as
    `nan` or `true`, no bracket, space, quote or byte-order mark. Every cell
    of such a block that parses is a JSON number, which orjson's correctly
    rounded parser reads to the double `float` gives, with two exceptions
    that the block is checked for: a number spelled in 767 bytes or more
    (see `_COMMA_STRETCH`), and the integer `-0`, which orjson reads as the
    int 0. The caller checks once per manifest that the locale's encoding
    spells these bytes as ASCII does (`_block_parse_applies`) and that
    csv's field limit admits every cell a block can hold (`_CELL_MAX`).

    Returns a (k, d) array when every file parses to d numbers, else per file
    its 1-D array. Returns None, and the caller reads every file of the block
    with the line reader, when a file cannot be opened, is blank or holds
    another byte, when a cell is too long or `-0`, or when the parse fails (a
    cell that is not a JSON number, or that overflows a double, fails it).
    """
    try:
        lines = [_read_bytes(path).rstrip(b"\r\n") for path in paths]
    except (OSError, ValueError):  # a name with a NUL byte raises ValueError
        return None
    if not all(lines):
        return None
    text = _block_text(lines)
    # with the number bytes gone (the comma among them), only the brackets
    # the join put in are left, unless a file holds any other byte
    if text.translate(None, _NUMBER_BYTES) != b"[[" + b"][" * (len(lines) - 1) + b"]]":
        return None
    windows = np.frombuffer(text, np.uint8, len(text) // _COMMA_STRETCH * _COMMA_STRETCH)
    if not (windows.reshape(-1, _COMMA_STRETCH) == ord(",")).any(axis=1).all():
        return None
    try:
        lists = orjson.loads(text)
    except ValueError:  # orjson.JSONDecodeError is one
        return None
    # freed before the cells, which outlive the block, are made, the text
    # leaves them its place in the heap, not a hole under them that the next
    # block's text does not fit (that grew peak RSS by about 3 MB)
    del text
    sizes = list(map(len, lists))
    cells = np.fromiter(chain.from_iterable(lists), float, sum(sizes))
    # only a block with a zero can hold a -0 cell, which is followed by a
    # comma or ends its file's row; the text is spelled again to look
    if not cells.all() and (b"-0," in (text := _block_text(lines)) or b"-0]" in text):
        return None
    if len(set(sizes)) == 1:
        return cells.reshape(len(sizes), sizes[0])
    return np.split(cells, np.cumsum(sizes[:-1]))


def _block_text(lines):
    """The JSON text `[[<line 1>],[<line 2>],...]`, each line end in it turned into a comma."""
    text = b"[[" + b"],[".join(lines) + b"]]"
    if b"\r" in text or b"\n" in text:
        text = text.replace(b"\r\n", b",").replace(b"\r", b",").replace(b"\n", b",")
    return text


def _outcome_reader(fmt, base_dir):
    """A function reading a list of a manifest's outcomes as float arrays: their
    inline data or the numbers in their data files.

    What every read shares is worked out here, once per manifest. The function
    takes the outcomes and `where`, which names the i-th of them, and returns
    one array per outcome: a list of them, or, when every block of files
    parsed, all to one width, one (k, d) array whose rows they are. A block of
    flat data files is parsed by `_read_block`; any other outcome, and every
    file of a block it refuses, is read alone, a data file by the line
    reader, the reference. An outcome it cannot read raises what
    `_outcome_error` makes of MissingOutcomeError for a null outcome, OSError
    for a file it cannot read, or TypeError, ValueError, OverflowError,
    RecursionError or csv.Error for bad data.
    """
    # one curve or composition may run over several lines of any length
    flat = fmt in (FORMAT_SAMPLES, FORMAT_QUANTILE, FORMAT_COMPOSITION)
    fast = flat and csv.field_size_limit() >= _CELL_MAX and _block_parse_applies(locale.getpreferredencoding(False))

    def read(spec):
        if spec is None:
            raise MissingOutcomeError("outcome missing")
        if not isinstance(spec, str):
            return np.asarray(spec, dtype=float)
        # an error names the file as Path spells it
        path = Path(base_dir) / spec
        if fmt == FORMAT_MATRIX_JSON:
            with open(path) as fh:
                return np.asarray(json.load(fh), dtype=float)
        rows = _read_csv_lines(path)
        if flat:
            rows = [x for row in rows for x in row]
        return np.asarray(rows, dtype=float)

    def read_all(specs, where):
        blocks = []
        for start in range(0, len(specs), _BLOCK_FILES):
            block = specs[start : start + _BLOCK_FILES]
            rows = None
            if fast and all(isinstance(spec, str) for spec in block):
                rows = _read_block([os.path.join(base_dir, spec) for spec in block])
            if rows is None:
                # read alone, in order, so that each value and the first
                # error are the ones a lone read gives
                rows = []
                for i, spec in enumerate(block):
                    try:
                        rows.append(read(spec))
                    except _OUTCOME_ERRORS as exc:
                        raise _outcome_error(exc, where(start + i)) from None
            blocks.append(rows)
        parsed = all(isinstance(block, np.ndarray) for block in blocks)
        if parsed and len({block.shape[1] for block in blocks}) == 1:
            return np.concatenate(blocks)
        return [array for block in blocks for array in block]

    return read_all


# what an outcome reader raises for an outcome it cannot read
_OUTCOME_ERRORS = (
    MissingOutcomeError, OSError, TypeError, ValueError, OverflowError, RecursionError, csv.Error
)


def _outcome_error(exc, where):
    """The error a load raises for `exc`, one of `_OUTCOME_ERRORS`, named by `where`."""
    kind = MissingOutcomeError if isinstance(exc, (MissingOutcomeError, OSError)) else ParseError
    return kind(f"{where}: {exc}")


def _unit_record(k, unit, periods):
    """The id, treatment and outcomes of a manifest's k-th unit record, checked."""
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
    return uid, treat, outs


def load_panel(manifest_path):
    """Load a PanelDataset from a manifest file, validating all invariants."""
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read manifest: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
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
    specs, treatment, ids = [], [], []

    def where(i):
        # the label is built only for an error
        return label(i, periods, ids)

    for k, unit in enumerate(units):
        try:
            uid, treat, outs = _unit_record(k, unit, periods)
        except (ParseError, MissingOutcomeError):
            # the outcomes before a bad record report their errors first, as
            # in a load that reads unit by unit
            read(specs, where)
            raise
        specs.extend(outs)
        treatment.append(treat)
        ids.append(uid)
    outcomes = read(specs, where)
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
    stem, ext = manifest_path.stem, "json" if fmt == FORMAT_MATRIX_JSON else "csv"
    # the encoding text-mode `open` writes in, looked up once per save
    encoding = locale.getpreferredencoding(False)
    if fmt == FORMAT_INLINE:
        outcomes = backend.to_data(panel.data).tolist()
    else:
        outcomes = [[f"{stem}_{uid}_t{t}.{ext}" for t in range(panel.n_periods)] for uid in uids]
        names = [rel for row in outcomes for rel in row]
        points = panel.data.reshape(len(names), *panel.data.shape[2:])
        # data files are opened by name in the manifest's folder, not by joined paths
        folder = os.open(manifest_path.parent, os.O_RDONLY)
        try:
            # spelled a block of files at a time, so that their texts never
            # hold more than a block's numbers
            for start in range(0, len(names), _BLOCK_FILES):
                block = slice(start, start + _BLOCK_FILES)
                for rel, text in zip(names[block], _data_texts(backend.to_data(points[block]), fmt)):
                    _write_data_file(rel, text, encoding, folder)
        finally:
            os.close(folder)
    for i, uid in enumerate(uids):
        record = {"id": uid, "treatment": [int(x) for x in panel.treatment[i]], "outcomes": outcomes[i]}
        manifest["units"].append(record)
    with open(manifest_path, "w") as fh:
        fh.write(json_text(manifest))
    return manifest_path


def _data_texts(stack, fmt):
    """The text of the data file in `fmt` of each point of a (k, *shape) stack
    of `to_data` arrays: `json.dumps` of its list, or for a CSV format the
    lines csv.writer writes for its rows (a matrix's rows, a curve's or a
    composition's one row): no cell needs quoting, and "\r\n" ends each line."""
    if fmt == FORMAT_MATRIX_JSON:
        return [json.dumps(x) for x in stack.tolist()]
    rows = np.ascontiguousarray(stack).reshape(-1, stack.shape[-1])
    lines = [line + "\r\n" for line in _rows_text(rows)]
    per_file = len(rows) // len(stack)
    return ["".join(lines[i : i + per_file]) for i in range(0, len(lines), per_file)]


def _rows_text(rows):
    """`",".join(map(float.__repr__, row))` for each row of `rows`, a C-contiguous
    (k, w) float64 array or a list of lists of floats, by one `orjson.dumps` call
    (orjson spells a float64 array as it spells the list of its floats); a row
    whose text is not repr's (`_spelled_as_repr`) is joined by repr instead."""
    text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
    lines = text.split("],[") if len(rows) > 1 else [text]  # one row: no scan for a split
    if not _spelled_as_repr(text):
        for i, line in enumerate(lines):
            if not _spelled_as_repr(line):
                lines[i] = ",".join(map(float.__repr__, rows[i]))
    return lines


def _write_data_file(path, text, encoding=None, dir_fd=None):
    """Write a data file's bytes: those text-mode `open(path, "w", newline="")`
    writes for `text` in `encoding` (by default the one it looks up). `path`
    is taken relative to the folder open as `dir_fd`, if given."""
    raw = memoryview(text.encode(encoding or locale.getpreferredencoding(False)))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666, dir_fd=dir_fd)
    try:
        while raw:
            raw = raw[os.write(fd, raw) :]
    finally:
        os.close(fd)


def _spelled_as_repr(text):
    """Whether orjson's `text` of floats spells each as repr does.

    orjson writes a float's shortest round-trip digits, as repr does, and
    spells them as repr does except where |x| < 1e-4 or |x| >= 1e16 (repr
    writes `1e-05` and `1e+16`, orjson `0.00001` and `1e16`) and for nan and
    inf (orjson writes null). Its text then holds an `e`, an `n` or `0.0000`.
    """
    return not ("e" in text or "n" in text or "0.0000" in text)


# the float.__repr__ spellings that json.dumps replaces
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(obj, newline="\n"):
    """The text of `json.dumps(obj, indent=1)`, with `newline` (a line end and
    the indent of obj's depth) in place of each line end.

    json's indented encoder is pure Python; this one spells a list of floats
    in one step (`_rows_text`). Types other than dict (with str keys), list,
    str, float, int, bool and None are left to json.dumps.
    """
    kind = type(obj)
    if kind is float:
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is list or kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "[]" if kind is list else "{}"
        inner = newline + " "
        sep = "," + inner
        if kind is dict:
            items = sep.join(
                encode_basestring_ascii(key) + ": " + json_text(value, inner)
                for key, value in obj.items()
            )
            return "{" + inner + items + newline + "}"
        # of the floats, only a nan or an inf is spelled with an "n" by repr
        if set(map(type, obj)) != {float} or "n" in (items := _rows_text([obj])[0].replace(",", sep)):
            items = sep.join([json_text(x, inner) for x in obj])
        return "[" + inner + items + newline + "]"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    return json.dumps(obj, indent=1).replace("\n", newline)


def error_json(exc):
    """The one-line JSON report of `exc`: its type's name and its message."""
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


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
