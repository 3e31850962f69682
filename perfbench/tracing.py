"""Spans and counters recorded from outside geodid, and the per-layer metrics.

`from .x import y` binds `y` in the importing module, so a wrapper is
installed on every name a caller actually looks up (for example
`geodid.did.frechet_mean` as well as `geodid.staggered.frechet_mean`).
Class constructors are counted through their `__post_init__`. A target that
a later version of geodid no longer has is skipped, and its metrics read 0.

Spans are kept in memory as parallel lists (name, start, end, parent) and
written out by the caller when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

import importlib
import os
import time
from collections import Counter

import numpy as np

# "module:attribute path" -> span name
SPANS = {
    "geodid.simulate:single_run_error": "simulate.single_run_error",
    "geodid.simulate:generate_panel": "simulate.generate_panel",
    "geodid.simulate:estimate_gatt": "did.estimate_gatt",
    "geodid.simulate:quotient_distance": "simulate.quotient_distance",
    "geodid.panel:PanelDataset.__post_init__": "panel.PanelDataset",
    "geodid.did:frechet_mean": "frechet.frechet_mean",
    "geodid.did:distance": "geometry.distance",
    "geodid.did:transport": "geometry.transport",
    "geodid.staggered:estimate_all_cells": "staggered.estimate_all_cells",
    "geodid.staggered:frechet_mean": "frechet.frechet_mean",
    "geodid.staggered:distance": "geometry.distance",
    "geodid.staggered:transport": "geometry.transport",
    "geodid.frechet:frechet_mean": "frechet.frechet_mean",
    "geodid.frechet:distance": "geometry.distance",
    "geodid.geometry:distance": "geometry.distance",
    "geodid.geometry:transport": "geometry.transport",
    "geodid.spaces.sphere:log_map": "spaces.sphere.log_map",
    "geodid.spaces.sphere:exp_map": "spaces.sphere.exp_map",
    "geodid.spaces.sphere:transport": "spaces.sphere.transport",
    "geodid.spaces.wasserstein:transport": "spaces.wasserstein.transport",
    "geodid.io:load_panel": "io.load_panel",
    "geodid.io:_read_numbers_csv": "io.read_data_file",
    "geodid.io:save_panel": "io.save_panel",
    "geodid.io:staggered_to_jsonable": "io.serialize",
    "geodid.cli:_emit": "io.serialize",
    "geodid.cli:estimate_all_cells": "staggered.estimate_all_cells",
    "geodid.cli:main": "cli.main",
}

COUNTERS = {
    "geodid.spaces.matrix:SymmetricMatrixPoint.__post_init__": "spaces.matrix.points_validated",
    "geodid.spaces.wasserstein:QuantileCurve.__post_init__": "spaces.wasserstein.points_validated",
    "geodid.spaces.sphere:UnitCompositionPoint.__post_init__": "spaces.sphere.points_validated",
    "geodid.staggered:estimate_group_time_gatt": "staggered.cells",
}


def _observe_mean(args, kwargs, result):
    """(points averaged, identity of the point set, sphere iterations or None)."""
    points = args[0] if args else kwargs.get("points", ())
    try:
        key = tuple(map(id, points))
    except TypeError:
        key = ()
    mean = getattr(result, "mean", None)
    sphere = getattr(mean, "space_id", None) == "sphere"
    converged = bool(getattr(result, "converged", True))
    return len(key), key, getattr(result, "iterations", 0) if sphere else None, converged


def _observe_panel(args, kwargs, result):
    panel = args[0]
    try:
        return panel.n_units * panel.n_periods
    except (AttributeError, IndexError, TypeError):
        return 0


def _observe_path(args, kwargs, result):
    return str(args[0]) if args else ""


OBSERVERS = {
    "frechet.frechet_mean": _observe_mean,
    "panel.PanelDataset": _observe_panel,
    "io.read_data_file": _observe_path,
}


def _resolve(target):
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None, path
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None, attr
    return owner, attr


class Tracer:
    """Installs the wrappers for the duration of a `with` block."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.meta = {}
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        for target, name in SPANS.items():
            self._patch(target, lambda fn, name=name: self._span(name, fn))
        for target, name in COUNTERS.items():
            self._patch(target, lambda fn, name=name: self._counter(name, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _patch(self, target, make):
        owner, attr = _resolve(target)
        if owner is None:
            return
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack, meta, clock = self._stack, self.meta, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                meta[idx] = ("raised", type(exc).__name__)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                meta[idx] = observe(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spans_jsonable(self):
        origin = min(self.start, default=0)
        return {
            "names": self.names,
            "name": self.span_name,
            "start_ns": [s - origin for s in self.start],
            "end_ns": [e - origin for e in self.end],
            "parent": self.parent,
        }


class SpanTable:
    """Array view of a tracer's spans with per-name aggregates."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.name = np.array(tracer.span_name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.ms = (np.array(tracer.end, dtype=np.int64) - np.array(tracer.start, dtype=np.int64)) / 1e6
        child_ms = np.zeros(len(self.ms))
        nested = self.parent >= 0
        np.add.at(child_ms, self.parent[nested], self.ms[nested])
        self.self_ms = self.ms - child_ms
        self.parent_name = np.where(nested, self.name[np.maximum(self.parent, 0)], -1)
        # ops are the top-level spans; each span belongs to the latest one opened
        self.op = np.cumsum(self.parent == -1) - 1

    def _id(self, name):
        return self.tracer._name_ids.get(name, -2)

    def mask(self, name, parent=None):
        m = self.name == self._id(name)
        if parent is not None:
            m &= self.parent_name == self._id(parent)
        return m

    def calls(self, name, parent=None):
        return int(self.mask(name, parent).sum())

    def total_ms(self, name, parent=None):
        return float(self.ms[self.mask(name, parent)].sum())

    def total_self_ms(self, name):
        return float(self.self_ms[self.mask(name)].sum())

    def meta(self, name, parent=None):
        return [(i, self.tracer.meta.get(i)) for i in np.flatnonzero(self.mask(name, parent))]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops, warnings_seen, bytes_written, setup_tracer, n_setups):
    """Per-layer metrics per traced op; set-up layers per set-up."""
    t = SpanTable(tracer)
    s = SpanTable(setup_tracer)

    def per_op(x):
        return x / n_ops

    def per_setup(x):
        return x / n_setups

    mean_meta = [m for _, m in t.meta("frechet.frechet_mean")]
    observed = [m for m in mean_meta if m and m[0] != "raised"]
    sphere_iters = [m[2] for m in observed if m[2] is not None]
    nonconverged = sum(1 for m in mean_meta if m and m[0] == "raised" and m[1] == "NonConvergenceError")
    nonconverged += sum(1 for m in observed if not m[3])

    staggered_means = t.meta("frechet.frechet_mean", parent="staggered.estimate_all_cells")
    distinct = {(int(t.op[i]), m[1]) for i, m in staggered_means if m and m[0] != "raised"}
    mean_calls = len(staggered_means)

    read_paths = [m for _, m in t.meta("io.read_data_file") if isinstance(m, str)]
    sizes = {}
    for path in read_paths:
        if path not in sizes:
            sizes[path] = os.path.getsize(path) if os.path.exists(path) else 0
    bytes_read = sum(sizes[p] for p in read_paths)

    objective_ms = t.total_ms("geometry.distance", parent="frechet.frechet_mean")
    panel_points = sum(m or 0 for _, m in t.meta("panel.PanelDataset") if not isinstance(m, tuple))
    setup_points = sum(m or 0 for _, m in s.meta("panel.PanelDataset") if not isinstance(m, tuple))

    return {
        "simulate.generate_panel.self_ms": per_op(t.total_self_ms("simulate.generate_panel")),
        "simulate.quotient_distance.ms": per_op(t.total_ms("simulate.quotient_distance")),
        "panel.PanelDataset.ms": per_op(t.total_ms("panel.PanelDataset")),
        "panel.PanelDataset.setup_ms": per_setup(s.total_ms("panel.PanelDataset")),
        "panel.points": per_op(panel_points),
        "panel.setup_points": per_setup(setup_points),
        "spaces.matrix.points_validated": per_op(tracer.counts["spaces.matrix.points_validated"]),
        "spaces.wasserstein.points_validated": per_op(
            tracer.counts["spaces.wasserstein.points_validated"]
        ),
        "spaces.sphere.points_validated": per_op(tracer.counts["spaces.sphere.points_validated"]),
        "spaces.sphere.log_map.calls": per_op(t.calls("spaces.sphere.log_map")),
        "spaces.sphere.log_map.ms": per_op(t.total_ms("spaces.sphere.log_map")),
        "spaces.sphere.exp_map.calls": per_op(t.calls("spaces.sphere.exp_map")),
        "spaces.sphere.transport.calls": per_op(t.calls("spaces.sphere.transport")),
        "spaces.sphere.transport.ms": per_op(t.total_ms("spaces.sphere.transport")),
        "spaces.wasserstein.transport.calls": per_op(t.calls("spaces.wasserstein.transport")),
        "spaces.wasserstein.transport.ms": per_op(t.total_ms("spaces.wasserstein.transport")),
        "spaces.sphere.orthant_exits": per_op(warnings_seen["OrthantExitWarning"]),
        "spaces.matrix.kind_violations": per_op(warnings_seen["KindViolationWarning"]),
        "geometry.distance.calls": per_op(t.calls("geometry.distance")),
        "geometry.distance.ms": per_op(t.total_ms("geometry.distance")),
        "geometry.transport.calls": per_op(t.calls("geometry.transport")),
        "geometry.transport.ms": per_op(t.total_ms("geometry.transport")),
        "frechet.frechet_mean.calls": per_op(t.calls("frechet.frechet_mean")),
        "frechet.frechet_mean.self_ms": per_op(t.total_self_ms("frechet.frechet_mean")),
        "frechet.points_averaged": per_op(sum(m[0] for m in observed)),
        "frechet.objective.distance_calls": per_op(
            t.calls("geometry.distance", parent="frechet.frechet_mean")
        ),
        "frechet.objective.ms": per_op(objective_ms),
        "frechet.objective.share": _ratio(objective_ms, t.total_ms("frechet.frechet_mean")),
        "frechet.sphere.iterations": per_op(sum(sphere_iters)),
        "frechet.sphere.iterations_per_mean": _ratio(sum(sphere_iters), len(sphere_iters)),
        "frechet.sphere.nonconverged": per_op(nonconverged),
        "did.estimate_gatt.ms": per_op(t.total_ms("did.estimate_gatt")),
        "did.estimate_gatt.self_ms": per_op(t.total_self_ms("did.estimate_gatt")),
        "staggered.cells": per_op(tracer.counts["staggered.cells"]),
        "staggered.mean_calls": per_op(mean_calls),
        "staggered.distinct_means": per_op(len(distinct)),
        "staggered.distinct_mean_ratio": _ratio(len(distinct), mean_calls),
        "staggered.transport.calls": per_op(
            t.calls("geometry.transport", parent="staggered.estimate_all_cells")
        ),
        "staggered.estimate_all_cells.self_ms": per_op(
            t.total_self_ms("staggered.estimate_all_cells")
        ),
        "io.load_panel.ms": per_op(t.total_ms("io.load_panel")),
        "io.load_panel.self_ms": per_op(t.total_self_ms("io.load_panel")),
        "io.files_read": per_op(len(read_paths)),
        "io.bytes_read": per_op(bytes_read),
        "io.serialize.ms": per_op(t.total_ms("io.serialize")),
        "io.bytes_written": per_op(bytes_written),
        "io.save_panel.ms": per_setup(s.total_ms("io.save_panel")),
        "cli.main.self_ms": per_op(t.total_self_ms("cli.main")),
    }
