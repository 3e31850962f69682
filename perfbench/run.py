"""geodid benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload mc-network --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; geodid is imported from `src/`.
With `--trace 0` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics of a traced
run. The line before it records the environment, the op counts and the
warning counts. `--workload all` runs every workload in its own process and
prints one table.
"""

import os

# pinned before numpy is imported anywhere in this process or its children
THREAD_VARS = ("GEODID_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
WORK = BENCH_DIR / "work"
TRACES = BENCH_DIR / "traces"
# set-up repeats at least SETUP_MIN_REPS times, then until SETUP_SECONDS have passed
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_SECONDS = 2.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import geodid; "
    "print(time.perf_counter() - t, geodid.__file__)"
)
WARNING_NAMES = ("OrthantExitWarning", "KindViolationWarning")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def fresh_import_seconds():
    """Wall time of `import geodid` in a new interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, origin = proc.stdout.split(maxsplit=1)
    if not Path(origin.strip()).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"fresh interpreter imported geodid from {origin.strip()}")
    return float(seconds)


def set_up(workload, seed, workdir, setup_tracer=None):
    """Set up repeatedly; returns the last state, the median set-up time and the count."""
    fresh_import_seconds()  # compiles bytecode and warms the file cache
    times, state, target = [], None, None
    began = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
        len(times) < SETUP_MAX_REPS and time.perf_counter() - began < SETUP_SECONDS
    ):
        if target is not None:
            shutil.rmtree(target)
        import_s = fresh_import_seconds()
        target = workdir / f"setup{len(times)}"
        target.mkdir(parents=True)
        start = time.perf_counter()
        with setup_tracer if setup_tracer is not None else contextlib.nullcontext():
            state = workload.build(seed, target)
        times.append(import_s + time.perf_counter() - start)
    workload.prepare_check(state)
    return state, statistics.median(times), len(times)


class Checker:
    """Runs ops, checks each against its references, counts the failures."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.reported = 0
        self.last = None

    def run(self, index):
        """One op: (correct, seconds). Set-up and checking are outside the timing."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = self.workload.op(self.state, index)
            elapsed = time.perf_counter() - start
            got = self.last = self.workload.summarize(self.state, raw)
        except Exception:  # an op that raises, or whose output cannot be read, failed
            self._fail(index, traceback.format_exc(limit=3))
            return False, time.perf_counter() - start
        if not self.workload.check(self.state, index, got):
            self._fail(index, f"output outside its tolerance (raw {raw!r:.80})")
            return False, elapsed
        return True, elapsed

    def self_check(self, index):
        """The last output, perturbed, must fail the check, or the check proves nothing."""
        if self.last is None:
            return False
        bad = self.workload.perturbations(self.last)
        return all(not self.workload.check(self.state, index, b) for b in bad)

    def _fail(self, index, why):
        self.failed += 1
        if self.reported < 5:
            self.reported += 1
            sys.stderr.write(f"{self.workload.name} op {index} failed: {why}\n")


def closed_loop(checker, seconds, first_index):
    """Ops back to back until `seconds` pass; returns the durations of correct ops."""
    durations = []
    index = first_index
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ok, elapsed = checker.run(index)
        if ok:
            durations.append(elapsed)
        index += 1
    return durations


def throughput(durations):
    return len(durations) / sum(durations) if durations else 0.0


def count_warnings(caught):
    counts = Counter(w.category.__name__ for w in caught)
    return {name: counts[name] for name in WARNING_NAMES} | {
        "other": sum(c for name, c in counts.items() if name not in WARNING_NAMES)
    }


def run_workload(args, spec):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": environment()}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup_tracer = tracing.Tracer() if args.trace else None
            state, setup_s, setups = set_up(workload, args.seed, workdir, setup_tracer)
            summary["setups"] = setups
            checker = Checker(workload, state)
            checker.run(0)  # warm-up: checked, not timed
            if not checker.self_check(0):
                sys.stderr.write("self-check failed: a perturbed output passed the check\n")
                return 3
            if args.trace:
                metrics = traced_metrics(args, workload, state, checker, setup_tracer, setups, seconds, caught)
            else:
                ops_before = len(caught)
                durations = closed_loop(checker, seconds, first_index=1)
                summary["warnings_per_op"] = {
                    k: v / max(1, len(durations)) for k, v in count_warnings(caught[ops_before:]).items()
                }
                metrics = {
                    "throughput_ops_per_s": throughput(durations),
                    "op_p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
                    "setup_s": setup_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
                summary["ops_timed"] = len(durations)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }
    summary.update(
        attempted=checker.attempted,
        failed=checker.failed,
        error_rate=checker.failed / checker.attempted,
    )
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


def traced_metrics(args, workload, state, checker, setup_tracer, setups, seconds, caught):
    """Untraced ops for half the run, then a fixed set of traced ops."""
    import tracing

    untraced = closed_loop(checker, seconds / 2, first_index=1)
    ops_before = len(caught)
    durations, written = [], 0
    with tracing.Tracer() as tracer:
        for index in range(workload.traced_ops):
            ok, elapsed = checker.run(index)
            durations.append(elapsed)
            written += workload.bytes_written(state)
    seen = count_warnings(caught[ops_before:])
    metrics = tracing.layer_metrics(tracer, workload.traced_ops, seen, written, setup_tracer, setups)
    metrics["trace.throughput_ratio"] = throughput(durations) / throughput(untraced) if untraced else 0.0
    metrics["trace.ops"] = workload.traced_ops
    TRACES.mkdir(exist_ok=True)
    with open(TRACES / f"{workload.name}.json", "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "env": environment(),
                "counts": dict(tracer.counts),
                "warnings": seen,
                "metrics": metrics,
                "spans": tracer.spans_jsonable(),
            },
            fh,
        )
    return metrics


def run_all(spec, argv_seed, seconds):
    """Every workload in its own process, then one table of end-to-end metrics."""
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", w["name"], "--seed", str(argv_seed), "--trace", "0"]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows.append((w["name"], json.loads(lines[-2]), json.loads(lines[-1])))
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':18}" + "".join(f"{n:>22}" for n in names) + f"{'error_rate':>22}")
    for name, summary, result in rows:
        cells = [f"{result['metrics'][n]['value']:.4f} {result['metrics'][n]['unit']}" for n in names]
        rate = f"{summary['error_rate']:.4f} ({summary['failed']}/{summary['attempted']})"
        print(f"{name:18}" + "".join(f"{c:>22}" for c in cells) + f"{rate:>22}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "geodid" / "__init__.py").is_file():
        sys.stderr.write(f"no geodid sources under {SRC}; run from a geodid checkout\n")
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import geodid

    if not Path(geodid.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"geodid was imported from {geodid.__file__}, not {SRC}\n")
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
