"""Check that the traced run's counts repeat exactly.

    python3 perfbench/check_repeat.py [--seed N] [--seconds S] [workload ...]

Runs `run.py --trace 1` twice per workload (all workloads by default) and
compares every per-layer metric whose unit is `count` or `bytes`. Counts
come from a fixed set of traced ops, so any difference is a defect in the
benchmark or nondeterminism in the program. Exits 1 on a difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "bytes")


def traced(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None):
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args(argv)
    differ = 0
    for workload in args.workloads:
        first, second = (traced(workload, args.seed, args.seconds) for _ in range(2))
        exact = [n for n, m in first.items() if m["unit"] in EXACT_UNITS]
        for name in exact:
            if first[name]["value"] != second[name]["value"]:
                differ += 1
                print(f"{workload} {name}: {first[name]['value']} != {second[name]['value']}")
        print(f"{workload}: {len(exact)} counts compared, {differ} differ so far")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
