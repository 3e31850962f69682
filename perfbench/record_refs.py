"""Record the program's outputs as references for the benchmark's checks.

    python3 perfbench/record_refs.py

For every workload in `workloads.RECORDED` (the network replicates and the
two parts of the `staggered` workload) and every seed in
`workloads.RECORDED_SEEDS` (the default seed and one held-out seed) this runs
the operations on the current sources and writes their summaries to
`perfbench/refs/<name>-seed<n>.json`.
Workloads whose ops all share one input store one op; the network replicates
store the first `NETWORK_RUNS` replicates, more than a run of the benchmark
reaches. Each recorded output must also match the benchmark's own reference
model, or nothing is written.
"""

import json
import sys
import tempfile
import warnings
from pathlib import Path

import run  # pins thread counts before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

NETWORK_RUNS = 1000


def record(workload, seed, workdir):
    state = workload.build(seed, workdir)
    workload.prepare_check(state)
    ops = []
    for index in range(1 if workload.same_input else NETWORK_RUNS):
        got = workload.summarize(state, workload.op(state, index))
        if got is None or not workloads.matches(
            got, workload.model_reference(state, index), workload.tolerance
        ):
            raise SystemExit(f"{workload.name} seed {seed} op {index}: output disagrees with the model")
        keys, values = got
        ops.append({"keys": [list(k) for k in keys], "values": values.tolist()})
    return {"workload": workload.name, "seed": seed, "ops": ops}


def main():
    workloads.REFS.mkdir(exist_ok=True)
    for workload in workloads.RECORDED:
        for seed in workloads.RECORDED_SEEDS:
            with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp, warnings.catch_warnings():
                warnings.simplefilter("ignore")
                data = record(workload, seed, Path(tmp))
            path = workloads.REFS / f"{workload.name}-seed{seed}.json"
            with open(path, "w") as fh:
                json.dump(data, fh)
            print(f"wrote {path.relative_to(run.ROOT)} ({len(data['ops'])} ops)")


if __name__ == "__main__":
    main()
