"""Byte-for-byte regression net for the command line and the manifest writer.

Seeded panels on every space are saved with `io.save_panel`, and every CLI
command runs on them. Each saved manifest (with its data files) and each
command's JSON output must equal its recorded copy under `tests/golden/`.
Re-record, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden.py

and, before that, see how far the new outputs are from the recorded ones
(identical, the largest float deviation, or a structural difference) with

    PYTHONPATH=src python tests/test_golden.py --compare
"""

import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_composition, random_curve, random_matrix
from geodid import io as gio
from geodid.cli import EXIT_OK, main
from geodid.panel import PanelDataset

GOLDEN = Path(__file__).resolve().parent / "golden"

SAMPLERS = {
    "wasserstein": lambda rng: random_curve(rng, grid_size=20),
    "sphere": lambda rng: random_composition(rng, dim=3),
    "frobenius": lambda rng: random_matrix(rng, size=3),
}
# file-backed formats for the two-period panels; staggered panels are inline
FILE_FORMATS = {
    "wasserstein": "quantile-csv",
    "sphere": "composition-csv",
    "frobenius": "matrix-json",
}
# first treated period per unit; None is never treated
TWO_PERIOD_GROUPS = (None, None, None, 1, 1, 1)
STAGGERED_GROUPS = (None, None, None, 2, 2, 3, 3, 4, 4)
STAGGERED_PERIODS = 5


def _panel(space, seed, groups, n_periods):
    rng = np.random.default_rng(seed)
    outcomes = tuple(
        tuple(SAMPLERS[space](rng) for _ in range(n_periods)) for _ in groups
    )
    treatment = np.array(
        [[int(g is not None and t >= g) for t in range(n_periods)] for g in groups]
    )
    return PanelDataset(outcomes, treatment)


def _commands(inputs):
    """(output name, argv) for every recorded command."""
    commands = []
    for space in sorted(SAMPLERS):
        two, stag = inputs[f"two-{space}"], inputs[f"staggered-{space}"]
        commands.append((f"estimate-{space}", ["estimate", "--manifest", two]))
        commands.append(
            (f"placebo-{space}", ["placebo", "--manifest", stag, "--pre-periods", "0,1"])
        )
        for comparison in ("never", "notyet"):
            argv = ["staggered", "--manifest", stag, "--comparison", comparison]
            commands.append((f"staggered-{space}-{comparison}", argv))
            commands.append(
                (f"staggered-{space}-{comparison}-recursive", argv + ["--force-recursive"])
            )
    for space in ("wasserstein", "network"):
        argv = ["simulate", "--space", space, "--n", "8,16", "--q", "3", "--seed", "11"]
        commands.append((f"simulate-{space}", argv))
    return commands


def produce(root):
    """Write the inputs under `root` and return {golden file name: text}."""
    root = Path(root)
    outputs, inputs = {}, {}
    for k, space in enumerate(sorted(SAMPLERS)):
        for kind, groups, periods, fmt in (
            ("two", TWO_PERIOD_GROUPS, 2, FILE_FORMATS[space]),
            ("staggered", STAGGERED_GROUPS, STAGGERED_PERIODS, "inline"),
        ):
            name = f"{kind}-{space}"
            folder = root / name
            folder.mkdir()
            panel = _panel(space, 100 + k, groups, periods)
            inputs[name] = str(gio.save_panel(panel, folder / "manifest.json", fmt=fmt))
            files = {p.name: p.read_text() for p in sorted(folder.iterdir())}
            outputs[f"input-{name}.json"] = json.dumps(files, indent=1) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, argv in _commands(inputs):
            out = root / f"{name}.json"
            code = main(argv + ["--out", str(out)])
            if code != EXIT_OK:
                raise RuntimeError(f"{name}: exit code {code}")
            outputs[f"{name}.json"] = out.read_text()
    return outputs


# a number in JSON or CSV text; floats are told apart from ints by "." or "e"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _split_numbers(text):
    """(text with every number replaced by its kind, list of the numbers)."""
    numbers = []

    def mark(match):
        token = match.group()
        numbers.append(float(token))
        return "<float>" if any(c in token for c in ".eE") else "<int>"

    return NUMBER.sub(mark, text), numbers


def deviation(new, old):
    """Largest absolute difference between the numbers of two outputs, or None
    when they differ in anything else (keys, structure, strings, number kinds)."""
    new_shape, new_numbers = _split_numbers(new)
    old_shape, old_numbers = _split_numbers(old)
    if new_shape != old_shape:
        return None
    return max((abs(a - b) for a, b in zip(new_numbers, old_numbers)), default=0.0)


def compare(recorded):
    """Print how each produced output differs from its golden file; writes
    nothing. Returns True when every file exists on both sides with the same
    structure."""
    ok = True
    golden = {p.name: p.read_text() for p in GOLDEN.glob("*.json")}
    for name in sorted(set(recorded) | set(golden)):
        if name not in golden or name not in recorded:
            status = "only produced" if name in recorded else "only golden"
        elif recorded[name] == golden[name]:
            status = "identical"
        else:
            dev = deviation(recorded[name], golden[name])
            status = "structure differs" if dev is None else f"max deviation {dev:.3g}"
        ok &= status == "identical" or status.startswith("max deviation")
        sys.stdout.write(f"{name}: {status}\n")
    return ok


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_set_is_complete(produced):
    assert sorted(produced) == sorted(p.name for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_output_matches_golden(produced, name):
    assert produced[name] == (GOLDEN / name).read_text()


def test_deviation_reports_numbers_and_structure():
    old = '{"a": [1, 0.5, 1e-05], "b": "x"}\n'
    assert deviation(old, old) == 0.0
    assert deviation(old.replace("0.5", "0.5000000000001"), old) == pytest.approx(1e-13)
    assert deviation(old.replace("1e-05", "2e-05"), old) == pytest.approx(1e-5)
    assert deviation(old.replace('"b"', '"c"'), old) is None  # a key
    assert deviation(old.replace('"x"', '"y"'), old) is None  # a string
    assert deviation(old.replace(", 1e-05", ""), old) is None  # a list's length
    assert deviation(old.replace("[1,", "[1.0,"), old) is None  # an int became a float


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Re-record or compare the golden outputs.")
    parser.add_argument(
        "--compare",
        action="store_true",
        help="print each file's deviation from its golden copy instead of re-recording",
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        recorded = produce(tmp)
    if args.compare:
        sys.exit(0 if compare(recorded) else 1)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, text in recorded.items():
        (GOLDEN / name).write_text(text)
    sys.stdout.write(f"recorded {len(recorded)} files in {GOLDEN}\n")
