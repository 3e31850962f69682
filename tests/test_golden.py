"""Byte-for-byte regression net for the command line and the manifest writer.

Seeded panels on every space are saved with `io.save_panel`, and every CLI
command runs on them. Each saved manifest (with its data files) and each
command's JSON output must equal its recorded copy under `tests/golden/`.
Re-record, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
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


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_set_is_complete(produced):
    assert sorted(produced) == sorted(p.name for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_output_matches_golden(produced, name):
    assert produced[name] == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = produce(tmp)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, text in recorded.items():
        (GOLDEN / name).write_text(text)
    sys.stdout.write(f"recorded {len(recorded)} files in {GOLDEN}\n")
