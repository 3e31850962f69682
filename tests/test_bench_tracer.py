"""The benchmark tracer's targets: a name geodid no longer has is skipped
without a word, and its metrics read 0. This ratchet lets the list of such
names only shrink."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the targets no geodid name answers to; remove one when the tracer stops naming it
KNOWN_ORPHANS = {
    "geodid.simulate:estimate_gatt",
    "geodid.simulate:quotient_distance",
    "geodid.panel:PanelDataset.__post_init__",
    "geodid.did:frechet_mean",
    "geodid.did:distance",
    "geodid.did:transport",
    "geodid.staggered:frechet_mean",
    "geodid.staggered:distance",
    "geodid.staggered:transport",
    "geodid.frechet:frechet_mean",
    "geodid.frechet:distance",
    "geodid.io:_read_numbers_csv",
}


def load_tracing():
    # executed from its source, so no bytecode cache is written beside it
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_orphans_no_new_target():
    tracing = load_tracing()
    targets = [*tracing.SPANS, *tracing.COUNTERS]
    orphans = {target for target in targets if tracing._resolve(target)[0] is None}
    assert orphans <= KNOWN_ORPHANS, f"tracer targets geodid no longer has: {sorted(orphans - KNOWN_ORPHANS)}"
    # generate_panel is the Monte Carlo replicate's DGP span
    assert "geodid.simulate:generate_panel" in targets
