"""Victim streams of the random replacement component.

``tests/data/victim_streams.json`` pins the victims a Unison design with
random replacement draws, per seed and associativity, through snapshots
and restores: draws from a fresh design, the draws after a snapshot, the
same draws again after restoring it, the draws of a fresh design restored
to that snapshot, and the draws after rewinding to the design's initial
state.  The streams were recorded from the per-set Mersenne Twister states
the component used to snapshot whole; any change to how the component
keeps or restores its state must reproduce every one of them.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.dramcache.spec import ComponentSpec
from repro.sim.registry import DESIGNS, DesignBuildContext
from repro.utils.units import parse_size

PINNED = json.loads(
    (Path(__file__).parent / "data" / "victim_streams.json").read_text())

SEEDS = (0, 1, 7)
ASSOCIATIVITIES = (2, 4, 8, 16)
#: Victims drawn in each phase after the fresh design's first draws.
PHASE_DRAWS = 24


def _build(seed: int, associativity: int):
    spec = dataclasses.replace(
        DESIGNS.resolve("unison").spec,
        replacement=ComponentSpec("random", {"seed": seed}))
    paper = parse_size("1GB")
    return spec.build(DesignBuildContext(
        paper_capacity_bytes=paper, scaled_capacity_bytes=paper // 4096,
        scale=4096, num_cores=4, associativity=associativity))


def _draw(design, count: int, num_drawn_sets: int = 4) -> list:
    """``count`` victims, interleaved over the first ``num_drawn_sets`` of
    four sets spread across the design."""
    num_sets = design.tags.num_sets
    sets = (0, 1, num_sets // 2, num_sets - 1)[:num_drawn_sets]
    victim = design.replacement.victim
    return [[index, victim(index)]
            for index in (sets[i * 5 // 3 % len(sets)]
                          for i in range(count))]


def victim_streams(seed: int, associativity: int) -> dict:
    """Every phase's ``[set, victim]`` draws for one seed and associativity."""
    design = _build(seed, associativity)
    initial = design.snapshot_state()
    # The last set draws its first victim only after the snapshot.
    streams = {"fresh": _draw(design, 2 * PHASE_DRAWS, num_drawn_sets=3)}
    snapshot = design.snapshot_state()
    streams["after_snapshot"] = _draw(design, PHASE_DRAWS)
    design.restore_state(snapshot)
    streams["after_restore"] = _draw(design, PHASE_DRAWS)
    later = _build(seed, associativity)
    later.restore_state(snapshot)
    streams["fresh_design_restored"] = _draw(later, PHASE_DRAWS)
    design.restore_state(initial)
    streams["rewound_to_initial"] = _draw(design, PHASE_DRAWS)
    return streams


def test_pinned_data_covers_every_case():
    assert sorted(PINNED) == sorted(f"seed{seed}/assoc{assoc}"
                                    for seed in SEEDS
                                    for assoc in ASSOCIATIVITIES)


@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_victims_match_the_pinned_streams(seed, associativity):
    streams = victim_streams(seed, associativity)
    assert streams == PINNED[f"seed{seed}/assoc{associativity}"]
    # A restore replays exactly what followed the snapshot.
    assert (streams["after_restore"] == streams["fresh_design_restored"]
            == streams["after_snapshot"])
