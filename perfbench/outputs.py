"""The benchmark's output check: exact statistics, or invariants.

Every :class:`~repro.sim.experiment.ExperimentResult` field and every
``extra`` entry of every cell is compared, floats by their exact ``repr``,
against the reference stored in ``reference/<workload>.json`` for the run's
seed (and, for ``tune_queue``, the frontier winners too).  A seed without a
stored reference is checked only against invariants that hold for any
correct run; nothing statistical (CI containment, the paper's design
ordering) is asserted, because that can fail on correct code for some seeds.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Result fields that are ratios when present.
RATIO_FIELDS = ("miss_ratio", "hit_ratio", "footprint_accuracy",
                "way_prediction_accuracy", "miss_prediction_accuracy")


def _exact(value):
    """A JSON-safe form that keeps every float digit (``repr``)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _exact(value[key]) for key in sorted(value)}
    return value


def canonical(outcome) -> Dict[str, object]:
    """The outcome's simulated statistics in reference form."""
    cells = {key: _exact(dataclasses.asdict(result))
             for key, result in outcome.cells}
    data: Dict[str, object] = {"cells": cells}
    if outcome.winners is not None:
        data["winners"] = list(outcome.winners)
    return data


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, fingerprint, seed: int,
                   ) -> "tuple[Optional[dict], List[str]]":
    """``(reference for seed or None, problems)``.

    A reference file made for other workload sizes is a problem, not a
    silent fallback to invariants.
    """
    path = reference_path(workload)
    if not path.is_file():
        return None, []
    data = json.loads(path.read_text())
    if data["fingerprint"] != json.loads(json.dumps(fingerprint)):
        return None, [f"{path.name} was made for other workload sizes; "
                      f"regenerate it with make_reference.py"]
    return data["seeds"].get(str(seed)), []


def compare(expected: dict, actual: dict) -> List[str]:
    """Every difference between two canonical outputs, one line each."""
    problems = []
    want, got = expected["cells"], actual["cells"]
    for key in sorted(set(want) - set(got)):
        problems.append(f"cell {key}: missing")
    for key in sorted(set(got) - set(want)):
        problems.append(f"cell {key}: not in the reference")
    for key in sorted(set(want) & set(got)):
        fields = set(want[key]) | set(got[key])
        for name in sorted(fields):
            if want[key].get(name) != got[key].get(name):
                problems.append(
                    f"cell {key}: {name} = {got[key].get(name)!r}, "
                    f"reference {want[key].get(name)!r}")
    if expected.get("winners") != actual.get("winners"):
        problems.append(f"frontier winners {actual.get('winners')!r}, "
                        f"reference {expected.get('winners')!r}")
    return problems


def expected_measured(trial) -> "tuple[int, Optional[int]]":
    """``(accesses measured, windows)`` the trial's plan fixes."""
    from repro.sim.executor import sampled_window_plan

    if trial.sampling is None:
        total = trial.config.num_accesses
        return total - int(total * trial.config.warmup_fraction), None
    plan = sampled_window_plan(trial)
    # min_windows == max_windows in every sampled workload: the stopper
    # never ends early, so every planned window is aggregated.
    return sum(w.measure_accesses for w in plan.windows), len(plan.windows)


def invariants(outcome) -> List[str]:
    """Problems that no correct run of any seed can show."""
    problems = []
    got = dict(outcome.cells)
    for key in sorted(set(outcome.planned) - set(got)):
        problems.append(f"cell {key}: planned but missing")
    for key in sorted(set(got) - set(outcome.planned)):
        problems.append(f"cell {key}: not planned")
    for key in sorted(set(got) & set(outcome.planned)):
        result, trial = got[key], outcome.planned[key]
        for name in RATIO_FIELDS:
            value = getattr(result, name)
            if value is not None and not (math.isfinite(value)
                                          and 0.0 <= value <= 1.0):
                problems.append(f"cell {key}: {name} = {value!r}")
        total = result.hit_ratio + result.miss_ratio
        if not abs(total - 1.0) <= 1e-9:
            problems.append(f"cell {key}: hit_ratio + miss_ratio = {total!r}")
        measured, windows = expected_measured(trial)
        if result.accesses_measured != measured:
            problems.append(f"cell {key}: accesses_measured = "
                            f"{result.accesses_measured}, plan {measured}")
        if windows is not None and \
                result.extra.get("sampling_windows") != float(windows):
            problems.append(f"cell {key}: sampling_windows = "
                            f"{result.extra.get('sampling_windows')!r}, "
                            f"plan {windows}")
    if outcome.failed_jobs:
        problems.append(f"{outcome.failed_jobs} queue jobs failed")
    return problems


def check(outcome, reference: Optional[dict]) -> List[str]:
    """The invariants, plus the exact comparison when a reference exists."""
    problems = invariants(outcome)
    if reference is not None:
        problems += compare(reference, canonical(outcome))
    return problems
