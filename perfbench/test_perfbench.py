"""Self-test of the benchmark: its output check and its layer split.

Kept to a few seconds: the workloads run at their ``tiny`` sizes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import outputs  # noqa: E402


def _tiny_outcome(work_dir: Path):
    """One isolated tiny ``full_paper`` repetition, in this process."""
    from repro.sim.executor import clear_caches

    workload = harness.WORKLOADS["full_paper"](seed=1, tiny=True)
    previous = harness.isolate(work_dir)
    try:
        workload.setup(harness.clean_dir(work_dir / "store"))
        return workload.run(work_dir / "queue")
    finally:
        harness.restore_env(previous)
        clear_caches()


def test_output_check_fails_on_one_perturbed_statistic(tmp_path):
    outcome = _tiny_outcome(tmp_path)
    reference = outputs.canonical(outcome)
    assert outputs.check(outcome, reference) == []

    key, result = outcome.cells[2]
    result.miss_ratio = math.nextafter(result.miss_ratio, 0.0)
    problems = outputs.check(outcome, reference)
    assert len(problems) == 1
    assert problems[0].startswith(f"cell {key}: miss_ratio = ")


def test_a_failing_cell_is_counted_and_the_rest_still_run(tmp_path,
                                                        monkeypatch):
    from repro.sim import executor

    run_trial = executor.run_trial

    def failing(trial):
        if trial.design == "alloy" and trial.workload.name == "Web Search":
            raise RuntimeError("injected failure")
        return run_trial(trial)

    monkeypatch.setattr(executor, "run_trial", failing)
    outcome = _tiny_outcome(tmp_path)
    assert (outcome.failed_cells, outcome.attempted_cells) == (1, 6)
    assert len(outcome.cells) == 5
    assert outputs.invariants(outcome) == [
        "cell alloy|Web Search|1GB: planned but missing"]


def test_shipped_reference_detects_a_perturbed_extra():
    data = json.loads(outputs.reference_path("sampled_paper").read_text())
    reference = data["seeds"]["1"]
    actual = json.loads(json.dumps(reference))
    assert outputs.compare(reference, actual) == []
    key = sorted(actual["cells"])[0]
    fraction = float(actual["cells"][key]["extra"]["sampling_fraction"])
    actual["cells"][key]["extra"]["sampling_fraction"] = repr(
        math.nextafter(fraction, 0.0))
    assert outputs.compare(reference, actual) == [
        f"cell {key}: extra = {actual['cells'][key]['extra']!r}, "
        f"reference {reference['cells'][key]['extra']!r}"]


def _traced_tiny(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_layer_split_matches_each_workloads_purpose():
    full = _traced_tiny("full_paper")
    assert full["sampling.restores"] == 0
    assert full["queue.jobs"] == 0
    assert full["dram.accesses"] > 0
    tune = _traced_tiny("tune_queue")
    assert tune["engine.scalar_calls"] > 0
    assert tune["queue.jobs"] > 0
    assert tune["queue.failed_jobs"] == 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
