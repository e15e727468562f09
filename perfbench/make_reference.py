"""Regenerate the benchmark's stored reference outputs.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py --seeds 0-19

For every workload and seed, one repetition runs with the scalar warming
engine (``REPRO_BATCH=0``, the reference oracle) and one with the default
batch engine, each in its own process and private stores.  The two
canonical outputs must match byte for byte and pass the invariants; the
scalar one is then stored in ``reference/<workload>.json`` next to the
workload sizes it was made for (existing seeds of other runs are kept).
Any mismatch writes nothing and exits non-zero.

Regenerate whenever a workload's sizes change, or when a change to the
package is meant to change simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent

HOW = ("One repetition per seed with REPRO_BATCH=0 (scalar warming), "
       "confirmed byte-identical to one with the default batch engine, "
       "each in a fresh process with private stores; made by "
       "make_reference.py.")


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def emit(workload_name: str, seed: int, batch: bool) -> None:
    """Child mode: one isolated repetition; print its canonical output."""
    sys.path.insert(0, str(HERE))
    import run

    run.import_package()
    import harness
    import outputs
    from repro.sim.executor import clear_caches

    workload = harness.WORKLOADS[workload_name](seed)
    work_dir = run.ROOT / ".perfbench-work" / f"ref-{os.getpid()}"
    previous = harness.isolate(work_dir, batch=batch)
    try:
        workload.setup(harness.clean_dir(work_dir / "store"))
        clear_caches()
        outcome = workload.run(work_dir / "queue")
    finally:
        harness.restore_env(previous)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    problems = outputs.invariants(outcome) + outcome.errors
    if problems:
        sys.exit("; ".join(problems))
    print(json.dumps({"fingerprint": workload.fingerprint(),
                      "output": outputs.canonical(outcome)}, sort_keys=True))


def _child(workload: str, seed: int, batch: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", workload, str(seed),
         "1" if batch else "0"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} batch={batch}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make(workload: str, seed: int) -> dict:
    scalar = _child(workload, seed, batch=False)
    batch = _child(workload, seed, batch=True)
    if json.dumps(scalar, sort_keys=True) != json.dumps(batch, sort_keys=True):
        raise RuntimeError(f"{workload} seed {seed}: the batch engine's "
                           f"output differs from the scalar reference")
    return scalar


def write(workload: str, made: dict) -> Path:
    sys.path.insert(0, str(HERE))
    import outputs

    path = outputs.reference_path(workload)
    fingerprints = {json.dumps(m["fingerprint"], sort_keys=True)
                    for m in made.values()}
    if len(fingerprints) != 1:
        raise RuntimeError(f"{workload}: seeds made at different sizes")
    fingerprint = next(iter(made.values()))["fingerprint"]
    seeds = {}
    if path.is_file():
        old = json.loads(path.read_text())
        if old["fingerprint"] == fingerprint:
            seeds = old["seeds"]
    seeds.update({str(seed): m["output"] for seed, m in made.items()})
    path.parent.mkdir(exist_ok=True)
    # One seed per line keeps the file compact and its diffs readable.
    lines = [f"  {json.dumps(key)}: {json.dumps(seeds[key], sort_keys=True)}"
             for key in sorted(seeds, key=int)]
    path.write_text(
        "{\n"
        f"  \"how\": {json.dumps(HOW)},\n"
        f"  \"fingerprint\": {json.dumps(fingerprint, sort_keys=True)},\n"
        "  \"seeds\": {\n  " + ",\n  ".join(lines) + "\n  }\n}\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-19",
                        help="seeds, e.g. 0-19 or 1,3,5")
    parser.add_argument("--workloads", nargs="+",
                        default=["sampled_paper", "full_paper", "tune_queue"])
    parser.add_argument("--jobs", type=int, default=1,
                        help="(workload, seed) pairs made concurrently")
    parser.add_argument("--emit", nargs=3, metavar=("WORKLOAD", "SEED",
                                                    "BATCH"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit[0], int(args.emit[1]), args.emit[2] == "1")
        return 0
    pairs = [(w, s) for w in args.workloads for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        made = list(pool.map(lambda pair: make(*pair), pairs))
    for workload in args.workloads:
        path = write(workload, {seed: m for (w, seed), m in zip(pairs, made)
                                if w == workload})
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
