#!/usr/bin/env python3
"""Tour of durable work-queue sweeps: submit, crash, resume, archive.

Walks the full lifecycle of a queue-backed sweep and demonstrates every
durability guarantee the subsystem makes:

1. plan a sweep into idempotent on-disk jobs (``SweepService.submit``) --
   sampled cells decompose into window-batch jobs, and a full-replay cell
   is one job (its one window);
2. start a standalone worker process (the same thing ``repro queue work``
   runs), let it finish part of the sweep, and ``kill -9`` it mid-job;
3. resume: dead leases are reclaimed instantly, only unfinished jobs run,
   and the assembled ResultSet is bit-identical to a serial
   ``SweepExecutor(workers=1)`` run of the same spec;
4. re-run the sweep: the result archive answers without simulating
   anything, and re-submitting adds zero jobs.

The tour isolates itself in a temporary trace-store root so it never
touches (or depends on) your real caches.

Usage::

    python examples/queue_sweep_tour.py [--accesses 12000]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=12_000)
    parser.add_argument("--scale", type=int, default=2048)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-queue-tour-") as root:
        os.environ["REPRO_TRACE_STORE"] = root

        from repro import ExperimentConfig, SamplingConfig, SweepSpec
        from repro.queue import SweepService
        from repro.sim.executor import SweepExecutor

        spec = SweepSpec(
            designs=("unison", "alloy"),
            workloads=("Web Search",),
            capacities=("512MB",),
            config=ExperimentConfig(scale=args.scale,
                                    num_accesses=args.accesses),
            sampling=SamplingConfig(window_accesses=400, max_windows=24,
                                    min_windows=4),
        )

        print("== 1. reference: serial in-memory sweep ==")
        serial = SweepExecutor(workers=1).run(spec)
        print(serial.table())

        print("\n== 2. plan the same sweep into durable jobs ==")
        service = SweepService()
        outcome = service.submit(spec)
        print(f"sweep {outcome.token}")
        print(f"  {outcome.total_jobs} jobs for {outcome.total_trials} "
              f"trials (sampled cells decompose into window batches)")
        print(f"  job store: {service.db_path}")

        print("\n== 3. start a worker, then kill -9 it mid-sweep ==")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "queue", "work",
             "--throttle", "0.5"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            while True:
                with service.store() as store:
                    counts = store.counts(outcome.token)
                if 1 <= counts["done"] < outcome.total_jobs:
                    break
                if worker.poll() is not None:
                    break  # tiny sweep drained before we could kill
                time.sleep(0.05)
            if worker.poll() is None:
                os.kill(worker.pid, signal.SIGKILL)
                print(f"  SIGKILLed worker {worker.pid} after "
                      f"{counts['done']}/{outcome.total_jobs} jobs "
                      f"({counts['leased']} in flight)")
        finally:
            worker.wait()

        print("\n== 4. resume: reclaim the dead lease, finish, assemble ==")
        resumed = service.run(spec)
        with service.store() as store:
            timing = store.timing(outcome.token)
        print(f"  {timing['attempts']} attempts over "
              f"{timing['jobs_timed']} jobs "
              f"(pre-kill completions were not re-run)")
        print(f"  bit-identical to serial: {resumed == serial}")

        print("\n== 5. re-run: the archive answers, zero jobs execute ==")
        start = time.perf_counter()
        archived = service.run(spec)
        elapsed = time.perf_counter() - start
        again = service.submit(spec)
        print(f"  re-submit created {again.new_jobs} new jobs")
        print(f"  archived ResultSet returned in {elapsed * 1000:.1f} ms, "
              f"identical: {archived == serial}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
