"""Spans around the package's layer boundaries, recorded from outside it.

:class:`Tracer` wraps public methods and module functions of ``repro`` for
the duration of one traced repetition and restores them afterwards.  Each
wrapped call records a span: its name, start, end, the enclosing span in the
same process, and the cell (sweep trial) it belongs to.  Counts are taken at
the same boundaries.  ``DramController.access`` runs hundreds of thousands
of times per sweep, so it is not kept span by span: its time and count are
added to the enclosing span's child time (which makes the parent's self
time exclude DRAM timing) and to the ``dram`` totals.

Spans live in memory per process.  A queue worker forked during the traced
repetition inherits the wrappers, starts its own empty span list, and writes
it to ``spill_dir`` when ``repro.queue.worker.work`` returns; the parent
merges those files into :meth:`Tracer.metrics`.

The boundaries, their layer, and what each layer should move on which
workload are listed in DESIGN.md.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Per-layer metric name -> unit, in report order.  Every traced run reports
#: every one of them (0 where a workload does not reach the layer).
METRICS = {
    "trace.store_load_s": "s",
    "trace.store_loads": "count",
    "trace.window_read_s": "s",
    "trace.window_reads": "count",
    "trace.self_s": "s",
    "engine.warm_s": "s",
    "engine.warm_accesses": "count",
    "engine.batch_calls": "count",
    "engine.scalar_calls": "count",
    "engine.batch_access_share": "ratio",
    "engine.batch_accesses_per_s": "1/s",
    "engine.scalar_accesses_per_s": "1/s",
    "engine.self_s": "s",
    "sampling.restore_s": "s",
    "sampling.restores": "count",
    "sampling.restore_share": "ratio",
    "sampling.snapshot_s": "s",
    "sampling.snapshots": "count",
    "sampling.checkpoint_load_s": "s",
    "sampling.checkpoint_hits": "count",
    "sampling.checkpoint_misses": "count",
    "sampling.checkpoint_save_s": "s",
    "sampling.checkpoint_bytes": "bytes",
    "sampling.windows": "count",
    "sampling.self_s": "s",
    "dramcache.replay_s": "s",
    "dramcache.replay_accesses": "count",
    "dramcache.self_s": "s",
    "baseline.replay_s": "s",
    "baseline.replay_accesses": "count",
    "baseline.self_s": "s",
    "dram.accesses": "count",
    "dram.access_s": "s",
    "queue.jobs": "count",
    "queue.failed_jobs": "count",
    "queue.lease_s": "s",
    "queue.complete_s": "s",
    "queue.exec_s": "s",
    "queue.worker_wall_s": "s",
    "queue.worker_idle_s": "s",
    "queue.assemble_s": "s",
    "queue.self_s": "s",
    "sim.cells": "count",
    "sim.cell_s_p50": "s",
    "sim.cell_s_max": "s",
    "sim.self_s": "s",
    "search.rung_s": "s",
    "search.frontier_s": "s",
    "search.self_s": "s",
    "bench.untraced_sweep_s": "s",
    "bench.traced_sweep_s": "s",
    "bench.tracing_overhead_s": "s",
    "bench.tracing_overhead_ratio": "ratio",
}

#: Layers whose self time is reported (``dram`` is all self time already).
SELF_TIME_LAYERS = ("trace", "engine", "sampling", "dramcache", "baseline",
                    "queue", "sim", "search")


def _length(_, items, *rest, **kwargs) -> int:
    """Work of a call taking a sequence of accesses first."""
    return len(items) if hasattr(items, "__len__") else 0


def _span_length(_, start, stop, *rest, **kwargs) -> int:
    return stop - start


def _trial_cell(trial, *rest, **kwargs) -> str:
    return trial.describe()


def _windows_cell(trial, indices, *rest, **kwargs) -> str:
    return f"{trial.describe()} windows {list(indices)}"


class Tracer:
    """In-memory spans of one traced repetition (one per process)."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.stack: List[int] = []
        #: [DRAM seconds, DRAM calls] over the whole process.
        self.dram = [0.0, 0]
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def open(self, name: str, cell: Optional[str] = None) -> dict:
        parent = self.stack[-1] if self.stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        span = {"name": name, "pid": self.pid, "parent": parent,
                "cell": cell, "start": time.perf_counter(), "end": None,
                "child_s": 0.0, "n": 0, "tag": None}
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        if span["parent"] is not None:
            self.spans[span["parent"]]["child_s"] += span["end"] - span["start"]

    def _start_child_process(self) -> None:
        """A forked worker keeps the wrappers but none of the parent's spans."""
        self.pid = os.getpid()
        del self.spans[:]
        del self.stack[:]
        self.dram[0], self.dram[1] = 0.0, 0

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"spans": self.spans, "dram": self.dram}))

    def all_spans(self) -> "tuple[List[dict], List[float]]":
        """This process's spans plus every spilled worker's."""
        spans = list(self.spans)
        dram = list(self.dram)
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            spans.extend(data["spans"])
            dram[0] += data["dram"][0]
            dram[1] += data["dram"][1]
        return spans, dram

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, wrapper: Callable,
               original: Callable) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def spanned(self, owner, attr: str, name: str,
                count: Optional[Callable] = None,
                tag: Optional[Callable] = None,
                cell: Optional[Callable] = None,
                original: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` so every call records a ``name`` span."""
        original = original or getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name, cell(*args, **kwargs) if cell else None)
            if count is not None:
                span["n"] = count(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if tag is not None:
                span["tag"] = tag(result)
            return result

        self._patch(owner, attr, wrapper, original)

    def _leaf_dram(self, owner, attr: str) -> None:
        original = getattr(owner, attr)
        spans, stack, dram = self.spans, self.stack, self.dram
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                dram[0] += elapsed
                dram[1] += 1
                if stack:
                    spans[stack[-1]]["child_s"] += elapsed

        self._patch(owner, attr, wrapper, original)

    def _worker_loop(self, module) -> None:
        original = module.work
        tracer = self
        parent_pid = self.pid

        def wrapper(*args, **kwargs):
            forked = os.getpid() != parent_pid
            if forked:
                tracer._start_child_process()
            span = tracer.open("queue.worker")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)
                if forked:
                    tracer._spill()

        self._patch(module, "work", wrapper, original)

    def install(self) -> None:
        """Wrap every boundary listed in DESIGN.md."""
        from repro.baselines.no_cache import NoDramCache
        from repro.dram.controller import DramController
        from repro.dramcache.base import DramCacheModel
        from repro.queue import worker
        from repro.queue.jobstore import JobStore
        from repro.queue.service import SweepService
        from repro.sampling.checkpoints import CheckpointStore
        from repro.sampling.seekable import FileWindows, InMemoryWindows
        from repro.search.driver import TuneSearch
        from repro.sim import executor
        from repro.trace.store import TraceStore

        replay = DramCacheModel.run
        self.spanned(TraceStore, "load", "trace.store_load")
        for provider in (InMemoryWindows, FileWindows):
            self.spanned(provider, "read", "trace.window_read",
                         count=_span_length)
            self.spanned(provider, "read_array", "trace.window_read",
                         count=_span_length)
        self.spanned(DramCacheModel, "warm_up_array", "engine.warm",
                     count=_length, tag=lambda engine: engine)
        self.spanned(DramCacheModel, "restore_state", "sampling.restore")
        self.spanned(DramCacheModel, "snapshot_state", "sampling.snapshot")
        self.spanned(CheckpointStore, "load", "sampling.checkpoint_load",
                     tag=lambda snapshot: snapshot is not None)
        self.spanned(CheckpointStore, "save", "sampling.checkpoint_save")
        self.spanned(DramCacheModel, "run", "dramcache.replay",
                     count=_length, original=replay)
        # NoDramCache inherits run(); its own attribute shadows the wrapper
        # above so baseline replays land in their own layer.
        self.spanned(NoDramCache, "run", "baseline.replay",
                     count=_length, original=replay)
        self._leaf_dram(DramController, "access")
        self.spanned(JobStore, "lease", "queue.lease")
        self.spanned(JobStore, "complete", "queue.complete")
        self.spanned(worker, "execute_job", "queue.exec")
        self._worker_loop(worker)
        self.spanned(SweepService, "assemble", "queue.assemble")
        self.spanned(executor, "run_trial", "sim.cell", cell=_trial_cell)
        self.spanned(executor, "run_trial_windows", "sim.cell",
                     cell=_windows_cell)
        self.spanned(SweepService, "run", "search.rung")
        self.spanned(TuneSearch, "build_frontier", "search.frontier")

    def uninstall(self) -> None:
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Per-layer metrics
    # ------------------------------------------------------------------ #
    def metrics(self, sweep_s: float, failed_jobs: int,
                checkpoint_bytes: int) -> Dict[str, float]:
        """Every :data:`METRICS` entry except the ``bench.*`` ones."""
        spans, dram = self.all_spans()
        by_name: Dict[str, List[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        def spans_of(name):
            return by_name.get(name, [])

        def total(name):
            return sum(s["end"] - s["start"] for s in spans_of(name))

        def calls(name):
            return len(spans_of(name))

        def work(name, tag=None):
            return sum(s["n"] for s in spans_of(name)
                       if tag is None or s["tag"] == tag)

        def per_s(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        self_s: Dict[str, float] = {layer: 0.0 for layer in SELF_TIME_LAYERS}
        for span in spans:
            layer = span["name"].split(".")[0]
            if layer in self_s:
                self_s[layer] += span["end"] - span["start"] - span["child_s"]

        warm = spans_of("engine.warm")
        batch = [s for s in warm if s["tag"] == "batch"]
        scalar = [s for s in warm if s["tag"] == "scalar"]
        batch_n = sum(s["n"] for s in batch)
        scalar_n = sum(s["n"] for s in scalar)
        batch_s = sum(s["end"] - s["start"] for s in batch)
        scalar_s = sum(s["end"] - s["start"] for s in scalar)
        hits = sum(1 for s in spans_of("sampling.checkpoint_load")
                   if s["tag"])
        loads = calls("sampling.checkpoint_load")
        cells = [s["end"] - s["start"] for s in spans_of("sim.cell")]
        worker_wall = total("queue.worker")
        queue_busy = (total("queue.exec") + total("queue.lease")
                      + total("queue.complete"))

        metrics = {
            "trace.store_load_s": total("trace.store_load"),
            "trace.store_loads": calls("trace.store_load"),
            "trace.window_read_s": total("trace.window_read"),
            "trace.window_reads": calls("trace.window_read"),
            "engine.warm_s": total("engine.warm"),
            "engine.warm_accesses": batch_n + scalar_n,
            "engine.batch_calls": len(batch),
            "engine.scalar_calls": len(scalar),
            "engine.batch_access_share": per_s(batch_n, batch_n + scalar_n),
            "engine.batch_accesses_per_s": per_s(batch_n, batch_s),
            "engine.scalar_accesses_per_s": per_s(scalar_n, scalar_s),
            "sampling.restore_s": total("sampling.restore"),
            "sampling.restores": calls("sampling.restore"),
            "sampling.restore_share": per_s(total("sampling.restore"),
                                            sweep_s),
            "sampling.snapshot_s": total("sampling.snapshot"),
            "sampling.snapshots": calls("sampling.snapshot"),
            "sampling.checkpoint_load_s": total("sampling.checkpoint_load"),
            "sampling.checkpoint_hits": hits,
            "sampling.checkpoint_misses": loads - hits,
            "sampling.checkpoint_save_s": total("sampling.checkpoint_save"),
            "sampling.checkpoint_bytes": checkpoint_bytes,
            # Every restore rewinds a design for one window, except the one
            # that installs a checkpoint loaded from the store.
            "sampling.windows": calls("sampling.restore") - hits,
            "dramcache.replay_s": total("dramcache.replay"),
            "dramcache.replay_accesses": work("dramcache.replay"),
            "baseline.replay_s": total("baseline.replay"),
            "baseline.replay_accesses": work("baseline.replay"),
            "dram.accesses": dram[1],
            "dram.access_s": dram[0],
            "queue.jobs": calls("queue.exec"),
            "queue.failed_jobs": failed_jobs,
            "queue.lease_s": total("queue.lease"),
            "queue.complete_s": total("queue.complete"),
            "queue.exec_s": total("queue.exec"),
            "queue.worker_wall_s": worker_wall,
            "queue.worker_idle_s": worker_wall - queue_busy,
            "queue.assemble_s": total("queue.assemble"),
            "sim.cells": len(cells),
            "sim.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "sim.cell_s_max": max(cells, default=0.0),
            "search.rung_s": total("search.rung"),
            "search.frontier_s": total("search.frontier"),
        }
        for layer, seconds in self_s.items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics
