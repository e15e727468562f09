"""On-disk warm-state checkpoints for sampled measurement.

The windowed sampler's one long replay is the functional-warming prologue
that produces each design's warm :class:`~repro.dramcache.base.StateSnapshot`
checkpoint.  Within one process that checkpoint already seeds every
measurement window; this module makes it survive *across* processes and
sessions by writing it next to the trace-store entry it was warmed on.  A
snapshot is plain buffers (tuples, dicts and scalars), so a checkpoint file
is those buffers in :mod:`marshal` form: no object graph is pickled, and
loading one runs no model code.

Keying and invalidation
-----------------------

A checkpoint is valid only for the exact (trace, design, prologue) it was
produced by, so the file name is a SHA-256 over:

* the **trace identity** -- :func:`repro.trace.store.trace_token`, the one
  identity every trace cache keys on (for synthetic workloads the fields
  that key the trace store, generator version included; for trace files
  the resolved path, size and mtime), or :func:`sequence_token` for a
  sequence the caller injected;
* the **design identity** -- the registry entry's stable token, the
  canonical :meth:`repro.dramcache.spec.DesignSpec.token`, so *changing any
  component or parameter of a design invalidates its stale checkpoints*;
* the **build parameters** (capacity, scale, cores, associativity) and the
  **prologue extent** (checkpoint access range);
* two versions: the snapshot-layout format version here, and
  :data:`repro.dramcache.base.MODEL_BEHAVIOR_VERSION` -- bumped whenever
  model *implementation* changes what a design computes, since the
  composition token cannot see code edits inside unchanged components.

Storage lives under ``<trace store root>/checkpoints`` by default, so the
same ``REPRO_TRACE_STORE`` switch that relocates or disables trace caching
governs checkpoints too; ``REPRO_CHECKPOINTS=0`` disables checkpoints alone.
Corrupt, unreadable, or version-mismatched files are treated as misses --
the sampler silently falls back to replaying the prologue.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.dramcache.base import StateSnapshot
from repro.obs.core import current as obs_current
from repro.trace.store import configured_root

#: Bumped whenever the stored snapshot layout changes incompatibly.
#: Version 5: flat buffers (dotted buffer names -> tuples, dicts, scalars)
#: in marshal form; random replacement keeps per-set draw counts.
#: Versions 3 and 4 held its per-set generator states instead (4 packed as
#: bytes), and versions 1 and 2 pickled component objects; their files are
#: misses.
CHECKPOINT_FORMAT_VERSION = 5

#: Environment switch: ``0``/``off``/``false`` disables the checkpoint store.
ENV_CHECKPOINTS = "REPRO_CHECKPOINTS"


def checkpoints_enabled() -> bool:
    """Whether on-disk checkpoints are enabled for this process."""
    value = os.environ.get(ENV_CHECKPOINTS, "").strip().lower()
    if value in ("0", "off", "false", "no"):
        return False
    return configured_root() is not None


def default_root() -> Optional[Path]:
    """The default checkpoint directory (inside the trace store), or None."""
    if not checkpoints_enabled():
        return None
    root = configured_root()
    return None if root is None else root / "checkpoints"


def sequence_token(trace) -> str:
    """Identity of an explicitly injected, pre-materialized access sequence.

    ``WindowedSampler.compare(..., trace=...)`` measures whatever sequence
    the caller hands it, which need not be the canonical trace of the
    (workload, config) pair -- so checkpoints for injected traces key on a
    digest over the *full* sequence content.  Any single-record difference
    changes the token.  A sampler that loads its own trace names it by
    :func:`repro.trace.store.trace_token` instead and skips the hash.  The
    token depends only on the records, not on their representation: a
    packed record array and the equal record list hash alike.
    """
    from repro.engine.trace_array import as_records

    digest = hashlib.sha256()
    for access in as_records(trace):
        digest.update(repr(tuple(access)).encode("utf-8"))
    return f"sequence:n={len(trace)};sha256={digest.hexdigest()}"


def design_token(design_name: str) -> str:
    """The registry entry's stable identity for ``design_name``.

    The token spells out the design's full component declaration, so any
    edit to its composition invalidates existing checkpoints.
    """
    from repro.sim.registry import DESIGNS

    return DESIGNS.resolve(design_name).token()


class CheckpointStore:
    """:class:`StateSnapshot` buffer files next to the trace store."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    @classmethod
    def default(cls) -> Optional["CheckpointStore"]:
        """The store at the configured location, or ``None`` if disabled."""
        root = default_root()
        return None if root is None else cls(root)

    # ------------------------------------------------------------------ #
    def key(self, *, trace: str, design: str, capacity: str, scale: int,
            num_cores: int, associativity: Optional[int],
            checkpoint_start: int, checkpoint_stop: int) -> str:
        """Content-addressed file key for one warm checkpoint."""
        from repro.dramcache.base import MODEL_BEHAVIOR_VERSION

        payload = "|".join([
            f"v{CHECKPOINT_FORMAT_VERSION}",
            f"model=v{MODEL_BEHAVIOR_VERSION}",
            trace,
            design,
            f"capacity={capacity}",
            f"scale={scale}",
            f"cores={num_cores}",
            f"assoc={associativity}",
            f"prologue={checkpoint_start}:{checkpoint_stop}",
        ])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.ckpt"

    # ------------------------------------------------------------------ #
    def load(self, key: str) -> Optional[StateSnapshot]:
        """The stored snapshot for ``key``, or ``None`` on any miss/damage."""
        path = self._path(key)
        try:
            # One read, then decode from memory: marshal.load on a file
            # object reads it piecemeal, one object at a time.
            version, design_name, state = marshal.loads(path.read_bytes())
        except (OSError, EOFError, TypeError, ValueError):
            obs_current().counter("checkpoint_misses")
            return None
        if (version != CHECKPOINT_FORMAT_VERSION
                or type(design_name) is not str or type(state) is not dict):
            obs_current().counter("checkpoint_misses")
            return None
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass
        obs_current().counter("checkpoint_hits")
        return StateSnapshot(design_name, state)

    def save(self, key: str, snapshot: StateSnapshot) -> bool:
        """Atomically persist ``snapshot``; returns False on any IO failure.

        A failed save never breaks a measurement -- the caller already holds
        the in-memory snapshot it is about to measure with.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=str(self.root),
                                            suffix=".ckpt.tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(marshal.dumps((CHECKPOINT_FORMAT_VERSION,
                                                snapshot.design_name,
                                                snapshot.state)))
                os.replace(tmp_name, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, ValueError):
            # ValueError: marshal met a non-plain value in the snapshot.
            return False
        obs_current().counter("checkpoint_saves")
        return True

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.ckpt"))
        except OSError:
            return 0

    def total_bytes(self) -> int:
        total = 0
        try:
            for path in self.root.glob("*.ckpt"):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        except OSError:
            pass
        return total

    def sweep_temps(self) -> int:
        """Delete stale ``.ckpt.tmp`` files; returns the bytes reclaimed."""
        reclaimed = 0
        try:
            for path in self.root.iterdir():
                if path.name.endswith(".ckpt.tmp"):
                    try:
                        reclaimed += path.stat().st_size
                        path.unlink()
                    except OSError:
                        pass
        except OSError:
            pass
        return reclaimed

    def entries(self) -> list:
        """``(mtime_ns, size, path)`` per checkpoint, least recent first."""
        entries = []
        try:
            for path in self.root.glob("*.ckpt"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime_ns, stat.st_size, path))
        except OSError:
            pass
        entries.sort()
        return entries

    def gc(self, max_bytes: int) -> int:
        """Evict least-recently-used checkpoints down to ``max_bytes``.

        Also sweeps stale temp files.  Returns the bytes reclaimed.
        """
        reclaimed = self.sweep_temps()
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
                total -= size
                reclaimed += size
            except OSError:
                pass
        return reclaimed


def shared_gc(trace_store, checkpoint_store, max_bytes: Optional[int]) -> dict:
    """Garbage-collect traces and checkpoints under ONE byte budget.

    Both stores live under the same root and compete for the same disk, so
    ``repro trace store gc`` treats them as one LRU pool: after each store's
    own garbage sweep (stale temps, old sidecars), entries of *either*
    kind are evicted least-recently-used-first until the combined size fits
    ``max_bytes``.  A hot checkpoint therefore survives a cold trace and
    vice versa -- the budget buys whichever bytes were used most recently.

    Returns ``{"trace_freed": ..., "checkpoint_freed": ...}``.
    """
    freed = {
        # max_bytes=None skips the trace store's own eviction pass; the
        # combined pass below is the only evictor here.
        "trace_freed": trace_store.gc(max_bytes=None),
        "checkpoint_freed": checkpoint_store.sweep_temps(),
    }
    if max_bytes is None:
        return freed
    pool = [(mtime_ns, size, "checkpoint", path)
            for mtime_ns, size, path in checkpoint_store.entries()]
    for path in trace_store.entries():
        try:
            stat = path.stat()
        except OSError:
            continue
        pool.append((stat.st_mtime_ns, stat.st_size, "trace", path))
    pool.sort(key=lambda item: (item[0], str(item[3])))
    total = sum(size for _, size, _, _ in pool)
    for _, size, kind, path in pool:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        freed[f"{kind}_freed"] += size
    return freed


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointStore",
    "checkpoints_enabled",
    "default_root",
    "design_token",
    "sequence_token",
    "shared_gc",
]
