"""On-disk trace store: generate every synthetic trace once, ever.

A :class:`TraceStore` is a content-addressed directory of binary traces
(:mod:`repro.trace.binfmt`) keyed by the full identity of a synthetic trace:
``(profile, scale, num_cores, seed, num_accesses)`` plus the generator
algorithm version (:data:`repro.workloads.generator.GENERATOR_VERSION`).
Because synthetic traces are deterministic functions of that key, a store
entry is interchangeable with regeneration -- so sweeps, queue workers,
benchmark sessions, and CI runs all share one copy per distinct trace instead
of regenerating it (generation dominates sweep wall-clock; loading the binary
form is several times faster).

Layout and lifecycle:

* Location: the ``REPRO_TRACE_STORE`` environment variable, else
  ``$XDG_CACHE_HOME/repro/traces`` (``~/.cache/repro/traces``).  Setting
  ``REPRO_TRACE_STORE`` to ``off``/``none``/``0`` disables the store
  (the executor then falls back to in-memory generation only).
* Writes are atomic (temp file + :func:`os.replace`), so concurrent sweeps
  and workers can share a store directory without coordination; when
  two processes race to create the same entry, both write identical bytes
  and the last rename wins.
* Keys embed a hash of every profile field and the generator version, so a
  change to a workload's statistics or to the generator algorithm can never
  replay a stale trace.
* ``max_bytes`` budget: least-recently-*used* entries (load hits refresh an
  entry's mtime) are evicted after each write.  The default budget is
  :data:`DEFAULT_MAX_BYTES` (override with the ``REPRO_TRACE_STORE_BYTES``
  environment variable; ``0``/``none``/``unlimited`` disables the budget), so
  a long-lived dev machine can no longer grow the store without bound.
* Reads and writes move the packed records themselves: :meth:`TraceStore.load`
  returns one :data:`~repro.trace.binfmt.RECORD_DTYPE` numpy array made
  with ``np.frombuffer`` over the decompressed payload, and
  :meth:`TraceStore.put_chunks` writes the generator's record arrays as
  they come (``collect=True`` returns them joined).  No per-record
  :class:`MemoryAccess` is built on either path.
* Entries are gzipped at :data:`COMPRESSLEVEL` (3), not the writer's
  default 6: on synthetic traces it compresses about three times faster
  for files a few percent larger, and decompression is no slower.
* Each entry's chunk-index sidecar (``.rptr.rpti``, see
  :class:`repro.trace.binfmt.ChunkIndex`) lives and dies with the entry:
  written through the same atomic rename, removed by eviction, counted by
  the budget.  ``store.gc()`` additionally sweeps orphaned sidecars and
  stale temp files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

import numpy as np

from repro.obs.core import current as obs_current
from repro.trace.binfmt import (INDEX_SUFFIX, RECORD_DTYPE,
                                BinaryTraceReader, BinaryTraceWriter,
                                index_path_for, read_header)
from repro.trace.errors import TraceFormatError
from repro.trace.record import MemoryAccess
from repro.utils.units import parse_size
from repro.workloads.generator import GENERATOR_VERSION
from repro.workloads.profile import WorkloadProfile

PathLike = Union[str, Path]

#: Gzip level of store entries (the generate-and-store path is write-bound;
#: ``repro trace gen``/``convert`` keep the writer's default level).
COMPRESSLEVEL = 3

#: ``REPRO_TRACE_STORE`` values that disable the store entirely.
DISABLE_VALUES = frozenset({"off", "none", "0", "disabled", "no"})

#: Environment variable overriding the store directory (or disabling it).
ENV_VAR = "REPRO_TRACE_STORE"

#: Environment variable overriding the default size budget (a size string;
#: ``0``/``none``/``unlimited`` means no budget).
BYTES_ENV_VAR = "REPRO_TRACE_STORE_BYTES"

#: Default size budget of a store (2 GiB): large enough that benchmark and
#: sweep working sets never thrash, small enough that a dev machine's cache
#: directory stays bounded.
DEFAULT_MAX_BYTES = 2 * 1024 ** 3

_SUFFIX = ".rptr"

#: Temp files younger than this are presumed to belong to a live writer and
#: are never swept by :meth:`TraceStore.gc`.
_STALE_TMP_SECONDS = 60 * 60

#: Sentinel distinguishing "use the default budget" from an explicit None.
_BUDGET_UNSET = object()


def default_root() -> Path:
    """The default store directory (XDG cache convention)."""
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "traces"


def configured_root() -> Optional[Path]:
    """The store directory per the environment; ``None`` when disabled."""
    value = os.environ.get(ENV_VAR, "").strip()
    if value.lower() in DISABLE_VALUES and value != "":
        return None
    if value:
        return Path(value)
    return default_root()


def default_max_bytes() -> Optional[int]:
    """The store budget per the environment; ``None`` means unlimited.

    A malformed ``REPRO_TRACE_STORE_BYTES`` falls back to the default
    budget: a bad environment variable must never crash sweeps (the store
    is an optional cache, and the conservative reading of a broken budget
    is "budgeted").
    """
    value = os.environ.get(BYTES_ENV_VAR, "").strip()
    if not value:
        return DEFAULT_MAX_BYTES
    if value.lower() in DISABLE_VALUES or value.lower() == "unlimited":
        return None
    try:
        budget = parse_size(value)
    except ValueError:
        return DEFAULT_MAX_BYTES
    return budget if budget > 0 else None


def trace_key_string(profile: WorkloadProfile, scale: int, num_cores: int,
                     seed: int, num_accesses: int) -> str:
    """The canonical, human-readable identity string of a synthetic trace.

    Every profile field participates (sizes normalized to bytes), plus the
    generator version and the run parameters; the store key is a hash of
    this string.
    """
    parts = [f"generator=v{GENERATOR_VERSION}"]
    for field in dataclasses.fields(profile):
        value = getattr(profile, field.name)
        if field.name == "working_set":
            value = parse_size(value)
        parts.append(f"{field.name}={value!r}")
    parts.append(f"scale={scale}")
    parts.append(f"num_cores={num_cores}")
    parts.append(f"seed={seed}")
    parts.append(f"num_accesses={num_accesses}")
    return "|".join(parts)


@dataclass
class StoreStats:
    """Counters of one :class:`TraceStore` instance's activity."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0


class TraceStore:
    """A directory of binary traces shared across processes and runs.

    Parameters
    ----------
    root:
        Store directory; defaults to :func:`configured_root` (and raises
        ``ValueError`` if the environment disabled the store).
    max_bytes:
        Size budget; exceeding it after a write evicts least-recently-used
        entries until back under budget.  Defaults to
        :func:`default_max_bytes` (the ``REPRO_TRACE_STORE_BYTES``
        environment variable, else :data:`DEFAULT_MAX_BYTES`); pass ``None``
        for an explicitly unbounded store.
    compress:
        Gzip new entries (recommended; ~6x smaller).
    """

    def __init__(self, root: Optional[PathLike] = None,
                 max_bytes=_BUDGET_UNSET,
                 compress: bool = True) -> None:
        if root is None:
            root = configured_root()
            if root is None:
                raise ValueError(
                    f"trace store disabled via {ENV_VAR}; pass an explicit "
                    f"root to force one"
                )
        self.root = Path(root)
        if max_bytes is _BUDGET_UNSET:
            max_bytes = default_max_bytes()
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_bytes = max_bytes
        self.compress = compress
        self.stats = StoreStats()

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    def key(self, profile: WorkloadProfile, scale: int, num_cores: int,
            seed: int, num_accesses: int) -> str:
        """The store key (filename stem) for one synthetic trace identity."""
        identity = trace_key_string(profile, scale, num_cores, seed,
                                    num_accesses)
        digest = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:32]
        slug = re.sub(r"[^a-z0-9]+", "-", profile.name.lower()).strip("-")
        return f"{slug or 'trace'}-{digest}"

    def path_for(self, key: str) -> Path:
        """The file a given key is (or would be) stored at."""
        return self.root / f"{key}{_SUFFIX}"

    def contains(self, key: str) -> bool:
        """True when the store holds an entry for ``key``."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #
    def open_reader(self, key: str) -> Optional[BinaryTraceReader]:
        """A streaming reader for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency (LRU eviction order).
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            obs_current().counter("trace_store_misses")
            return None
        try:
            read_header(path)  # reject corrupt/foreign files up front
        except TraceFormatError:
            self.stats.misses += 1
            obs_current().counter("trace_store_misses")
            self._unlink_entry(path)
            return None
        self.stats.hits += 1
        obs_current().counter("trace_store_hits")
        os.utime(path)
        return BinaryTraceReader(path)

    def load(self, key: str) -> Optional[np.ndarray]:
        """The trace stored under ``key`` as one packed record array.

        Returns a :data:`~repro.trace.binfmt.RECORD_DTYPE` array over the
        decompressed payload (``np.frombuffer``: no per-record decode), or
        ``None`` on a miss.  An entry whose *payload* turns out to be
        corrupt (truncated gzip stream, a partial record, an access-type
        code no record can hold, fewer records than the header promises --
        e.g. a partially copied store directory) is quarantined like a
        header-level corruption: the file is dropped and the lookup counts
        as a miss, so callers regenerate instead of crashing.
        """
        reader = self.open_reader(key)
        if reader is None:
            return None
        try:
            trace = reader.read_all_array()
            if len(trace) != reader.info().access_count:
                raise ValueError("payload record count disagrees with the "
                                 "header's access count")
            return trace
        except (OSError, EOFError, ValueError, IndexError, zlib.error):
            self.stats.hits -= 1
            self.stats.misses += 1
            obs_current().counter("trace_store_hits", -1)
            obs_current().counter("trace_store_misses")
            self._unlink_entry(self.path_for(key))
            return None

    # ------------------------------------------------------------------ #
    # Write side
    # ------------------------------------------------------------------ #
    def put_chunks(self, key: str,
                   chunks: Iterable[np.ndarray],
                   num_cores: int = 0,
                   collect: bool = False) -> Optional[np.ndarray]:
        """Stream packed record arrays into the store entry for ``key``.

        ``chunks`` are :data:`~repro.trace.binfmt.RECORD_DTYPE` arrays (what
        :meth:`SyntheticWorkload.iter_chunks` yields), each written byte for
        byte as it arrives.  The entry is written to a temp file and
        atomically renamed, so readers never observe partial traces.  With
        ``collect=True`` the arrays are also returned joined into one -- the
        same array a later :meth:`load` returns (the executor's
        write-through path: one pass generates, persists, and materializes).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(key)
        tmp = final.with_suffix(f"{_SUFFIX}.tmp.{os.getpid()}")
        collected: Optional[List[np.ndarray]] = [] if collect else None
        try:
            with BinaryTraceWriter(tmp, num_cores=num_cores,
                                   compress=self.compress,
                                   compresslevel=COMPRESSLEVEL) as writer:
                for chunk in chunks:
                    if collected is not None:
                        collected.append(chunk)
                    writer.write_all(chunk)
            os.replace(tmp, final)
            # The chunk-index sidecar follows its entry through the rename
            # (readers validate it against the trace header, so a lost or
            # torn sidecar is only ever a reconstruction, never corruption).
            if index_path_for(tmp).exists():
                os.replace(index_path_for(tmp), index_path_for(final))
        finally:
            tmp.unlink(missing_ok=True)
            index_path_for(tmp).unlink(missing_ok=True)
        self.stats.writes += 1
        obs_current().counter("trace_store_writes")
        self._evict_over_budget(protect=final)
        if collected is None:
            return None
        return (np.concatenate(collected) if collected
                else np.empty(0, dtype=RECORD_DTYPE))

    def put(self, key: str, accesses: Iterable[MemoryAccess],
            num_cores: int = 0) -> Path:
        """Store a whole access stream under ``key``; returns its path."""
        self.put_chunks(key, [list(accesses)], num_cores=num_cores)
        return self.path_for(key)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def entries(self) -> List[Path]:
        """All store entries, least recently used first."""
        if not self.root.exists():
            return []
        files = [p for p in self.root.glob(f"*{_SUFFIX}") if p.is_file()]
        return sorted(files, key=lambda p: (p.stat().st_mtime, p.name))

    def __len__(self) -> int:
        return len(self.entries())

    @staticmethod
    def _entry_bytes(path: Path) -> int:
        """Size of one entry plus its chunk-index sidecar (if any)."""
        total = path.stat().st_size
        sidecar = index_path_for(path)
        if sidecar.exists():
            total += sidecar.stat().st_size
        return total

    def _unlink_entry(self, path: Path) -> int:
        """Remove one entry and its sidecar; returns bytes freed."""
        freed = 0
        for victim in (path, index_path_for(path)):
            try:
                freed += victim.stat().st_size
            except OSError:
                continue
            victim.unlink(missing_ok=True)
        return freed

    def total_bytes(self) -> int:
        """Bytes currently occupied by store entries and their sidecars."""
        return sum(self._entry_bytes(p) for p in self.entries())

    def _evict_over_budget(self, protect: Optional[Path] = None) -> int:
        if self.max_bytes is None:
            return 0
        entries = self.entries()
        total = sum(self._entry_bytes(p) for p in entries)
        freed = 0
        for path in entries:
            if total <= self.max_bytes:
                break
            if protect is not None and path == protect:
                continue
            reclaimed = self._unlink_entry(path)
            total -= reclaimed
            freed += reclaimed
            self.stats.evictions += 1
        return freed

    def evict_to(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Returns the number of bytes reclaimed.
        """
        previous = self.max_bytes
        self.max_bytes = max_bytes
        try:
            return self._evict_over_budget()
        finally:
            self.max_bytes = previous

    def gc(self, max_bytes=_BUDGET_UNSET) -> int:
        """Collect garbage; returns the number of bytes reclaimed.

        Three passes: (1) stale temp files from crashed writers (only
        files older than an hour -- a younger temp may belong to a live
        writer mid-``put_chunks``, whose ``os.replace`` must not be pulled
        out from under it), (2) orphaned chunk-index sidecars whose trace
        entry is gone, (3) LRU eviction down to ``max_bytes`` (defaulting
        to the store's own budget; pass ``None`` to skip the eviction
        pass).
        """
        if max_bytes is _BUDGET_UNSET:
            max_bytes = self.max_bytes
        freed = 0
        if self.root.exists():
            now = time.time()
            for stale in self.root.glob(f"*{_SUFFIX}.tmp.*"):
                try:
                    stat = stale.stat()
                    if now - stat.st_mtime < _STALE_TMP_SECONDS:
                        continue
                    stale.unlink()
                    freed += stat.st_size
                except OSError:
                    continue
            entry_names = {p.name for p in self.root.glob(f"*{_SUFFIX}")}
            for sidecar in self.root.glob(f"*{_SUFFIX}{INDEX_SUFFIX}"):
                if sidecar.name[:-len(INDEX_SUFFIX)] not in entry_names:
                    try:
                        freed += sidecar.stat().st_size
                        sidecar.unlink()
                    except OSError:
                        continue
        if max_bytes is not None:
            freed += self.evict_to(max_bytes)
        return freed

    def clear(self) -> int:
        """Remove every entry (and its sidecar); returns the number removed."""
        removed = 0
        for path in self.entries():
            self._unlink_entry(path)
            removed += 1
        return removed


__all__ = [
    "BYTES_ENV_VAR",
    "DEFAULT_MAX_BYTES",
    "DISABLE_VALUES",
    "ENV_VAR",
    "StoreStats",
    "TraceStore",
    "configured_root",
    "default_max_bytes",
    "default_root",
    "trace_key_string",
]
