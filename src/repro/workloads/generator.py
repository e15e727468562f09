"""Synthetic L2-miss-stream generator.

:class:`SyntheticWorkload` turns a :class:`~repro.workloads.profile.WorkloadProfile`
into a deterministic, reproducible access stream that statistically matches
the workload's description.  The stream is produced directly as packed
:data:`~repro.trace.binfmt.RECORD_DTYPE` arrays (:meth:`SyntheticWorkload.iter_chunks`),
the form the trace store writes and the engines replay;
:meth:`~SyntheticWorkload.accesses` and :meth:`~SyntheticWorkload.generate`
are :class:`~repro.trace.record.MemoryAccess` views over those arrays.

The model of program behaviour is deliberately simple and matches the mental
model the Footprint Cache / Unison Cache papers use:

* the workload owns a large set of fixed-size *data regions* (4 KB by default);
* a limited set of *code sites* (identified by PC) repeatedly traverse those
  regions; each code site has a canonical *access pattern* (which blocks of a
  region it touches), perturbed by per-traversal noise;
* region popularity follows a Zipf-like distribution, and a small fraction of
  traversals touch only one block (*singletons*);
* the streams of all cores are interleaved round-robin, which is what the
  DRAM cache controller observes.

Every random decision is drawn from a seeded ``random.Random`` instance whose
seed mixes the run seed with a *stable* hash of the workload name, so a given
(profile, seed, num_cores) triple produces the same trace in every process
and on every run -- the property the sweep executor's trace cache and the
parallel/serial equivalence guarantee rely on.
"""

from __future__ import annotations

import heapq
import random
import zlib
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.trace.binfmt import RECORD_DTYPE
from repro.trace.record import MemoryAccess
from repro.utils.hashing import mix64
from repro.workloads.profile import WorkloadProfile

#: Base value for generated program counters; gives PCs a realistic text-segment look.
_PC_BASE = 0x0000_0000_0040_0000

#: Version of the trace-generation algorithm.  Bump whenever a change to this
#: module (or to :mod:`repro.workloads.profile` scaling) alters the stream a
#: given (profile, num_cores, seed) produces: the on-disk
#: :class:`repro.trace.store.TraceStore` and the CI trace cache key their
#: entries on it, so stale traces are never replayed after such a change.
#: ``tests/test_generator_stream.py`` guards it: it pins the sha256 of every
#: profile's packed stream, so a change that moves the stream fails there
#: until this version is bumped and the pinned digests are re-recorded.
GENERATOR_VERSION = 1

#: Accesses per chunk yielded by :meth:`SyntheticWorkload.iter_chunks`.
DEFAULT_CHUNK_SIZE = 16384

#: Largest core id a packed record holds (its ``core_id`` field is a u16).
_MAX_CORE_ID = int(np.iinfo(RECORD_DTYPE["core_id"]).max)


class SyntheticWorkload:
    """Deterministic synthetic workload calibrated by a :class:`WorkloadProfile`.

    Parameters
    ----------
    profile:
        The statistical description of the workload.
    num_cores:
        Number of cores whose access streams are interleaved (the paper's CMP
        has 16).
    seed:
        Seed for the deterministic pseudo-random generator.
    """

    def __init__(self, profile: WorkloadProfile, num_cores: int = 16, seed: int = 1) -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if num_cores - 1 > _MAX_CORE_ID:
            raise ValueError(f"num_cores must be at most {_MAX_CORE_ID + 1} "
                             f"(core ids are packed as u16), got {num_cores}")
        self.profile = profile
        self.num_cores = num_cores
        self.seed = seed
        # crc32, not hash(): str hashing is randomized per process
        # (PYTHONHASHSEED), which would make traces -- and therefore every
        # benchmark figure -- differ from run to run and process to process.
        name_hash = zlib.crc32(profile.name.encode("utf-8"))
        self._rng = random.Random(mix64(seed) ^ mix64(name_hash))
        # Per-core state: the columns of the accesses generated but not yet
        # served (address, PC, write draw, timestamp), and the current code
        # site with its remaining run length.
        self._addresses: List[List[int]] = [[] for _ in range(num_cores)]
        self._pcs: List[List[int]] = [[] for _ in range(num_cores)]
        self._write_draws: List[List[float]] = [[] for _ in range(num_cores)]
        self._timestamps: List[List[int]] = [[] for _ in range(num_cores)]
        self._current_pc_index: List[int] = [
            self._rng.randrange(profile.num_code_regions) for _ in range(num_cores)
        ]
        self._pc_run_remaining: List[int] = [
            max(1, profile.pc_locality_run) for _ in range(num_cores)
        ]
        # Recently traversed (region, code-site) pairs per core: a temporal
        # re-visit re-walks the same structure with the same code, which is
        # what makes footprints repeatable in real server software.
        self._recent_regions: List[Deque[Tuple[int, int]]] = [
            deque(maxlen=32) for _ in range(num_cores)
        ]
        self._timestamp = 0
        self._pattern_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def iter_chunks(self, count: int,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    ) -> Iterator[np.ndarray]:
        """Yield the next ``count`` accesses as packed record arrays.

        Each chunk is a :data:`~repro.trace.binfmt.RECORD_DTYPE` array of
        ``chunk_size`` records (the last one may be shorter).  The stream
        interleaves the cores round-robin starting at core 0 on every call;
        a core starts its next region traversal when its queue of generated
        accesses runs dry, so traversal starts follow ``(round, core)``
        order.  Chunked generation is what lets the trace store and the
        executor stream a multi-million-access trace to disk while it is
        being produced, instead of materializing one giant array first.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        cores = self.num_cores
        # Next traversal start of every core as a stream position
        # ``round * cores + core`` (ordered like ``(round, core)``): a core
        # holding q queued accesses runs dry at round q.
        starts = [len(self._addresses[core]) * cores + core
                  for core in range(cores)]
        heapq.heapify(starts)
        for begin in range(0, count, chunk_size):
            end = min(count, begin + chunk_size)
            while starts[0] < end:
                position = starts[0]
                length = self._start_traversal(position % cores)
                heapq.heapreplace(starts, position + length * cores)
            yield self._serve(begin, end)

    def accesses(self, count: int) -> Iterator[MemoryAccess]:
        """Yield the next ``count`` accesses of the interleaved stream."""
        # Deferred: the engine package imports the cache models, which import
        # the trace package, which imports this module.
        from repro.engine.trace_array import array_to_records

        for chunk in self.iter_chunks(count):
            yield from array_to_records(chunk)

    def generate(self, count: int) -> List[MemoryAccess]:
        """Materialize the next ``count`` accesses as a list."""
        return list(self.accesses(count))

    # ------------------------------------------------------------------ #
    # Traversal construction
    # ------------------------------------------------------------------ #
    def _serve(self, begin: int, end: int) -> np.ndarray:
        """Pack stream positions ``[begin, end)`` of the current call.

        Position ``k`` belongs to core ``k % num_cores``; each core's share
        of the chunk is the front of its queued columns.
        """
        cores = self.num_cores
        size = end - begin
        out = np.empty(size, dtype=RECORD_DTYPE)
        address, pc, timestamp = out["address"], out["pc"], out["timestamp"]
        core_id, access_type = out["core_id"], out["access_type"]
        write_fraction = self.profile.write_fraction
        for core in range(cores):
            first = (core - begin) % cores
            if first >= size:
                continue
            served = len(range(first, size, cores))
            rows = slice(first, None, cores)
            addresses = self._addresses[core]
            pcs = self._pcs[core]
            draws = self._write_draws[core]
            stamps = self._timestamps[core]
            address[rows] = addresses[:served]
            pc[rows] = pcs[:served]
            access_type[rows] = np.array(draws[:served]) < write_fraction
            timestamp[rows] = stamps[:served]
            core_id[rows] = core
            del addresses[:served], pcs[:served], draws[:served], stamps[:served]
        return out

    def _start_traversal(self, core: int) -> int:
        """Queue up the accesses of one region traversal for ``core``.

        Returns the number of accesses queued.
        """
        profile = self.profile
        rng = self._rng

        region, reused_pc = self._choose_region(core)
        if reused_pc is not None:
            pc_index = reused_pc
        else:
            pc_index = self._advance_code_site(core)
        self._recent_regions[core].append((region, pc_index))

        singleton = rng.random() < profile.singleton_fraction
        if singleton:
            # Singleton traversals come from dedicated code sites so that the
            # footprint/singleton predictors can learn them separately.
            pc_index = profile.num_code_regions + (pc_index % max(1, profile.num_code_regions // 8))
            offsets = [self._singleton_offset(pc_index, region)]
        else:
            offsets = self._traversal_offsets(pc_index, region)

        region_base = region * profile.region_size
        block_size = profile.block_size
        random_draw = rng.random
        length = len(offsets)
        start = self._timestamp
        self._addresses[core].extend([region_base + offset * block_size
                                      for offset in offsets])
        self._pcs[core].extend([_PC_BASE + pc_index * 4] * length)
        # One write draw per access, in ascending offset order.
        self._write_draws[core].extend([random_draw() for _ in offsets])
        self._timestamps[core].extend(range(start, start + length))
        self._timestamp = start + length
        return length

    def _choose_region(self, core: int) -> Tuple[int, Optional[int]]:
        """Pick the data region for the next traversal.

        Returns ``(region, code_site)`` where ``code_site`` is the site to
        reuse for a temporal re-visit (None for a fresh traversal).
        """
        profile = self.profile
        rng = self._rng
        recent = self._recent_regions[core]
        if recent and rng.random() < profile.temporal_reuse:
            region, pc_index = recent[rng.randrange(len(recent))]
            return region, pc_index
        return self._zipf_region(rng.random()), None

    def _zipf_region(self, uniform: float) -> int:
        """Map a uniform draw onto a Zipf-skewed region index.

        Uses the bounded-Pareto inverse-CDF approximation
        ``rank = N * u**(1 / (1 - alpha))`` which is exact for ``alpha == 0``
        (uniform) and increasingly head-heavy as ``alpha`` approaches 1.
        """
        profile = self.profile
        n = profile.num_regions
        alpha = min(profile.region_zipf_alpha, 0.99)
        if alpha <= 0.0:
            rank = int(uniform * n)
        else:
            rank = int(n * (uniform ** (1.0 / (1.0 - alpha))))
        return min(rank, n - 1)

    def _advance_code_site(self, core: int) -> int:
        """Return the code-site index for the next traversal of ``core``."""
        profile = self.profile
        self._pc_run_remaining[core] -= 1
        if self._pc_run_remaining[core] <= 0:
            self._current_pc_index[core] = self._rng.randrange(profile.num_code_regions)
            # Geometric-ish run length around pc_locality_run.
            self._pc_run_remaining[core] = 1 + self._rng.randrange(
                2 * profile.pc_locality_run - 1
            )
        return self._current_pc_index[core]

    # ------------------------------------------------------------------ #
    # Access-pattern synthesis
    # ------------------------------------------------------------------ #
    def _canonical_pattern(self, pc_index: int) -> Tuple[int, ...]:
        """The canonical block-offset pattern of a code site.

        Derived deterministically from the code-site index so that the same
        (PC, offset) pair always implies the same footprint -- the property
        the footprint predictor learns and exploits.
        """
        cached = self._pattern_cache.get(pc_index)
        if cached is not None:
            return cached
        profile = self.profile
        blocks = profile.blocks_per_region
        # Per-site density jitters around the profile mean.
        jitter = ((mix64(pc_index * 977 + 13) % 1000) / 1000.0 - 0.5) * 0.3
        density = min(1.0, max(1.0 / blocks, profile.footprint_density + jitter))
        if density >= 0.7:
            # Dense sites are whole-structure scans: they touch the entire
            # region, which is what gives workloads like Web Search their
            # near-perfect footprint predictability.
            offsets = tuple(range(blocks))
            self._pattern_cache[pc_index] = offsets
            return offsets
        target = max(1, round(density * blocks))
        # Half of the sites start their walk at the structure base (block 0),
        # the rest at a site-specific offset.
        if mix64(pc_index * 53 + 29) % 2 == 0:
            start = 0
        else:
            start = mix64(pc_index * 31 + 7) % blocks
        stride_choices = (1, 1, 1, 2, 3)
        stride = stride_choices[mix64(pc_index * 131 + 3) % len(stride_choices)]
        offsets = tuple(sorted({(start + i * stride) % blocks for i in range(target)}))
        self._pattern_cache[pc_index] = offsets
        return offsets

    def _traversal_offsets(self, pc_index: int, region: int) -> List[int]:
        """Apply per-traversal noise to the code site's canonical pattern."""
        profile = self.profile
        rng = self._rng
        noise = profile.footprint_noise
        blocks = profile.blocks_per_region
        pattern = self._canonical_pattern(pc_index)
        offsets = set(pattern)
        if noise > 0.0:
            for offset in pattern:
                if rng.random() < noise:
                    offsets.discard(offset)
            extra_budget = max(1, int(noise * len(pattern)))
            for _ in range(extra_budget):
                if rng.random() < noise:
                    offsets.add(rng.randrange(blocks))
        if not offsets:
            offsets.add(pattern[0])
        # A region traversal visits its blocks in ascending address order, the
        # common pattern for scans and structure walks.
        result = sorted(offsets)
        _ = region  # regions do not currently perturb the pattern
        return result

    def _singleton_offset(self, pc_index: int, region: int) -> int:
        """The single block offset touched by a singleton traversal."""
        blocks = self.profile.blocks_per_region
        return mix64(pc_index * 2654435761 + region) % blocks
