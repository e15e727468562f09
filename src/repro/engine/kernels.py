"""Fused batch-warming kernels, bit-identical to the scalar engine.

Functional warming replays a trace prologue purely for its *state* side
effects -- tag arrays, LRU clocks, predictor tables, DRAM bank/channel
timing horizons -- and then calls ``reset_stats()``, discarding every
resettable statistic the replay produced.  The scalar path still pays for
those statistics: each access walks four policy-role objects, builds
``Lookup``/``HitPrediction``/``FetchDecision`` instances, and updates a
dozen counters that are about to be zeroed.

Each kernel below fuses one tag organization's entire service loop
(composed engine + tag organization + predictors) into a single Python
loop over flat locals, and drives DRAM timing through the controllers'
own closures (:meth:`repro.dram.controller.DramController.ops`), which
mutate the controllers' state lists in place.  The rules that make the
result *bit-identical* to ``warm_up`` followed by ``reset_stats()``:

* every persistent state mutation happens in the same order, with the
  same values, as the scalar engine (including dict/OrderedDict insertion
  order, which pickles);
* every DRAM device operation is issued in the same order with the same
  (address, num_bytes, now, is_write) arguments, so the bank/channel
  timing state and the non-resettable traffic counters come out
  identical;
* purely resettable statistics are skipped entirely.

:func:`select_kernel` gates dispatch on *exact* component types: a
subclass anywhere in the composition falls back to the scalar engine
rather than risk a silently-diverging shortcut.
"""

from __future__ import annotations

from itertools import repeat

from repro.cache.replacement import LruPolicy
from repro.dramcache.base import DramCacheModel
from repro.dramcache.composed import ComposedDramCache
from repro.dramcache.components import (
    AlwaysHitTags,
    DemandBlockFetch,
    DirectMappedBlockTags,
    DisabledMissPrediction,
    DramPageTags,
    DropDirtyPolicy,
    FootprintFetch,
    FullPageFetch,
    MissMapBlockTags,
    MissPredictionPolicy,
    NoCacheTags,
    NoHitPrediction,
    OracleWayPrediction,
    SramPageTags,
    WayPredictionPolicy,
    WritebackDirtyPolicy,
)
from repro.predictors.singleton import SingletonEntry
from repro.trace.record import BLOCK_SIZE
from repro.utils.bitvector import BitVector
from repro.utils.hashing import mix64

# Exact types only: subclasses may override behaviour the kernels inline.
_NO_PREDICTION_TYPES = (NoHitPrediction, OracleWayPrediction,
                        DisabledMissPrediction)
_WRITEBACK_TYPES = (WritebackDirtyPolicy, DropDirtyPolicy)
_STATELESS_FETCH_TYPES = (DemandBlockFetch, FullPageFetch)
_FETCH_TYPES = (DemandBlockFetch, FullPageFetch, FootprintFetch)


def _lru_only(tags) -> bool:
    """True when every per-set replacement policy is exactly LRU.

    The set-associative and MissMap kernels inline LRU's clock/recency
    updates; any other replacement component (random, RRIP) must take the
    scalar path, which drives the real policy objects.
    """
    return all(type(policy) is LruPolicy for policy in tags.lru)


def select_kernel(design):
    """Return the fused kernel covering ``design``, or None (scalar path).

    Coverage is decided by identity: the design must be a
    :class:`ComposedDramCache` running the stock ``access``/
    ``_service_request`` drivers, and all four policy roles must be exact
    instances of the component classes the kernels transliterate.
    """
    if not isinstance(design, ComposedDramCache):
        return None
    cls = type(design)
    if cls._service_request is not ComposedDramCache._service_request:
        return None
    if cls.access is not DramCacheModel.access:
        return None
    hp_type = type(design.hit_predictor)
    hp_none = hp_type in _NO_PREDICTION_TYPES
    fetch_type = type(design.fetch)
    if type(design.writeback) not in _WRITEBACK_TYPES:
        return None

    tags_type = type(design.tags)
    if tags_type in (DramPageTags, SramPageTags):
        if not (hp_none or hp_type is WayPredictionPolicy):
            return None
        if fetch_type not in _FETCH_TYPES:
            return None
        if not _lru_only(design.tags):
            return None
        return _warm_page_set_assoc
    if tags_type is DirectMappedBlockTags:
        if not (hp_none or hp_type is MissPredictionPolicy):
            return None
        if fetch_type not in _FETCH_TYPES:
            return None
        return _warm_direct_mapped
    if tags_type is MissMapBlockTags:
        if not hp_none or fetch_type not in _STATELESS_FETCH_TYPES:
            return None
        if not _lru_only(design.tags):
            return None
        return _warm_missmap
    if tags_type is AlwaysHitTags:
        if not hp_none:
            return None
        return _warm_always_hit
    if tags_type is NoCacheTags:
        if not hp_none or fetch_type not in _STATELESS_FETCH_TYPES:
            return None
        return _warm_no_cache
    return None


class _FootprintState:
    """Flat view of a FootprintFetch (history table + singleton table).

    Methods transliterate ``FootprintFetch.plan`` / ``on_bypass`` /
    ``learn_eviction`` and ``FootprintPredictor.predict`` / ``update``,
    mutating the *real* dicts in place (their insertion order pickles) and
    keeping only the clock and the non-resettable singleton counters in
    locals until :meth:`flush`.
    """

    __slots__ = ("fp", "st", "sets", "recency", "clock", "num_sets",
                 "assoc", "default_ones", "width", "st_width", "entries",
                 "cap", "ins", "pro", "evi")

    def __init__(self, fetch: FootprintFetch) -> None:
        fp = fetch.predictor
        st = fetch.singleton_table
        self.fp = fp
        self.st = st
        self.sets = fp._sets
        self.recency = fp._recency
        self.clock = fp._clock
        self.num_sets = fp.num_sets
        self.assoc = fp.associativity
        self.default_ones = fp.default_all_blocks
        self.width = fp.blocks_per_page
        self.st_width = st.blocks_per_page
        self.entries = st._entries
        self.cap = st.num_entries
        self.ins = st.insertions
        self.pro = st.promotions
        self.evi = st.evictions

    def update(self, pc: int, offset: int, value: int) -> None:
        """FootprintPredictor.update with the footprint as a plain int."""
        set_index = mix64(pc * 1000003 + offset) % self.num_sets
        key = (pc, offset)
        entries = self.sets.setdefault(set_index, {})
        if key not in entries and len(entries) >= self.assoc:
            recency = self.recency.get(set_index)
            if recency:
                victim = min(entries, key=lambda k: recency.get(k, 0))
                recency.pop(victim, None)
            else:
                # No recency info: min() over all-equal keys picks the
                # first in iteration order, exactly like the scalar path.
                victim = next(iter(entries))
            del entries[victim]
        entries[key] = BitVector(self.width, value)
        self.clock += 1
        recency = self.recency.get(set_index)
        if recency is None:
            recency = {}
            self.recency[set_index] = recency
        recency[key] = self.clock

    def plan(self, page: int, pc: int, offset: int):
        """FootprintFetch.plan -> (footprint_value, from_history, bypass,
        note_singleton)."""
        bit = 1 << offset
        entries = self.entries
        entry = entries.get(page)
        corrected = False
        if entry is not None:
            entries.move_to_end(page)
            observed = entry.observed
            value = observed._value | bit
            observed._value = value
            if value & (value - 1):
                # A second block was demanded: not a singleton after all.
                del entries[page]
                self.pro += 1
                self.update(entry.trigger_pc, entry.trigger_offset, value)
                corrected = True
        set_index = mix64(pc * 1000003 + offset) % self.num_sets
        history = self.sets.get(set_index)
        trained = history.get((pc, offset)) if history is not None else None
        if trained is not None:
            self.clock += 1
            recency = self.recency.get(set_index)
            if recency is None:
                recency = {}
                self.recency[set_index] = recency
            recency[(pc, offset)] = self.clock
            footprint = trained._value | bit
            if footprint == bit:
                return bit, True, True, not corrected
            return footprint, True, False, False
        if self.default_ones:
            return (1 << self.width) - 1, False, False, False
        return bit, False, False, False

    def insert_singleton(self, page: int, pc: int, offset: int) -> None:
        """SingletonTable.insert (the on_bypass path)."""
        entries = self.entries
        if page in entries:
            entries.pop(page)
        elif len(entries) >= self.cap:
            entries.popitem(last=False)
            self.evi += 1
        entries[page] = SingletonEntry(
            page_number=page,
            trigger_pc=pc,
            trigger_offset=offset,
            observed=BitVector(self.st_width, 1 << offset),
        )
        self.ins += 1

    def learn_eviction(self, trigger_pc: int, trigger_offset: int,
                       demanded_value: int) -> None:
        if demanded_value == 0:
            demanded_value = 1 << trigger_offset
        self.update(trigger_pc, trigger_offset, demanded_value)

    def flush(self) -> None:
        self.fp._clock = self.clock
        self.st.insertions = self.ins
        self.st.promotions = self.pro
        self.st.evictions = self.evi


# --------------------------------------------------------------------- #
# Kernel A: set-associative page organizations (Unison / Footprint Cache)
# --------------------------------------------------------------------- #
def _warm_page_set_assoc(design, cols) -> None:
    tags = design.tags
    is_dram = type(tags) is DramPageTags
    cfg = tags.config
    num_sets = tags.num_sets
    assoc = tags.associativity
    bpp = tags.blocks_per_page
    frames = tags.frames
    lru = tags.lru

    s_access, s_burst, s_pair = design.stacked.controller.ops()
    m_access, m_burst, _ = design.memory.controller.ops()
    srow_bytes = design.stacked.row_bytes
    memory = design.memory
    m_read = m_written = m_req = 0

    if is_dram:
        layout = tags.layout
        ppr = layout.pages_per_row
        pres_pp = layout.presence_bytes_per_page
        pres_set = layout.presence_bytes_per_set
        other_base = layout.presence_bytes_per_row
        meta_bytes = layout.pc_offset_bytes_per_page
        data_base = layout.data_base_offset
        page_bytes = layout.page_data_bytes
        block_bytes = cfg.block_size
        overhead = cfg.tag_read_overhead_cycles
        serialized = tags.hit_path == "serialized"
    else:
        ppr = tags.pages_per_row
        page_bytes = cfg.page_size
        block_bytes = cfg.block_size
        tag_latency = tags.tag_latency_cycles

    hp = design.hit_predictor
    way_pred = type(hp) is WayPredictionPolicy
    if way_pred:
        predictor = hp.predictor
        wp_table = predictor._table
        wp_assoc = predictor.associativity
        penalty = hp.mispredict_penalty_cycles
        wp_idx = cols.way_indices(bpp, predictor.index_bits)
    else:
        wp_idx = repeat(0)

    fetch = design.fetch
    fp = _FootprintState(fetch) if type(fetch) is FootprintFetch else None
    full_page = type(fetch) is FullPageFetch
    ones_mask = (1 << bpp) - 1
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    # A page resides in at most one frame; allocations happen only on page
    # misses and evictions delete, so this stays a bijection.
    page_way = {}
    for set_index in range(num_sets):
        for way, frame in enumerate(frames[set_index]):
            if frame.valid:
                page_way[frame.page_number] = way

    # Device addresses are pure functions of the frame index, so derive the
    # row/slot arithmetic once per frame instead of once per access.
    # ``frame_base[f]`` is the data address of frame ``f``'s first block;
    # for the in-DRAM layout, ``pres_addr[f]`` / ``meta_addr[f]`` locate its
    # presence and PC/offset metadata and ``tag_addr[s]`` the set's tag read.
    num_frames = num_sets * assoc
    frame_base = []
    if is_dram:
        pres_addr = []
        meta_addr = []
        for f in range(num_frames):
            row = f // ppr
            slot = f - row * ppr
            base = row * srow_bytes
            frame_base.append(base + data_base + slot * page_bytes)
            pres_addr.append(base + slot * pres_pp)
            meta_addr.append(base + other_base + slot * meta_bytes)
        tag_addr = [pres_addr[s * assoc] for s in range(num_sets)]
    else:
        for f in range(num_frames):
            row = f // ppr
            frame_base.append(row * srow_bytes + (f - row * ppr) * page_bytes)

    # LRU state, flattened (clocks in a list, the live recency dicts
    # aliased so in-place mutation matches the scalar engine bit-for-bit).
    lru_clock = [policy._clock for policy in lru]
    lru_rec = [policy._recency for policy in lru]

    now = design._now
    gap = design._interarrival

    for block, pc, is_write, widx in zip(cols.blk, cols.pc, cols.wr, wp_idx):
        now += gap
        page = block // bpp
        offset = block - page * bpp
        try:
            way = page_way[page]
        except KeyError:
            way = -1
        if way >= 0:
            set_index = page % num_sets
            frame = frames[set_index][way]
            # Way-predictor training (observe) happens on every page hit.
            if way_pred:
                predicted = wp_table[widx]
                wp_table[widx] = way
                correct = predicted == way
            else:
                correct = True
            # tags.touch
            frame.demanded._value |= 1 << offset
            if is_write:
                frame.dbits._value |= 1 << offset
            clock = lru_clock[set_index] + 1
            lru_clock[set_index] = clock
            lru_rec[set_index][way] = clock

            if (frame.vbits._value >> offset) & 1:
                # Block hit.
                if is_dram:
                    set_base = set_index * assoc
                    read_way = way if correct else (way + 1) % wp_assoc
                    latency = s_pair(
                        tag_addr[set_index], pres_set,
                        frame_base[set_base + read_way]
                        + offset * block_bytes,
                        BLOCK_SIZE, now, serialized) + overhead
                    if not correct:
                        latency += penalty
                    if is_write:
                        # on_hit_write targets the *actual* way.
                        s_access(
                            frame_base[set_base + way]
                            + offset * block_bytes,
                            block_bytes, now, True)
                else:
                    address = (frame_base[set_index * assoc + way]
                               + offset * block_bytes)
                    latency = tag_latency + s_access(address, block_bytes,
                                                     now, False)
                    if is_write:
                        s_access(address, block_bytes, now, True)
                now += latency
                continue

            # Page hit, block miss (footprint underprediction).
            if is_dram:
                lookup_lat = s_access(tag_addr[set_index], pres_set, now,
                                      False) + overhead
            else:
                lookup_lat = tag_latency
            offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
            m_read += 1
            m_req += 1
            # tags.fill_block
            frame.vbits._value |= 1 << offset
            s_access(frame_base[set_index * assoc + way]
                     + offset * block_bytes,
                     block_bytes, now, True)
            now += lookup_lat + offchip
            continue

        # Trigger miss.
        set_index = page % num_sets
        if is_dram:
            lookup_lat = s_access(tag_addr[set_index], pres_set, now,
                                  False) + overhead
        else:
            lookup_lat = tag_latency

        if fp is not None:
            footprint, from_history, bypass, note = fp.plan(page, pc, offset)
            if bypass:
                offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now,
                                   False)
                m_read += 1
                m_req += 1
                if note:
                    fp.insert_singleton(page, pc, offset)
                now += lookup_lat + offchip
                continue
            footprint |= 1 << offset
        elif full_page:
            footprint = ones_mask
            from_history = False
        else:
            footprint = 1 << offset
            from_history = False

        # allocate: LRU victim, evict, fetch, install, device fill.
        set_frames = frames[set_index]
        victim = -1
        for way, frame in enumerate(set_frames):
            if not frame.valid:
                victim = way
                break
        if victim < 0:
            recency = lru_rec[set_index]
            victim = 0
            best = recency[0]
            for way in range(1, assoc):
                if recency[way] < best:
                    best = recency[way]
                    victim = way
        frame = set_frames[victim]
        if frame.valid:
            if is_dram:
                s_access(meta_addr[set_index * assoc + victim],
                         meta_bytes, now, False)
            if fp is not None:
                fp.learn_eviction(frame.trigger_pc, frame.trigger_offset,
                                  frame.demanded._value)
            dirty = frame.dbits._value & frame.vbits._value
            if dirty and wb_dirty:
                m_burst(frame.page_number * bpp * BLOCK_SIZE, BLOCK_SIZE,
                        dirty, BLOCK_SIZE, now, True)
                m_written += bin(dirty).count("1")
                m_req += 1
            del page_way[frame.page_number]

        # Fetch the footprint's blocks; the trigger (lowest) read is the
        # critical one whose latency the request observes.
        offchip = m_burst(page * bpp * BLOCK_SIZE, BLOCK_SIZE, footprint,
                          BLOCK_SIZE, now, False)
        m_read += bin(footprint).count("1")
        m_req += 1

        frame.valid = True
        frame.page_number = page
        frame.vbits = BitVector(bpp, footprint)
        frame.dbits = BitVector(bpp, (1 << offset) if is_write else 0)
        frame.demanded = BitVector(bpp, 1 << offset)
        frame.predicted = BitVector(bpp, footprint)
        frame.predicted_from_history = from_history
        frame.trigger_pc = pc
        frame.trigger_offset = offset
        clock = lru_clock[set_index] + 1
        lru_clock[set_index] = clock
        lru_rec[set_index][victim] = clock
        page_way[page] = victim

        fill_frame = set_index * assoc + victim
        s_burst(frame_base[fill_frame], block_bytes, footprint, BLOCK_SIZE,
                now, True)
        if is_dram:
            s_access(pres_addr[fill_frame], pres_pp, now, True)
        now += lookup_lat + offchip

    design._now = now
    for policy, clock in zip(lru, lru_clock):
        policy._clock = clock
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_req
    if fp is not None:
        fp.flush()


# --------------------------------------------------------------------- #
# Kernel B: direct-mapped TAD organization (Alloy, alloy+footprint)
# --------------------------------------------------------------------- #
def _warm_direct_mapped(design, cols) -> None:
    tags = design.tags
    cfg = tags.config
    num_blocks = tags.num_blocks
    bpp = tags.blocks_per_page
    tag_array = tags.tag_array
    dirty = tags.dirty
    blocks_per_row = cfg.blocks_per_row
    tad_bytes = cfg.tad_bytes
    regions = tags._regions
    region_cap = tags.region_observer_entries

    s_access = design.stacked.controller.ops().access
    m_access = design.memory.controller.ops().access
    srow_bytes = design.stacked.row_bytes
    memory = design.memory
    m_read = m_written = m_req = 0

    hp = design.hit_predictor
    mapi = type(hp) is MissPredictionPolicy
    if mapi:
        predictor = hp.predictor
        mp_tables = predictor._tables
        mp_max = predictor._max_value
        mp_threshold = predictor._threshold
        pred_lat = hp.latency_cycles
        mp_idx = cols.mapi_indices(predictor._index_bits,
                                   predictor.entries_per_core)
    else:
        pred_lat = 0
        mp_idx = repeat(0)

    fetch = design.fetch
    fp = _FootprintState(fetch) if type(fetch) is FootprintFetch else None
    full_page = type(fetch) is FullPageFetch
    ones_mask = (1 << bpp) - 1
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    now = design._now
    gap = design._interarrival

    for block, pc, is_write, core, pidx in zip(cols.blk, cols.pc, cols.wr,
                                               cols.core, mp_idx):
        now += gap
        frame = block % num_blocks
        hit = tag_array[frame] == block // num_blocks
        if mapi:
            table = mp_tables[core]
            counter = table[pidx]
            predicted_miss = counter >= mp_threshold
            if hit:
                table[pidx] = counter - 1 if counter > 0 else 0
            else:
                table[pidx] = counter + 1 if counter < mp_max else counter
        else:
            predicted_miss = False

        if hit:
            # tags.touch -> region observer demand (multi-block pages only).
            if bpp > 1:
                page = block // bpp
                entry = regions.pop(page, None)
                if entry is not None:
                    entry[2]._value |= 1 << (block - page * bpp)
                    regions[page] = entry
            row = frame // blocks_per_row
            tad_address = (row * srow_bytes
                           + (frame - row * blocks_per_row) * tad_bytes)
            latency = pred_lat + s_access(tad_address, tad_bytes, now, False)
            if predicted_miss:
                # The (wrongly) issued parallel off-chip read completes too.
                m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
                m_read += 1
                m_req += 1
            if is_write:
                s_access(tad_address, tad_bytes, now, True)
                dirty[frame] = True
            now += latency
            continue

        # Miss path.
        if predicted_miss:
            lookup_lat = 0
        else:
            row = frame // blocks_per_row
            lookup_lat = s_access(
                row * srow_bytes
                + (frame - row * blocks_per_row) * tad_bytes,
                tad_bytes, now, False)
        page = block // bpp
        offset = block - page * bpp

        if fp is not None:
            footprint, from_history, bypass, note = fp.plan(page, pc, offset)
            if bypass:
                offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now,
                                   False)
                m_read += 1
                m_req += 1
                if note:
                    fp.insert_singleton(page, pc, offset)
                now += pred_lat + lookup_lat + offchip
                continue
            footprint |= 1 << offset
        elif full_page:
            footprint = ones_mask
            from_history = False
        else:
            footprint = 1 << offset
            from_history = False

        if footprint == 1 << offset:
            # Single-block allocation (the Alloy fast path).
            offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
            m_read += 1
            m_req += 1
            old_tag = tag_array[frame]
            if old_tag >= 0 and dirty[frame] and wb_dirty:
                m_access((old_tag * num_blocks + frame) * BLOCK_SIZE,
                         BLOCK_SIZE, now, True)
                m_written += 1
                m_req += 1
            tag_array[frame] = block // num_blocks
            dirty[frame] = is_write
            row = frame // blocks_per_row
            s_access(row * srow_bytes
                     + (frame - row * blocks_per_row) * tad_bytes,
                     tad_bytes, now, True)
            now += pred_lat + lookup_lat + offchip
            continue

        # Multi-block footprint (hybrid): fetch the region, install each
        # block into its own direct-mapped frame.
        base_block = page * bpp
        value = footprint
        low = value & -value
        offchip = m_access((base_block + low.bit_length() - 1) * BLOCK_SIZE,
                           BLOCK_SIZE, now, False)
        m_read += 1
        value ^= low
        while value:
            low = value & -value
            m_access((base_block + low.bit_length() - 1) * BLOCK_SIZE,
                     BLOCK_SIZE, now, False)
            m_read += 1
            value ^= low
        m_req += 1

        value = footprint
        while value:
            low = value & -value
            fetched = base_block + low.bit_length() - 1
            value ^= low
            install_frame = fetched % num_blocks
            old_tag = tag_array[install_frame]
            if old_tag >= 0 and dirty[install_frame] and wb_dirty:
                m_access((old_tag * num_blocks + install_frame) * BLOCK_SIZE,
                         BLOCK_SIZE, now, True)
                m_written += 1
                m_req += 1
            tag_array[install_frame] = fetched // num_blocks
            dirty[install_frame] = is_write and fetched == block
            row = install_frame // blocks_per_row
            s_access(row * srow_bytes
                     + (install_frame - row * blocks_per_row) * tad_bytes,
                     tad_bytes, now, True)

        # _observe_allocation (bpp > 1 whenever the footprint is multi-bit).
        stale = regions.pop(page, None)
        if stale is None and len(regions) >= region_cap:
            stale = regions.pop(next(iter(regions)))
        if stale is not None and fp is not None:
            fp.learn_eviction(stale[0], stale[1], stale[2]._value)
        regions[page] = (pc, offset, BitVector(bpp, 1 << offset),
                        BitVector(bpp, footprint), from_history)
        now += pred_lat + lookup_lat + offchip

    design._now = now
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_req
    if fp is not None:
        fp.flush()


# --------------------------------------------------------------------- #
# Kernel C: MissMap-fronted set-per-row organization (Loh-Hill)
# --------------------------------------------------------------------- #
def _warm_missmap(design, cols) -> None:
    tags = design.tags
    num_sets = tags.num_sets
    assoc = tags.associativity
    tag_blocks = tags.tag_blocks_per_row
    block_bytes = tags.block_size
    mm_latency = tags.missmap_latency_cycles
    tag_array = tags.tag_array
    dirty = tags.dirty
    lru = tags.lru
    missmap = tags.missmap

    s_access = design.stacked.controller.ops().access
    m_access = design.memory.controller.ops().access
    srow_bytes = design.stacked.row_bytes
    memory = design.memory
    m_read = m_written = m_req = 0
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    # Present block -> way, maintained alongside the real missmap dict.
    way_of = {}
    for set_index in range(num_sets):
        for way, tag in enumerate(tag_array[set_index]):
            if tag >= 0:
                block = tag * num_sets + set_index
                if missmap.get(block, False):
                    way_of[block] = way

    now = design._now
    gap = design._interarrival
    way_of_get = way_of.get
    tag_read_bytes = tag_blocks * block_bytes

    for block, is_write in zip(cols.blk, cols.wr):
        now += gap
        set_index = block % num_sets
        way = way_of_get(block, -1)
        if way >= 0:
            policy = lru[set_index]
            policy._clock += 1
            policy._recency[way] = policy._clock
            tag_lat = s_access(set_index * srow_bytes, tag_read_bytes, now,
                               False)
            data_lat = s_access(set_index * srow_bytes
                                + (tag_blocks + way) * block_bytes,
                                block_bytes, now, False)
            if is_write:
                dirty[set_index][way] = True
            now += mm_latency + tag_lat + data_lat
            continue

        # Miss: MissMap answers without a DRAM tag read; allocate.
        offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
        m_read += 1
        m_req += 1
        row_tags = tag_array[set_index]
        try:
            victim = row_tags.index(-1)
        except ValueError:
            recency = lru[set_index]._recency
            victim = 0
            best = recency[0]
            for way in range(1, assoc):
                if recency[way] < best:
                    best = recency[way]
                    victim = way
        victim_tag = row_tags[victim]
        if victim_tag >= 0:
            victim_block = victim_tag * num_sets + set_index
            missmap.pop(victim_block, None)
            way_of.pop(victim_block, None)
            if dirty[set_index][victim] and wb_dirty:
                m_access(victim_block * BLOCK_SIZE, BLOCK_SIZE, now, True)
                m_written += 1
                m_req += 1
        row_tags[victim] = block // num_sets
        dirty[set_index][victim] = is_write
        policy = lru[set_index]
        policy._clock += 1
        policy._recency[victim] = policy._clock
        missmap[block] = True
        way_of[block] = victim
        s_access(set_index * srow_bytes, block_bytes, now, True)
        s_access(set_index * srow_bytes
                 + (tag_blocks + victim) * block_bytes,
                 block_bytes, now, True)
        now += mm_latency + offchip

    design._now = now
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_req


# --------------------------------------------------------------------- #
# Kernel D: the ideal always-hit reference
# --------------------------------------------------------------------- #
def _warm_always_hit(design, cols) -> None:
    tags = design.tags
    row_bytes = tags.row_buffer_size
    block_bytes = tags.block_size
    s_access = design.stacked.controller.ops().access
    srow_bytes = design.stacked.row_bytes

    now = design._now
    gap = design._interarrival
    for address in cols.addr:
        now += gap
        row = address // row_bytes
        offset = address % row_bytes // block_bytes * block_bytes
        now += s_access(row * srow_bytes + offset, block_bytes, now, False)

    design._now = now


# --------------------------------------------------------------------- #
# Kernel E: no stacked cache, everything off chip
# --------------------------------------------------------------------- #
def _warm_no_cache(design, cols) -> None:
    m_access = design.memory.controller.ops().access
    memory = design.memory
    m_read = m_written = 0

    now = design._now
    gap = design._interarrival
    for block, is_write in zip(cols.blk, cols.wr):
        now += gap
        if is_write:
            now += m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, True)
            m_written += 1
        else:
            now += m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
            m_read += 1

    design._now = now
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_read + m_written


__all__ = ["select_kernel"]
