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
loop that mutates the components' own flat state buffers in place (see
:class:`repro.dramcache.components._SetAssocPageTags`) and drives DRAM
timing through the controllers' own closures
(:meth:`repro.dram.controller.DramController.ops`).  The rules that make
the result *bit-identical* to ``warm_up`` followed by ``reset_stats()``:

* every persistent state mutation happens in the same order, with the
  same values, as the scalar engine (including dict insertion order);
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
    LruReplacement,
    MissMapBlockTags,
    MissPredictionPolicy,
    NoCacheTags,
    NoHitPrediction,
    OracleWayPrediction,
    SramPageTags,
    WayPredictionPolicy,
    WritebackDirtyPolicy,
)
from repro.trace.record import BLOCK_SIZE

# Exact types only: subclasses may override behaviour the kernels inline.
_NO_PREDICTION_TYPES = (NoHitPrediction, OracleWayPrediction,
                        DisabledMissPrediction)
_WRITEBACK_TYPES = (WritebackDirtyPolicy, DropDirtyPolicy)
_STATELESS_FETCH_TYPES = (DemandBlockFetch, FullPageFetch)
_FETCH_TYPES = (DemandBlockFetch, FullPageFetch, FootprintFetch)


def select_kernel(design):
    """Return the fused kernel covering ``design``, or None (scalar path).

    Coverage is decided by identity: the design must be a
    :class:`ComposedDramCache` running the stock ``access``/
    ``_service_request`` drivers, and all four policy roles must be exact
    instances of the component classes the kernels transliterate.  The
    set-associative and MissMap kernels inline LRU replacement; random and
    RRIP replacement take the scalar path.
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
    lru = type(design.replacement) is LruReplacement

    tags_type = type(design.tags)
    if tags_type in (DramPageTags, SramPageTags):
        if not (hp_none or hp_type is WayPredictionPolicy):
            return None
        if fetch_type not in _FETCH_TYPES or not lru:
            return None
        return _warm_page_set_assoc
    if tags_type is DirectMappedBlockTags:
        if not (hp_none or hp_type is MissPredictionPolicy):
            return None
        if fetch_type not in _FETCH_TYPES:
            return None
        return _warm_direct_mapped
    if tags_type is MissMapBlockTags:
        if (not hp_none or fetch_type not in _STATELESS_FETCH_TYPES
                or not lru):
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
    valid = tags.valid
    pages = tags.page
    vbits = tags.vbits
    dbits = tags.dbits
    demanded = tags.demanded
    predicted_bits = tags.predicted
    trigger_pc = tags.trigger_pc
    trigger_offset = tags.trigger_offset
    from_hist = tags.from_history
    lru_clock = design.replacement.clock
    lru_rec = design.replacement.recency

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
    fp = fetch if type(fetch) is FootprintFetch else None
    full_page = type(fetch) is FullPageFetch
    ones_mask = (1 << bpp) - 1
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    # A page resides in at most one frame; allocations happen only on page
    # misses and evictions delete, so this stays a bijection.
    page_way = {page: frame % assoc for frame, page in enumerate(pages)
                if valid[frame]}

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
            frame = set_index * assoc + way
            # Way-predictor training (observe) happens on every page hit.
            if way_pred:
                predicted = wp_table[widx]
                wp_table[widx] = way
                correct = predicted == way
            else:
                correct = True
            # tags.touch
            demanded[frame] |= 1 << offset
            if is_write:
                dbits[frame] |= 1 << offset
            clock = lru_clock[set_index] + 1
            lru_clock[set_index] = clock
            lru_rec[frame] = clock

            if (vbits[frame] >> offset) & 1:
                # Block hit.
                if is_dram:
                    read_way = way if correct else (way + 1) % wp_assoc
                    latency = s_pair(
                        tag_addr[set_index], pres_set,
                        frame_base[frame - way + read_way]
                        + offset * block_bytes,
                        BLOCK_SIZE, now, serialized) + overhead
                    if not correct:
                        latency += penalty
                    if is_write:
                        # on_hit_write targets the *actual* way.
                        s_access(frame_base[frame] + offset * block_bytes,
                                 block_bytes, now, True)
                else:
                    address = frame_base[frame] + offset * block_bytes
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
            vbits[frame] |= 1 << offset
            s_access(frame_base[frame] + offset * block_bytes,
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
            footprint, bypass, from_history, note = fp.plan_bits(page, pc,
                                                                 offset)
            if bypass:
                offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now,
                                   False)
                m_read += 1
                m_req += 1
                if note:
                    fp.singleton_table.insert(page, pc, offset)
                now += lookup_lat + offchip
                continue
        elif full_page:
            footprint = ones_mask
            from_history = False
        else:
            footprint = 1 << offset
            from_history = False

        # allocate: LRU victim, evict, fetch, install, device fill.
        base = set_index * assoc
        set_valid = valid[base:base + assoc]
        if False in set_valid:
            victim = set_valid.index(False)
        else:
            recency = lru_rec[base:base + assoc]
            victim = recency.index(min(recency))
        frame = base + victim
        if set_valid[victim]:
            if is_dram:
                s_access(meta_addr[frame], meta_bytes, now, False)
            if fp is not None:
                fp.learn_eviction(trigger_pc[frame], trigger_offset[frame],
                                  demanded[frame], predicted_bits[frame],
                                  from_hist[frame])
            dirty = dbits[frame] & vbits[frame]
            if dirty and wb_dirty:
                m_burst(pages[frame] * bpp * BLOCK_SIZE, BLOCK_SIZE,
                        dirty, BLOCK_SIZE, now, True)
                m_written += dirty.bit_count()
                m_req += 1
            del page_way[pages[frame]]

        # Fetch the footprint's blocks; the trigger (lowest) read is the
        # critical one whose latency the request observes.
        offchip = m_burst(page * bpp * BLOCK_SIZE, BLOCK_SIZE, footprint,
                          BLOCK_SIZE, now, False)
        m_read += footprint.bit_count()
        m_req += 1

        valid[frame] = True
        pages[frame] = page
        vbits[frame] = footprint
        dbits[frame] = (1 << offset) if is_write else 0
        demanded[frame] = 1 << offset
        predicted_bits[frame] = footprint
        from_hist[frame] = from_history
        trigger_pc[frame] = pc
        trigger_offset[frame] = offset
        clock = lru_clock[set_index] + 1
        lru_clock[set_index] = clock
        lru_rec[frame] = clock
        page_way[page] = victim

        s_burst(frame_base[frame], block_bytes, footprint, BLOCK_SIZE,
                now, True)
        if is_dram:
            s_access(pres_addr[frame], pres_pp, now, True)
        now += lookup_lat + offchip

    design._now = now
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_req


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
    observe_demand = tags.observe_demand
    observe_allocation = tags.observe_allocation

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
    fp = fetch if type(fetch) is FootprintFetch else None
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
                observe_demand(page, block - page * bpp)
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
            footprint, bypass, from_history, note = fp.plan_bits(page, pc,
                                                                 offset)
            if bypass:
                offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now,
                                   False)
                m_read += 1
                m_req += 1
                if note:
                    fp.singleton_table.insert(page, pc, offset)
                now += pred_lat + lookup_lat + offchip
                continue
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

        # bpp > 1 whenever the footprint is multi-bit.
        observe_allocation(design, page, pc, offset, footprint, from_history)
        now += pred_lat + lookup_lat + offchip

    design._now = now
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_req


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
    lru_clock = design.replacement.clock
    lru_rec = design.replacement.recency
    missmap = tags.missmap

    s_access = design.stacked.controller.ops().access
    m_access = design.memory.controller.ops().access
    srow_bytes = design.stacked.row_bytes
    memory = design.memory
    m_read = m_written = m_req = 0
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    # Present block -> way, maintained alongside the real missmap dict.
    way_of = {}
    for frame, tag in enumerate(tag_array):
        if tag >= 0:
            set_index, way = divmod(frame, assoc)
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
            clock = lru_clock[set_index] + 1
            lru_clock[set_index] = clock
            lru_rec[set_index * assoc + way] = clock
            tag_lat = s_access(set_index * srow_bytes, tag_read_bytes, now,
                               False)
            data_lat = s_access(set_index * srow_bytes
                                + (tag_blocks + way) * block_bytes,
                                block_bytes, now, False)
            if is_write:
                dirty[set_index * assoc + way] = True
            now += mm_latency + tag_lat + data_lat
            continue

        # Miss: MissMap answers without a DRAM tag read; allocate.
        offchip = m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
        m_read += 1
        m_req += 1
        base = set_index * assoc
        row_tags = tag_array[base:base + assoc]
        if -1 in row_tags:
            victim = row_tags.index(-1)
        else:
            recency = lru_rec[base:base + assoc]
            victim = recency.index(min(recency))
        frame = base + victim
        victim_tag = row_tags[victim]
        if victim_tag >= 0:
            victim_block = victim_tag * num_sets + set_index
            missmap.pop(victim_block, None)
            way_of.pop(victim_block, None)
            if dirty[frame] and wb_dirty:
                m_access(victim_block * BLOCK_SIZE, BLOCK_SIZE, now, True)
                m_written += 1
                m_req += 1
        tag_array[frame] = block // num_sets
        dirty[frame] = is_write
        clock = lru_clock[set_index] + 1
        lru_clock[set_index] = clock
        lru_rec[frame] = clock
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
