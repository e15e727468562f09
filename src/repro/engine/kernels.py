"""Fused service kernels: one loop per tag organization for warming and replay.

Each kernel below fuses one tag organization's entire service loop
(composed engine + tag organization + replacement + predictors) into a
single Python loop that mutates the components' own flat state buffers in
place (see :class:`repro.dramcache.components._SetAssocPageTags`) and drives
DRAM timing through the controllers' own closures
(:meth:`repro.dram.controller.DramController.ops`).  The scalar path walks
four policy-role objects per access and builds ``Lookup``/
``HitPrediction``/``FetchDecision`` instances; a kernel does neither.

A kernel call is bit-identical to servicing the same accesses one by one
through :meth:`~repro.dramcache.base.DramCacheModel.access`:

* every persistent state mutation happens in the same order, with the
  same values, as the scalar engine (including dict insertion order and
  the per-set random draws of random replacement);
* every DRAM device operation is issued in the same order with the same
  (address, num_bytes, now, is_write) arguments, so the bank/channel
  timing state and the traffic counters come out identical;
* every statistic the scalar path records -- the design's
  :class:`~repro.dramcache.stats.DramCacheStats`, the way and MAP-I
  predictors' counters, and the footprint and singleton counters (whose
  own methods the kernels call) -- is counted in loop locals and added
  once at the end.

So the same kernel serves timed measurement (``DramCacheModel.run``) and
functional warming (a replay followed by ``reset_stats()``); see
:mod:`repro.engine.batch`.

:func:`select_kernel` gates dispatch on *exact* component types: a
subclass anywhere in the composition falls back to the scalar engine
rather than risk a silently-diverging shortcut.  SRRIP on in-DRAM page
tags is the one stock composition it keeps scalar (see ``_KERNELS``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

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
    RandomReplacement,
    RripReplacement,
    SramPageTags,
    WayPredictionPolicy,
    WritebackDirtyPolicy,
)
from repro.trace.record import BLOCK_SIZE


def select_kernel(design):
    """Return the fused kernel covering ``design``, or None (scalar path).

    Coverage is decided by identity: the design must be a
    :class:`ComposedDramCache` running the stock ``access``/
    ``_service_request`` drivers, and every policy role must be an exact
    instance of a component class the kernels transliterate.
    """
    return _coverage(design)[0]


def uncovered_component(design) -> Optional[str]:
    """Type name of the first part of ``design`` no kernel covers, or None."""
    return _coverage(design)[1]


def _coverage(design):
    """``(kernel, None)``, or ``(None, name of the uncovered type)``."""
    cls = type(design)
    if (not isinstance(design, ComposedDramCache)
            or cls._service_request is not ComposedDramCache._service_request
            or cls.access is not DramCacheModel.access):
        return None, cls.__name__
    tags_type = type(design.tags)
    entry = _KERNELS.get(tags_type)
    if entry is None:
        return None, tags_type.__name__
    kernel, predictors, fetches, replacements = entry
    for component, covered in ((design.hit_predictor, predictors),
                               (design.fetch, fetches),
                               (design.writeback, _WRITEBACK_TYPES),
                               (design.replacement, replacements)):
        if type(component) not in covered:
            return None, type(component).__name__
    return kernel, None


def _flush(design, cols, now, misses, miss_lat, m_read, m_written, m_req,
           **counts) -> None:
    """Add one kernel call's locals to the design's clock and statistics.

    Every miss fetches exactly one demand block and every other block read
    is a prefetch, so the off-chip block counts follow from the misses and
    the memory traffic; hit latency is the clock's advance less the gaps
    and the miss latency.  ``counts`` are further ``DramCacheStats``
    increments.
    """
    n = cols.n
    writes = sum(cols.wr)
    stats = design.cache_stats
    total_lat = now - design._now - n * design._interarrival
    stats.hits += n - misses
    stats.misses += misses
    stats.read_accesses += n - writes
    stats.write_accesses += writes
    stats.total_hit_latency += total_lat - miss_lat
    stats.total_miss_latency += miss_lat
    counts.setdefault("offchip_demand_blocks", misses)
    counts.setdefault("offchip_prefetch_blocks", m_read - misses)
    stats.offchip_writeback_blocks += m_written
    for name, value in counts.items():
        setattr(stats, name, getattr(stats, name) + value)
    design._now = now
    memory = design.memory
    memory.blocks_read += m_read
    memory.blocks_written += m_written
    memory.requests += m_req


def _mapi_columns(design, cols):
    """(per-access ``(counter table, index)`` pairs, MAP-I parameters), or
    (a dummy column, None) when the design has no MAP-I predictor."""
    hp = design.hit_predictor
    if type(hp) is not MissPredictionPolicy:
        return repeat(0), None
    predictor = hp.predictor
    tables = predictor._tables
    column = zip(map(tables.__getitem__, cols.core),
                 cols.mapi_indices(predictor._index_bits,
                                   predictor.entries_per_core))
    return column, (predictor._threshold, predictor._max_value,
                    hp.latency_cycles)


def _flush_mapi(design, n, misses, false_misses, false_hits) -> None:
    """Add one kernel call's MAP-I outcomes to the predictor's counters."""
    predictor = design.hit_predictor.predictor
    predictor.predictions += n
    predictor.accuracy.add(n - false_misses - false_hits, n)
    predictor.miss_identification.add(misses - false_hits, misses)
    predictor.false_misses += false_misses
    predictor.false_hits += false_hits


# --------------------------------------------------------------------- #
# Kernel A: set-associative page organizations (Unison / Footprint Cache)
# --------------------------------------------------------------------- #
def _page_kernel(design, cols) -> None:
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

    # LRU hits update the clocks inline; every other replacement update,
    # and every victim choice, calls the component's own method.
    replacement = design.replacement
    lru = type(replacement) is LruReplacement
    lru_clock = replacement.clock if lru else None
    lru_rec = replacement.recency if lru else None
    on_access = replacement.on_access
    on_fill = replacement.on_fill
    choose_victim = replacement.victim

    s_access, s_burst, s_pair = design.stacked.controller.ops()
    m_access, m_burst, _ = design.memory.controller.ops()
    m_read = m_written = m_req = 0

    # Device addresses are pure functions of the frame index (the frame's
    # data, presence and PC/offset metadata) and of the set (its tag read).
    frame_base, pres_addr, meta_addr, tag_addr = tags.frame_addresses(
        design.stacked.row_bytes)
    block_bytes = cfg.block_size

    # MAP-I's lookup latency is part of every access's latency, so it
    # folds into the organization's fixed lookup costs.
    mapi_col, mapi = _mapi_columns(design, cols)
    if mapi is not None:
        mp_threshold, mp_max, pred_lat = mapi
    else:
        pred_lat = 0
    if is_dram:
        layout = tags.layout
        pres_pp = layout.presence_bytes_per_page
        pres_set = layout.presence_bytes_per_set
        meta_bytes = layout.pc_offset_bytes_per_page
        overhead = cfg.tag_read_overhead_cycles + pred_lat
        serialized = tags.hit_path == "serialized"
    else:
        tag_latency = tags.tag_latency_cycles + pred_lat

    hp = design.hit_predictor
    way_pred = type(hp) is WayPredictionPolicy
    if way_pred:
        predictor = hp.predictor
        wp_table = predictor._table
        wp_assoc = predictor.associativity
        penalty = hp.mispredict_penalty_cycles
        hint_col = cols.way_indices(bpp, predictor.index_bits)
    else:
        hint_col = mapi_col

    fetch = design.fetch
    fp = fetch if type(fetch) is FootprintFetch else None
    full_page = type(fetch) is FullPageFetch
    ones_mask = (1 << bpp) - 1
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    # A page resides in at most one frame; allocations happen only on page
    # misses and evictions delete, so this stays a bijection.
    page_way = {page: frame % assoc for frame, page in enumerate(pages)
                if valid[frame]}

    misses = miss_lat = underpred = bypasses = evicted = wp_wrong = 0
    false_misses = false_hits = 0
    predicted_miss = False
    now = design._now
    gap = design._interarrival

    for block, pc, is_write, hint in zip(cols.blk, cols.pc, cols.wr,
                                         hint_col):
        now += gap
        page = block // bpp
        offset = block - page * bpp
        try:
            way = page_way[page]
        except KeyError:
            way = -1
        if mapi is not None:
            table, index = hint
            counter = table[index]
            predicted_miss = counter >= mp_threshold
            if way >= 0 and vbits[page % num_sets * assoc + way] >> offset & 1:
                table[index] = counter - 1 if counter > 0 else 0
            else:
                table[index] = counter + 1 if counter < mp_max else counter
                false_hits += not predicted_miss
        if way >= 0:
            set_index = page % num_sets
            frame = set_index * assoc + way
            # Way-predictor training (observe) happens on every page hit.
            if way_pred:
                predicted = wp_table[hint]
                wp_table[hint] = way
                correct = predicted == way
                if not correct:
                    wp_wrong += 1
            else:
                correct = True
            # tags.touch
            demanded[frame] |= 1 << offset
            if is_write:
                dbits[frame] |= 1 << offset
            if lru:
                clock = lru_clock[set_index] + 1
                lru_clock[set_index] = clock
                lru_rec[frame] = clock
            else:
                on_access(set_index, way)

            if vbits[frame] >> offset & 1:
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
                if predicted_miss:
                    # The (wrongly) issued parallel off-chip read.
                    m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
                    m_read += 1
                    m_req += 1
                    false_misses += 1
                now += latency
                continue

            # Page hit, block miss (footprint underprediction).
            if is_dram:
                lookup_lat = s_access(tag_addr[set_index], pres_set, now,
                                      False) + overhead
            else:
                lookup_lat = tag_latency
            latency = lookup_lat + m_access(block * BLOCK_SIZE, BLOCK_SIZE,
                                            now, False)
            m_read += 1
            m_req += 1
            # tags.fill_block
            vbits[frame] |= 1 << offset
            s_access(frame_base[frame] + offset * block_bytes,
                     block_bytes, now, True)
            now += latency
            misses += 1
            miss_lat += latency
            underpred += 1
            continue

        # Trigger miss.
        misses += 1
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
                latency = lookup_lat + m_access(block * BLOCK_SIZE,
                                                BLOCK_SIZE, now, False)
                m_read += 1
                m_req += 1
                if note:
                    fp.singleton_table.insert(page, pc, offset)
                now += latency
                miss_lat += latency
                bypasses += 1
                continue
        elif full_page:
            footprint = ones_mask
            from_history = False
        else:
            footprint = 1 << offset
            from_history = False

        # allocate: victim, evict, fetch, install, device fill.
        base = set_index * assoc
        set_valid = valid[base:base + assoc]
        if False in set_valid:
            victim = set_valid.index(False)
        else:
            victim = choose_victim(set_index)
        frame = base + victim
        if set_valid[victim]:
            evicted += 1
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
        latency = lookup_lat + m_burst(page * bpp * BLOCK_SIZE, BLOCK_SIZE,
                                       footprint, BLOCK_SIZE, now, False)
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
        on_fill(set_index, victim)
        page_way[page] = victim

        s_burst(frame_base[frame], block_bytes, footprint, BLOCK_SIZE,
                now, True)
        if is_dram:
            s_access(pres_addr[frame], pres_pp, now, True)
        now += latency
        miss_lat += latency

    if way_pred:
        page_hits = cols.n - misses + underpred
        predictor.accuracy.add(page_hits - wp_wrong, page_hits)
    elif mapi is not None:
        _flush_mapi(design, cols.n, misses, false_misses, false_hits)
    _flush(design, cols, now, misses, miss_lat, m_read, m_written, m_req,
           underprediction_misses=underpred, singleton_bypasses=bypasses,
           pages_allocated=misses - underpred - bypasses,
           pages_evicted=evicted,
           conflict_evictions=evicted if is_dram else 0)


# --------------------------------------------------------------------- #
# Kernel B: direct-mapped TAD organization (Alloy, alloy+footprint)
# --------------------------------------------------------------------- #
def _direct_mapped_kernel(design, cols) -> None:
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
    m_access, m_burst, _ = design.memory.controller.ops()
    srow_bytes = design.stacked.row_bytes
    m_read = m_written = m_req = 0

    mapi_col, mapi = _mapi_columns(design, cols)
    if mapi is not None:
        mp_threshold, mp_max, pred_lat = mapi
    else:
        pred_lat = 0

    fetch = design.fetch
    fp = fetch if type(fetch) is FootprintFetch else None
    full_page = type(fetch) is FullPageFetch
    ones_mask = (1 << bpp) - 1
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    misses = miss_lat = bypasses = evicted = 0
    false_misses = false_hits = 0
    predicted_miss = False
    now = design._now
    gap = design._interarrival

    for block, pc, is_write, hint in zip(cols.blk, cols.pc, cols.wr,
                                         mapi_col):
        now += gap
        frame = block % num_blocks
        hit = tag_array[frame] == block // num_blocks
        if mapi is not None:
            table, index = hint
            counter = table[index]
            predicted_miss = counter >= mp_threshold
            if hit:
                table[index] = counter - 1 if counter > 0 else 0
            else:
                table[index] = counter + 1 if counter < mp_max else counter
                false_hits += not predicted_miss

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
                false_misses += 1
            if is_write:
                s_access(tad_address, tad_bytes, now, True)
                dirty[frame] = True
            now += latency
            continue

        # Miss path.
        misses += 1
        if predicted_miss:
            lookup_lat = pred_lat
        else:
            row = frame // blocks_per_row
            lookup_lat = pred_lat + s_access(
                row * srow_bytes
                + (frame - row * blocks_per_row) * tad_bytes,
                tad_bytes, now, False)
        page = block // bpp
        offset = block - page * bpp

        if fp is not None:
            footprint, bypass, from_history, note = fp.plan_bits(page, pc,
                                                                 offset)
            if bypass:
                latency = lookup_lat + m_access(block * BLOCK_SIZE,
                                                BLOCK_SIZE, now, False)
                m_read += 1
                m_req += 1
                if note:
                    fp.singleton_table.insert(page, pc, offset)
                now += latency
                miss_lat += latency
                bypasses += 1
                continue
        elif full_page:
            footprint = ones_mask
            from_history = False
        else:
            footprint = 1 << offset
            from_history = False

        if footprint == 1 << offset:
            # Single-block allocation (the Alloy fast path).
            latency = lookup_lat + m_access(block * BLOCK_SIZE, BLOCK_SIZE,
                                            now, False)
            m_read += 1
            m_req += 1
            old_tag = tag_array[frame]
            if old_tag >= 0:
                evicted += 1
                if dirty[frame] and wb_dirty:
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
            now += latency
            miss_lat += latency
            continue

        # Multi-block footprint (hybrid): fetch the region, install each
        # block into its own direct-mapped frame.
        base_block = page * bpp
        latency = lookup_lat + m_burst(base_block * BLOCK_SIZE, BLOCK_SIZE,
                                       footprint, BLOCK_SIZE, now, False)
        m_read += footprint.bit_count()
        m_req += 1

        value = footprint
        while value:
            low = value & -value
            fetched = base_block + low.bit_length() - 1
            value ^= low
            install_frame = fetched % num_blocks
            old_tag = tag_array[install_frame]
            if old_tag >= 0:
                evicted += 1
                if dirty[install_frame] and wb_dirty:
                    m_access((old_tag * num_blocks + install_frame)
                             * BLOCK_SIZE, BLOCK_SIZE, now, True)
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
        now += latency
        miss_lat += latency

    if mapi is not None:
        _flush_mapi(design, cols.n, misses, false_misses, false_hits)
    # Every block read that neither a bypass nor a false miss issued is
    # installed into a frame.
    _flush(design, cols, now, misses, miss_lat, m_read, m_written, m_req,
           singleton_bypasses=bypasses,
           pages_allocated=m_read - false_misses - bypasses,
           pages_evicted=evicted)


# --------------------------------------------------------------------- #
# Kernel C: MissMap-fronted set-per-row organization (Loh-Hill)
# --------------------------------------------------------------------- #
def _missmap_kernel(design, cols) -> None:
    tags = design.tags
    num_sets = tags.num_sets
    assoc = tags.associativity
    tag_blocks = tags.tag_blocks_per_row
    block_bytes = tags.block_size
    tag_array = tags.tag_array
    dirty = tags.dirty
    missmap = tags.missmap

    # LRU hits update the clocks inline; every other replacement update,
    # and every victim choice, calls the component's own method.
    replacement = design.replacement
    lru = type(replacement) is LruReplacement
    lru_clock = replacement.clock if lru else None
    lru_rec = replacement.recency if lru else None
    on_access = replacement.on_access
    on_fill = replacement.on_fill
    choose_victim = replacement.victim

    s_access, _, s_pair = design.stacked.controller.ops()
    m_access = design.memory.controller.ops().access
    srow_bytes = design.stacked.row_bytes
    m_read = m_written = m_req = 0
    wb_dirty = type(design.writeback) is WritebackDirtyPolicy

    mapi_col, mapi = _mapi_columns(design, cols)
    if mapi is not None:
        mp_threshold, mp_max, pred_lat = mapi
    else:
        pred_lat = 0
    # Every access pays the MissMap lookup (and MAP-I's, if present).
    mm_latency = tags.missmap_latency_cycles + pred_lat

    # Present block -> way, maintained alongside the real missmap dict.
    way_of = {}
    for frame, tag in enumerate(tag_array):
        if tag >= 0:
            set_index, way = divmod(frame, assoc)
            block = tag * num_sets + set_index
            if missmap.get(block, False):
                way_of[block] = way

    misses = miss_lat = evicted = 0
    false_misses = false_hits = 0
    predicted_miss = False
    now = design._now
    gap = design._interarrival
    way_of_get = way_of.get
    tag_read_bytes = tag_blocks * block_bytes

    for block, is_write, hint in zip(cols.blk, cols.wr, mapi_col):
        now += gap
        set_index = block % num_sets
        way = way_of_get(block, -1)
        if mapi is not None:
            table, index = hint
            counter = table[index]
            predicted_miss = counter >= mp_threshold
            if way >= 0:
                table[index] = counter - 1 if counter > 0 else 0
            else:
                table[index] = counter + 1 if counter < mp_max else counter
                false_hits += not predicted_miss
        if way >= 0:
            frame = set_index * assoc + way
            if lru:
                clock = lru_clock[set_index] + 1
                lru_clock[set_index] = clock
                lru_rec[frame] = clock
            else:
                on_access(set_index, way)
            row_base = set_index * srow_bytes
            latency = mm_latency + s_pair(
                row_base, tag_read_bytes,
                row_base + (tag_blocks + way) * block_bytes, block_bytes,
                now, True)
            if predicted_miss:
                # The (wrongly) issued parallel off-chip read.
                m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
                m_read += 1
                m_req += 1
                false_misses += 1
            if is_write:
                dirty[frame] = True
            now += latency
            continue

        # Miss: MissMap answers without a DRAM tag read; allocate.
        latency = mm_latency + m_access(block * BLOCK_SIZE, BLOCK_SIZE, now,
                                        False)
        m_read += 1
        m_req += 1
        base = set_index * assoc
        row_tags = tag_array[base:base + assoc]
        if -1 in row_tags:
            victim = row_tags.index(-1)
        else:
            victim = choose_victim(set_index)
        frame = base + victim
        victim_tag = row_tags[victim]
        if victim_tag >= 0:
            evicted += 1
            victim_block = victim_tag * num_sets + set_index
            missmap.pop(victim_block, None)
            way_of.pop(victim_block, None)
            if dirty[frame] and wb_dirty:
                m_access(victim_block * BLOCK_SIZE, BLOCK_SIZE, now, True)
                m_written += 1
                m_req += 1
        tag_array[frame] = block // num_sets
        dirty[frame] = is_write
        on_fill(set_index, victim)
        missmap[block] = True
        way_of[block] = victim
        s_access(set_index * srow_bytes, block_bytes, now, True)
        s_access(set_index * srow_bytes
                 + (tag_blocks + victim) * block_bytes,
                 block_bytes, now, True)
        now += latency
        misses += 1
        miss_lat += latency

    if mapi is not None:
        _flush_mapi(design, cols.n, misses, false_misses, false_hits)
    _flush(design, cols, now, misses, miss_lat, m_read, m_written, m_req,
           pages_allocated=misses, pages_evicted=evicted)


# --------------------------------------------------------------------- #
# Kernel D: the ideal always-hit reference
# --------------------------------------------------------------------- #
def _always_hit_kernel(design, cols) -> None:
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

    _flush(design, cols, now, 0, 0, 0, 0, 0)


# --------------------------------------------------------------------- #
# Kernel E: no stacked cache, everything off chip
# --------------------------------------------------------------------- #
def _no_cache_kernel(design, cols) -> None:
    m_access = design.memory.controller.ops().access
    m_read = m_written = 0

    now = design._now
    gap = design._interarrival
    start = now
    for block, is_write in zip(cols.blk, cols.wr):
        now += gap
        if is_write:
            now += m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, True)
            m_written += 1
        else:
            now += m_access(block * BLOCK_SIZE, BLOCK_SIZE, now, False)
            m_read += 1

    # Every access misses; reads are demand fetches, writes write-backs.
    _flush(design, cols, now, cols.n, now - start - cols.n * gap, m_read,
           m_written, m_read + m_written, offchip_demand_blocks=m_read,
           offchip_prefetch_blocks=0)


# Exact types only: subclasses may override behaviour the kernels inline.
_NO_PREDICTION_TYPES = (NoHitPrediction, OracleWayPrediction,
                        DisabledMissPrediction)
_WRITEBACK_TYPES = (WritebackDirtyPolicy, DropDirtyPolicy)
_REPLACEMENT_TYPES = (LruReplacement, RandomReplacement, RripReplacement)
# SRRIP on in-DRAM page tags stays on the scalar engine: it is the scalar
# fallback the benchmark's tune_queue workload measures (ROADMAP item 4).
# The page kernel runs it bit-identically; only this gate holds it back.
_DRAM_PAGE_REPLACEMENT_TYPES = (LruReplacement, RandomReplacement)
_STATELESS_FETCH_TYPES = (DemandBlockFetch, FullPageFetch)
_FETCH_TYPES = _STATELESS_FETCH_TYPES + (FootprintFetch,)
_PAGE_PREDICTION_TYPES = _NO_PREDICTION_TYPES + (WayPredictionPolicy,
                                                 MissPredictionPolicy)

#: Tag organization -> (kernel, covered hit predictors, covered fetches,
#: covered replacements).
_KERNELS = {
    DramPageTags: (_page_kernel, _PAGE_PREDICTION_TYPES, _FETCH_TYPES,
                   _DRAM_PAGE_REPLACEMENT_TYPES),
    SramPageTags: (_page_kernel, _PAGE_PREDICTION_TYPES, _FETCH_TYPES,
                   _REPLACEMENT_TYPES),
    DirectMappedBlockTags: (_direct_mapped_kernel, _NO_PREDICTION_TYPES
                            + (MissPredictionPolicy,), _FETCH_TYPES,
                            _REPLACEMENT_TYPES),
    MissMapBlockTags: (_missmap_kernel, _NO_PREDICTION_TYPES
                       + (MissPredictionPolicy,), _STATELESS_FETCH_TYPES,
                       _REPLACEMENT_TYPES),
    AlwaysHitTags: (_always_hit_kernel, _NO_PREDICTION_TYPES, _FETCH_TYPES,
                    _REPLACEMENT_TYPES),
    NoCacheTags: (_no_cache_kernel, _NO_PREDICTION_TYPES,
                  _STATELESS_FETCH_TYPES, _REPLACEMENT_TYPES),
}


__all__ = ["select_kernel", "uncovered_component"]
