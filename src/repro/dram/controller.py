"""DRAM controller: the one DRAM timing model.

:class:`DramController` is the interface the DRAM cache models and the main
memory use: it maps addresses to channels/banks/rows, performs accesses
against the timing model, and reports latencies in **CPU cycles** so callers
never handle DRAM-bus cycles directly.

The device state lives in flat lists on the controller -- per bank (global
index ``g = channel * banks_per_rank + bank``) the open row and the earliest
cycles of the next activate / column command / precharge, per channel the
data-bus reservation, the tRRD/tFAW activate history and the traffic
counters.  :func:`_bind` closes over those lists and returns the access
arithmetic once, as :class:`DramOps`: ``access`` serves one request;
``burst`` and ``read_pair`` are fused forms of repeated ``access`` calls,
bit-identical to them, that the batch kernels
(:mod:`repro.engine.kernels`) call directly.  They serve each same-row run
of device ops -- a page's blocks, or a tag read and the data beside it --
with one ``access`` for the run's first op and one closed-form update for
the row hits behind it, instead of one ``access`` per op.  A controller
whose ``access`` is overridden or wrapped hands the kernels operations
that call it once per device op instead (:meth:`DramController.ops`), so
instrumented runs never take the closed form.  The lists are the
controller's warm state (``_STATE_ATTRS``): a design snapshot copies them
and a restore writes them back in place, so the bound closures stay valid
across restores.  The closures are never pickled:
:meth:`DramController.__getstate__` drops them and a copy rebinds on first
use, so it always serves accesses on its own lists.
"""

from __future__ import annotations

from math import ceil
from typing import Callable, List, NamedTuple, Optional

from repro.config.system import DramChannelConfig
from repro.dram.timing import DramTimings
from repro.stats.counters import StatGroup


class DramOps(NamedTuple):
    """The timing closures bound to one controller's state lists."""

    #: ``access(address, num_bytes, now_cpu, is_write) -> latency_cpu``.
    access: Callable[[int, int, int, bool], int]
    #: ``burst(base, stride, mask, num_bytes, now_cpu, is_write)``.
    burst: Callable[[int, int, int, int, int, bool], int]
    #: ``read_pair(addr_a, bytes_a, addr_b, bytes_b, now_cpu, serialized)``.
    read_pair: Callable[[int, int, int, int, int, bool], int]


class DramController:
    """Open-page controller over one or more channels.

    The controller keeps a coarse notion of time: callers pass the CPU cycle
    at which a request arrives, and receive its latency.  Internally the
    per-bank and per-bus constraints are tracked in DRAM bus cycles.

    Consecutive row-buffer-sized stripes of the address space interleave
    over channels, then banks (row:bank:channel order), which maximizes
    bank-level parallelism for the footprint-granularity transfers the DRAM
    cache performs.

    Parameters
    ----------
    config:
        Channel organization and timing parameters.
    cpu_frequency_ghz:
        CPU frequency used to convert latencies to CPU cycles.
    """

    #: Warm-state buffers (see :func:`repro.dramcache.base.state_leaves`).
    _STATE_ATTRS = ("open_row", "next_activate", "next_column",
                    "next_precharge", "activations", "row_hits", "row_misses",
                    "row_conflicts", "bus_free", "last_activate",
                    "recent_activates", "reads", "writes",
                    "bytes_transferred")

    def __init__(self, config: DramChannelConfig, cpu_frequency_ghz: float = 3.0) -> None:
        config.validate()
        self.config = config
        self.cpu_frequency_ghz = cpu_frequency_ghz
        self.timings = DramTimings.from_channel_config(config)
        self._cpu_per_dram = (cpu_frequency_ghz * 1000.0) / config.frequency_mhz
        channels = config.num_channels
        banks = channels * config.banks_per_rank
        # Per-bank state.
        self.open_row: List[int] = [-1] * banks       # -1: precharged (idle)
        self.next_activate: List[int] = [0] * banks
        self.next_column: List[int] = [0] * banks
        self.next_precharge: List[int] = [0] * banks
        self.activations: List[int] = [0] * banks
        self.row_hits: List[int] = [0] * banks
        self.row_misses: List[int] = [0] * banks
        self.row_conflicts: List[int] = [0] * banks
        # Per-channel state.
        self.bus_free: List[int] = [0] * channels
        self.last_activate: List[int] = [-(10 ** 9)] * channels
        self.recent_activates: List[List[int]] = [[] for _ in range(channels)]
        self.reads: List[int] = [0] * channels
        self.writes: List[int] = [0] * channels
        self.bytes_transferred: List[int] = [0] * channels
        self._ops: Optional[DramOps] = None

    def __getstate__(self) -> dict:
        # The bound closures capture *these* lists; a copy must rebind to
        # its own.
        state = self.__dict__.copy()
        state["_ops"] = None
        return state

    def ops(self) -> DramOps:
        """The timing operations the batch kernels call.

        Normally the closures over this controller's state lists.  When
        :meth:`access` is overridden -- by a subclass, or by instrumentation
        wrapping the method -- every operation goes through ``self.access``
        instead, one call per device op, so the override sees the kernels'
        traffic as it sees the scalar engine's.
        """
        if type(self).access is not _STOCK_ACCESS:
            return _routed(self.access)
        return self._bound()

    def _bound(self) -> DramOps:
        ops = self._ops
        if ops is None:
            ops = self._ops = _bind(self)
        return ops

    # ------------------------------------------------------------------ #
    def access(self, address: int, num_bytes: int, now_cpu: int = 0,
               is_write: bool = False) -> int:
        """Access ``num_bytes`` starting at ``address``.

        The transfer is assumed to stay within one DRAM row (the DRAM cache
        models guarantee this by construction).  Returns the latency in CPU
        cycles from request arrival to last data beat.
        """
        if num_bytes <= 0:
            raise ValueError("num_bytes must be positive")
        if address < 0:
            raise ValueError("address must be non-negative")
        return (self._ops or self._bound()).access(address, num_bytes,
                                                    now_cpu, is_write)

    # ------------------------------------------------------------------ #
    @property
    def total_requests(self) -> int:
        """Requests served (every request is one read or one write)."""
        return sum(self.reads) + sum(self.writes)

    @property
    def total_activations(self) -> int:
        """Row activations across all channels (energy proxy, Section V-D)."""
        return sum(self.activations)

    @property
    def total_bytes_transferred(self) -> int:
        """Bytes moved over all data buses."""
        return sum(self.bytes_transferred)

    def stats(self) -> StatGroup:
        """Controller-level statistics."""
        group = StatGroup(self.config.name)
        group.set("requests", self.total_requests)
        group.set("activations", self.total_activations)
        group.set("bytes_transferred", self.total_bytes_transferred)
        group.set("reads", sum(self.reads))
        group.set("writes", sum(self.writes))
        return group


def _bind(controller: DramController) -> DramOps:
    """Close the timing arithmetic over ``controller``'s state lists.

    Open-page policy per bank: a row-buffer hit issues the column command
    at once; a miss activates the row, precharging first on a conflict
    (tRP), subject to tRC/tRAS per bank and tRRD/tFAW per channel.  Column
    commands respect tRCD, then tCAS for reads; tWR/tWTR (writes) and
    tRTP (reads) push back the bank's next precharge and column command.
    The data transfer then waits for the channel's shared data bus.
    """
    config = controller.config
    timings = controller.timings
    cpu_per_dram = controller._cpu_per_dram

    num_channels = config.num_channels
    banks_per_channel = config.banks_per_rank
    row_bytes = config.row_buffer_bytes

    t_cas = timings.t_cas
    t_rcd = timings.t_rcd
    t_rp = timings.t_rp
    t_ras = timings.t_ras
    t_rc = timings.t_rc
    t_wr = timings.t_wr
    t_wtr = timings.t_wtr
    t_rtp = timings.t_rtp
    t_rrd = timings.t_rrd
    t_faw = timings.t_faw
    faw_window = 4  # tFAW bounds any four consecutive activates

    b_open = controller.open_row
    b_act = controller.next_activate
    b_col = controller.next_column
    b_pre = controller.next_precharge
    b_acts = controller.activations
    b_hits = controller.row_hits
    b_miss = controller.row_misses
    b_conf = controller.row_conflicts
    c_bus = controller.bus_free
    c_last = controller.last_activate
    c_recent = controller.recent_activates
    c_reads = controller.reads
    c_writes = controller.writes
    c_bytes = controller.bytes_transferred

    # data_cycles(num_bytes) is pure; callers use only a handful of sizes.
    transfer_cache = {}
    data_cycles = timings.data_cycles

    def access(address: int, num_bytes: int, now_cpu: int,
               is_write: bool) -> int:
        # Unchecked: DramController.access validates outside input, and the
        # kernels issue only positive sizes at non-negative addresses.
        # Address decompose: row-sized stripes interleave channels, then
        # banks.
        stripe = address // row_bytes
        ch = stripe % num_channels
        stripe //= num_channels
        row = stripe // banks_per_channel
        g = ch * banks_per_channel + stripe % banks_per_channel

        now = int(now_cpu / cpu_per_dram)

        if b_open[g] == row:
            b_hits[g] += 1
            column_issue = b_col[g]
            if now > column_issue:
                column_issue = now
            next_column = column_issue
        else:
            issue_time = c_last[ch] + t_rrd
            if now > issue_time:
                issue_time = now
            rec = c_recent[ch]
            if len(rec) == faw_window:
                faw_ready = rec[0] + t_faw
                if faw_ready > issue_time:
                    issue_time = faw_ready
                del rec[0]
            rec.append(issue_time)
            c_last[ch] = issue_time

            next_activate = b_act[g]
            if b_open[g] >= 0:
                # Row conflict: precharge the open row first.
                b_conf[g] += 1
                precharge_issue = b_pre[g]
                if issue_time > precharge_issue:
                    precharge_issue = issue_time
                ready = precharge_issue + t_rp
                if ready > next_activate:
                    next_activate = ready
            else:
                b_miss[g] += 1
                ready = issue_time
                if next_activate > ready:
                    ready = next_activate
            if next_activate > ready:
                activate_issue = next_activate
            else:
                activate_issue = ready
            b_open[g] = row
            b_acts[g] += 1
            b_act[g] = activate_issue + t_rc
            b_pre[g] = activate_issue + t_ras
            column_ready = activate_issue + t_rcd
            next_column = b_col[g]
            if column_ready > next_column:
                next_column = column_ready
            column_issue = next_column
            if now > column_issue:
                column_issue = now

        if is_write:
            data_start = column_issue
            horizon = column_issue + t_wr
            if horizon > b_pre[g]:
                b_pre[g] = horizon
            horizon = column_issue + t_wtr
            if horizon > next_column:
                next_column = horizon
            c_writes[ch] += 1
        else:
            data_start = column_issue + t_cas
            horizon = column_issue + t_rtp
            if horizon > b_pre[g]:
                b_pre[g] = horizon
            horizon = column_issue + 1
            if horizon > next_column:
                next_column = horizon
            c_reads[ch] += 1
        b_col[g] = next_column

        try:
            transfer = transfer_cache[num_bytes]
        except KeyError:
            transfer = transfer_cache[num_bytes] = data_cycles(num_bytes)
        if c_bus[ch] > data_start:
            data_start = c_bus[ch]
        data_end = data_start + transfer
        c_bus[ch] = data_end
        c_bytes[ch] += num_bytes

        # DRAM to CPU cycles, rounded up.
        return ceil((data_end - now) * cpu_per_dram)

    def burst(base: int, stride: int, mask: int, num_bytes: int,
              now_cpu: int, is_write: bool) -> int:
        """One device op per set bit of ``mask``, ascending, at
        ``base + bit_index * stride`` (``stride > 0``); returns the *first*
        op's latency (the critical block of a fetch; fills and writebacks
        ignore it).

        Bit-identical to calling :func:`access` once per bit, but served
        one same-row run at a time: a page's blocks live in one DRAM row,
        so a run is usually the whole mask.  The run's first op is an
        :func:`access`; the other ``k - 1`` are row hits, applied in
        closed form (see the comment in the loop).
        """
        first_latency = -1
        while mask:
            first = (mask & -mask).bit_length() - 1
            address = base + first * stride
            latency = access(address, num_bytes, now_cpu, is_write)
            if first_latency < 0:
                first_latency = latency
            # The run: the bits whose addresses fall in the first op's
            # stripe, i.e. below bit ``end``, the first index past the row.
            stripe = address // row_bytes
            end = first - (address - (stripe + 1) * row_bytes) // stride
            run = mask & ((1 << end) - 1)
            mask ^= run
            rest = run.bit_count() - 1
            if not rest:
                continue
            # The run's other ``rest`` ops (k = rest + 1 in all) are row
            # hits.  After the first op the bank's next column slot c1 + step
            # lies past ``now`` (c1 >= now), so op j issues at
            # c_j = c1 + (j - 1) * step: step 1 for reads, tWTR for writes.
            # Op j's data starts at max(bus, c_j + d), d = tCAS for reads
            # and 0 for writes, and takes T >= 1 cycles, so the run leaves
            # the bus at max(bus + rest * T, max over j >= 2 of
            # c_j + d + (k - j + 1) * T), ``bus`` as the first op left it.
            # The inner term is linear in j.  For step >= T it peaks at the
            # last op, c_k + d + T.  For step < T it peaks at j = 2, at
            # c1 + step + d + rest * T, which is below bus + rest * T since
            # the first op left bus >= c1 + d + T.  So
            # max(bus + rest * T, c_k + d + T) is exact in both regimes; for
            # reads (step 1 <= T) it is always bus + rest * T.
            ch = stripe % num_channels
            g = (ch * banks_per_channel
                 + stripe // num_channels % banks_per_channel)
            try:
                transfer = transfer_cache[num_bytes]
            except KeyError:
                transfer = transfer_cache[num_bytes] = data_cycles(num_bytes)
            bus_end = c_bus[ch] + rest * transfer
            if is_write:
                last_issue = b_col[g] + (rest - 1) * t_wtr
                b_col[g] = last_issue + t_wtr
                horizon = last_issue + t_wr
                if last_issue + transfer > bus_end:
                    bus_end = last_issue + transfer
                c_writes[ch] += rest
            else:
                last_issue = b_col[g] + rest - 1
                b_col[g] = last_issue + 1
                horizon = last_issue + t_rtp
                c_reads[ch] += rest
            if horizon > b_pre[g]:
                b_pre[g] = horizon
            c_bus[ch] = bus_end
            b_hits[g] += rest
            c_bytes[ch] += rest * num_bytes
        return first_latency

    def read_pair(addr_a: int, bytes_a: int, addr_b: int, bytes_b: int,
                  now_cpu: int, serialized: bool) -> int:
        """Two reads issued at the same instant (the page-hit tag+data
        pattern); returns their serialized sum or overlapped max.

        Bit-identical to two :func:`access` calls.  When B lands in A's
        DRAM row (tags live beside the data in the in-DRAM layout), B is
        the two-read run of :func:`burst` in closed form: a row hit that
        issues one cycle after A and ends one B-transfer after A's data.
        """
        latency_a = access(addr_a, bytes_a, now_cpu, False)
        stripe = addr_a // row_bytes
        if addr_b // row_bytes != stripe:
            latency_b = access(addr_b, bytes_b, now_cpu, False)
        else:
            ch = stripe % num_channels
            g = (ch * banks_per_channel
                 + stripe // num_channels % banks_per_channel)
            column_issue = b_col[g]
            b_col[g] = column_issue + 1
            horizon = column_issue + t_rtp
            if horizon > b_pre[g]:
                b_pre[g] = horizon
            try:
                transfer = transfer_cache[bytes_b]
            except KeyError:
                transfer = transfer_cache[bytes_b] = data_cycles(bytes_b)
            data_end = c_bus[ch] + transfer
            c_bus[ch] = data_end
            b_hits[g] += 1
            c_reads[ch] += 1
            c_bytes[ch] += bytes_b
            latency_b = ceil((data_end - int(now_cpu / cpu_per_dram))
                             * cpu_per_dram)

        if serialized:
            return latency_a + latency_b
        if latency_a > latency_b:
            return latency_a
        return latency_b

    return DramOps(access, burst, read_pair)


_STOCK_ACCESS = DramController.access


def _routed(access: Callable[[int, int, int, bool], int]) -> DramOps:
    """``burst`` and ``read_pair`` as the ``access`` calls they fuse."""

    def burst(base: int, stride: int, mask: int, num_bytes: int,
              now_cpu: int, is_write: bool) -> int:
        first_latency = -1
        while mask:
            low = mask & -mask
            mask ^= low
            latency = access(base + (low.bit_length() - 1) * stride,
                             num_bytes, now_cpu, is_write)
            if first_latency < 0:
                first_latency = latency
        return first_latency

    def read_pair(addr_a: int, bytes_a: int, addr_b: int, bytes_b: int,
                  now_cpu: int, serialized: bool) -> int:
        latency_a = access(addr_a, bytes_a, now_cpu, False)
        latency_b = access(addr_b, bytes_b, now_cpu, False)
        if serialized:
            return latency_a + latency_b
        if latency_a > latency_b:
            return latency_a
        return latency_b

    return DramOps(access, burst, read_pair)


__all__ = ["DramController", "DramOps"]
