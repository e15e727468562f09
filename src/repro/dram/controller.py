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
(:mod:`repro.engine.kernels`) call directly.  A controller whose
``access`` is overridden or wrapped hands the kernels operations that call
it once per device op instead (:meth:`DramController.ops`).  The lists are the
controller's warm state (``_STATE_ATTRS``): a design snapshot copies them
and a restore writes them back in place, so the bound closures stay valid
across restores.  The closures are never pickled:
:meth:`DramController.__getstate__` drops them and a copy rebinds on first
use, so it always serves accesses on its own lists.
"""

from __future__ import annotations

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
        return int(-(-(data_end - now) * cpu_per_dram // 1))

    def burst(base: int, stride: int, mask: int, num_bytes: int,
              now_cpu: int, is_write: bool) -> int:
        """One device op per set bit of ``mask``, ascending, at
        ``base + bit_index * stride``; returns the *first* op's latency
        (the critical block of a fetch; fills and writebacks ignore it).

        Bit-identical to calling :func:`access` once per bit -- the only
        shortcut is skipping the address decompose while consecutive ops
        stay in the same DRAM row, which is the common case because a
        page's blocks live in one row.
        """
        now = int(now_cpu / cpu_per_dram)
        try:
            transfer = transfer_cache[num_bytes]
        except KeyError:
            transfer = transfer_cache[num_bytes] = data_cycles(num_bytes)
        first_latency = -1
        cur_stripe = -1
        ch = g = row = 0
        # Bank and channel state cached in locals across the run, flushed
        # whenever the run leaves the row and once at the end.
        open_row = col = act = pre = hits = miss = conf = acts = 0
        bus = last = reads = writes = nbytes = 0
        while mask:
            low = mask & -mask
            mask ^= low
            address = base + (low.bit_length() - 1) * stride
            stripe = address // row_bytes
            if stripe != cur_stripe:
                if cur_stripe >= 0:
                    b_open[g] = open_row
                    b_col[g] = col
                    b_act[g] = act
                    b_pre[g] = pre
                    b_hits[g] = hits
                    b_miss[g] = miss
                    b_conf[g] = conf
                    b_acts[g] = acts
                    c_bus[ch] = bus
                    c_last[ch] = last
                    c_reads[ch] = reads
                    c_writes[ch] = writes
                    c_bytes[ch] = nbytes
                cur_stripe = stripe
                ch = stripe % num_channels
                rest = stripe // num_channels
                row = rest // banks_per_channel
                g = ch * banks_per_channel + rest % banks_per_channel
                open_row = b_open[g]
                col = b_col[g]
                act = b_act[g]
                pre = b_pre[g]
                hits = b_hits[g]
                miss = b_miss[g]
                conf = b_conf[g]
                acts = b_acts[g]
                bus = c_bus[ch]
                last = c_last[ch]
                reads = c_reads[ch]
                writes = c_writes[ch]
                nbytes = c_bytes[ch]

            if open_row == row:
                hits += 1
                column_issue = col
                if now > column_issue:
                    column_issue = now
                next_column = column_issue
            else:
                issue_time = last + t_rrd
                if now > issue_time:
                    issue_time = now
                rec = c_recent[ch]
                if len(rec) == faw_window:
                    faw_ready = rec[0] + t_faw
                    if faw_ready > issue_time:
                        issue_time = faw_ready
                    del rec[0]
                rec.append(issue_time)
                last = issue_time

                next_activate = act
                if open_row >= 0:
                    conf += 1
                    precharge_issue = pre
                    if issue_time > precharge_issue:
                        precharge_issue = issue_time
                    ready = precharge_issue + t_rp
                    if ready > next_activate:
                        next_activate = ready
                else:
                    miss += 1
                    ready = issue_time
                    if next_activate > ready:
                        ready = next_activate
                if next_activate > ready:
                    activate_issue = next_activate
                else:
                    activate_issue = ready
                open_row = row
                acts += 1
                act = activate_issue + t_rc
                pre = activate_issue + t_ras
                column_ready = activate_issue + t_rcd
                next_column = col
                if column_ready > next_column:
                    next_column = column_ready
                column_issue = next_column
                if now > column_issue:
                    column_issue = now

            if is_write:
                data_start = column_issue
                horizon = column_issue + t_wr
                if horizon > pre:
                    pre = horizon
                horizon = column_issue + t_wtr
                if horizon > next_column:
                    next_column = horizon
                writes += 1
            else:
                data_start = column_issue + t_cas
                horizon = column_issue + t_rtp
                if horizon > pre:
                    pre = horizon
                horizon = column_issue + 1
                if horizon > next_column:
                    next_column = horizon
                reads += 1
            col = next_column

            if bus > data_start:
                data_start = bus
            data_end = data_start + transfer
            bus = data_end
            nbytes += num_bytes
            if first_latency < 0:
                first_latency = int(-(-(data_end - now) * cpu_per_dram
                                      // 1))
        if cur_stripe >= 0:
            b_open[g] = open_row
            b_col[g] = col
            b_act[g] = act
            b_pre[g] = pre
            b_hits[g] = hits
            b_miss[g] = miss
            b_conf[g] = conf
            b_acts[g] = acts
            c_bus[ch] = bus
            c_last[ch] = last
            c_reads[ch] = reads
            c_writes[ch] = writes
            c_bytes[ch] = nbytes
        return first_latency

    def read_pair(addr_a: int, bytes_a: int, addr_b: int, bytes_b: int,
                  now_cpu: int, serialized: bool) -> int:
        """Two reads issued at the same instant (the page-hit tag+data
        pattern); returns their serialized sum or overlapped max.

        Bit-identical to two :func:`access` calls; fused to share the
        clock-domain conversion and, when both reads land in the same DRAM
        row (tags live beside the data in the in-DRAM layout), the address
        decompose.
        """
        now = int(now_cpu / cpu_per_dram)
        stripe_a = addr_a // row_bytes
        ch = stripe_a % num_channels
        rest = stripe_a // num_channels
        row = rest // banks_per_channel
        g = ch * banks_per_channel + rest % banks_per_channel

        # ---- read A --------------------------------------------------- #
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
            transfer = transfer_cache[bytes_a]
        except KeyError:
            transfer = transfer_cache[bytes_a] = data_cycles(bytes_a)
        if c_bus[ch] > data_start:
            data_start = c_bus[ch]
        data_end = data_start + transfer
        c_bus[ch] = data_end
        c_bytes[ch] += bytes_a
        latency_a = int(-(-(data_end - now) * cpu_per_dram // 1))

        # ---- read B --------------------------------------------------- #
        stripe_b = addr_b // row_bytes
        if stripe_b != stripe_a:
            ch = stripe_b % num_channels
            rest = stripe_b // num_channels
            row = rest // banks_per_channel
            g = ch * banks_per_channel + rest % banks_per_channel

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
            transfer = transfer_cache[bytes_b]
        except KeyError:
            transfer = transfer_cache[bytes_b] = data_cycles(bytes_b)
        if c_bus[ch] > data_start:
            data_start = c_bus[ch]
        data_end = data_start + transfer
        c_bus[ch] = data_end
        c_bytes[ch] += bytes_b
        latency_b = int(-(-(data_end - now) * cpu_per_dram // 1))

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
