"""Off-chip main memory model.

Misses and footprint fetches from the DRAM cache designs arrive here.  The
model answers with latencies from the DDR3-1600 timing model and keeps the
traffic and row-activation statistics that the bandwidth/energy parts of the
evaluation rely on:

* **off-chip traffic** in 64-byte blocks (what the overfetch ratios of
  Table V are computed against), and
* **row activations**: a footprint fetched as one batch activates its row
  once, whereas block-granularity fetches (Alloy Cache) activate a row per
  block in the common case (Section V-D).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.config.system import DramChannelConfig
from repro.dram.controller import DramController
from repro.stats.counters import StatGroup
from repro.trace.record import BLOCK_SIZE


class MainMemory:
    """The off-chip DRAM behind the die-stacked cache."""

    _STATE_ATTRS = ("controller", "blocks_read", "blocks_written", "requests")

    def __init__(self, config: DramChannelConfig = None,
                 cpu_frequency_ghz: float = 3.0) -> None:
        if config is None:
            from repro.config.system import SystemConfig

            config = SystemConfig().offchip_dram
        self.controller = DramController(config, cpu_frequency_ghz)
        self.blocks_read = 0
        self.blocks_written = 0
        self.requests = 0

    # ------------------------------------------------------------------ #
    def read_block(self, block_address: int, now_cpu: int = 0) -> int:
        """Fetch one 64-byte block; returns latency in CPU cycles."""
        latency = self.controller.access(
            block_address * BLOCK_SIZE, BLOCK_SIZE, now_cpu, is_write=False
        )
        self.blocks_read += 1
        self.requests += 1
        return latency

    def write_block(self, block_address: int, now_cpu: int = 0) -> int:
        """Write one 64-byte block back; returns latency in CPU cycles."""
        latency = self.controller.access(
            block_address * BLOCK_SIZE, BLOCK_SIZE, now_cpu, is_write=True
        )
        self.blocks_written += 1
        self.requests += 1
        return latency

    def fetch_blocks(self, block_addresses: Sequence[int], now_cpu: int = 0) -> int:
        """Fetch a batch of blocks (a page footprint) from memory.

        The blocks of a footprint are spatially clustered, so the controller
        naturally coalesces them into few row activations; the returned value
        is the latency of the *critical* (first) block -- the remaining blocks
        stream in the background, which is how the Footprint/Unison fill path
        behaves.
        """
        if not block_addresses:
            return 0
        critical_latency = 0
        for index, block in enumerate(block_addresses):
            latency = self.controller.access(
                block * BLOCK_SIZE, BLOCK_SIZE, now_cpu, is_write=False
            )
            self.blocks_read += 1
            if index == 0:
                critical_latency = latency
        self.requests += 1
        return critical_latency

    def write_blocks(self, block_addresses: Iterable[int], now_cpu: int = 0) -> None:
        """Write back a batch of dirty blocks (page eviction)."""
        for block in block_addresses:
            self.controller.access(
                block * BLOCK_SIZE, BLOCK_SIZE, now_cpu, is_write=True
            )
            self.blocks_written += 1
        self.requests += 1

    # ------------------------------------------------------------------ #
    @property
    def blocks_transferred(self) -> int:
        """Total off-chip traffic in blocks (reads + writes)."""
        return self.blocks_read + self.blocks_written

    @property
    def row_activations(self) -> int:
        """Off-chip DRAM row activations (energy proxy)."""
        return self.controller.total_activations

    def stats(self) -> StatGroup:
        """Traffic and activation statistics."""
        group = StatGroup("main_memory")
        group.set("blocks_read", self.blocks_read)
        group.set("blocks_written", self.blocks_written)
        group.set("blocks_transferred", self.blocks_transferred)
        group.set("row_activations", self.row_activations)
        group.set("requests", self.requests)
        return group
