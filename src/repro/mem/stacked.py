"""Die-stacked DRAM device.

The stacked DRAM holds the cache's data (and embedded tags for Unison and
Alloy).  The cache models express their operations in terms of row-relative
accesses -- "read 32 bytes of tag metadata from row R", "read block b of row R
overlapped with the tags", "fill these blocks of row R" -- and this class maps
them onto the four-channel DDR-like timing model of Table III.  Every access
returns its latency in CPU cycles as a plain ``int``.
"""

from __future__ import annotations

from repro.config.system import DramChannelConfig
from repro.dram.controller import DramController
from repro.stats.counters import StatGroup
from repro.trace.record import BLOCK_SIZE


class StackedDram:
    """In-package DRAM exposed at row/block granularity to the cache models."""

    _STATE_ATTRS = ("controller",)

    def __init__(self, config: DramChannelConfig = None,
                 cpu_frequency_ghz: float = 3.0) -> None:
        if config is None:
            from repro.config.system import SystemConfig

            config = SystemConfig().stacked_dram
        self.config = config
        self.controller = DramController(config, cpu_frequency_ghz)
        self.row_bytes = config.row_buffer_bytes

    # ------------------------------------------------------------------ #
    def row_address(self, row_index: int, offset: int = 0) -> int:
        """Byte address of ``offset`` within logical cache row ``row_index``."""
        if offset >= self.row_bytes:
            raise ValueError("offset exceeds the row size")
        return row_index * self.row_bytes + offset

    # ------------------------------------------------------------------ #
    def read(self, row_index: int, offset: int, num_bytes: int,
             now_cpu: int = 0) -> int:
        """Read ``num_bytes`` at ``offset`` within a row; returns CPU cycles."""
        return self.controller.access(
            self.row_address(row_index, offset), num_bytes, now_cpu, is_write=False
        )

    def write(self, row_index: int, offset: int, num_bytes: int,
              now_cpu: int = 0) -> int:
        """Write ``num_bytes`` at ``offset`` within a row; returns CPU cycles."""
        return self.controller.access(
            self.row_address(row_index, offset), num_bytes, now_cpu, is_write=True
        )

    def read_block(self, row_index: int, block_offset_bytes: int,
                   now_cpu: int = 0) -> int:
        """Read one 64-byte data block from a row."""
        return self.read(row_index, block_offset_bytes, BLOCK_SIZE, now_cpu)

    def fill_blocks(self, row_index: int, block_offsets_bytes, now_cpu: int = 0) -> int:
        """Write a batch of blocks into a row (cache fill); returns total cycles."""
        last = 0
        for offset in block_offsets_bytes:
            last = max(last, self.write(row_index, offset, BLOCK_SIZE, now_cpu))
        return last

    # ------------------------------------------------------------------ #
    @property
    def row_activations(self) -> int:
        """Stacked-DRAM row activations (energy proxy)."""
        return self.controller.total_activations

    @property
    def bytes_transferred(self) -> int:
        """Bytes moved over the TSV buses."""
        return self.controller.total_bytes_transferred

    def stats(self) -> StatGroup:
        """Device statistics."""
        group = StatGroup("stacked_dram")
        group.set("row_activations", self.row_activations)
        group.set("bytes_transferred", self.bytes_transferred)
        group.set("requests", self.controller.total_requests)
        return group
