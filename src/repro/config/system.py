"""Architectural system parameters (paper Table III).

The defaults reproduce the evaluated system, as far as the trace-driven
models and the analytical performance model read it: a 16-core
Scale-Out-Processor pod with out-of-order cores at 3 GHz, a 4 MB 16-way
shared L2, one DDR3-1600 off-chip channel, and a four-channel DDR-like
die-stacked DRAM with 8 KB rows and a 128-bit bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import parse_size, SizeLike


@dataclass(frozen=True)
class CoreConfig:
    """A single core of the CMP."""

    frequency_ghz: float = 3.0
    #: Average memory-level parallelism the out-of-order core can sustain for
    #: off-chip misses.  Used by the analytic performance model; scale-out
    #: server workloads have modest MLP (the paper's motivation cites their
    #: pointer-intensive, dependent access patterns).
    mlp: float = 2.0
    #: Fraction of dynamic instructions that access memory (loads + stores),
    #: and base IPC in the absence of any L2 miss, both used by the
    #: performance model.
    memory_instruction_fraction: float = 0.30
    base_ipc: float = 1.2


@dataclass(frozen=True)
class SramCacheConfig:
    """Configuration of an SRAM cache level (the shared L2)."""

    name: str
    size: SizeLike
    associativity: int
    block_size: int = 64
    hit_latency_cycles: int = 2

    @property
    def size_bytes(self) -> int:
        """Capacity in bytes."""
        return parse_size(self.size)

    @property
    def num_blocks(self) -> int:
        """Total number of blocks."""
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_blocks // self.associativity

    def validate(self) -> None:
        """Raise ``ValueError`` if the configuration is not self-consistent."""
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError(f"{self.name}: block_size must be a power of two")
        if self.associativity <= 0:
            raise ValueError(f"{self.name}: associativity must be positive")
        if self.size_bytes % self.block_size:
            raise ValueError(f"{self.name}: size must be a multiple of block_size")
        if self.num_blocks % self.associativity:
            raise ValueError(
                f"{self.name}: number of blocks must be divisible by associativity"
            )


@dataclass(frozen=True)
class DramChannelConfig:
    """Organization and timing of one DRAM channel.

    Timing parameters are in memory-bus cycles and follow the paper's
    Table III for both the off-chip DDR3-1600 channel and the DDR-like
    stacked DRAM channels.
    """

    name: str
    frequency_mhz: float
    num_channels: int
    banks_per_rank: int
    row_buffer_bytes: int
    bus_width_bits: int
    #: DRAM timing parameters (Table III), in DRAM bus cycles.
    t_cas: int = 11
    t_rcd: int = 11
    t_rp: int = 11
    t_ras: int = 28
    t_rc: int = 39
    t_wr: int = 12
    t_wtr: int = 6
    t_rtp: int = 6
    t_rrd: int = 5
    t_faw: int = 24
    burst_length: int = 8

    def validate(self) -> None:
        """Raise ``ValueError`` for nonsensical organizations."""
        if self.num_channels <= 0 or self.banks_per_rank <= 0:
            raise ValueError(f"{self.name}: channels and banks must be positive")
        if self.row_buffer_bytes <= 0 or self.bus_width_bits % 8:
            raise ValueError(f"{self.name}: bad row buffer or bus width")

    @property
    def bus_bytes_per_cycle(self) -> float:
        """Bytes transferred per DRAM bus cycle (double data rate)."""
        return 2 * self.bus_width_bits / 8

    def transfer_cycles(self, num_bytes: int) -> int:
        """Bus cycles needed to transfer ``num_bytes`` (rounded up)."""
        if num_bytes <= 0:
            return 0
        cycles = -(-num_bytes // int(self.bus_bytes_per_cycle))
        return cycles


def _default_l2() -> SramCacheConfig:
    return SramCacheConfig(
        name="L2", size="4MB", associativity=16, block_size=64,
        hit_latency_cycles=13,
    )


def _default_offchip() -> DramChannelConfig:
    return DramChannelConfig(
        name="offchip-ddr3-1600",
        frequency_mhz=800.0,
        num_channels=1,
        banks_per_rank=8,
        row_buffer_bytes=8 * 1024,
        bus_width_bits=64,
    )


def _default_stacked() -> DramChannelConfig:
    return DramChannelConfig(
        name="stacked-dram",
        frequency_mhz=1600.0,
        num_channels=4,
        banks_per_rank=8,
        row_buffer_bytes=8 * 1024,
        bus_width_bits=128,
    )


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration (paper Table III defaults)."""

    num_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    l2: SramCacheConfig = field(default_factory=_default_l2)
    offchip_dram: DramChannelConfig = field(default_factory=_default_offchip)
    stacked_dram: DramChannelConfig = field(default_factory=_default_stacked)
    #: Crossbar (16x4) traversal latency in CPU cycles.
    interconnect_latency_cycles: int = 4
    #: Average off-chip main-memory access latency seen by the L2 miss path
    #: in CPU cycles (queueing included); derived from the DDR3-1600 channel.
    offchip_latency_cycles: int = 220

    def validate(self) -> None:
        """Validate every nested configuration."""
        if self.num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.l2.validate()
        self.offchip_dram.validate()
        self.stacked_dram.validate()
