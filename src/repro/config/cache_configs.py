"""Per-design DRAM cache configurations.

Each of the three evaluated designs (Unison Cache, Alloy Cache, Footprint
Cache) has its own configuration dataclass capturing the organizational
parameters from Section IV-C, plus the Footprint Cache SRAM tag-array model of
Table IV that drives its capacity-dependent tag-lookup latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.utils.units import format_size, parse_size, SizeLike

#: Data block size used throughout the paper (bytes).
BLOCK_SIZE = 64

#: DRAM row buffer size used throughout the paper (bytes).
ROW_BUFFER_SIZE = 8 * 1024

#: Footprint history table entries (the 144 KB table of Table II) --
#: default of the footprint fetch-policy component, which Unison Cache and
#: Footprint Cache both use.
FOOTPRINT_TABLE_ENTRIES = 16 * 1024

#: Singleton table entries (Section III-A.4), shared like the above.
SINGLETON_TABLE_ENTRIES = 1024


def way_predictor_index_bits_for_capacity(paper_capacity_bytes: int) -> int:
    """The paper's way-predictor sizing rule (Sections III-A.6 and IV).

    "A 2-bit array directly indexed by the 12-bit XOR hash of the page
    address (16-bit XOR for caches above 4GB)" -- sized by the *paper*
    capacity, never the scaled-down simulated one.
    """
    return 16 if paper_capacity_bytes > 4 * 1024 ** 3 else 12


# --------------------------------------------------------------------------- #
# Unison Cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class UnisonCacheConfig:
    """Unison Cache organization (Section IV-C.1 defaults).

    The default is the paper's main design point: four-way set-associative,
    960-byte pages (15 blocks), two sets per 8 KB DRAM row.  The way
    predictor and footprint predictor are components of the design, sized
    by their builders in :mod:`repro.dramcache.components`.
    """

    capacity: SizeLike = "1GB"
    blocks_per_page: int = 15
    associativity: int = 4
    block_size: int = BLOCK_SIZE
    row_buffer_size: int = ROW_BUFFER_SIZE
    #: Tag metadata bytes per page stored in the DRAM row (page tag, valid
    #: bit, valid/dirty bit vectors, LRU bits, (PC, offset) pair) -- 8 bytes
    #: per page as drawn in Figure 2.
    tag_bytes_per_page: int = 8
    #: Way-predictor index width: 12-bit XOR hash (16-bit above 4 GB).
    way_predictor_index_bits: int = 12
    #: Extra CPU cycles on a hit to stream the set's tag metadata (two bursts
    #: over the 128-bit TSV bus = 2 CPU cycles, Section III-A.6).
    tag_read_overhead_cycles: int = 2
    #: Penalty in CPU cycles for a way misprediction: the correct way is
    #: re-read from the (open) row buffer.
    way_mispredict_penalty_cycles: int = 12

    @property
    def capacity_bytes(self) -> int:
        """Total stacked-DRAM capacity devoted to this cache."""
        return parse_size(self.capacity)

    @property
    def page_data_bytes(self) -> int:
        """Data bytes per page (e.g. 960 for 15 blocks)."""
        return self.blocks_per_page * self.block_size

    @property
    def page_total_bytes(self) -> int:
        """Data plus embedded tag bytes per page."""
        return self.page_data_bytes + self.tag_bytes_per_page

    @property
    def pages_per_row(self) -> int:
        """Number of pages that fit in one DRAM row (data + tags)."""
        return self.row_buffer_size // self.page_total_bytes

    @property
    def sets_per_row(self) -> int:
        """Number of complete sets per DRAM row.

        Zero when the associativity exceeds the pages a row can hold (only
        the 32-way sensitivity study hits this); sets then span several rows.
        """
        return self.pages_per_row // self.associativity

    @property
    def num_rows(self) -> int:
        """Number of DRAM rows the cache occupies."""
        return self.capacity_bytes // self.row_buffer_size

    @property
    def num_pages(self) -> int:
        """Total number of page frames."""
        return self.num_rows * self.pages_per_row

    @property
    def num_sets(self) -> int:
        """Total number of sets."""
        return self.num_pages // self.associativity

    @property
    def data_blocks_per_row(self) -> int:
        """Data blocks stored per DRAM row (120 for the default config)."""
        return self.pages_per_row * self.blocks_per_page

    @property
    def in_dram_tag_bytes(self) -> int:
        """Total bytes of DRAM capacity consumed by embedded tags."""
        return self.num_pages * self.tag_bytes_per_page

    @property
    def in_dram_tag_fraction(self) -> float:
        """Fraction of the stacked DRAM spent on tags (~3-6%, Table II)."""
        row_overhead = self.row_buffer_size - self.data_blocks_per_row * self.block_size
        return row_overhead / self.row_buffer_size

    @property
    def way_predictor_bytes(self) -> int:
        """Way predictor storage: 2 bits per entry (1 KB at 12 index bits)."""
        entries = 1 << self.way_predictor_index_bits
        return (entries * 2) // 8

    def validate(self) -> None:
        """Raise ``ValueError`` if the organization does not fit DRAM rows."""
        if self.blocks_per_page < 1:
            raise ValueError("blocks_per_page must be positive")
        if self.associativity < 1:
            raise ValueError("associativity must be positive")
        if self.pages_per_row < 1:
            raise ValueError(
                "a DRAM row must hold at least one page: "
                f"page of {self.page_total_bytes}B does not fit a "
                f"{self.row_buffer_size}B row"
            )
        if self.capacity_bytes % self.row_buffer_size:
            raise ValueError("capacity must be a whole number of DRAM rows")
        if self.num_sets < 1:
            raise ValueError("cache must contain at least one set")

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"UnisonCache({format_size(self.capacity_bytes)}, "
            f"{self.page_data_bytes}B pages, {self.associativity}-way)"
        )


# --------------------------------------------------------------------------- #
# Alloy Cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AlloyCacheConfig:
    """Alloy Cache organization (Section IV-C.3).

    Direct-mapped, block-based; each 72-byte tag-and-data (TAD) unit holds a
    64-byte block plus an 8-byte tag, so an 8 KB row holds 112 TADs.  A
    per-core miss predictor (MAP-I style) decides whether to bypass the
    DRAM-cache lookup.
    """

    capacity: SizeLike = "1GB"
    block_size: int = BLOCK_SIZE
    tag_bytes: int = 8
    row_buffer_size: int = ROW_BUFFER_SIZE

    @property
    def capacity_bytes(self) -> int:
        """Total stacked-DRAM capacity devoted to this cache."""
        return parse_size(self.capacity)

    @property
    def tad_bytes(self) -> int:
        """Size of one tag-and-data unit."""
        return self.block_size + self.tag_bytes

    @property
    def blocks_per_row(self) -> int:
        """TADs per DRAM row (112 for the default parameters).

        TADs are packed in aligned groups of four (the MICRO'12 design reads
        TADs with burst-aligned accesses), so the raw ``row // 72`` count is
        rounded down to a multiple of four: 112 for an 8 KB row.
        """
        raw = self.row_buffer_size // self.tad_bytes
        return max(1, (raw // 4) * 4)

    @property
    def num_rows(self) -> int:
        """Number of DRAM rows the cache occupies."""
        return self.capacity_bytes // self.row_buffer_size

    @property
    def num_blocks(self) -> int:
        """Total number of block frames (== number of sets, direct-mapped)."""
        return self.num_rows * self.blocks_per_row

    @property
    def in_dram_tag_bytes(self) -> int:
        """DRAM bytes consumed by tags (12.5% of capacity, Table II)."""
        return self.num_blocks * self.tag_bytes

    def validate(self) -> None:
        """Raise ``ValueError`` on a nonsensical organization."""
        if self.capacity_bytes % self.row_buffer_size:
            raise ValueError("capacity must be a whole number of DRAM rows")
        if self.blocks_per_row < 1:
            raise ValueError("a DRAM row must hold at least one TAD")

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return f"AlloyCache({format_size(self.capacity_bytes)}, direct-mapped)"


# --------------------------------------------------------------------------- #
# Footprint Cache
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FootprintCacheConfig:
    """Footprint Cache organization (Section IV-C.2).

    Page-based with SRAM tags; the paper evaluates 2 KB pages and a highly
    associative (32-way) organization.  The SRAM tag array's size and lookup
    latency grow with capacity (Table IV).
    """

    capacity: SizeLike = "1GB"
    page_size: int = 2048
    associativity: int = 32
    block_size: int = BLOCK_SIZE
    row_buffer_size: int = ROW_BUFFER_SIZE

    @property
    def capacity_bytes(self) -> int:
        """Total stacked-DRAM capacity devoted to this cache."""
        return parse_size(self.capacity)

    @property
    def blocks_per_page(self) -> int:
        """Blocks per page (32 for 2 KB pages)."""
        return self.page_size // self.block_size

    @property
    def num_pages(self) -> int:
        """Total number of page frames."""
        return self.capacity_bytes // self.page_size

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return max(1, self.num_pages // self.associativity)

    @property
    def blocks_per_row(self) -> int:
        """Data blocks per DRAM row (128: no embedded tags)."""
        return self.row_buffer_size // self.block_size

    def validate(self) -> None:
        """Raise ``ValueError`` on a nonsensical organization."""
        if self.page_size % self.block_size:
            raise ValueError("page_size must be a multiple of block_size")
        if self.capacity_bytes % self.page_size:
            raise ValueError("capacity must be a whole number of pages")
        if self.associativity < 1:
            raise ValueError("associativity must be positive")

    @property
    def tag_array(self) -> "FootprintTagArrayModel":
        """The SRAM tag-array model for this capacity."""
        return footprint_tag_array_for_capacity(self.capacity_bytes, self.page_size)

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"FootprintCache({format_size(self.capacity_bytes)}, "
            f"{self.page_size}B pages, {self.associativity}-way)"
        )


@dataclass(frozen=True)
class FootprintTagArrayModel:
    """SRAM tag array size and lookup latency for Footprint Cache (Table IV)."""

    capacity_bytes: int
    tag_bytes: int
    lookup_latency_cycles: int

    @property
    def tag_megabytes(self) -> float:
        """Tag array size in binary megabytes."""
        return self.tag_bytes / (1024 ** 2)


#: Table IV of the paper: SRAM tag array size (MB) and conservatively
#: estimated lookup latency (CPU cycles) for Footprint Cache, per capacity.
_TABLE_IV: Dict[int, "tuple[float, int]"] = {
    parse_size("128MB"): (0.8, 6),
    parse_size("256MB"): (1.58, 9),
    parse_size("512MB"): (3.12, 11),
    parse_size("1GB"): (6.2, 16),
    parse_size("2GB"): (12.5, 25),
    parse_size("4GB"): (25.0, 36),
    parse_size("8GB"): (50.0, 48),
}


def footprint_tag_array_for_capacity(
    capacity: SizeLike, page_size: int = 2048
) -> FootprintTagArrayModel:
    """Return the Footprint Cache SRAM tag-array model for a capacity.

    Capacities listed in Table IV use the paper's numbers directly.  Other
    capacities are modelled by scaling the per-page tag cost linearly (the tag
    entry stores tag, valid/dirty vectors, replacement state, and the (PC,
    offset) pair -- about 6.2 MB per GB with 2 KB pages) and interpolating the
    latency on a logarithmic capacity scale.
    """
    capacity_bytes = parse_size(capacity)
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    if capacity_bytes in _TABLE_IV and page_size == 2048:
        tag_mb, latency = _TABLE_IV[capacity_bytes]
        return FootprintTagArrayModel(
            capacity_bytes=capacity_bytes,
            tag_bytes=int(tag_mb * 1024 ** 2),
            lookup_latency_cycles=latency,
        )

    # Per-page tag entry cost implied by Table IV at 2KB pages (~12.7 bytes);
    # scale with the number of pages.
    num_pages = capacity_bytes // page_size
    bytes_per_entry = 12.7 * (page_size / 2048) ** 0  # entry size independent of page size
    tag_bytes = int(num_pages * bytes_per_entry)

    # Latency: interpolate between known points on log2(capacity).
    import math

    known = sorted(_TABLE_IV.items())
    log_cap = math.log2(capacity_bytes)
    if capacity_bytes <= known[0][0]:
        latency = known[0][1][1]
    elif capacity_bytes >= known[-1][0]:
        # Extrapolate: latency grows ~ +12 cycles per doubling at the top end.
        extra_doublings = log_cap - math.log2(known[-1][0])
        latency = int(round(known[-1][1][1] + 12 * extra_doublings))
    else:
        latency = known[0][1][1]
        for (cap_lo, (_, lat_lo)), (cap_hi, (_, lat_hi)) in zip(known, known[1:]):
            if cap_lo <= capacity_bytes <= cap_hi:
                frac = (log_cap - math.log2(cap_lo)) / (
                    math.log2(cap_hi) - math.log2(cap_lo)
                )
                latency = int(round(lat_lo + frac * (lat_hi - lat_lo)))
                break
    return FootprintTagArrayModel(
        capacity_bytes=capacity_bytes,
        tag_bytes=tag_bytes,
        lookup_latency_cycles=latency,
    )


def scaled_capacity(paper_capacity: SizeLike, scale: int) -> int:
    """Scaled-down simulated capacity for a *paper* capacity.

    The experiment harness shrinks every structure by ``scale`` while keeping
    the row organization intact: the result is rounded down to a whole number
    of :data:`ROW_BUFFER_SIZE` rows and never collapses below a handful of
    rows.
    """
    capacity = parse_size(paper_capacity)
    if scale <= 0:
        raise ValueError("scale must be positive")
    scaled = capacity // scale
    return max(ROW_BUFFER_SIZE * 4, (scaled // ROW_BUFFER_SIZE) * ROW_BUFFER_SIZE)
