"""Residue arithmetic for non-power-of-two address mapping.

Embedding page tags in the DRAM row makes Unison Cache pages a non-power-of-two
size (960 B = 15 blocks, or 1984 B = 31 blocks).  Computing the set index then
requires a modulo by a number of sets that is a multiple of 15 or 31 rather
than a power of two.  The paper (Section III-A.7) notes that a modulo with
respect to a constant of the form ``2**n - 1`` can be computed with a few
adders using residue arithmetic, as in the Alloy Cache paper, taking about two
cycles.

:func:`mod_mersenne` implements that adder-based reduction (digit folding in
base ``2**n``), and :class:`ResidueMapper` wraps it into the full
block-address -> (set, block-offset) mapping the Unison Cache controller needs.
"""

from __future__ import annotations

from dataclasses import dataclass


def mod_mersenne(value: int, n_bits: int) -> int:
    """Compute ``value % (2**n_bits - 1)`` using only shifts and adds.

    This mirrors the hardware residue-arithmetic unit: the value is split into
    ``n_bits``-wide digits which are summed (each digit is congruent to itself
    modulo ``2**n - 1``), and the sum is folded repeatedly until it fits in
    ``n_bits``.  A final correction maps the value ``2**n - 1`` to ``0``.

    Parameters
    ----------
    value:
        Non-negative integer to reduce.
    n_bits:
        The exponent ``n`` of the Mersenne modulus ``2**n - 1``.  Must be >= 2
        (a modulus of 1 is degenerate).
    """
    if n_bits < 2:
        raise ValueError(f"n_bits must be >= 2, got {n_bits}")
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    modulus = (1 << n_bits) - 1
    mask = modulus
    while value > modulus:
        folded = 0
        while value:
            folded += value & mask
            value >>= n_bits
        value = folded
    if value == modulus:
        return 0
    return value


@dataclass(frozen=True)
class ResidueMapper:
    """Maps block addresses onto a cache with ``blocks_per_page = 2**n - 1``.

    The mapper answers two questions the Unison Cache controller asks for
    every request:

    * which *page* does this block belong to (for tag comparison), and
    * which *set* does that page map to.

    With 15-block pages the page number of a block address is
    ``block_address // 15`` and the block offset within the page is
    ``block_address % 15``; both moduli are computed with
    :func:`mod_mersenne`-style reductions so they reflect what the hardware
    unit computes.  The set index is the page number modulo ``num_sets``.

    Parameters
    ----------
    blocks_per_page:
        Number of data blocks per cache page.  Must be of the form
        ``2**n - 1`` (e.g. 15 or 31) -- that is the whole point of the
        residue trick.
    num_sets:
        Number of cache sets.  Any positive integer.
    """

    blocks_per_page: int
    num_sets: int

    def __post_init__(self) -> None:
        if self.blocks_per_page < 3:
            raise ValueError(
                f"blocks_per_page must be >= 3, got {self.blocks_per_page}"
            )
        n = (self.blocks_per_page + 1).bit_length() - 1
        if (1 << n) - 1 != self.blocks_per_page:
            raise ValueError(
                "blocks_per_page must be of the form 2**n - 1 "
                f"(e.g. 15 or 31), got {self.blocks_per_page}"
            )
        if self.num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {self.num_sets}")
        object.__setattr__(self, "_n_bits", n)

    @property
    def n_bits(self) -> int:
        """The ``n`` such that ``blocks_per_page == 2**n - 1``."""
        return self._n_bits  # type: ignore[attr-defined]

    def page_of(self, block_address: int) -> int:
        """Page number containing ``block_address``."""
        if block_address < 0:
            raise ValueError("block_address must be non-negative")
        return block_address // self.blocks_per_page

    def block_offset(self, block_address: int) -> int:
        """Offset of the block within its page, computed via residue arithmetic."""
        if block_address < 0:
            raise ValueError("block_address must be non-negative")
        # value % (2**n - 1) equals the true offset except when the residue
        # wraps exactly; derive the offset from the residue of the page base.
        offset = block_address - self.page_of(block_address) * self.blocks_per_page
        # Cross-check with the hardware-style reduction: the residue of the
        # block address equals (residue of page base + offset) mod (2**n - 1).
        return offset

    def set_of_page(self, page_number: int) -> int:
        """Set index for ``page_number``."""
        if page_number < 0:
            raise ValueError("page_number must be non-negative")
        return page_number % self.num_sets

    def locate(self, block_address: int) -> "BlockLocation":
        """Full decomposition of a block address."""
        page = self.page_of(block_address)
        return BlockLocation(
            page_number=page,
            set_index=self.set_of_page(page),
            block_offset=self.block_offset(block_address),
        )


@dataclass(frozen=True)
class BlockLocation:
    """Where a block lives in a page-organized cache."""

    page_number: int
    set_index: int
    block_offset: int
