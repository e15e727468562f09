"""The design catalog: every shipped design as a :class:`DesignSpec`.

This module is where the registry gets populated.  The paper's six designs
(nine registered names: four Unison variants plus the five baselines) are
canonical component specs, and every registered name builds one
:class:`~repro.dramcache.composed.ComposedDramCache` from its components.
Unison Cache itself is the composition its baselines suggest: Loh-Hill's
tags in DRAM, Alloy's single-access hit path (via way prediction) and
Footprint Cache's footprint fetching.

Below them, the *hybrid* designs: new points in the paper's design space,
declared the same way --

* ``alloy+footprint`` -- Alloy's direct-mapped single-access TAD hit path
  and MAP-I miss predictor, combined with Footprint-style predicted region
  fetching at 15-block granularity.  "What if Alloy could exploit spatial
  locality?"
* ``unison-nowp`` -- Unison's full organization with way prediction removed:
  the 4-way in-DRAM tag lookup must serialize tag and data reads, isolating
  exactly what the way predictor buys (Section III-A.6's motivation).

Importing this module registers everything; :mod:`repro.sim.factory` imports
it for that side effect.
"""

from __future__ import annotations

from repro.dramcache.spec import ComponentSpec, DesignSpec
from repro.sim.registry import DESIGNS


def _unison_spec(name: str, description: str, *, blocks_per_page: int,
                 associativity: int) -> DesignSpec:
    """One Unison variant: in-DRAM page tags + way prediction + footprints."""
    return DesignSpec(
        name=name,
        tags=ComponentSpec("dram-page", {
            "blocks_per_page": blocks_per_page,
            "associativity": associativity,
        }),
        hit_predictor=ComponentSpec("way"),
        fetch=ComponentSpec("footprint"),
        description=description,
        supports_associativity=True,
    )


# --------------------------------------------------------------------- #
# The canonical designs.
# --------------------------------------------------------------------- #
CANONICAL_SPECS = (
    _unison_spec("unison",
                 "960B pages, 4-way, way prediction (the main design point)",
                 blocks_per_page=15, associativity=4),
    _unison_spec("unison-1984", "1984B pages, 4-way",
                 blocks_per_page=31, associativity=4),
    _unison_spec("unison-dm", "960B pages, direct-mapped",
                 blocks_per_page=15, associativity=1),
    _unison_spec("unison-32way",
                 "960B pages, 32-way (Figure 5's associativity sweep)",
                 blocks_per_page=15, associativity=32),
    DesignSpec(
        name="alloy",
        tags=ComponentSpec("direct-mapped"),
        hit_predictor=ComponentSpec("map-i"),
        fetch=ComponentSpec("demand"),
        description="direct-mapped tag-and-data block cache with a "
                    "per-core miss predictor (Qureshi & Loh)",
    ),
    DesignSpec(
        name="footprint",
        tags=ComponentSpec("sram-page"),
        fetch=ComponentSpec("footprint"),
        description="2KB pages with footprint prediction and SRAM tags "
                    "whose latency grows with capacity (Jevdjic et al., "
                    "ISCA'13)",
    ),
    DesignSpec(
        name="loh_hill",
        tags=ComponentSpec("missmap"),
        fetch=ComponentSpec("demand"),
        description="tags-in-DRAM block cache with a MissMap "
                    "(Loh & Hill, MICRO'11; extension)",
    ),
    DesignSpec(
        name="ideal",
        tags=ComponentSpec("always-hit"),
        description="100% hit rate, zero tag overhead -- the "
                    "latency-optimized reference point of Figs. 7-8",
    ),
    DesignSpec(
        name="no_cache",
        tags=ComponentSpec("no-cache"),
        writeback=ComponentSpec("none"),
        description="no stacked-DRAM cache; every request goes "
                    "off-chip (the speedup baseline)",
    ),
)

# --------------------------------------------------------------------- #
# Hybrid designs: new component combinations beyond the paper's six.
# --------------------------------------------------------------------- #
HYBRID_SPECS = (
    DesignSpec(
        name="alloy+footprint",
        tags=ComponentSpec("direct-mapped", {"page_blocks": 15}),
        hit_predictor=ComponentSpec("map-i"),
        fetch=ComponentSpec("footprint"),
        description="Alloy's single-access TAD hit path + MAP-I, fetching "
                    "predicted 15-block footprints into direct-mapped "
                    "frames (hybrid)",
    ),
    DesignSpec(
        name="unison-nowp",
        tags=ComponentSpec("dram-page", {
            "blocks_per_page": 15,
            "associativity": 4,
            "hit_path": "serialized",
        }),
        fetch=ComponentSpec("footprint"),
        description="Unison without way prediction: 4-way in-DRAM tags "
                    "with serialized tag-then-data hits (hybrid ablation)",
        supports_associativity=True,
    ),
)


for _spec in CANONICAL_SPECS + HYBRID_SPECS:
    DESIGNS.register_spec(_spec)


__all__ = ["CANONICAL_SPECS", "HYBRID_SPECS"]
