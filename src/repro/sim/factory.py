"""Design factory: thin, backwards-compatible front end to the registry.

Construction logic lives in the design catalog: every shipped design is a
declarative :class:`repro.dramcache.spec.DesignSpec` registered in
:data:`repro.sim.registry.DESIGNS` by :mod:`repro.dramcache.designs` (new
designs register there, or at runtime via ``DESIGNS.register_spec``).
:func:`make_design` resolves a name in that registry and builds its spec
into a :class:`~repro.dramcache.composed.ComposedDramCache`;
:data:`DESIGN_NAMES` is derived from the registry, so this module contains
no design-specific branches.

Capacity semantics (shared by every design, see
:func:`repro.config.cache_configs.scaled_capacity`): structural parameters
(page size, associativity, row organization) always match the paper; only the
number of sets shrinks with the scale factor, while latency parameters that
depend on the *paper* capacity (Footprint Cache's SRAM tag latency, Unison
Cache's way predictor sizing) are derived from the unscaled capacity.
"""

from __future__ import annotations

from typing import Optional

# Importing the design catalog is what populates the registry: every shipped
# design -- the canonical six families and the component-composed hybrids --
# registers there as a declarative DesignSpec.
import repro.dramcache.designs  # noqa: F401
from repro.dramcache.composed import ComposedDramCache
from repro.sim.registry import DESIGNS
from repro.utils.units import SizeLike

#: Presentation order for the names the seed shipped with; freshly registered
#: designs append after these in registration order.
_LEGACY_ORDER = (
    "unison",
    "unison-1984",
    "unison-dm",
    "unison-32way",
    "alloy",
    "footprint",
    "loh_hill",
    "ideal",
    "no_cache",
)


def design_names() -> "tuple[str, ...]":
    """All currently-registered design names (live view of the registry)."""
    registered = DESIGNS.names()
    legacy = [name for name in _LEGACY_ORDER if name in registered]
    extra = [name for name in registered if name not in _LEGACY_ORDER]
    return tuple(legacy + extra)


#: Names accepted by :func:`make_design` -- a snapshot of
#: :func:`design_names` taken at import time, kept for backwards
#: compatibility.  Designs registered after import are still buildable by
#: name; call :func:`design_names` for an up-to-date listing.
DESIGN_NAMES = design_names()

#: Canonical Unison variant name per associativity (Figure 5's sweep points).
_UNISON_WAYS_NAMES = {1: "unison-dm", 4: "unison", 32: "unison-32way"}


def unison_design_for_ways(ways: int) -> "tuple[str, str]":
    """(constructible design name, reporting label) for a ways count.

    The three associativities evaluated in Figure 5 map to their canonical
    registered variants; any other value is built from the base ``unison``
    entry with an associativity override and labelled ``unison-<N>way`` so
    results never masquerade as the 4-way design point.
    """
    if ways <= 0:
        raise ValueError("ways must be positive")
    name = _UNISON_WAYS_NAMES.get(ways)
    if name is not None:
        return name, name
    return "unison", f"unison-{ways}way"


def make_design(name: str, capacity: SizeLike, scale: int = 1,
                num_cores: int = 16,
                associativity: Optional[int] = None) -> ComposedDramCache:
    """Build a registered design's spec into a composed DRAM cache.

    Parameters
    ----------
    name:
        One of :data:`DESIGN_NAMES` (or any later-registered design).
    capacity:
        The *paper* capacity (e.g. ``"1GB"``).  Latency parameters that grow
        with capacity are derived from this value.
    scale:
        Capacity scale-down factor for tractable trace-driven runs; the
        simulated structure holds ``capacity / scale`` bytes.
    num_cores:
        Core count (sizes the Alloy miss predictor).
    associativity:
        Optional associativity override.  Only designs registered with
        ``supports_associativity=True`` (the Unison variants) accept one;
        passing it for any other design raises ``ValueError``.
    """
    return DESIGNS.build(name, capacity, scale=scale, num_cores=num_cores,
                         associativity=associativity)
