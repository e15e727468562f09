"""Design registry: every DRAM-cache design, by name.

Each registered name maps to one declarative
:class:`repro.dramcache.spec.DesignSpec`, registered with
:meth:`DesignRegistry.register_spec` -- the shipped catalog does so in
:mod:`repro.dramcache.designs`::

    DESIGNS.register_spec(DesignSpec(
        name="alloy",
        tags=ComponentSpec("direct-mapped"),
        hit_predictor=ComponentSpec("map-i"),
        description="direct-mapped TAD cache",
    ))

:func:`repro.sim.factory.make_design` is a thin lookup into the registry, so
a registered design (in this repository or in downstream code) is available
to every sweep, benchmark, and the ``python -m repro`` CLI.

Specs build from a :class:`DesignBuildContext` carrying both the *paper*
capacity (which sizes latency parameters such as the Footprint Cache SRAM tag
latency or the Unison way-predictor index) and the *scaled* capacity actually
simulated.

This module is intentionally a leaf: it imports nothing from the design
modules, so they can import it without circularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, TYPE_CHECKING

from repro.config.cache_configs import scaled_capacity
from repro.utils.units import parse_size, SizeLike

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.dramcache.composed import ComposedDramCache


@dataclass(frozen=True)
class DesignBuildContext:
    """Everything a design spec needs to build one design instance."""

    #: The *paper* capacity in bytes (sizes capacity-dependent latencies).
    paper_capacity_bytes: int
    #: The scaled-down capacity in bytes actually simulated.
    scaled_capacity_bytes: int
    #: Capacity scale-down factor (``paper / scale``, row-rounded).
    scale: int
    #: Core count (sizes per-core structures such as Alloy's miss predictor).
    num_cores: int
    #: Optional associativity override; ``None`` means the variant's default.
    associativity: Optional[int] = None


@dataclass(frozen=True)
class DesignEntry:
    """One registered design: its lookup name and its declarative spec."""

    name: str
    #: The :class:`repro.dramcache.spec.DesignSpec` the entry builds.
    spec: Any

    @property
    def description(self) -> str:
        return self.spec.description

    @property
    def supports_associativity(self) -> bool:
        """Whether the design accepts an ``associativity`` override."""
        return self.spec.supports_associativity

    def build(self, context: DesignBuildContext) -> "ComposedDramCache":
        return self.spec.build(context)

    def token(self) -> str:
        """Stable identity of this entry's construction *recipe*.

        Used (together with capacity/scale/cores) to key on-disk warm-state
        checkpoints: changing a spec component or parameter changes the
        token.  It cannot see *implementation* edits inside an unchanged
        recipe (a bug fix in a component); those must bump
        :data:`repro.dramcache.base.MODEL_BEHAVIOR_VERSION`, which the
        checkpoint store keys on alongside this token.
        """
        return self.spec.token()


class DesignRegistry:
    """Name -> :class:`DesignEntry` mapping with construction helpers."""

    def __init__(self) -> None:
        self._entries: Dict[str, DesignEntry] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_spec(self, spec: Any, *, replace: bool = False) -> DesignEntry:
        """Register a declarative design spec under its own name.

        ``spec`` is duck-typed (a :class:`repro.dramcache.spec.DesignSpec`;
        this module stays a leaf and never imports it): it must carry
        ``name``, ``description``, ``supports_associativity``, a
        ``build(context)`` method, and a ``token()`` identity.
        """
        key = spec.name.lower()
        if not replace and key in self._entries:
            raise ValueError(f"design {spec.name!r} is already registered")
        entry = DesignEntry(name=key, spec=spec)
        self._entries[key] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (a no-op when absent)."""
        self._entries.pop(name.lower(), None)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def resolve(self, name: str) -> DesignEntry:
        """Return the entry for ``name`` or raise a helpful ``ValueError``."""
        entry = self._entries.get(name.lower())
        if entry is None:
            raise ValueError(
                f"unknown design {name!r}; options: {self.names()}"
            )
        return entry

    def names(self) -> "tuple[str, ...]":
        """All registered names, in registration order."""
        return tuple(self._entries)

    def describe(self) -> "list[tuple[str, str]]":
        """(name, description) pairs for listings (CLI ``--list-designs``)."""
        return [(e.name, e.description) for e in self._entries.values()]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self, name: str, capacity: SizeLike, scale: int = 1,
              num_cores: int = 16,
              associativity: Optional[int] = None) -> "ComposedDramCache":
        """Construct design ``name`` at a (possibly scaled-down) capacity."""
        entry = self.resolve(name)
        if associativity is not None and not entry.supports_associativity:
            raise ValueError(
                f"design {name!r} does not take an associativity override "
                f"(its geometry is fixed); only designs with "
                f"supports_associativity=True accept one"
            )
        paper_capacity = parse_size(capacity)
        context = DesignBuildContext(
            paper_capacity_bytes=paper_capacity,
            scaled_capacity_bytes=scaled_capacity(paper_capacity, scale),
            scale=scale,
            num_cores=num_cores,
            associativity=associativity,
        )
        return entry.build(context)


#: The process-wide default registry used by ``make_design`` and the sweeps.
DESIGNS = DesignRegistry()

__all__ = [
    "DesignBuildContext",
    "DesignEntry",
    "DesignRegistry",
    "DESIGNS",
]
