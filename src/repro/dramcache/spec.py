"""Declarative DRAM-cache design descriptions.

A :class:`DesignSpec` names a complete design as *components plus geometry*:
which :class:`~repro.dramcache.components.TagOrganization`, which
:class:`~repro.dramcache.components.HitPredictor`, which
:class:`~repro.dramcache.components.FetchPolicy`, which
:class:`~repro.dramcache.components.WritebackPolicy` and which
:class:`~repro.dramcache.components.ReplacementComponent`, each with its
parameters.  Specs are frozen, picklable, order-canonical -- and therefore
hashable into a stable :meth:`DesignSpec.token` that the on-disk checkpoint
store uses for invalidation: change any component or parameter and every
stale warm checkpoint misses.

A spec is the only way to declare a design.  It builds through the per-role
component registries into a
:class:`~repro.dramcache.composed.ComposedDramCache`, so the paper's designs
and any new point of the design space the components span are declared the
same way::

    spec = DesignSpec(
        name="alloy+footprint",
        tags=ComponentSpec("direct-mapped", {"page_blocks": 15}),
        hit_predictor=ComponentSpec("map-i"),
        fetch=ComponentSpec("footprint"),
    )
    model = spec.build(context)          # a ComposedDramCache

Specs register in the design registry with
:meth:`repro.sim.registry.DesignRegistry.register_spec`;
:func:`repro.sim.factory.make_design` then builds them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple, Union

from repro.dramcache.components import (
    FETCH_POLICIES,
    HIT_PREDICTORS,
    REPLACEMENT_POLICIES,
    TAG_ORGANIZATIONS,
    WRITEBACK_POLICIES,
)
from repro.dramcache.composed import ComposedDramCache

#: Parameter values a component spec may carry (kept JSON-simple so tokens
#: are stable and specs stay picklable/hashable).
ParamValue = Union[int, float, str, bool]


@dataclass(frozen=True)
class ComponentSpec:
    """One policy component: a registered kind plus its parameters."""

    kind: str
    #: Normalized to a key-sorted tuple of pairs so equal specs hash equal.
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    def __init__(self, kind: str,
                 params: Union[Mapping[str, ParamValue],
                               Tuple[Tuple[str, ParamValue], ...], None] = None,
                 ) -> None:
        object.__setattr__(self, "kind", kind.lower())
        items = sorted(dict(params or {}).items())
        for key, value in items:
            if not isinstance(value, (int, float, str, bool)):
                raise ValueError(
                    f"component parameter {key}={value!r} must be a plain "
                    f"int/float/str/bool"
                )
        object.__setattr__(self, "params", tuple(items))

    def params_dict(self) -> Dict[str, ParamValue]:
        return dict(self.params)

    def token(self) -> str:
        """Canonical text form (feeds the spec hash)."""
        inner = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return self.kind if not inner else f"{self.kind}({inner})"


def _coerce_component(value: Union[ComponentSpec, str, Tuple], role: str,
                      ) -> ComponentSpec:
    if isinstance(value, ComponentSpec):
        return value
    if isinstance(value, str):
        return ComponentSpec(value)
    if isinstance(value, tuple) and len(value) == 2:
        return ComponentSpec(value[0], value[1])
    raise ValueError(
        f"{role} must be a ComponentSpec, a kind name, or a (kind, params) "
        f"pair; got {value!r}"
    )


@dataclass(frozen=True)
class DesignSpec:
    """A complete DRAM-cache design, declared as components + geometry."""

    name: str
    tags: ComponentSpec
    hit_predictor: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("none"))
    fetch: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("demand"))
    writeback: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("dirty"))
    replacement: ComponentSpec = field(
        default_factory=lambda: ComponentSpec("lru"))
    description: str = ""
    #: Whether :func:`make_design` may override the tag associativity.
    supports_associativity: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags",
                           _coerce_component(self.tags, "tags"))
        object.__setattr__(self, "hit_predictor",
                           _coerce_component(self.hit_predictor,
                                             "hit_predictor"))
        object.__setattr__(self, "fetch",
                           _coerce_component(self.fetch, "fetch"))
        object.__setattr__(self, "writeback",
                           _coerce_component(self.writeback, "writeback"))
        object.__setattr__(self, "replacement",
                           _coerce_component(self.replacement, "replacement"))
        # Unknown component kinds fail here, at declaration time, not in the
        # middle of a sweep.
        TAG_ORGANIZATIONS.resolve(self.tags.kind)
        HIT_PREDICTORS.resolve(self.hit_predictor.kind)
        FETCH_POLICIES.resolve(self.fetch.kind)
        WRITEBACK_POLICIES.resolve(self.writeback.kind)
        REPLACEMENT_POLICIES.resolve(self.replacement.kind)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self, context) -> ComposedDramCache:
        """Build the design for a :class:`DesignBuildContext`."""
        tags = TAG_ORGANIZATIONS.resolve(self.tags.kind)(
            context, **self.tags.params_dict())
        hit_predictor = HIT_PREDICTORS.resolve(self.hit_predictor.kind)(
            context, tags, **self.hit_predictor.params_dict())
        fetch = FETCH_POLICIES.resolve(self.fetch.kind)(
            context, tags, **self.fetch.params_dict())
        writeback = WRITEBACK_POLICIES.resolve(self.writeback.kind)(
            context, tags, **self.writeback.params_dict())
        replacement = REPLACEMENT_POLICIES.resolve(self.replacement.kind)(
            context, tags, **self.replacement.params_dict())
        return ComposedDramCache(
            tags=tags,
            hit_predictor=hit_predictor,
            fetch=fetch,
            writeback=writeback,
            replacement=replacement,
            design_name=self.name,
        )

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def token(self) -> str:
        """Canonical text identity (checkpoint invalidation, reports).

        Any change to a component kind or parameter changes the token --
        which is the point: on-disk checkpoints key on it, so editing a
        design invalidates its stale warm states instead of reusing them.
        """
        return (f"design:{self.name};"
                f"tags:{self.tags.token()};"
                f"hit:{self.hit_predictor.token()};"
                f"fetch:{self.fetch.token()};"
                f"wb:{self.writeback.token()};"
                f"repl:{self.replacement.token()}")

    def describe_components(self) -> str:
        """Human-readable component breakdown (``repro designs``)."""
        return (f"tags={self.tags.describe()} "
                f"hit={self.hit_predictor.describe()} "
                f"fetch={self.fetch.describe()} "
                f"wb={self.writeback.describe()} "
                f"repl={self.replacement.describe()}")


__all__ = [
    "ComponentSpec",
    "DesignSpec",
]
