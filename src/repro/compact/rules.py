"""Design-rule tables for the compactor (chapter 6).

A :class:`DesignRules` instance carries per-layer minimum widths and
spacings plus inter-layer spacing rules and the contact-expansion table
of section 6.4.3.  Two synthetic technologies are provided so the
technology-transportability experiment (compact a library designed under
one rule set into another) can run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

__all__ = ["DesignRules", "RuleTables", "ContactRule", "TECH_A", "TECH_B"]

LayerPair = FrozenSet[str]


@dataclass(frozen=True)
class ContactRule:
    """Expansion parameters for a derived contact layer (Figure 6.9)."""

    cut_size: int = 2
    cut_spacing: int = 2
    metal_overlap: int = 1
    poly_overlap: int = 1


@dataclass(frozen=True)
class RuleTables:
    """Plain-dict memo of :class:`DesignRules` lookups for hot loops.

    Constraint generation and DRC call ``rules.spacing``/``rules.width``
    once per candidate pair in their inner loops; each call pays a
    method dispatch plus (for spacing) a ``frozenset`` allocation.  A
    ``RuleTables`` is built once per compaction or checking run over the
    layer universe actually present, after which the inner loops are
    single dict indexing operations.
    """

    #: minimum drawn width per layer
    width: Dict[str, int]
    #: required spacing per ordered layer pair (both orders present);
    #: ``None`` means the pair is unconstrained
    spacing: Dict[Tuple[str, str], Optional[int]]


@dataclass
class DesignRules:
    """Minimum width/spacing tables, in lambda units."""

    name: str
    min_width: Dict[str, int] = field(default_factory=dict)
    min_spacing: Dict[str, int] = field(default_factory=dict)
    #: spacing between *different* layers, keyed by frozenset of names
    inter_spacing: Dict[LayerPair, int] = field(default_factory=dict)
    contact: ContactRule = field(default_factory=ContactRule)
    #: extra poly width required over diff (the gate rule of section 6.4.3)
    gate_width: Optional[int] = None

    def width(self, layer: str) -> int:
        """Minimum drawn width of ``layer`` (1 when the table is silent)."""
        return self.min_width.get(layer, 1)

    def spacing(self, layer_a: str, layer_b: str) -> Optional[int]:
        """Required spacing between two layers, or None when unconstrained."""
        if layer_a == layer_b:
            return self.min_spacing.get(layer_a)
        return self.inter_spacing.get(frozenset((layer_a, layer_b)))

    def tables(self, layers: Iterable[str]) -> RuleTables:
        """Memoize width/spacing lookups for ``layers`` into plain dicts.

        Built once per compaction/DRC run; the returned
        :class:`RuleTables` answers every ``(layer, layer)`` spacing
        query over the given universe by dict indexing alone.
        """
        names = sorted(set(layers))
        return RuleTables(
            width={name: self.width(name) for name in names},
            spacing={
                (a, b): self.spacing(a, b) for a in names for b in names
            },
        )

    def scaled(self, numerator: int, denominator: int = 1, name: str = "") -> "DesignRules":
        """A proportionally scaled rule set (ceiling division)."""

        def scale(value: int) -> int:
            return -(-value * numerator // denominator)

        return DesignRules(
            name=name or f"{self.name}*{numerator}/{denominator}",
            min_width={layer: scale(v) for layer, v in self.min_width.items()},
            min_spacing={layer: scale(v) for layer, v in self.min_spacing.items()},
            inter_spacing={pair: scale(v) for pair, v in self.inter_spacing.items()},
            contact=ContactRule(
                scale(self.contact.cut_size),
                scale(self.contact.cut_spacing),
                scale(self.contact.metal_overlap),
                scale(self.contact.poly_overlap),
            ),
            gate_width=None if self.gate_width is None else scale(self.gate_width),
        )


TECH_A = DesignRules(
    name="techA",
    min_width={"diff": 2, "poly": 2, "metal1": 3, "implant": 2, "contact": 4},
    min_spacing={"diff": 3, "poly": 2, "metal1": 3, "implant": 2, "contact": 2},
    inter_spacing={frozenset(("poly", "diff")): 1},
    contact=ContactRule(cut_size=2, cut_spacing=2, metal_overlap=1, poly_overlap=1),
    gate_width=3,
)

# A second technology with different *ratios*, not just a uniform shrink:
# metal relaxes, poly tightens — the case where simple scaling fails and a
# compactor is needed (section 6.1).
TECH_B = DesignRules(
    name="techB",
    min_width={"diff": 2, "poly": 1, "metal1": 4, "implant": 2, "contact": 4},
    min_spacing={"diff": 2, "poly": 1, "metal1": 4, "implant": 1, "contact": 2},
    inter_spacing={frozenset(("poly", "diff")): 1},
    contact=ContactRule(cut_size=1, cut_spacing=2, metal_overlap=1, poly_overlap=1),
    gate_width=2,
)
