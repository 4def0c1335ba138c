"""Affine isometries: an orientation plus a translation.

``Transform`` packages the calling parameters of an instance — paper
section 2.1's ``(L, O)`` pair — and supports the composition needed when
flattening hierarchical layouts: if A is called in B with T1 and B in C
with T2 then objects of A appear in C under ``T2 o T1``.
"""

from __future__ import annotations

from .box import Box
from .orientation import NORTH, Orientation
from .vector import Vec2

__all__ = ["Transform", "IDENTITY"]


class Transform:
    """The affine isometry ``p -> O(p) + L`` on the integer grid."""

    __slots__ = ("offset", "orientation")

    def __init__(self, offset: Vec2 = Vec2(0, 0), orientation: Orientation = NORTH) -> None:
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "orientation", orientation)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Transform is immutable")

    def apply(self, p: Vec2) -> Vec2:
        return p.transformed(self.orientation) + self.offset

    def apply_box(self, box: Box) -> Box:
        return box.transformed(self.orientation, self.offset)

    def compose(self, inner: "Transform") -> "Transform":
        """Return ``self o inner`` (apply ``inner`` first)."""
        return Transform(
            self.apply(inner.offset),
            self.orientation.compose(inner.orientation),
        )

    def inverse(self) -> "Transform":
        """Return the inverse isometry: ``p -> O^-1(p - L)``."""
        inv = self.orientation.inverse()
        return Transform((-self.offset).transformed(inv), inv)

    @property
    def is_identity(self) -> bool:
        return self.orientation.is_identity and self.offset == Vec2(0, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transform):
            return NotImplemented
        return self.offset == other.offset and self.orientation == other.orientation

    def __hash__(self) -> int:
        return hash((self.offset, self.orientation))

    def __repr__(self) -> str:
        return f"Transform({self.offset!r}, {self.orientation!r})"


IDENTITY = Transform()
