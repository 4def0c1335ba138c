"""Axis-aligned integer boxes, the primitive mask geometry of the RSG.

Cells consist of boxes of various layers (paper section 2.1).  Boxes are
normalised so ``xmin <= xmax`` and ``ymin <= ymax``; a zero-area box is
legal (it degenerates to a segment or point, useful for ports).
"""

from __future__ import annotations

from typing import Tuple

from .orientation import Orientation
from .vector import Vec2

__all__ = ["Box"]


class Box:
    """An immutable axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: int, ymin: int, xmax: int, ymax: int) -> None:
        xmin, xmax = (int(xmin), int(xmax)) if xmin <= xmax else (int(xmax), int(xmin))
        ymin, ymax = (int(ymin), int(ymax)) if ymin <= ymax else (int(ymax), int(ymin))
        object.__setattr__(self, "xmin", xmin)
        object.__setattr__(self, "ymin", ymin)
        object.__setattr__(self, "xmax", xmax)
        object.__setattr__(self, "ymax", ymax)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Box is immutable")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_corners(cls, a: Vec2, b: Vec2) -> "Box":
        return cls(a.x, a.y, b.x, b.y)

    @classmethod
    def from_size(cls, origin: Vec2, width: int, height: int) -> "Box":
        return cls(origin.x, origin.y, origin.x + width, origin.y + height)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.xmax - self.xmin

    @property
    def height(self) -> int:
        return self.ymax - self.ymin

    @property
    def area(self) -> int:
        return self.width * self.height

    def center2x(self) -> Tuple[int, int]:
        """Doubled center coordinates (exact on the integer grid)."""
        return (self.xmin + self.xmax, self.ymin + self.ymax)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Vec2) -> bool:
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def contains_box(self, other: "Box") -> bool:
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def overlaps(self, other: "Box") -> bool:
        """True when the closed rectangles share interior or boundary."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
        )

    def overlaps_open(self, other: "Box") -> bool:
        """True when the rectangles share positive-area interior."""
        return (
            self.xmin < other.xmax
            and other.xmin < self.xmax
            and self.ymin < other.ymax
            and other.ymin < self.ymax
        )

    # ------------------------------------------------------------------
    # Combination and transformation
    # ------------------------------------------------------------------
    def union(self, other: "Box") -> "Box":
        return Box(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def intersection(self, other: "Box") -> "Box | None":
        """Return the overlap box, or None when disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin > xmax or ymin > ymax:
            return None
        return Box(xmin, ymin, xmax, ymax)

    def translated(self, by: Vec2) -> "Box":
        return Box(self.xmin + by.x, self.ymin + by.y, self.xmax + by.x, self.ymax + by.y)

    def transformed(self, orientation: Orientation, offset: Vec2 = Vec2(0, 0)) -> "Box":
        """Apply an orientation about the origin, then translate.

        This is exactly the instance-call semantics of section 2.1: the
        isometry leaves the cell origin fixed, then the origin is placed at
        the point of call.
        """
        x0, y0 = orientation.apply(self.xmin, self.ymin)
        x1, y1 = orientation.apply(self.xmax, self.ymax)
        return Box(x0 + offset.x, y0 + offset.y, x1 + offset.x, y1 + offset.y)

    def grown(self, margin: int) -> "Box":
        """Return the box expanded by ``margin`` on every side."""
        return Box(
            self.xmin - margin, self.ymin - margin, self.xmax + margin, self.ymax + margin
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return (
            self.xmin == other.xmin
            and self.ymin == other.ymin
            and self.xmax == other.xmax
            and self.ymax == other.ymax
        )

    def __hash__(self) -> int:
        return hash((self.xmin, self.ymin, self.xmax, self.ymax))

    def __reduce__(self):
        return (Box, (self.xmin, self.ymin, self.xmax, self.ymax))

    def __repr__(self) -> str:
        return f"Box({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
