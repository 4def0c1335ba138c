"""Integer 2-D vectors/points on the layout grid.

All RSG geometry lives on an integer grid (lambda grid).  ``Vec2`` doubles
as both point and displacement; the distinction is carried by usage, as in
the paper where points of call and interface vectors share representation.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .orientation import Orientation

__all__ = ["Vec2", "ORIGIN"]


class Vec2:
    """An immutable integer 2-vector supporting affine-isometry algebra."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        object.__setattr__(self, "x", int(x))
        object.__setattr__(self, "y", int(y))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Vec2 is immutable")

    def __add__(self, other: "Vec2") -> "Vec2":
        if not isinstance(other, Vec2):
            return NotImplemented
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        if not isinstance(other, Vec2):
            return NotImplemented
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, scale: int) -> "Vec2":
        if not isinstance(scale, int):
            return NotImplemented
        return Vec2(self.x * scale, self.y * scale)

    __rmul__ = __mul__

    def transformed(self, orientation: Orientation) -> "Vec2":
        """Return this vector transformed by ``orientation``."""
        x, y = orientation.apply(self.x, self.y)
        return Vec2(x, y)

    def manhattan(self) -> int:
        """Manhattan norm, used by wirelength cost functions."""
        return abs(self.x) + abs(self.y)

    def as_tuple(self) -> Tuple[int, int]:
        return (self.x, self.y)

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vec2):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __reduce__(self):
        return (Vec2, (self.x, self.y))

    def __repr__(self) -> str:
        return f"Vec2({self.x}, {self.y})"


ORIGIN = Vec2(0, 0)

_new_object = object.__new__
_set_x = Vec2.x.__set__
_set_y = Vec2.y.__set__


def _vec2_from_ints(x: int, y: int) -> Vec2:
    """A :class:`Vec2` of ``x`` and ``y``, which must already be ``int``s.

    Skips the constructor's coercion and immutability guard: graph
    expansion builds one point per placed instance from integer sums.
    """
    vector = _new_object(Vec2)
    _set_x(vector, x)
    _set_y(vector, y)
    return vector
