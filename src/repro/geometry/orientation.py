"""The eight-element orientation group of the RSG (paper section 2.6).

The RSG deliberately restricts itself to the isometries of the plane that
map axis-parallel lines to axis-parallel lines: the four quarter-turn
rotations and the four reflections obtained by composing a reflection about
the y axis with a quarter-turn rotation.  This is the dihedral group D4.

Following the paper, an orientation is encoded as the pair ``(r, k)`` with
``r`` in Z4 and ``k`` a boolean, denoting the operator

    O = rot(r) o R^k

where ``R`` is the reflection about the y axis (``(x, y) -> (-x, y)``) and
``rot(r)`` is ``r`` counter-clockwise quarter turns.  The reflection, when
present, is applied *first* (the paper's ``e^{ij} o R^k`` convention).

The four rotations carry the paper's compass names (Figure 2.5):

==========  ===========================  =====================
name        coordinate mapping           meaning
==========  ===========================  =====================
``NORTH``   ``x -> x,   y -> y``         identity
``SOUTH``   ``x -> -x,  y -> -y``        half turn
``EAST``    ``x -> y,   y -> -x``        clockwise quarter
``WEST``    ``x -> -y,  y -> x``         counter-clockwise quarter
==========  ===========================  =====================

The reflected orientations are named ``FLIP_NORTH`` .. ``FLIP_WEST``
(reflect about y, then rotate).
"""

from __future__ import annotations

from typing import Iterator, Tuple

__all__ = [
    "Orientation",
    "NORTH",
    "EAST",
    "SOUTH",
    "WEST",
    "FLIP_NORTH",
    "FLIP_EAST",
    "FLIP_SOUTH",
    "FLIP_WEST",
    "ALL_ORIENTATIONS",
    "ROTATIONS",
    "REFLECTIONS",
]

# Counter-clockwise quarter turns assigned to the compass names used by the
# paper.  EAST is the *clockwise* quarter turn (three ccw quarters).
_NAME_TO_ROT = {"north": 0, "west": 1, "south": 2, "east": 3}
_ROT_TO_NAME = {value: key for key, value in _NAME_TO_ROT.items()}


class Orientation:
    """An element of the D4 orientation group, encoded ``(r, k)``.

    ``r`` is the number of counter-clockwise quarter turns (0..3) and ``k``
    indicates whether a reflection about the y axis is applied before the
    rotation.  Instances are immutable, hashable, and interned: there are
    only eight distinct objects.  ``code`` is ``r + 4 * k``, the
    orientation's index in :data:`ALL_ORIENTATIONS` (instance tables
    store it as an int column).
    """

    __slots__ = ("r", "k", "code")

    _cache: dict = {}

    def __new__(cls, r: int, k: int = 0) -> "Orientation":
        r = r % 4
        k = 1 if k else 0
        key = (r, k)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "code", r + 4 * k)
        cls._cache[key] = self
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Orientation is immutable")

    # ------------------------------------------------------------------
    # Group operations (paper sections 2.6.1 and 2.6.2)
    # ------------------------------------------------------------------
    def compose(self, other: "Orientation") -> "Orientation":
        """Return ``self o other`` (apply ``other`` first, then ``self``).

        With ``self = rot(r2) R^{k2}`` and ``other = rot(r1) R^{k1}``, the
        identity ``R rot(r) = rot(-r) R`` gives

            self o other = rot(r2 + (-1)^{k2} r1) R^{k1 xor k2}
        """
        r1, k1 = other.r, other.k
        r2, k2 = self.r, self.k
        r = r2 - r1 if k2 else r2 + r1
        return Orientation(r, k1 ^ k2)

    def inverse(self) -> "Orientation":
        """Return the group inverse (paper section 2.6.1).

        Reflections are involutions (``O o O = I``) so they are their own
        inverse; rotations invert by negating the turn count.
        """
        if self.k:
            return self
        return Orientation(-self.r, 0)

    def __mul__(self, other: "Orientation") -> "Orientation":
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.compose(other)

    # ------------------------------------------------------------------
    # Application to coordinates
    # ------------------------------------------------------------------
    def apply(self, x: int, y: int) -> Tuple[int, int]:
        """Apply the orientation to the point/vector ``(x, y)``.

        The reflection (if any) is applied first, then the rotation, per
        the ``rot(r) o R^k`` operator convention.
        """
        if self.k:
            x = -x
        r = self.r
        if r == 0:
            return (x, y)
        if r == 1:
            return (-y, x)
        if r == 2:
            return (-x, -y)
        return (y, -x)

    def matrix(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Return the 2x2 integer matrix of the linear map (row-major)."""
        cx = self.apply(1, 0)
        cy = self.apply(0, 1)
        return ((cx[0], cy[0]), (cx[1], cy[1]))

    @property
    def is_reflection(self) -> bool:
        """True when the orientation reverses handedness."""
        return bool(self.k)

    @property
    def is_rotation(self) -> bool:
        """True for the four pure rotations (including identity)."""
        return not self.k

    @property
    def is_identity(self) -> bool:
        return self.r == 0 and self.k == 0

    def swaps_axes(self) -> bool:
        """True when vertical edges map to horizontal edges (odd turns)."""
        return self.r % 2 == 1

    # ------------------------------------------------------------------
    # Naming, parsing, iteration
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        base = _ROT_TO_NAME[self.r]
        return f"flip_{base}" if self.k else base

    @classmethod
    def from_name(cls, name: str) -> "Orientation":
        """Parse an orientation name such as ``"east"`` or ``"flip_west"``.

        Raises ``ValueError`` for unknown names.
        """
        text = name.strip().lower()
        k = 0
        if text.startswith("flip_"):
            k = 1
            text = text[len("flip_"):]
        elif text.startswith("f"):
            candidate = text[1:]
            if candidate in _NAME_TO_ROT:
                k = 1
                text = candidate
        if text not in _NAME_TO_ROT:
            raise ValueError(f"unknown orientation name: {name!r}")
        return cls(_NAME_TO_ROT[text], k)

    @classmethod
    def all(cls) -> Iterator["Orientation"]:
        """Iterate over all eight orientations (rotations first)."""
        for k in (0, 1):
            for r in range(4):
                yield cls(r, k)

    def __repr__(self) -> str:
        return f"Orientation.{self.name.upper()}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.r == other.r and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.r, self.k))

    def __reduce__(self):
        return (Orientation, (self.r, self.k))


NORTH = Orientation(0, 0)
WEST = Orientation(1, 0)
SOUTH = Orientation(2, 0)
EAST = Orientation(3, 0)
FLIP_NORTH = Orientation(0, 1)
FLIP_WEST = Orientation(1, 1)
FLIP_SOUTH = Orientation(2, 1)
FLIP_EAST = Orientation(3, 1)

ALL_ORIENTATIONS = tuple(Orientation.all())
ROTATIONS = (NORTH, WEST, SOUTH, EAST)
REFLECTIONS = (FLIP_NORTH, FLIP_WEST, FLIP_SOUTH, FLIP_EAST)
