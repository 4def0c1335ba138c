"""The interface calculus (paper chapter 2).

An interface between cells A and B captures their relative placement when
called in a common coordinate system:

    I_ab = (V_ab, O_ab)

``V_ab`` is the vector from A's point of call to B's point of call after
the calling cell has been reoriented so the instance of A sits at North
(the identity); ``O_ab`` is B's orientation after that same reorientation
(equations 2.1 and 2.2):

    O_ab = (O_a)^-1 o O_b
    V_ab = (O_a)^-1 (L_b - L_a)

The module provides derivation from placements, inversion (eq. 2.3/2.4),
placement propagation (eq. 3.1/3.2), and interface inheritance
(eq. 2.11/2.12).
"""

from __future__ import annotations

from typing import Tuple

from ..geometry import Orientation, Vec2

__all__ = [
    "Interface",
    "derive_interface",
    "propagate_placement",
    "inherit_interface",
]


class Interface:
    """The ordered pair ``(V_ab, O_ab)``; note ``I_ab != I_ba`` in general."""

    __slots__ = ("vector", "orientation")

    def __init__(self, vector: Vec2, orientation: Orientation) -> None:
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "orientation", orientation)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Interface is immutable")

    def inverse(self) -> "Interface":
        """Return ``I_ba`` from ``I_ab`` (equations 2.3 and 2.4).

        O_ba = (O_ab)^-1 ;  V_ba = -(O_ab)^-1 V_ab
        """
        inv = self.orientation.inverse()
        return Interface((-self.vector).transformed(inv), inv)

    def is_self_inverse(self) -> bool:
        """True when ``I_ab == I_ba`` — the symmetric same-celltype case.

        For such interfaces the directed-edge disambiguation of section
        3.4 is moot: both edge directions expand to identical placements.
        """
        return self == self.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interface):
            return NotImplemented
        return self.vector == other.vector and self.orientation == other.orientation

    def __hash__(self) -> int:
        return hash((self.vector, self.orientation))

    def __repr__(self) -> str:
        return f"Interface({self.vector!r}, {self.orientation!r})"


def derive_interface(
    location_a: Vec2,
    orientation_a: Orientation,
    location_b: Vec2,
    orientation_b: Orientation,
) -> Interface:
    """Compute ``I_ab`` from two placements in a common coordinate system.

    Implements equations 2.1 and 2.2: deskew B's orientation and the
    separation vector by the inverse of A's orientation.
    """
    deskew = orientation_a.inverse()
    return Interface(
        (location_b - location_a).transformed(deskew),
        deskew.compose(orientation_b),
    )


def propagate_placement(
    location_a: Vec2,
    orientation_a: Orientation,
    interface_ab: Interface,
) -> Tuple[Vec2, Orientation]:
    """Given A's placement and ``I_ab``, return B's placement.

    Implements equations 3.1 and 3.2:

        O_b = O_a o O_ab ;  L_b = O_a(V_ab) + L_a
    """
    orientation_b = orientation_a.compose(interface_ab.orientation)
    location_b = interface_ab.vector.transformed(orientation_a) + location_a
    return (location_b, orientation_b)


def inherit_interface(
    interface_ab: Interface,
    location_a_in_c: Vec2,
    orientation_a_in_c: Orientation,
    location_b_in_d: Vec2,
    orientation_b_in_d: Orientation,
) -> Interface:
    """Compute the inherited interface ``I_cd`` (equations 2.11 and 2.12).

    A is a subcell of C at ``(L_a^c, O_a^c)``; B is a subcell of D at
    ``(L_b^d, O_b^d)``.  ``I_cd`` is the interface C and D inherit when
    their subcells A and B are related by ``I_ab``:

        O_cd = O_a^c o O_ab o (O_b^d)^-1
        V_cd = O_a^c(V_ab) + L_a^c - O_cd(L_b^d)
    """
    orientation_cd = orientation_a_in_c.compose(interface_ab.orientation).compose(
        orientation_b_in_d.inverse()
    )
    vector_cd = (
        interface_ab.vector.transformed(orientation_a_in_c)
        + location_a_in_c
        - location_b_in_d.transformed(orientation_cd)
    )
    return Interface(vector_cd, orientation_cd)
