"""Geometry substrate: vectors, boxes, the D4 group, and the array kernel."""

from .box import Box
from .orientation import (
    ALL_ORIENTATIONS,
    EAST,
    FLIP_EAST,
    FLIP_NORTH,
    FLIP_SOUTH,
    FLIP_WEST,
    NORTH,
    REFLECTIONS,
    ROTATIONS,
    SOUTH,
    WEST,
    Orientation,
)
from .transform import IDENTITY, Transform
from .vector import ORIGIN, Vec2

__all__ = [
    "Box",
    "Orientation",
    "Transform",
    "Vec2",
    "ORIGIN",
    "IDENTITY",
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
