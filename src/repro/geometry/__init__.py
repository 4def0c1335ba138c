"""Geometry substrate: vectors, boxes, the D4 group, and the array kernel."""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".box": ["Box"],
    ".orientation": [
        "ALL_ORIENTATIONS", "EAST", "FLIP_EAST", "FLIP_NORTH", "FLIP_SOUTH",
        "FLIP_WEST", "NORTH", "REFLECTIONS", "ROTATIONS", "SOUTH", "WEST",
        "Orientation",
    ],
    ".transform": ["IDENTITY", "Transform"],
    ".vector": ["ORIGIN", "Vec2"],
})
