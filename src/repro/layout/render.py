"""Rendering flattened layouts as ASCII art or SVG (cf. paper Figure 5.6).

The ASCII renderer is meant for terminals and doctests; the SVG renderer
produces a colour plot with one translucent group per layer, good enough
to eyeball the generated multiplier against Figure 5.6.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..core.cell import CellDefinition
from ..geometry import batch
from .database import FlatLayout, flatten_cell

__all__ = ["ascii_render", "svg_render", "DEFAULT_PALETTE"]

DEFAULT_PALETTE = [
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
]


def _as_flat(layout: Union[FlatLayout, CellDefinition]) -> FlatLayout:
    if isinstance(layout, CellDefinition):
        return flatten_cell(layout)
    return layout


def ascii_render(
    layout: Union[FlatLayout, CellDefinition],
    max_width: int = 100,
    max_height: int = 50,
    layer_chars: Optional[Dict[str, str]] = None,
) -> str:
    """Render a layout as character art, one character per grid block.

    Layers are drawn in sorted order; later layers overwrite earlier ones.
    When the layout exceeds ``max_width``/``max_height`` it is decimated
    by an integer factor.
    """
    flat = _as_flat(layout)
    bbox = flat.bounding_box()
    if bbox is None:
        return "(empty layout)"
    step = max(
        1,
        (bbox.width + max_width - 1) // max_width,
        (bbox.height + max_height - 1) // max_height,
    )
    columns = max(1, (bbox.width + step - 1) // step)
    rows = max(1, (bbox.height + step - 1) // step)
    grid = [[" "] * columns for _ in range(rows)]

    default_chars = "#*+ox%@&=~"
    layers = sorted(flat.layers)
    chars = layer_chars or {
        layer: default_chars[index % len(default_chars)]
        for index, layer in enumerate(layers)
    }
    for layer in layers:
        mark = chars.get(layer, "?")
        for box in flat.layers[layer]:
            c0 = max(0, (box.xmin - bbox.xmin) // step)
            c1 = min(columns - 1, max(c0, (box.xmax - bbox.xmin - 1) // step))
            r0 = max(0, (box.ymin - bbox.ymin) // step)
            r1 = min(rows - 1, max(r0, (box.ymax - bbox.ymin - 1) // step))
            for row in range(r0, r1 + 1):
                for column in range(c0, c1 + 1):
                    grid[row][column] = mark
    legend = "  ".join(f"{chars.get(layer, '?')}={layer}" for layer in layers)
    body = "\n".join("".join(row) for row in reversed(grid))
    return f"{body}\n[{legend}] scale 1:{step}"


def svg_render(
    layout: Union[FlatLayout, CellDefinition],
    scale: float = 4.0,
    palette: Optional[List[str]] = None,
    show_labels: bool = False,
) -> str:
    """Render a layout as an SVG document string.

    With ``show_labels`` the layout's flattened labels are drawn as
    text — routed composites label every net at its first wire, so this
    is the quickest way to eyeball a :func:`repro.route.compose.compose`
    result.
    """
    flat = _as_flat(layout)
    bbox = flat.bounding_box()
    if bbox is None:
        return '<svg xmlns="http://www.w3.org/2000/svg"/>'
    palette = palette or DEFAULT_PALETTE
    width = bbox.width * scale
    height = bbox.height * scale
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}"'
        f' height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for index, layer in enumerate(sorted(flat.layers)):
        color = palette[index % len(palette)]
        parts.append(f'<g fill="{color}" fill-opacity="0.55" stroke="{color}">')
        boxes = flat.layers[layer]
        # Batch the rect arithmetic: the coordinates are exactly
        # representable in float64, so the column products format
        # exactly as per-box Python expressions would.
        arrays = batch.boxes_to_arrays(boxes)
        xs = ((arrays.xmin - bbox.xmin) * scale).tolist()
        # SVG y axis points down; flip.
        ys = ((bbox.ymax - arrays.ymax) * scale).tolist()
        widths = ((arrays.xmax - arrays.xmin) * scale).tolist()
        heights = ((arrays.ymax - arrays.ymin) * scale).tolist()
        parts.extend(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}"'
            f' height="{h:.1f}"/>'
            for x, y, w, h in zip(xs, ys, widths, heights)
        )
        parts.append("</g>")
    if show_labels and flat.labels:
        parts.append('<g fill="black" font-size="10" font-family="monospace">')
        for label in flat.labels:
            x = (label.position.x - bbox.xmin) * scale
            y = (bbox.ymax - label.position.y) * scale
            parts.append(f'<text x="{x:.1f}" y="{y:.1f}">{label.text}</text>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
