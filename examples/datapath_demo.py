"""Composition beyond abutment: a PLA controller wired to a datapath.

Every structure the RSG generates is a single abutted array — the
interface calculus only composes cells whose ports land exactly on top
of each other.  This demo uses the wiring subsystem (`repro.route`) to
go further: it generates a PLA controller and a pipelined multiplier
datapath as two independent blocks, then *routes* the controller's
output columns to the datapath's control columns across a channel
derived automatically from the two bounding boxes.

Two composites are built:

1. an aligned control bus — order-preserving, so ``compose`` picks the
   single-layer **river router** (no vias, minimal channel height);
2. a swizzled control bus — crossing nets, so the general two-layer
   **channel router** runs (left-edge with dogleg handling).

Both results are verified the hard way: connectivity is re-extracted
from the routed geometry and must reproduce the requested nets, and
the channel passes the compactor's DRC oracle with zero violations.

Run:  python examples/datapath_demo.py
"""

import os
import tempfile

from repro.compact import TECH_A, check_layout
from repro.geometry import Transform
from repro.layout import ascii_render, svg_render, write_cif
from repro.multiplier import generate_multiplier
from repro.pla import TruthTable, generate_pla
from repro.route import compose, routed_netlist
from repro.verify import verify_multiplier, verify_pla

# The controller personality: 4 opcode bits in, 4 control lines out.
CONTROL_TABLE = TruthTable.parse(
    """
    1-00 | 1010
    01-1 | 1101
    -110 | 0110
    001- | 1011
    """
)


def output_columns(pla):
    """Absolute x centres of the PLA's output buffers, left to right."""
    columns = []

    def walk(cell, transform):
        for instance in cell.instances:
            if not instance.is_placed:
                continue
            world = transform.compose(instance.transform)
            if instance.celltype == "outbuf":
                bbox = world.apply_box(instance.definition.bounding_box())
                columns.append((bbox.xmin + bbox.xmax) // 2)
            walk(instance.definition, world)

    walk(pla, Transform())
    return sorted(columns)


def annotate_ports(pla, mult):
    """Name the facing-edge terminals on both generated blocks.

    The PLA's outputs become ``out0..`` on its bottom edge (at the real
    output-buffer columns); the datapath gets ``ctl0..`` control
    columns spread along its top edge.
    """
    pla_bbox = pla.bounding_box()
    columns = output_columns(pla)
    for index, x in enumerate(columns):
        pla.add_port(f"out{index}", x, pla_bbox.ymin, "metal1")
    mult_bbox = mult.bounding_box()
    stride = mult_bbox.width // (len(columns) + 1)
    pitch = 7  # the channel style's pitch under TECH_A
    for index in range(len(columns)):
        x = mult_bbox.xmin + (index + 1) * stride
        # Channel pin columns must coincide exactly or sit a full pitch
        # apart; nudge control columns off the controller's columns.
        while any(0 < abs(x - c) < pitch for c in columns):
            x += pitch
        mult.add_port(f"ctl{index}", x, mult_bbox.ymax, "metal1")
    return len(columns)


def verify(tag, composite, plan):
    """Round-trip the connectivity and DRC-check the routed channel."""
    extracted = routed_netlist(composite, plan.style)
    requested = plan.requested_groups()
    assert extracted == requested, (
        f"{tag}: extracted nets do not match the request:\n"
        f"  got      {extracted}\n  expected {requested}"
    )
    violations = check_layout(plan.wiring.layers(), TECH_A)
    assert not violations, f"{tag}: DRC violations in routed channel: {violations}"
    print(f"  {plan.summary()}")
    print(
        f"  connectivity round-trip: {len(extracted)} nets match;"
        f" DRC: {len(violations)} violations"
    )


def main():
    print("=== generating the two blocks ===")
    controller = generate_pla(CONTROL_TABLE, name="controller")
    datapath = generate_multiplier(4, 4)
    datapath.name = "datapath"
    lines = annotate_ports(controller, datapath)
    print(f"controller: {controller.bounding_box()} ({lines} control lines)")
    print(f"datapath  : {datapath.bounding_box()}")

    print("\n=== aligned control bus (river router) ===")
    nets = {
        f"ctl{i}": [("datapath", f"ctl{i}"), ("controller", f"out{i}")]
        for i in range(lines)
    }
    aligned, plan = compose("soc_aligned", datapath, controller, nets)
    assert plan.router == "river", plan.router
    verify("aligned", aligned, plan)

    print("\n=== silicon verification of both blocks ===")
    # The controller closes the full loop: transistor netlist from the
    # masks, LVS against the programmed table's intended netlist, and
    # exhaustive switch-level simulation of every opcode.
    report = verify_pla(controller, table=CONTROL_TABLE)
    print(report.summary())
    assert report.ok, "controller failed silicon verification"
    # The stylised multiplier sample verifies at the cell level:
    # placement/personalisation LVS plus the exhaustive product check.
    report = verify_multiplier(datapath)
    print(report.summary())
    assert report.ok, "datapath failed silicon verification"

    print("\n=== swizzled control bus (channel router) ===")
    swizzle = [(i + 1) % lines for i in range(lines)]
    nets = {
        f"ctl{i}": [("datapath", f"ctl{i}"), ("controller", f"out{swizzle[i]}")]
        for i in range(lines)
    }
    swizzled, chan_plan = compose("soc_swizzled", datapath, controller, nets)
    assert chan_plan.router == "channel", chan_plan.router
    verify("swizzled", swizzled, chan_plan)

    print("\n=== the composite, end to end ===")
    print(ascii_render(swizzled, max_width=100, max_height=40))
    cif_path = os.path.join(tempfile.gettempdir(), "datapath.cif")
    svg_path = os.path.join(tempfile.gettempdir(), "datapath.svg")
    write_cif(swizzled, cif_path)
    with open(svg_path, "w", encoding="utf-8") as handle:
        handle.write(svg_render(swizzled, show_labels=True))
    print(f"\nCIF written to {cif_path}, SVG to {svg_path}")
    print(
        "\nTwo independently generated arrays, wired by derivation —"
        "\nthe channel between them is exactly as tall as the routing"
        f"\nneeds ({plan.height} lambda river vs {chan_plan.height} lambda"
        " channel)."
    )


if __name__ == "__main__":
    main()
