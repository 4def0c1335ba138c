"""The chapter-5 case study end to end: a pipelined array multiplier.

1. Generates the bit-systolic multiplier layout from the Appendix B
   design file + Appendix C parameter file (the real language front end).
2. Renders it (compare with the paper's Figure 5.6).
3. Verifies the arithmetic: builds the matching Baugh-Wooley netlist,
   retimes it to the bit-systolic degree (beta = 1), and streams random
   products through the cycle-accurate simulator.
4. Sweeps the degree of pipelining — "the optimal degree of pipelining
   is application and technology dependent, so it is necessary to be
   able to automatically generate any degree of pipelining."

Run:  python examples/multiplier_demo.py [size]
"""

import os
import random
import sys
import tempfile

from repro.layout import ascii_render, flatten_cell, write_cif
from repro.multiplier import (
    PipelinedSimulator,
    build_baugh_wooley,
    from_bits,
    generate_via_language,
    reference_product,
    report_for,
    retime,
    to_bits,
    to_signed,
)


def main(size=6):
    # --- layout generation through the design-file language ----------
    top, interpreter = generate_via_language(size, size)
    report = report_for(top, size, size)
    print(f"=== {size}x{size} bit-systolic multiplier layout ===")
    print(f"basic cells   : {report.basic_cells}")
    print(f"type masks    : {report.type1_masks} type I, {report.type2_masks} type II")
    print(f"clock masks   : {report.clock_masks}")
    print(f"registers     : {report.registers}"
          f" (+{report.direction_masks} direction masks)")
    x0, y0, x1, y1 = report.bounding_box
    print(f"bounding box  : {x1 - x0} x {y1 - y0} lambda")
    print()
    print(ascii_render(top, max_width=100, max_height=36))

    cif_path = os.path.join(tempfile.gettempdir(), "multiplier.cif")
    write_cif(top, cif_path)
    print(f"\nCIF written to {cif_path}")

    # --- arithmetic verification --------------------------------------
    print(f"\n=== functional check: {size}x{size} Baugh-Wooley array ===")
    net = build_baugh_wooley(size, size)
    assignment = retime(net, 1)  # bit-systolic
    sim = PipelinedSimulator(assignment)
    rng = random.Random(42)
    half = 1 << (size - 1)
    pairs = [(rng.randrange(-half, half), rng.randrange(-half, half))
             for _ in range(20)]
    stream = []
    for a, b in pairs:
        vector = {}
        for i, bit in enumerate(to_bits(a, size)):
            vector[f"a{i}"] = bit
        for i, bit in enumerate(to_bits(b, size)):
            vector[f"b{i}"] = bit
        stream.append(vector)
    outputs = sim.run_stream(stream)
    errors = 0
    for (a, b), out in zip(pairs, outputs):
        product = to_signed(from_bits([out[f"p{k}"] for k in range(2 * size)]),
                            2 * size)
        if product != reference_product(a, b, size, size):
            errors += 1
    print(f"streamed {len(pairs)} products at latency {assignment.latency},"
          f" {errors} errors")

    # --- pipelining sweep ---------------------------------------------
    print("\n=== degree-of-pipelining sweep (Figure 5.2) ===")
    print(f"{'beta':>6} {'latency':>8} {'registers':>10} {'max comb. run':>14}")
    for beta in (1, 2, 3, 4, None):
        a = retime(net, beta)
        print(f"{str(beta):>6} {a.latency:>8} {a.total_registers():>10}"
              f" {a.max_combinational_run():>14}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
