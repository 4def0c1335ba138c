"""Equivalence of the production geometry passes and their oracles.

Every geometry pass — visibility constraint generation, DRC, box
merging, wire extraction and the mask walk of netlist extraction — has
one production build on flat arrays (:mod:`repro.geometry.batch`) and
one interpreted ``*_reference`` build as its oracle (``tests/oracles/``).
These property tests drive randomized layouts through both builds
across multiple seeds, densities and box shapes (short boxes, and tall
columns and long rows spanning the whole layout) and require *identical*
observable results: the same constraint multiset and solved widths, the
same merged geometry, the same violation multiset, the same extracted
components, the same extraction node partition.  Plus direct unit
coverage of the sweep and array primitives, and the degenerate layouts
(empty, single box, all-overlapping).
"""

import random
from collections import Counter

import numpy as np
import pytest
from oracles.database import merge_boxes_reference
from oracles.drc import check_layout_reference
from oracles.extract import _sweep_reference, extract_layers
from oracles.route_extract import wire_components_reference
from oracles.scanline import visibility_constraints_reference
from oracles.sweep import merge_intervals, slab_decompose, subtract_intervals

from repro.compact import (
    TECH_A,
    TECH_B,
    add_width_constraints,
    build_edge_variables,
    check_layout,
    distinct_leaf_cells,
    solve_longest_path,
    visibility_constraints,
)
from repro.core.errors import InfeasibleConstraintsError
from repro.geometry import Box
from repro.geometry import batch
from repro.layout.database import merge_boxes
from repro.pla import (
    HplaGenerator,
    TruthTable,
    generate_decoder,
    generate_pla,
    generate_rom,
)
from repro.route.extract import wire_components
from repro.route.style import RouteStyle
from repro.verify.extract import CONDUCTOR_LAYERS, _sweep_batch

LAYERS = ["diff", "poly", "metal1", "implant"]

# (seed, boxes, coordinate spread): spread ~ n gives sparse layouts with
# deep fronts, spread << n gives dense overlapping material.
CASES = [
    (seed, n, spread)
    for seed in (1, 2, 3, 4, 5)
    for n, spread in ((8, 20), (40, 60), (40, 400), (120, 300), (120, 2000))
]


#: box shapes of the case matrix: "short" boxes are at most 8 units on
#: a side; "tall" layouts mix them with columns and rows whose extent
#: reaches the whole spread, the shape where the array builds expand a
#: box over the most event lines.
SHAPES = ["short", "tall"]


def _extents(rng, shape, spread, short):
    """(width, height) of one box: ``short`` bounds the small side."""
    small = (rng.randrange(*short), rng.randrange(*short))
    if shape == "short":
        return small
    kind = rng.randrange(3)
    if kind == 0:
        return small
    long = rng.randrange(short[0], spread + 1)
    return (small[0], long) if kind == 1 else (long, small[1])


def random_pairs(seed, n, spread, shape="short"):
    """A randomized (layer, box) layout; includes degenerate boxes."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        x = rng.randrange(0, spread)
        y = rng.randrange(0, spread)
        width, height = _extents(rng, shape, spread, (0, 9))
        pairs.append((rng.choice(LAYERS), Box(x, y, x + width, y + height)))
    return pairs


def _solved(system):
    """The longest-path solve, or ``None`` for an infeasible system."""
    try:
        return solve_longest_path(system)
    except InfeasibleConstraintsError:
        return None


def constraint_multiset(system):
    return Counter(
        (c.source, c.target, c.weight, c.kind) for c in system.constraints
    )


# ----------------------------------------------------------------------
# Kernel primitives
# ----------------------------------------------------------------------
class TestIntervalUtilities:
    def test_merge_coalesces_touching_and_overlapping(self):
        assert merge_intervals([(5, 7), (0, 2), (2, 4), (6, 9)]) == [(0, 4), (5, 9)]

    def test_merge_drops_empty(self):
        assert merge_intervals([(3, 3), (1, 2)]) == [(1, 2)]

    def test_subtract_splits_and_clips(self):
        assert subtract_intervals([(0, 10)], [(2, 4), (6, 20)]) == [
            (0, 2),
            (4, 6),
        ]

    def test_subtract_disjoint_cut_is_noop(self):
        assert subtract_intervals([(0, 5)], [(7, 9)]) == [(0, 5)]


class TestSlabDecompose:
    def test_runs_merge_within_slab(self):
        layers = {"m": [Box(0, 0, 4, 10), Box(4, 0, 8, 10), Box(12, 2, 14, 8)]}
        # The yielded runs dict is reused between slabs: snapshot inline.
        slabs = [
            (y0, y1, tuple(runs["m"])) for y0, y1, runs in slab_decompose(layers)
        ]
        assert slabs == [
            (0, 2, ((0, 8),)),
            (2, 8, ((0, 8), (12, 14))),
            (8, 10, ((0, 8),)),
        ]

    def test_degenerate_boxes_cut_grid_without_material(self):
        layers = {"m": [Box(0, 0, 4, 10), Box(0, 5, 0, 5)]}
        slabs = [(y0, y1, tuple(runs["m"])) for y0, y1, runs in slab_decompose(layers)]
        assert slabs == [(0, 5, ((0, 4),)), (5, 10, ((0, 4),))]


# ----------------------------------------------------------------------
# Path equivalence on randomized layouts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
class TestEquivalence:
    def test_visibility_constraints_and_solved_widths(
        self, seed, n, spread, rules, shape
    ):
        pairs = random_pairs(seed, n, spread, shape)
        kernel_system, kernel_boxes = build_edge_variables(pairs)
        reference_system, reference_boxes = build_edge_variables(pairs)
        kernel_count = visibility_constraints(kernel_system, kernel_boxes, rules)
        reference_count = visibility_constraints_reference(
            reference_system, reference_boxes, rules
        )
        assert kernel_count == reference_count
        assert constraint_multiset(kernel_system) == constraint_multiset(
            reference_system
        )
        # Identical constraints must solve to identical positions/widths;
        # min-width mode keeps short-box layouts feasible.  Tall columns
        # crossing long rows can pin connected chains into a positive
        # cycle: then both systems must be infeasible alike.
        add_width_constraints(kernel_system, kernel_boxes, rules, mode="min")
        add_width_constraints(reference_system, reference_boxes, rules, mode="min")
        kernel_stats = _solved(kernel_system)
        reference_stats = _solved(reference_system)
        if shape == "short":
            assert kernel_stats is not None
        if kernel_stats is None or reference_stats is None:
            assert kernel_stats is reference_stats is None
        else:
            assert kernel_stats.solution == reference_stats.solution
            assert kernel_stats.width() == reference_stats.width()

    def test_check_layout_violation_multiset(self, seed, n, spread, rules, shape):
        pairs = random_pairs(seed, n, spread, shape)
        layers = {}
        for layer, box in pairs:
            layers.setdefault(layer, []).append(box)
        assert Counter(check_layout(layers, rules)) == Counter(
            check_layout_reference(layers, rules)
        )

    def test_merge_boxes_identical_geometry(self, seed, n, spread, rules, shape):
        boxes = [box for _, box in random_pairs(seed, n, spread, shape)]
        assert merge_boxes(boxes) == merge_boxes_reference(boxes)


def random_wire_layers(seed, n, spread, shape="short"):
    """Randomized routing-layer material for the extraction tests."""
    rng = random.Random(seed)
    layers = {}
    for _ in range(n):
        layer = rng.choice(["metal1", "poly", "contact"])
        x = rng.randrange(0, spread)
        y = rng.randrange(0, spread)
        if shape == "short":
            width, height = rng.randrange(1, 30), rng.randrange(1, 6)
        else:
            width, height = _extents(rng, shape, spread, (1, 6))
        layers.setdefault(layer, []).append(Box(x, y, x + width, y + height))
    return layers


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed,n,spread", CASES)
def test_wire_components_identical_grouping(seed, n, spread, shape):
    layers = random_wire_layers(seed, n, spread, shape)
    style = RouteStyle()
    assert wire_components(layers, style) == wire_components_reference(
        layers, style
    )


# ----------------------------------------------------------------------
# Array primitives
# ----------------------------------------------------------------------
class TestBatchPrimitives:
    def test_kernel_name_is_numpy(self):
        assert batch.kernel_name() == "numpy"

    def test_box_array_roundtrip(self):
        boxes = [box for _, box in random_pairs(3, 40, 60)]
        arrays = batch.boxes_to_arrays(boxes)
        assert (
            batch.boxes_from_arrays(
                arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax
            )
            == boxes
        )

    def test_unique_sorted_matches_numpy_unique(self):
        rng = random.Random(7)
        values = np.array(
            [rng.randrange(-50, 50) for _ in range(500)], dtype=np.int64
        )
        assert np.array_equal(batch.unique_sorted(values), np.unique(values))
        empty = np.empty(0, dtype=np.int64)
        assert batch.unique_sorted(empty).size == 0

    def test_segmented_cummax_running_max_per_group(self):
        groups = np.array([0, 0, 0, 2, 2, 5], dtype=np.int64)
        values = np.array([3, 1, 5, 2, 7, 0], dtype=np.int64)
        assert batch.segmented_cummax(groups, values).tolist() == [
            3, 3, 5, 2, 7, 0,
        ]

    def test_segmented_cummax_overflow_fallback(self):
        # groups x span overflowing int64 must take the rank-based path
        # and still produce the per-group running maximum.
        groups = np.array([0, 0, 2**21, 2**21], dtype=np.int64)
        values = np.array([2**42, 5, -(2**42), 9], dtype=np.int64)
        assert batch.segmented_cummax(groups, values).tolist() == [
            2**42, 2**42, -(2**42), 9,
        ]

    def test_merged_slab_runs_matches_slab_decompose(self):
        boxes = [box for _, box in random_pairs(9, 60, 80)]
        arrays = batch.boxes_to_arrays(boxes)
        ys = batch.slab_grid([arrays])
        slab, x0, x1 = batch.merged_slab_runs(ys, arrays)
        got = list(zip(slab.tolist(), x0.tolist(), x1.tolist()))
        expected = []
        grid = ys.tolist()
        for index, (lo, hi) in enumerate(zip(grid, grid[1:])):
            for run in _merged_runs_at(boxes, lo, hi):
                expected.append((index, run[0], run[1]))
        assert got == expected


def _merged_runs_at(boxes, lo, hi):
    """Oracle: merged x intervals of the material covering slab (lo, hi)."""
    spans = [
        (box.xmin, box.xmax)
        for box in boxes
        if box.ymin <= lo and box.ymax >= hi and box.xmin < box.xmax
    ]
    return merge_intervals(spans)


def random_table(rng, inputs, outputs, terms):
    """A seeded PLA personality: two thirds of the inputs are literals
    in every product term, and every output is driven by some term."""
    literals = -(-2 * inputs // 3)
    and_plane, or_plane = [], []
    for _ in range(terms):
        row = ["-"] * inputs
        for position in rng.sample(range(inputs), literals):
            row[position] = rng.choice("01")
        and_plane.append("".join(row))
        out = ["0"] * outputs
        for position in rng.sample(range(outputs), max(1, outputs // 2)):
            out[position] = "1"
        or_plane.append(out)
    for column in range(outputs):
        if all(row[column] == "0" for row in or_plane):
            or_plane[rng.randrange(terms)][column] = "1"
    return TruthTable(and_plane, ["".join(row) for row in or_plane])


SMALL_TABLE = TruthTable.parse(
    """
    1-0 | 10
    01- | 11
    -11 | 01
    """
)

#: real layouts whose conductor masks feed the extraction sweep: seeded
#: PLAs of the flow benchmark's shapes (inputs, terms, outputs), the
#: decoders, a ROM and an HPLA
SWEEP_LAYOUTS = {
    **{
        f"pla-{inputs}x{terms}x{outputs}": (
            lambda inputs=inputs, terms=terms, outputs=outputs, seed=seed:
            generate_pla(random_table(random.Random(seed), inputs, outputs, terms))
        )
        for seed, (inputs, terms, outputs) in enumerate(
            [(5, 32, 2), (8, 8, 2), (6, 24, 5), (7, 16, 2), (5, 24, 8),
             (7, 8, 8), (6, 32, 2)]
        )
    },
    **{f"decoder-{n}": (lambda n=n: generate_decoder(n)) for n in (1, 2, 3, 4)},
    "rom": lambda: generate_rom([0b101, 0b010, 0b111, 0b001, 0b110], 3)[0],
    "hpla": lambda: HplaGenerator().generate(SMALL_TABLE),
}


def _assert_sweeps_agree(masks):
    reference = _sweep_reference(masks)
    production = _sweep_batch({k: batch.boxes_to_arrays(v) for k, v in masks.items()})
    # Same boxes, gates, and terminals; the union-find must induce the
    # same node partition (compare canonical roots, not parent arrays).
    assert reference[1:] == production[1:]
    reference_sets, production_sets = reference[0], production[0]
    assert [
        reference_sets.find(i) for i in range(len(reference_sets.parent))
    ] == [production_sets.find(i) for i in range(len(production_sets.parent))]


def _sweep_masks(cell):
    """The extraction sweep's input for ``cell``: its expanded masks."""
    layers = extract_layers(cell, None)
    masks = {name: list(layers.get(name, ())) for name in CONDUCTOR_LAYERS}
    masks["cut"] = list(layers.get("cut", ()))
    masks["implant"] = list(layers.get("implant", ()))
    return masks


@pytest.mark.parametrize("tiles", [False, True], ids=["flat", "tiles"])
@pytest.mark.parametrize("layout", sorted(SWEEP_LAYOUTS))
def test_batch_verify_sweep_identical_netlist_parts(layout, tiles):
    """The mask walk of netlist extraction agrees with its oracle.

    ``flat`` sweeps the whole layout's masks; ``tiles`` sweeps the
    masks of each distinct leaf definition of the layout, extracted
    alone: small inputs, many of them cut off at the leaf's frame.
    """
    cell = SWEEP_LAYOUTS[layout]()
    leaves = distinct_leaf_cells(cell) if tiles else [cell]
    assert leaves
    for leaf in leaves:
        _assert_sweeps_agree(_sweep_masks(leaf))


# ----------------------------------------------------------------------
# Degenerate layouts
# ----------------------------------------------------------------------
class TestBatchDegenerateLayouts:
    def run_all_passes(self, pairs):
        """Drive every pass and its oracle over one tiny layout."""
        system, boxes = build_edge_variables(pairs)
        reference_system, reference_boxes = build_edge_variables(pairs)
        assert visibility_constraints(
            system, boxes, TECH_A
        ) == visibility_constraints_reference(
            reference_system, reference_boxes, TECH_A
        )
        assert constraint_multiset(system) == constraint_multiset(
            reference_system
        )
        layers = {}
        for layer, box in pairs:
            layers.setdefault(layer, []).append(box)
        assert Counter(check_layout(layers, TECH_A)) == Counter(
            check_layout_reference(layers, TECH_A)
        )
        boxes = [box for _, box in pairs]
        assert merge_boxes(boxes) == merge_boxes_reference(boxes)
        style = RouteStyle()
        assert wire_components(layers, style) == wire_components_reference(
            layers, style
        )

    def test_empty_layout(self):
        self.run_all_passes([])
        assert merge_boxes([]) == []
        assert wire_components({}, RouteStyle()) == wire_components_reference(
            {}, RouteStyle()
        )

    def test_single_box(self):
        self.run_all_passes([("metal1", Box(0, 0, 6, 4))])

    def test_all_overlapping(self):
        # Every box intersects every other, on every layer: the dense
        # corner where run merging and pair dedup do maximal coalescing.
        pairs = [
            (layer, Box(i, i, 20 - i, 20 - i))
            for i in range(8)
            for layer in ("diff", "poly", "metal1")
        ]
        self.run_all_passes(pairs)

    def test_identical_stacked_boxes(self):
        self.run_all_passes([("poly", Box(2, 2, 10, 8))] * 5)
