"""Tests for the rubber-band pass: alignment pairs, the sparse LP, and
the deferred scipy import.

The all-pairs scan below is the oracle for the per-layer sweep behind
``alignment_pairs``; the row-by-row dense build is the oracle for the
sparse program matrix.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compact import TECH_A, alignment_pairs, compact_layout, misalignment
from repro.compact.rubberband import _rubber_band_program, rubber_band_solve
from repro.compact.scanline import (
    add_width_constraints,
    build_edge_variables,
    visibility_constraints,
)
from repro.compact.solver import solve_longest_path
from repro.geometry import Box, batch
from repro.layout.database import flatten_cell
from repro.multiplier import generate_via_language

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def scan_pairs(items):
    """The all-pairs oracle: every same-layer pair of meeting boxes."""
    items = list(items)
    return [
        (a, b)
        for i, a in enumerate(items)
        for b in items[i + 1:]
        if a.layer == b.layer and a.box.overlaps(b.box)
    ]


def dense_program(system, pairs):
    """The rubber-band constraint rows built one dense row at a time."""
    index = {name: i for i, name in enumerate(system.variables)}
    num_x = len(system.variables)
    rows, rhs = [], []
    for constraint in system.constraints:
        row = np.zeros(num_x + len(pairs))
        row[index[constraint.source]] += 1.0
        row[index[constraint.target]] -= 1.0
        rows.append(row)
        rhs.append(-float(constraint.weight))
    for k, (a, b) in enumerate(pairs):
        drawn = float((a.box.xmin + a.box.xmax) - (b.box.xmin + b.box.xmax))
        for sign in (1.0, -1.0):
            row = np.zeros(num_x + len(pairs))
            row[index[a.left]] = sign
            row[index[a.right]] = sign
            row[index[b.left]] = -sign
            row[index[b.right]] = -sign
            row[num_x + k] = -1.0
            rows.append(row)
            rhs.append(sign * drawn)
    return np.array(rows), np.array(rhs)


def random_items(seed, count, spread):
    """Edge-variable boxes on three layers, touching, degenerate, long
    and negative-coordinate ones included (a coarse grid makes contacts
    common)."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        x, y = rng.randrange(-spread, spread, 2), rng.randrange(-spread, spread, 2)
        width, height = rng.choice([0, 2, 4, 6, 30]), rng.choice([0, 2, 4, 8, 40])
        pairs.append(
            (rng.choice(["diff", "poly", "metal1"]), Box(x, y, x + width, y + height))
        )
    return build_edge_variables(pairs)


def multiplier_items(size):
    layout = flatten_cell(generate_via_language(size, size)[0])
    return build_edge_variables(
        [(layer, box) for layer, boxes in sorted(layout.layers.items()) for box in boxes]
    )


class TestAlignmentPairs:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(0, 60),
        spread=st.sampled_from([8, 24, 80]),
    )
    def test_matches_all_pairs_scan(self, seed, count, spread):
        _, items = random_items(seed, count, spread)
        assert list(alignment_pairs(items)) == scan_pairs(items)

    def test_matches_all_pairs_scan_on_multiplier(self):
        _, items = multiplier_items(4)
        pairs = list(alignment_pairs(items))
        assert pairs and pairs == scan_pairs(items)

    def test_contact_kinds(self):
        _, items = build_edge_variables(
            [
                ("metal1", Box(0, 0, 4, 4)),
                ("metal1", Box(4, 4, 8, 8)),    # corner contact with 0
                ("metal1", Box(0, 4, 4, 10)),   # edge contact with 0 and 1
                ("poly", Box(0, 0, 4, 4)),      # other layer: never paired
                ("metal1", Box(20, 0, 20, 9)),  # zero width, alone
            ]
        )
        named = {(a.left, b.left) for a, b in alignment_pairs(items)}
        assert named == {("e0.l", "e1.l"), ("e0.l", "e2.l"), ("e1.l", "e2.l")}

    def test_touching_pairs_empty_and_single(self):
        for count in (0, 1):
            arrays = batch.boxes_to_arrays([Box(0, 0, 1, 1)] * count)
            codes = np.zeros(count, dtype=np.int64)
            first, second = batch.touching_pairs(arrays, codes)
            assert first.size == 0 and second.size == 0


class TestRubberBandProgram:
    def system(self, items_builder):
        system, items = items_builder
        add_width_constraints(system, items, TECH_A)
        visibility_constraints(system, items, TECH_A)
        return system, items

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_matrix_equals_dense_rows(self, seed):
        system, items = self.system(random_items(seed, 40, 60))
        pairs = alignment_pairs(items)
        cost, matrix, rhs, bounds = _rubber_band_program(system, pairs, 500)
        dense, dense_rhs = dense_program(system, pairs)
        assert matrix.shape == dense.shape
        assert np.array_equal(matrix.toarray(), dense)
        assert np.array_equal(rhs, dense_rhs)
        assert len(cost) == len(bounds) == dense.shape[1]

    def test_no_rows(self):
        system, items = build_edge_variables([])
        cost, matrix, rhs, bounds = _rubber_band_program(
            system, alignment_pairs(items), 10
        )
        assert matrix is None and rhs is None and len(cost) == 0

    def test_multiplier_pass_is_feasible_and_smooths(self):
        system, items = self.system(multiplier_items(4))
        greedy = solve_longest_path(system).values
        width = max(greedy)
        pairs = alignment_pairs(items)
        smooth = rubber_band_solve(system, items, width, pairs)
        assert system.check(smooth) == []
        assert max(smooth) <= width
        assert misalignment(pairs, smooth) < misalignment(pairs, greedy)

    def test_rubber_band_keeps_box_counts(self):
        layout = flatten_cell(generate_via_language(3, 3)[0])
        result = compact_layout(layout, TECH_A, rubber_band=True)
        assert {k: len(v) for k, v in result.layers.items()} == {
            k: len(v) for k, v in layout.layers.items()
        }
        assert result.jog_after <= result.jog_before


class TestDeferredScipy:
    def run(self, body):
        script = f"import sys\nsys.path.insert(0, {REPO_SRC!r})\n" + body
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_cli_import_does_not_load_scipy(self):
        out = self.run(
            "import repro.cli, repro.compact\n"
            "print('scipy' in sys.modules)\n"
        )
        assert out == ["False"]

    def test_rubber_band_loads_scipy_on_demand(self):
        out = self.run(
            "from repro.compact import TECH_A, compact_layout\n"
            "from repro.geometry import Box\n"
            "from repro.layout.database import FlatLayout\n"
            "flat = FlatLayout('jog')\n"
            "for box in (Box(10, 0, 13, 10), Box(10, 10, 13, 20), Box(0, 0, 3, 10)):\n"
            "    flat.add('metal1', box)\n"
            "print('scipy' in sys.modules)\n"
            "result = compact_layout(flat, TECH_A, rubber_band=True)\n"
            "print('scipy' in sys.modules, result.jog_after)\n"
        )
        assert out == ["False", "True", "0"]
