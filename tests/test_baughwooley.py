"""Tests for the Baugh-Wooley multiplier netlist (chapter 5, Figure 5.1)."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.multiplier import (
    build_baugh_wooley,
    cell_type_grid,
    from_bits,
    multiply,
    reference_product,
    to_bits,
    to_signed,
)
from repro.verify.driver import multiplier_mismatches


class TestBitHelpers:
    def test_to_signed(self):
        assert to_signed(0b1111, 4) == -1
        assert to_signed(0b0111, 4) == 7
        assert to_signed(0b1000, 4) == -8

    def test_to_bits_round_trip(self):
        for value in range(-8, 8):
            assert to_signed(from_bits(to_bits(value, 4)), 4) == value

    @given(st.integers(-128, 127))
    def test_round_trip_8bit(self, value):
        assert to_signed(from_bits(to_bits(value, 8)), 8) == value


class TestCellTypeGrid:
    def test_type_ii_count(self):
        """(m-1) + (n-1) type II cells — the edge personalisation."""
        for m, n in [(2, 2), (4, 4), (3, 6)]:
            grid = cell_type_grid(m, n)
            count = sum(row.count("II") for row in grid)
            assert count == (m - 1) + (n - 1)

    def test_corner_is_type_i(self):
        """The sign-sign corner is type I ('except for the cell at the
        lower left corner')."""
        grid = cell_type_grid(4, 4)
        assert grid[3][3] == "I"

    def test_edges_are_type_ii(self):
        grid = cell_type_grid(4, 4)
        assert grid[0][3] == "II"  # sign column, non-sign row
        assert grid[3][0] == "II"  # sign row, non-sign column
        assert grid[0][0] == "I"


class TestCombinationalCorrectness:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 4), (2, 5), (5, 2), (3, 4)])
    def test_exhaustive(self, m, n):
        net = build_baugh_wooley(m, n)
        for a in range(-(1 << (m - 1)), 1 << (m - 1)):
            for b in range(-(1 << (n - 1)), 1 << (n - 1)):
                assert multiply(net, a, b, m, n) == reference_product(a, b, m, n)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    @settings(max_examples=60, deadline=None)
    def test_random_8x8(self, a, b):
        net = _NET8
        assert multiply(net, a, b, 8, 8) == reference_product(a, b, 8, 8)

    def test_extremes_16x16(self):
        net = build_baugh_wooley(16, 16)
        for a in (-32768, -1, 0, 1, 32767):
            for b in (-32768, -1, 0, 1, 32767):
                assert multiply(net, a, b, 16, 16) == reference_product(a, b, 16, 16)


_NET8 = build_baugh_wooley(8, 8)


class TestStructure:
    def test_cell_counts(self):
        net = build_baugh_wooley(4, 6)
        # 4*6 carry-save positions: one sum + one carry cell each.
        assert net.count_kind("csI") + net.count_kind("csII") == 24
        assert net.count_kind("cpa") == 4
        assert net.count_kind("pp") == 24

    def test_type_ii_matches_grid(self):
        net = build_baugh_wooley(5, 7)
        assert net.count_kind("csII") == (5 - 1) + (7 - 1)

    def test_output_width(self):
        net = build_baugh_wooley(6, 4)
        assert sorted(net.outputs) == sorted(f"p{k}" for k in range(10))

    def test_critical_path_grows_linearly(self):
        # n carry-save rows + m CPA ripple cells + the AND-gate level.
        assert build_baugh_wooley(4, 4).critical_path() == 9
        assert build_baugh_wooley(8, 8).critical_path() == 17

    def test_rejects_tiny_widths(self):
        with pytest.raises(ValueError):
            build_baugh_wooley(1, 4)

    def test_no_combinational_cycles(self):
        net = build_baugh_wooley(6, 6)
        order = net.topological_order()
        assert len(order) == len(net.cells)


class TestNetlistSubstrate:
    def test_duplicate_names_rejected(self):
        from repro.multiplier import Netlist

        net = Netlist()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_input("a")
        net.add_cell("c", lambda: 0, [])
        with pytest.raises(ValueError):
            net.add_cell("c", lambda: 0, [])

    def test_cycle_detection(self):
        from repro.multiplier import Netlist

        net = Netlist()
        net.add_cell("x", lambda v: v, [("cell", "y")])
        net.add_cell("y", lambda v: v, [("cell", "x")])
        with pytest.raises(ValueError):
            net.topological_order()

    def test_const_inputs(self):
        from repro.multiplier import Netlist

        net = Netlist()
        net.add_cell("one", lambda v: v, [Netlist.const(1)])
        net.set_output("o", ("cell", "one"))
        assert net.evaluate({})["o"] == 1


@functools.lru_cache(maxsize=None)
def _array(m, n):
    return build_baugh_wooley(m, n)


def _extremes(bits):
    return [-(1 << (bits - 1)), -1, 0, (1 << (bits - 1)) - 1]


def _operand(bits):
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return st.one_of(st.sampled_from(_extremes(bits)), st.integers(low, high))


@st.composite
def _batches(draw, lanes):
    """(m, n, pairs): ``lanes`` signed operand pairs for an m x n array.

    The drawn pairs come first, then every sign-extreme combination,
    then a seeded random fill up to ``lanes``.
    """
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 8))
    drawn = draw(st.lists(st.tuples(_operand(m), _operand(n)), min_size=1, max_size=8))
    corners = [(a, b) for a in _extremes(m) for b in _extremes(n)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = (drawn + corners)[:lanes]
    while len(pairs) < lanes:
        pairs.append((
            rng.randrange(-(1 << (m - 1)), 1 << (m - 1)),
            rng.randrange(-(1 << (n - 1)), 1 << (n - 1)),
        ))
    return m, n, pairs


def _assert_lanes_match_scalar(m, n, pairs):
    """One N-lane evaluation equals N one-lane evaluations and the golden."""
    net = _array(m, n)
    lanes = len(pairs)
    words = {}
    for name, bits, column in [("a", m, 0), ("b", n, 1)]:
        for i in range(bits):
            words[f"{name}{i}"] = sum(
                ((pair[column] >> i) & 1) << k for k, pair in enumerate(pairs)
            )
    packed = net.evaluate(words, lanes=lanes)
    assert all(0 <= word < 1 << lanes for word in packed.values())
    for k, (a, b) in enumerate(pairs):
        single = net.evaluate(
            {**{f"a{i}": bit for i, bit in enumerate(to_bits(a, m))},
             **{f"b{j}": bit for j, bit in enumerate(to_bits(b, n))}}
        )
        assert {name: (word >> k) & 1 for name, word in packed.items()} == single
        raw = from_bits([(packed[f"p{q}"] >> k) & 1 for q in range(m + n)])
        assert to_signed(raw, m + n) == reference_product(a, b, m, n)


class TestLaneParallelEvaluation:
    @pytest.mark.parametrize("lanes", [1, 63, 64, 65])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_n_lanes_equal_n_single_lanes(self, lanes, data):
        _assert_lanes_match_scalar(*data.draw(_batches(lanes)))

    @given(batch=_batches(4096))
    @settings(max_examples=3, deadline=None)
    def test_4096_lanes_equal_4096_single_lanes(self, batch):
        _assert_lanes_match_scalar(*batch)

    def test_constant_one_fills_every_lane(self):
        from repro.multiplier import Netlist

        net = Netlist()
        net.add_cell("one", lambda v: v, [Netlist.const(1)])
        net.set_output("o", ("cell", "one"))
        assert net.evaluate({}, lanes=70)["o"] == (1 << 70) - 1

    def test_complement_is_masked_to_the_lanes(self):
        net = _array(3, 3)
        type_ii = net.cells["pp_2_0"]
        assert type_ii.function(0, 0) == -1  # ~0: bits above every lane
        outputs = net.evaluate({f"{x}{i}": 0 for x in "ab" for i in range(3)}, lanes=5)
        assert all(0 <= word < 1 << 5 for word in outputs.values())


def _type_ii_products(m, n):
    return [f"pp_{m - 1}_{j}" for j in range(n - 1)] + [
        f"pp_{i}_{n - 1}" for i in range(m - 1)
    ]


def _assert_packed_matches_loop(net, pairs, m, n):
    """The packed check fails, and reports what a per-pair loop reports."""
    loop = []
    for a, b in pairs:
        got, want = multiply(net, a, b, m, n), reference_product(a, b, m, n)
        if got != want:
            loop.append(f"{a} x {b}: got {got}, want {want}")
    packed = multiplier_mismatches(
        net, [a for a, _ in pairs], [b for _, b in pairs], m, n
    )
    assert packed, "the mutant must fail the check"
    assert packed == loop


_M, _N = 4, 5
_ALL_PAIRS = [(a, b) for a in range(1 << _M) for b in range(1 << _N)]


class TestPackedCheckCatchesMutants:
    @pytest.mark.parametrize("name", _type_ii_products(_M, _N))
    def test_nand_swapped_for_and(self, name):
        net = build_baugh_wooley(_M, _N)
        net.cells[name].function = net.cells["pp_0_0"].function  # a type I AND
        _assert_packed_matches_loop(net, _ALL_PAIRS, _M, _N)

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 2), (3, 4), (2, 1), (3, 0)])
    def test_sum_swapped_for_carry(self, i, j):
        net = build_baugh_wooley(_M, _N)
        net.cells[f"cs_{i}_{j}"].function = net.cells[f"cc_{i}_{j}"].function
        _assert_packed_matches_loop(net, _ALL_PAIRS, _M, _N)

    def test_wide_mutant_matches_the_loop(self):
        net = build_baugh_wooley(32, 32)
        net.cells["cs_5_7"].function = net.cells["cc_5_7"].function
        rng = random.Random(4)
        pairs = [(rng.randrange(1 << 32), rng.randrange(1 << 32)) for _ in range(64)]
        _assert_packed_matches_loop(net, pairs, 32, 32)

    @pytest.mark.parametrize("m,n", [(6, 11), (32, 32)])  # 64-bit products too
    def test_clean_array_has_no_mismatches(self, m, n):
        net = _array(m, n)
        rng = random.Random(3)
        a_values = [rng.randrange(1 << m) for _ in range(200)] + [0, 1 << (m - 1)]
        b_values = [rng.randrange(1 << n) for _ in range(200)] + [1 << (n - 1)] * 2
        assert multiplier_mismatches(net, a_values, b_values, m, n) == []
