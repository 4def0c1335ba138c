"""Tests for connectivity graphs and expansion (paper chapter 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CellDefinition,
    Interface,
    InterfaceTable,
    Node,
    collect_graph,
    expand_graph,
)
from repro.core.errors import (
    DisconnectedGraphError,
    InconsistentGraphError,
    UnknownInterfaceError,
)
from repro.core.graph import iter_edges
from repro.geometry import ALL_ORIENTATIONS, EAST, NORTH, SOUTH, Transform, Vec2


def leaf(name):
    cell = CellDefinition(name)
    cell.add_box("metal", 0, 0, 4, 4)
    return cell


@pytest.fixture
def table():
    t = InterfaceTable()
    t.declare("a", "b", 1, Interface(Vec2(10, 0), NORTH))
    t.declare("b", "c", 1, Interface(Vec2(0, 10), EAST))
    t.declare("a", "a", 1, Interface(Vec2(6, 0), NORTH))
    return t


@pytest.fixture
def cells():
    return {name: leaf(name) for name in "abc"}


class TestExpansion:
    def test_chain_expansion(self, table, cells):
        na, nb, nc = Node(cells["a"]), Node(cells["b"]), Node(cells["c"])
        na.connect(nb, 1)
        nb.connect(nc, 1)
        order = expand_graph(na, table)
        assert [n.celltype for n in order] == ["a", "b", "c"]
        assert nb.instance.location == Vec2(10, 0)
        assert nc.instance.location == Vec2(10, 10)
        assert nc.instance.orientation == EAST

    def test_root_placement_arguments(self, table, cells):
        na, nb = Node(cells["a"]), Node(cells["b"])
        na.connect(nb, 1)
        expand_graph(na, table, root_location=Vec2(100, 0), root_orientation=SOUTH)
        assert na.instance.location == Vec2(100, 0)
        # B's placement rotates with the root (eq. 3.1/3.2).
        assert nb.instance.location == Vec2(90, 0)
        assert nb.instance.orientation == SOUTH

    def test_expansion_from_either_end(self, table, cells):
        """Bilateral edges: the traversal may start anywhere (section 3.4)."""
        na, nb = Node(cells["a"]), Node(cells["b"])
        na.connect(nb, 1)
        expand_graph(nb, table)
        assert nb.instance.location == Vec2(0, 0)
        assert na.instance.location == Vec2(-10, 0)

    def test_missing_interface_raises(self, cells):
        na, nc = Node(cells["a"]), Node(cells["c"])
        na.connect(nc, 9)
        with pytest.raises(UnknownInterfaceError):
            expand_graph(na, InterfaceTable())

    def test_reexpansion_resets_placements(self, table, cells):
        na, nb = Node(cells["a"]), Node(cells["b"])
        na.connect(nb, 1)
        expand_graph(na, table)
        expand_graph(nb, table)  # second expansion from the other root
        assert nb.instance.location == Vec2(0, 0)

    @pytest.mark.parametrize("orientation", [NORTH, EAST, SOUTH])
    def test_reexpansion_matches_a_fresh_expansion(self, cells, orientation):
        """Re-expanding a placed graph (with a cycle edge, so the stale
        placements would be checked if they counted as visited) from
        another root placement gives what a fresh graph gives."""
        table = InterfaceTable()
        table.declare("a", "b", 1, Interface(Vec2(10, 0), NORTH))
        table.declare("b", "c", 1, Interface(Vec2(0, 10), EAST))
        table.declare("a", "c", 1, Interface(Vec2(10, 10), EAST))

        def graph():
            na, nb, nc = (Node(cells[n]) for n in "abc")
            na.connect(nb, 1)
            nb.connect(nc, 1)
            na.connect(nc, 1)
            return na, nb, nc

        def placements(order):
            return [
                (n.celltype, n.instance.location, n.instance.orientation)
                for n in order
            ]

        placed = graph()
        expand_graph(placed[0], table)
        again = expand_graph(
            placed[1], table, root_location=Vec2(7, -3), root_orientation=orientation,
            expected_nodes=list(placed),
        )
        fresh = graph()
        once = expand_graph(
            fresh[1], table, root_location=Vec2(7, -3), root_orientation=orientation,
        )
        assert placements(again) == placements(once)
        assert placements(placed) == placements(fresh)


class TestEquivalenceClasses:
    """Section 3.4: one graph = one layout *modulo an affine isometry*."""

    @given(st.sampled_from(ALL_ORIENTATIONS), st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=40)
    def test_root_choice_changes_layout_by_isometry_only(self, o, x, y):
        table = InterfaceTable()
        table.declare("a", "b", 1, Interface(Vec2(10, 0), EAST))
        table.declare("b", "c", 1, Interface(Vec2(0, 7), NORTH))
        cells = {name: leaf(name) for name in "abc"}
        na, nb, nc = (Node(cells[n]) for n in "abc")
        na.connect(nb, 1)
        nb.connect(nc, 1)

        expand_graph(na, table)
        reference = [
            (n.celltype, n.instance.location, n.instance.orientation)
            for n in (na, nb, nc)
        ]
        expand_graph(nb, table, root_location=Vec2(x, y), root_orientation=o)
        moved = [
            (n.celltype, n.instance.location, n.instance.orientation)
            for n in (na, nb, nc)
        ]
        # Find the isometry mapping reference -> moved via node a, then
        # check it maps every node correctly.
        t_ref = Transform(reference[0][1], reference[0][2])
        t_mov = Transform(moved[0][1], moved[0][2])
        iso = t_mov.compose(t_ref.inverse())
        for (_, loc_r, ori_r), (_, loc_m, ori_m) in zip(reference, moved):
            world = iso.compose(Transform(loc_r, ori_r))
            assert (world.offset, world.orientation) == (loc_m, ori_m)


class TestCycles:
    def test_consistent_cycle_accepted(self, cells):
        """Redundant cycle edges are verified, not trusted."""
        table = InterfaceTable()
        table.declare("a", "b", 1, Interface(Vec2(10, 0), NORTH))
        table.declare("b", "c", 1, Interface(Vec2(0, 10), NORTH))
        table.declare("a", "c", 1, Interface(Vec2(10, 10), NORTH))
        na, nb, nc = (Node(cells[n]) for n in "abc")
        na.connect(nb, 1)
        nb.connect(nc, 1)
        na.connect(nc, 1)  # cycle edge, consistent
        expand_graph(na, table)
        assert nc.instance.location == Vec2(10, 10)

    def test_inconsistent_cycle_rejected(self, cells):
        table = InterfaceTable()
        table.declare("a", "b", 1, Interface(Vec2(10, 0), NORTH))
        table.declare("b", "c", 1, Interface(Vec2(0, 10), NORTH))
        table.declare("a", "c", 1, Interface(Vec2(99, 99), NORTH))
        na, nb, nc = (Node(cells[n]) for n in "abc")
        na.connect(nb, 1)
        nb.connect(nc, 1)
        na.connect(nc, 1)  # contradicts the path placement
        with pytest.raises(InconsistentGraphError):
            expand_graph(na, table)


class TestConnectivity:
    def test_spanning_tree_suffices(self, table, cells):
        """Figure 3.3: interfaces absent from the sample are never
        accessed when the graph is a tree."""
        # Note: no a-c interface exists in `table`; a tree a-b-c expands.
        na, nb, nc = (Node(cells[n]) for n in "abc")
        na.connect(nb, 1)
        nb.connect(nc, 1)
        expand_graph(na, table)  # would raise if I_ac were consulted

    def test_disconnected_detection(self, table, cells):
        na, nb = Node(cells["a"]), Node(cells["b"])
        lone = Node(cells["c"])
        na.connect(nb, 1)
        with pytest.raises(DisconnectedGraphError):
            expand_graph(na, table, expected_nodes=[na, nb, lone])

    def test_collect_graph_bfs(self, table, cells):
        na, nb, nc = (Node(cells[n]) for n in "abc")
        na.connect(nb, 1)
        nb.connect(nc, 1)
        assert [n.celltype for n in collect_graph(nb)] == ["b", "a", "c"]

    def test_iter_edges_unique(self, table, cells):
        na, nb, nc = (Node(cells[n]) for n in "abc")
        na.connect(nb, 1)
        nb.connect(nc, 1)
        assert len(list(iter_edges(collect_graph(na)))) == 2


class TestDirectedSameCelltype:
    """Figures 3.5-3.7: directed edges resolve the I_aa ambiguity."""

    def test_forward_edge_uses_interface(self, table, cells):
        n1, n2 = Node(cells["a"]), Node(cells["a"])
        n1.connect(n2, 1)  # n1 is the reference instance
        expand_graph(n1, table)
        assert n2.instance.location == Vec2(6, 0)

    def test_traversal_against_direction_uses_inverse(self, table, cells):
        n1, n2 = Node(cells["a"]), Node(cells["a"])
        n1.connect(n2, 1)
        expand_graph(n2, table)  # root at the edge's target
        assert n1.instance.location == Vec2(-6, 0)

    def test_direction_disambiguates_nontrivial_orientation(self, cells):
        """The Figure 3.6 failure: with I_aa = (V, East) the two edge
        directions give genuinely different (non-isometric) layouts."""
        table = InterfaceTable()
        table.declare("a", "a", 1, Interface(Vec2(10, 0), EAST))
        forward1, forward2 = Node(cells["a"]), Node(cells["a"])
        forward1.connect(forward2, 1)
        expand_graph(forward1, table)
        placed_forward = (forward2.instance.location, forward2.instance.orientation)

        backward1, backward2 = Node(cells["a"]), Node(cells["a"])
        backward2.connect(backward1, 1)  # reversed direction bit
        expand_graph(backward1, table)
        placed_backward = (backward2.instance.location, backward2.instance.orientation)
        assert placed_forward != placed_backward

    def test_layout_independent_of_traversal_order(self, cells):
        """The first-version RSG bug: results must not depend on how the
        (directed) graph happens to be walked."""
        table = InterfaceTable()
        table.declare("a", "a", 1, Interface(Vec2(8, 2), EAST))
        center, left, right = (Node(cells["a"]) for _ in range(3))
        left.connect(center, 1)
        center.connect(right, 1)
        expand_graph(center, table)
        expected = {
            id(left): (left.instance.location, left.instance.orientation),
            id(right): (right.instance.location, right.instance.orientation),
        }
        # Re-expand from `left`; `center` keeps relative placement.
        expand_graph(left, table, root_location=expected[id(left)][0],
                     root_orientation=expected[id(left)][1])
        assert (right.instance.location, right.instance.orientation) == expected[id(right)]

    def test_self_loop_edge_rejected_by_connect(self, cells):
        node = Node(cells["a"])
        edge = node.connect(node, 1)
        # A self edge is structurally representable but expansion treats
        # it as a consistency check (placement vs itself) — it must fail
        # unless the interface is the identity.
        table = InterfaceTable()
        table.declare("a", "a", 1, Interface(Vec2(5, 0), NORTH))
        with pytest.raises(InconsistentGraphError):
            expand_graph(node, table)


class TestSingleVisit:
    """Expansion evaluates each tree edge once, from the end that places
    the other; parallel edges, self-loops and cycle edges are still
    checked."""

    @pytest.fixture
    def ab_table(self):
        table = InterfaceTable()
        table.declare("a", "b", 1, Interface(Vec2(10, 0), NORTH))
        table.declare("a", "b", 2, Interface(Vec2(12, 0), NORTH))
        return table

    @pytest.mark.parametrize("root", ["parent", "child"])
    def test_contradicting_parallel_edge_rejected(self, ab_table, cells, root):
        na, nb = Node(cells["a"]), Node(cells["b"])
        na.connect(nb, 1)
        na.connect(nb, 2)  # parallel to the tree edge and contradicting it
        with pytest.raises(InconsistentGraphError):
            expand_graph(na if root == "parent" else nb, ab_table)

    def test_consistent_parallel_edge_accepted(self, ab_table, cells):
        na, nb = Node(cells["a"]), Node(cells["b"])
        na.connect(nb, 1)
        nb.connect(na, 1)  # the same interface, loaded bilaterally
        expand_graph(na, ab_table)
        assert nb.instance.location == Vec2(10, 0)

    @pytest.mark.parametrize(
        "loop, consistent",
        [(Interface(Vec2(5, 0), NORTH), False), (Interface(Vec2(0, 0), NORTH), True)],
        ids=["translation", "identity"],
    )
    def test_self_loop_on_a_non_root_node(self, ab_table, cells, loop, consistent):
        ab_table.declare("b", "b", 1, loop)
        na, nb = Node(cells["a"]), Node(cells["b"])
        na.connect(nb, 1)
        nb.connect(nb, 1)
        if consistent:
            expand_graph(na, ab_table)
            assert nb.instance.location == Vec2(10, 0)
        else:
            with pytest.raises(InconsistentGraphError):
                expand_graph(na, ab_table)

    def test_each_tree_edge_is_looked_up_once(self, cells, monkeypatch):
        lookups = []
        inversions = []

        class Counting(InterfaceTable):
            def lookup(self, *key):
                lookups.append(key)
                return super().lookup(*key)

        inverse = Interface.inverse

        def counting_inverse(interface):
            inversions.append(interface)
            return inverse(interface)

        table = Counting()
        table.declare("a", "a", 1, Interface(Vec2(6, 0), EAST))
        monkeypatch.setattr(Interface, "inverse", counting_inverse)
        chain = [Node(cells["a"]) for _ in range(6)]
        for left, right in zip(chain, chain[1:]):
            left.connect(right, 1)
        # Rooted at the far end, every edge is walked against its
        # direction: five lookups and one memoised inverse.
        expand_graph(chain[-1], table)
        assert len(lookups) == 5
        assert len(inversions) == 1
        # Four quarter turns close a loop, so an edge from the first
        # node to the sixth is a consistent cycle edge: it is checked
        # from both of its ends.
        lookups.clear()
        chain[0].connect(chain[-1], 1)
        expand_graph(chain[0], table)
        assert len(lookups) == 5 + 2
