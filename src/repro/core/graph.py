"""Connectivity graphs (paper chapter 3).

A connectivity graph describes a new cell as *partial instances* (celltype
known, placement unknown) joined by edges that name interfaces.  The graph
need only be a spanning tree; expansion places a root arbitrarily and walks
the graph applying equations 3.1/3.2.

Data-structure requirements from section 3.4:

* edges are **bilateral** — each endpoint holds an edge record pointing at
  the other, because the traversal root is not known while the graph is
  being built;
* edges are **directed** — a direction bit records which endpoint is the
  reference instance of the interface, resolving the ``I_aa`` versus
  ``I_aa^-1`` ambiguity for edges between nodes of the same celltype.

Cycle edges are permitted but checked: when a non-tree edge is encountered
during expansion, the placement it implies must agree with the placement
already assigned, otherwise :class:`InconsistentGraphError` is raised (the
paper calls cycle information "redundant"; we verify the redundancy).
Tree edges are evaluated once, from the end that places the other.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..geometry import NORTH, Orientation, Vec2
from ..geometry.vector import _vec2_from_ints
from .cell import CellDefinition, Instance
from .errors import DisconnectedGraphError, GraphError, InconsistentGraphError
from .interface import Interface
from .interface_table import InterfaceTable

__all__ = ["Node", "Edge", "expand_graph", "collect_graph"]


class Edge:
    """A directed, bilateral edge carrying an interface index number.

    ``source`` is the reference instance (deskewed to North in the
    interface definition); ``target`` the placed-relative instance.
    """

    __slots__ = ("source", "target", "index")

    def __init__(self, source: "Node", target: "Node", index: int) -> None:
        self.source = source
        self.target = target
        self.index = index

    def other(self, node: "Node") -> "Node":
        """The endpoint that is not ``node`` (raises if ``node`` is neither)."""
        if node is self.source:
            return self.target
        if node is self.target:
            return self.source
        raise GraphError("node is not an endpoint of this edge")

    def __repr__(self) -> str:
        return (
            f"Edge({self.source.celltype!r} -> {self.target.celltype!r},"
            f" #{self.index})"
        )


class Node:
    """A connectivity-graph node wrapping a (possibly partial) instance."""

    __slots__ = ("instance", "edges", "name")

    def __init__(self, definition: CellDefinition, name: str = "") -> None:
        self.instance = Instance(definition, name=name)
        self.edges: List[Edge] = []
        self.name = name

    @property
    def celltype(self) -> str:
        return self.instance.celltype

    @property
    def is_placed(self) -> bool:
        return self.instance.is_placed

    def connect(self, other: "Node", index: int) -> Edge:
        """Create a directed edge ``self -> other`` with interface ``index``.

        The edge record is appended to both endpoints' edge lists
        (bilateral data structure), with ``self`` as the reference
        instance (section 3.4's privileged direction).
        """
        edge = Edge(self, other, index)
        self.edges.append(edge)
        if other is not self:
            other.edges.append(edge)
        return edge

    def degree(self) -> int:
        """Edges at this node, a self-loop counted once."""
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Node({self.celltype!r}, degree={self.degree()})"


def collect_graph(root: Node) -> List[Node]:
    """Return every node reachable from ``root`` (breadth-first order)."""
    seen = {id(root): root}
    order = [root]
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for edge in node.edges:
            neighbor = edge.other(node)
            if id(neighbor) not in seen:
                seen[id(neighbor)] = neighbor
                order.append(neighbor)
                queue.append(neighbor)
    return order


def expand_graph(
    root: Node,
    table: InterfaceTable,
    root_location: Vec2 = Vec2(0, 0),
    root_orientation: Orientation = NORTH,
    expected_nodes: Optional[List[Node]] = None,
) -> List[Node]:
    """Expand a connectivity graph into placed instances (section 3.1).

    The root is placed at ``(root_location, root_orientation)``; every
    other reachable node receives the placement implied by the spanning
    tree of the breadth-first traversal.  Each tree edge is evaluated
    once, when it places its far node: walking it back from that node
    would only re-derive the placement it just made.  Every other edge
    (a parallel edge, a self-loop, a cycle edge) is verified for
    consistency.

    An edge costs one table lookup.  Traversal along the edge direction
    uses the table interface; traversal against it uses the inverse —
    this is where the direction bit earns its keep for same-celltype
    edges — memoised per interface for the expansion.  Equations 3.1/3.2
    then reduce to a *step*: the placed node's orientation applied to
    the interface gives an integer offset ``O_a(V_ab)`` and the far
    orientation ``O_a o O_ab``, which depend only on the interface, the
    direction and ``O_a``.  Steps are memoised on those three (interfaces
    keyed by identity: the table holds every interface for the
    expansion's duration; orientations by their ``(r, k)`` ints, which
    hash without a Python call), so an array of n cells computes a
    handful of steps and places each node with two integer additions
    (its point built without re-coercing the ints).

    ``expected_nodes`` (optional) asserts that the reachable component
    covers exactly those nodes, raising
    :class:`DisconnectedGraphError` otherwise.

    Returns the list of nodes in traversal order.  Nodes placed by an
    earlier expansion are re-placed: the visited set is this
    expansion's own, so no pass first clears old placements.
    """
    root.instance.place(root_location, root_orientation)
    placed = {id(root)}
    lookup = table.lookup
    inverses: Dict[int, Interface] = {}
    # (id(interface), along the edge, placed orientation's r and k)
    #   -> (dx, dy, far orientation)
    steps: Dict[Tuple[int, bool, int, int], Tuple[int, int, Orientation]] = {}
    order = [root]
    # (node, the tree edge it was placed across)
    queue: Deque[Tuple[Node, Optional[Edge]]] = deque([(root, None)])
    while queue:
        node, tree_edge = queue.popleft()
        instance = node.instance
        x, y = instance.location.x, instance.location.y
        turn = instance.orientation
        r, k = turn.r, turn.k
        for edge in node.edges:
            if edge is tree_edge:
                continue
            source, target = edge.source, edge.target
            interface = lookup(
                source.instance._definition.name, target.instance._definition.name,
                edge.index,
            )
            along = source is node
            neighbor = target if along else source
            key = (id(interface), along, r, k)
            step = steps.get(key)
            if step is None:
                if not along:
                    inverse = inverses.get(id(interface))
                    if inverse is None:
                        inverse = inverses[id(interface)] = interface.inverse()
                    interface = inverse
                dx, dy = turn.apply(interface.vector.x, interface.vector.y)
                step = steps[key] = (dx, dy, turn.compose(interface.orientation))
            dx, dy, orientation = step
            location = _vec2_from_ints(x + dx, y + dy)
            if id(neighbor) in placed:
                if (
                    neighbor.instance.location != location
                    or neighbor.instance.orientation != orientation
                ):
                    raise InconsistentGraphError(
                        f"cycle edge {edge!r} implies placement"
                        f" ({location!r}, {orientation!r}) but node already"
                        f" placed at ({neighbor.instance.location!r},"
                        f" {neighbor.instance.orientation!r})"
                    )
                continue
            neighbor.instance.place(location, orientation)
            placed.add(id(neighbor))
            order.append(neighbor)
            queue.append((neighbor, edge))

    if expected_nodes is not None:
        missing = [node for node in expected_nodes if id(node) not in placed]
        if missing:
            raise DisconnectedGraphError(
                f"{len(missing)} node(s) unreachable from the root,"
                f" first: {missing[0]!r}"
            )
    return order


def iter_edges(nodes: List[Node]) -> Iterator[Edge]:
    """Yield each edge of the graph exactly once."""
    seen = set()
    for node in nodes:
        for edge in node.edges:
            if id(edge) not in seen:
                seen.add(id(edge))
                yield edge
