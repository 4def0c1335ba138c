"""The RSG workspace: the public Python API mirroring section 4.4.

``Rsg`` bundles the cell table and interface table and exposes the three
primitive connectivity-graph operators — ``mk_instance``, ``connect``,
``mk_cell`` — plus ``declare_interface`` (interface inheritance, section
2.5) and ``interface_by_example`` (derive an interface from two placements,
the design-by-example mechanism of section 2.3).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from ..geometry import NORTH, Orientation, Vec2
from ..obs import trace as obs_trace
from .cell import CellDefinition, CellTable, Instance
from .errors import GraphError
from .graph import Node, expand_graph
from .interface import Interface, derive_interface, inherit_interface
from .interface_table import InterfaceTable

__all__ = ["Rsg"]

CellRef = Union[str, CellDefinition]


class Rsg:
    """A Regular Structure Generator workspace.

    Holds the mutable state of a generation session: the table of cell
    definitions (primitive cells from a sample layout plus cells built by
    ``mk_cell``) and the interface table.
    """

    def __init__(self) -> None:
        self.cells = CellTable()
        self.interfaces = InterfaceTable()

    # ------------------------------------------------------------------
    # Cell definition
    # ------------------------------------------------------------------
    def define_cell(self, name: str, replace: bool = False) -> CellDefinition:
        """Create and register an empty cell definition."""
        return self.cells.new_cell(name, replace=replace)

    def _resolve(self, cell: CellRef) -> CellDefinition:
        if isinstance(cell, CellDefinition):
            return cell
        return self.cells.lookup(cell)

    # ------------------------------------------------------------------
    # Graph operators (section 4.4)
    # ------------------------------------------------------------------
    def mk_instance(self, cell: CellRef, name: str = "") -> Node:
        """Create a partial-instance node for ``cell`` (section 4.4.1)."""
        if not isinstance(cell, CellDefinition):
            cell = self.cells.lookup(cell)
        return Node(cell, name)

    def connect(self, source: Node, target: Node, index: int) -> Node:
        """Join two nodes with a directed edge (section 4.4.2).

        ``source`` is the interface's reference instance.  Returns
        ``source`` so calls chain naturally, matching the design-file
        convention that ``connect`` returns its first argument.
        """
        self.interfaces.lookup(
            source.instance._definition.name, target.instance._definition.name, index
        )
        source.connect(target, index)
        return source

    def mk_cell(
        self,
        name: str,
        root: Node,
        root_location: Vec2 = Vec2(0, 0),
        root_orientation: Orientation = NORTH,
        replace: bool = False,
    ) -> CellDefinition:
        """Expand the graph reachable from ``root`` into a new cell
        (section 4.4.3) and register it in the cell table.
        """
        with obs_trace.span("graph.expand", cell=name):
            order = expand_graph(
                root, self.interfaces, root_location, root_orientation
            )
        cell = self.cells.new_cell(name, replace=replace)
        # adopt (not a raw append) so the new cell's geometry caches
        # invalidate if a node's instance is ever re-placed later.
        cell.adopt_all([node.instance for node in order])
        return cell

    # ------------------------------------------------------------------
    # Interface definition
    # ------------------------------------------------------------------
    def interface_by_example(
        self,
        cell_a: CellRef,
        location_a: Vec2,
        orientation_a: Orientation,
        cell_b: CellRef,
        location_b: Vec2,
        orientation_b: Orientation,
        index: Optional[int] = None,
        replace: bool = False,
    ) -> int:
        """Declare an interface from an example placement (section 2.3).

        The two placements are read as instances called together in one
        coordinate system; the derived ``I_ab`` is loaded into the table.
        Returns the interface index used.
        """
        name_a = self._resolve(cell_a).name
        name_b = self._resolve(cell_b).name
        if index is None:
            index = self.interfaces.next_index(name_a, name_b)
        interface = derive_interface(location_a, orientation_a, location_b, orientation_b)
        self.interfaces.declare(name_a, name_b, index, interface, replace=replace)
        return index

    def declare_interface(
        self,
        cell_c: CellRef,
        cell_d: CellRef,
        new_index: int,
        subnode_a: Union[Node, Instance],
        subnode_b: Union[Node, Instance],
        existing_index: int,
        replace: bool = False,
    ) -> Interface:
        """Interface inheritance (section 2.5 / the design file's
        ``declare_interface``).

        ``subnode_a`` is a placed instance of some cell A inside C and
        ``subnode_b`` a placed instance of some cell B inside D; the
        existing interface ``I_ab`` with index ``existing_index`` induces
        a new ``I_cd`` loaded under ``new_index``.
        """
        instance_a = subnode_a.instance if isinstance(subnode_a, Node) else subnode_a
        instance_b = subnode_b.instance if isinstance(subnode_b, Node) else subnode_b
        if not (instance_a.is_placed and instance_b.is_placed):
            raise GraphError(
                "declare_interface requires placed subcell instances;"
                " call mk_cell on their graphs first"
            )
        interface_ab = self.interfaces.lookup(
            instance_a.celltype, instance_b.celltype, existing_index
        )
        inherited = inherit_interface(
            interface_ab,
            instance_a.location,
            instance_a.orientation,
            instance_b.location,
            instance_b.orientation,
        )
        name_c = self._resolve(cell_c).name
        name_d = self._resolve(cell_d).name
        self.interfaces.declare(name_c, name_d, new_index, inherited, replace=replace)
        return inherited

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def chain(self, nodes: Iterable[Node], index: int) -> List[Node]:
        """Connect consecutive nodes with the same interface index.

        A convenience for the ubiquitous linear-array pattern; returns the
        node list.
        """
        items = list(nodes)
        for left, right in zip(items, items[1:]):
            self.connect(left, right, index)
        return items
