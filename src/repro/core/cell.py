"""Cells, instances, and the layout objects they contain.

Paper section 2.1: a cell consists of objects whose locations are defined
in a local coordinate system — boxes of various layers, points (we call
them ports, and give them names so netlists can reference them), and
instances of other cells.  An instance is the triplet
``(point of call, orientation, cell definition)``.

Flattening and bounding boxes are *array-aware*: a definition's fully
flattened geometry is computed once per orientation it is used in and
then every instance is stamped by an integer translation, so an n-cell
array of one leaf pays O(distinct cells) transform work plus O(n)
translations instead of O(n) recursive transform compositions.

The box flatten is a *column memo*: each (definition, orientation)
keeps its flattened boxes as layer codes (indices into the process
layer table, :func:`layer_table`) plus four int64 coordinate columns
(:meth:`CellDefinition.flat_columns`).  A parent's entry is built in
one gather: its placed instances are grouped by (child, composed
orientation), each group's child columns are fetched once, and every
instance is stamped by adding its translated point of call to a
repeated copy of its group's rows, in instance order — so the box
order is exactly the recursive walk's.  ``flatten()`` and
:func:`~repro.layout.database.flatten_cell` decode boxes from that memo;
the compactor reads the columns directly and builds no box object.

A definition's placed instances are read as columns too
(:meth:`CellDefinition.instance_table`: child index, orientation code,
x and y), built once per definition and kept until the definition
itself mutates.  The flatten gather, the bounding box, the recursive
instance count, CIF ``C`` lines and the verifiers' hierarchy walks read
it; the :class:`Instance` objects stay the source of truth.

A flat cell can also be *born* from columns
(:meth:`CellDefinition.from_columns`, the compactor's output): its
``boxes`` list is decoded on first read, and until then the flatten
memo, the bounding box and CIF output read the columns
(:meth:`CellDefinition.own_columns`).

The memos invalidate through mutation stamps: every ``add_box`` /
``add_instance`` / ``adopt`` / ``place`` (or direct assignment to an
instance's ``location``/``orientation``) bumps the owning definition's
stamp, and a cached value is reused only while the maximum stamp over
the definition's subtree is unchanged.  The pre-memo recursive walkers
are the test oracle (``tests/oracles/cell.py``), not part of this
module.  Mutations must go through this API — appending to
``boxes``/``instances`` directly bypasses invalidation.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..geometry import ALL_ORIENTATIONS, Box, NORTH, Orientation, Transform, Vec2
from ..geometry.batch import BoxArray, boxes_from_arrays, boxes_to_arrays
from .errors import DuplicateCellError, UnknownCellError

__all__ = [
    "LayerBox", "Port", "Label", "Instance", "InstanceTable", "CellDefinition",
    "CellTable", "layer_table",
]

#: The process layer table: a flattened box's layer code indexes it.
#: Names are appended on first use and never removed, so a code means
#: the same layer for the life of the process (pickles drop the memos
#: that hold codes, see ``CellDefinition.__getstate__``).
_LAYER_NAMES: List[str] = []
_LAYER_CODES: Dict[str, int] = {}
_LAYER_LOCK = threading.Lock()


def layer_table() -> List[str]:
    """The layer names that :meth:`CellDefinition.flat_columns` codes index.

    The list only grows; treat it as read-only.
    """
    return _LAYER_NAMES


def _layer_code(name: str) -> int:
    code = _LAYER_CODES.get(name)
    if code is None:
        with _LAYER_LOCK:
            code = _LAYER_CODES.get(name)
            if code is None:
                code = _LAYER_CODES[name] = len(_LAYER_NAMES)
                _LAYER_NAMES.append(name)
    return code


def _frozen(column):
    column.flags.writeable = False
    return column


def _joined(parts):
    """The columns in ``parts`` end to end (a lone part as it is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _oriented(orientation: Orientation, arrays: BoxArray) -> BoxArray:
    """Box columns under ``orientation`` about the origin (``Box.transformed``)."""
    x0, y0 = orientation.apply(arrays.xmin, arrays.ymin)
    x1, y1 = orientation.apply(arrays.xmax, arrays.ymax)
    return BoxArray(
        np.minimum(x0, x1), np.minimum(y0, y1), np.maximum(x0, x1), np.maximum(y0, y1)
    )


class LayerBox:
    """A rectangle of mask material on a named layer."""

    __slots__ = ("layer", "box")

    def __init__(self, layer: str, box: Box) -> None:
        self.layer = layer
        self.box = box

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerBox):
            return NotImplemented
        return self.layer == other.layer and self.box == other.box

    def __hash__(self) -> int:
        return hash((self.layer, self.box))

    def __repr__(self) -> str:
        return f"LayerBox({self.layer!r}, {self.box!r})"


class Port:
    """A named point in a cell, used for connectivity and netlist extraction."""

    __slots__ = ("name", "position", "layer")

    def __init__(self, name: str, position: Vec2, layer: str = "") -> None:
        self.name = name
        self.position = position
        self.layer = layer

    def __eq__(self, other) -> bool:
        if not isinstance(other, Port):
            return NotImplemented
        return (
            self.name == other.name
            and self.position == other.position
            and self.layer == other.layer
        )

    def __hash__(self) -> int:
        return hash((self.name, self.position, self.layer))

    def __repr__(self) -> str:
        return f"Port({self.name!r}, {self.position!r}, {self.layer!r})"


class Label:
    """A free-text annotation at a point (interface labels in sample files)."""

    __slots__ = ("text", "position")

    def __init__(self, text: str, position: Vec2) -> None:
        self.text = text
        self.position = position

    def __eq__(self, other) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.text == other.text and self.position == other.position

    def __hash__(self) -> int:
        return hash((self.text, self.position))

    def __repr__(self) -> str:
        return f"Label({self.text!r}, {self.position!r})"


class Instance:
    """A placed call of a cell: ``(point of call, orientation, definition)``.

    The location/orientation may be unset (``None``) while the instance is
    still a *partial instance* inside a connectivity graph; ``mk_cell``
    fills them in during graph expansion (paper section 4.4.3).

    ``owners`` lists every :class:`CellDefinition` whose instance list
    holds this instance (maintained by ``add_instance``/``adopt``; an
    instance shared by several cells — e.g. a ``mk_cell(replace=True)``
    re-expansion while the old cell object survives in a parent — lists
    them all).  Assigning ``definition``/``location``/``orientation`` —
    including through ``place`` — bumps every owner's mutation stamp so
    each one's cached bounding box and flatten memos invalidate.
    """

    __slots__ = ("_definition", "_location", "_orientation", "name", "owners")

    def __init__(
        self,
        definition: "CellDefinition",
        location: Optional[Vec2] = None,
        orientation: Optional[Orientation] = None,
        name: str = "",
    ) -> None:
        self._definition = definition
        self._location = location
        self._orientation = orientation
        self.name = name
        self.owners: Tuple["CellDefinition", ...] = ()

    def _touch_owners(self) -> None:
        for owner in self.owners:
            owner._touch()

    @property
    def definition(self) -> "CellDefinition":
        return self._definition

    @definition.setter
    def definition(self, value: "CellDefinition") -> None:
        self._definition = value
        self._touch_owners()

    @property
    def location(self) -> Optional[Vec2]:
        return self._location

    @location.setter
    def location(self, value: Optional[Vec2]) -> None:
        self._location = value
        self._touch_owners()

    @property
    def orientation(self) -> Optional[Orientation]:
        return self._orientation

    @orientation.setter
    def orientation(self, value: Optional[Orientation]) -> None:
        self._orientation = value
        self._touch_owners()

    @property
    def celltype(self) -> str:
        return self.definition.name

    @property
    def is_placed(self) -> bool:
        return self._location is not None and self._orientation is not None

    def place(self, location: Vec2, orientation: Orientation) -> None:
        """Set the point of call and orientation; every owner's memos
        invalidate."""
        self._location = location
        self._orientation = orientation
        self._touch_owners()

    @property
    def transform(self) -> Transform:
        if not self.is_placed:
            raise ValueError(f"instance of {self.celltype!r} is not placed")
        return Transform(self._location, self._orientation)

    def bounding_box(self) -> Optional[Box]:
        """The definition's bounding box in the parent's coordinates (in
        the definition's own while the instance is unplaced)."""
        inner = self.definition.bounding_box()
        if inner is None or not self.is_placed:
            return inner
        return self.transform.apply_box(inner)

    def __repr__(self) -> str:
        where = (
            f"@{self.location!r} {self.orientation!r}" if self.is_placed else "(unplaced)"
        )
        return f"Instance({self.celltype!r} {where})"


class InstanceTable(NamedTuple):
    """A cell's placed instances as read-only int64 columns
    (:meth:`CellDefinition.instance_table`).

    Row ``i`` is entry ``rows[i]`` of the cell's ``instances``: a call
    of ``children[child[i]]`` under orientation
    ``ALL_ORIENTATIONS[turn[i]]`` (the :attr:`Orientation.code`) at
    ``(x[i], y[i])``, rows in instance order.  Unplaced instances have
    no row, but ``children`` names every distinct definition the cell
    calls, placed or not, in order of first call, and ``uses[k]``
    counts the instances that call ``children[k]``.
    """

    children: Tuple["CellDefinition", ...]
    uses: Tuple[int, ...]
    rows: np.ndarray
    child: np.ndarray
    turn: np.ndarray
    x: np.ndarray
    y: np.ndarray


_NO_COLUMN = _frozen(np.zeros(0, dtype=np.int64))
#: the instance table of every definition without instances
_NO_INSTANCES = InstanceTable((), (), *[_NO_COLUMN] * 5)


class CellDefinition:
    """A named cell: a list of boxes, ports, labels, and sub-instances."""

    #: Process-wide mutation counter.  Bumped by every geometry mutation
    #: anywhere; subtree-stamp memos are validated against it so an
    #: unchanged counter means every cached value is still good without
    #: walking anything.
    _mutation_counter: int = 0

    def __init__(self, name: str) -> None:
        self.name = name
        # None while a column-born cell's boxes are undecoded (see boxes)
        self._boxes: Optional[List[LayerBox]] = []
        # (layer names, codes into them, box columns) of a column-born cell
        self._born: Optional[Tuple[Tuple[str, ...], np.ndarray, BoxArray]] = None
        self.ports: List[Port] = []
        self.labels: List[Label] = []
        self.instances: List[Instance] = []
        self._stamp = self._next_stamp()
        # (counter at computation, max stamp over subtree)
        self._subtree_memo: Tuple[int, int] = (-1, 0)
        # (subtree stamp, bbox) — None until first query
        self._bbox_memo: Optional[Tuple[int, Optional[Box]]] = None
        # (own stamp, instance table) — None until first query
        self._table_memo: Optional[Tuple[int, InstanceTable]] = None
        # orientation -> (subtree stamp, (layer codes, box columns))
        self._flat_memo: Dict[Orientation, Tuple[int, Tuple[np.ndarray, BoxArray]]] = {}
        self._port_memo: Dict[Orientation, Tuple[int, Tuple[Port, ...]]] = {}
        self._label_memo: Dict[Orientation, Tuple[int, Tuple[Label, ...]]] = {}

    @classmethod
    def from_columns(
        cls, name: str, layers: Sequence[str], codes: np.ndarray, arrays: BoxArray
    ) -> "CellDefinition":
        """A flat cell whose box ``i`` lies on ``layers[codes[i]]`` with
        the coordinates of row ``i`` of the int64 ``arrays``.

        No box object is built: :meth:`flat_columns`,
        :meth:`bounding_box` and CIF output read the columns, and
        :attr:`boxes` decodes them on first read, after which the cell
        behaves as one built box by box.  Pickles and copies of a cell
        not yet decoded carry the columns.
        """
        cell = cls(name)
        cell._boxes = None
        cell._born = (tuple(layers), codes, arrays)
        return cell

    @property
    def boxes(self) -> List[LayerBox]:
        """This definition's own boxes, in drawing order (a cell from
        :meth:`from_columns` decodes its columns on the first read)."""
        boxes = self._boxes
        if boxes is None:
            layers, codes, arrays = self._born
            boxes = self._boxes = [
                LayerBox(layers[code], box) for code, box in zip(
                    codes.tolist(),
                    boxes_from_arrays(arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax),
                )
            ]
        return boxes

    def own_columns(self) -> Tuple[Tuple[str, ...], np.ndarray, BoxArray]:
        """This definition's own boxes as columns, without decoding.

        ``(layers, codes, arrays)``: box ``i`` of :attr:`boxes` lies on
        ``layers[codes[i]]`` with the coordinates of row ``i`` of
        ``arrays``.  A cell from :meth:`from_columns` returns the
        columns it was born with while its boxes are undecoded.
        """
        if self._boxes is None:
            return self._born
        index: Dict[str, int] = {}
        codes = np.array(
            [index.setdefault(item.layer, len(index)) for item in self._boxes],
            dtype=np.int64,
        )
        return tuple(index), codes, boxes_to_arrays([item.box for item in self._boxes])

    # ------------------------------------------------------------------
    # Mutation stamps (memo invalidation)
    # ------------------------------------------------------------------
    @classmethod
    def _next_stamp(cls) -> int:
        CellDefinition._mutation_counter += 1
        return CellDefinition._mutation_counter

    def _touch(self) -> None:
        """Record a mutation of this definition's own geometry."""
        self._stamp = self._next_stamp()

    def subtree_stamp(self) -> int:
        """Maximum mutation stamp over this definition and its subtree.

        O(1) while the process-wide mutation counter is unchanged; after
        a mutation anywhere, the next query revalidates with one walk
        over the definition DAG (memoized per counter value, so shared
        sub-definitions are visited once).
        """
        counter = CellDefinition._mutation_counter
        cached_at, value = self._subtree_memo
        if cached_at == counter:
            return value
        value = self._stamp
        for instance in self.instances:
            child = instance.definition.subtree_stamp()
            if child > value:
                value = child
        self._subtree_memo = (counter, value)
        return value

    def __getstate__(self):
        """Drop memo caches from pickles (workers rebuild them lazily).

        An undecoded column-born cell keeps its columns: they are its
        boxes.  Their codes index the cell's own layer names, not the
        process layer table, so they mean the same in any process.
        """
        state = self.__dict__.copy()
        if state["_boxes"] is not None:
            state["_born"] = None
        state["_subtree_memo"] = (-1, 0)
        state["_bbox_memo"] = None
        state["_table_memo"] = None
        state["_flat_memo"] = {}
        state["_port_memo"] = {}
        state["_label_memo"] = {}
        return state

    def __setstate__(self, state) -> None:
        """Re-stamp against the live process counter after unpickling.

        Pickled stamps came from another process's counter; keeping them
        could leave a stale stamp above the local counter and defeat
        invalidation, so every unpickled definition gets a fresh stamp.
        """
        self.__dict__.update(state)
        self._table_memo = None
        self._stamp = self._next_stamp()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_box(self, layer: str, xmin: int, ymin: int, xmax: int, ymax: int) -> LayerBox:
        """Append a box on ``layer`` (corners in either order)."""
        item = LayerBox(layer, Box(xmin, ymin, xmax, ymax))
        self.boxes.append(item)
        self._touch()
        return item

    def add_boxes(self, items: Iterable[LayerBox]) -> None:
        """Append many boxes under one mutation stamp."""
        self.boxes.extend(items)
        self._touch()

    def add_port(self, name: str, x: int, y: int, layer: str = "") -> Port:
        """Append a named port at ``(x, y)``, optionally on ``layer``."""
        port = Port(name, Vec2(x, y), layer)
        self.ports.append(port)
        self._touch()
        return port

    def add_label(self, text: str, x: int, y: int) -> Label:
        """Append a text label at ``(x, y)``."""
        label = Label(text, Vec2(x, y))
        self.labels.append(label)
        self._touch()
        return label

    def add_instance(
        self,
        definition: "CellDefinition",
        location: Optional[Vec2] = None,
        orientation: Optional[Orientation] = None,
        name: str = "",
    ) -> Instance:
        """Call ``definition`` from this cell (a given location without an
        orientation means North); returns the adopted instance."""
        if orientation is None and location is not None:
            orientation = NORTH
        return self.adopt(Instance(definition, location, orientation, name))

    def adopt(self, instance: Instance) -> Instance:
        """Append an existing :class:`Instance` (graph expansion path).

        Adds this definition to the instance's ``owners`` backlinks so
        later placement changes invalidate this definition's caches —
        *alongside* any previous owner, which keeps tracking too — and
        bumps the mutation stamp for the append itself.
        """
        self.adopt_all((instance,))
        return instance

    def adopt_all(self, instances: Iterable[Instance]) -> None:
        """:meth:`adopt` every instance, in order, under one mutation stamp."""
        append = self.instances.append
        for instance in instances:
            owners = instance.owners
            if not owners:
                instance.owners = (self,)
            elif self not in owners:
                instance.owners = owners + (self,)
            append(instance)
        self._touch()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def port(self, name: str) -> Port:
        """This cell's own port called ``name`` (KeyError if none)."""
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"cell {self.name!r} has no port {name!r}")

    def instance_table(self) -> InstanceTable:
        """This definition's placed instances as columns (:class:`InstanceTable`).

        Built in one pass over :attr:`instances` and reused until this
        definition's own mutation stamp moves (``add_instance``,
        ``adopt`` and every placement change bump it); the columns are
        read-only.  The readers after generation (CIF calls, bounding
        boxes, flatten, instance counts and the verifiers' hierarchy
        walks) read it instead of the :class:`Instance` objects.
        """
        memo = self._table_memo
        if memo is not None and memo[0] == self._stamp:
            return memo[1]
        if not self.instances:
            return _NO_INSTANCES
        index: Dict[CellDefinition, int] = {}
        find = index.get
        placed: List[int] = []
        unplaced: List[Tuple[int, int]] = []
        for instance in self.instances:
            definition = instance._definition
            child = find(definition)
            if child is None:
                child = index[definition] = len(index)
            location, turn = instance._location, instance._orientation
            if location is None or turn is None:
                unplaced.append((len(placed) // 4 + len(unplaced), child))
            else:
                placed += (child, turn.code, location.x, location.y)
        columns = np.array(placed, dtype=np.int64).reshape(-1, 4).T.copy()
        rows = np.arange(len(self.instances), dtype=np.int64)
        if unplaced:
            rows = np.delete(rows, [row for row, _ in unplaced])
        rows.flags.writeable = columns.flags.writeable = False
        uses = np.bincount(columns[0], minlength=len(index)).tolist()
        for _, child in unplaced:
            uses[child] += 1
        table = InstanceTable(tuple(index), tuple(uses), rows, *columns)
        self._table_memo = (self._stamp, table)
        return table

    def bounding_box(self) -> Optional[Box]:
        """Bounding box over own geometry and placed sub-instances.

        Cached per definition and invalidated by the subtree stamp, so
        the hot callers (``compose()``, routing, rendering) pay the
        hierarchical walk once instead of on every query.  The placed
        instances reduce per (child, orientation) group of the
        :meth:`instance_table`: one turned child box per group, then one
        minimum and maximum over the rows' points of call.
        """
        stamp = self.subtree_stamp()
        memo = self._bbox_memo
        if memo is not None and memo[0] == stamp:
            return memo[1]
        result: Optional[Box] = None
        if self._boxes is None:
            arrays = self._born[2]
            if len(arrays):
                result = Box(int(arrays.xmin.min()), int(arrays.ymin.min()),
                             int(arrays.xmax.max()), int(arrays.ymax.max()))
        for layer_box in self._boxes or ():
            result = layer_box.box if result is None else result.union(layer_box.box)
        table = self.instance_table()
        if len(table.rows):
            groups, member = np.unique(table.child * 8 + table.turn, return_inverse=True)
            corners = []
            for key in groups.tolist():
                inner = table.children[key >> 3].bounding_box()
                if inner is None:
                    corners.append((0, 0, 0, 0, False))
                else:
                    inner = inner.transformed(ALL_ORIENTATIONS[key & 7])
                    corners.append((inner.xmin, inner.ymin, inner.xmax, inner.ymax, True))
            corners = np.array(corners, dtype=np.int64)[member]
            drawn = corners[:, 4].astype(bool)
            if drawn.any():
                x, y = table.x[drawn], table.y[drawn]
                corners = corners[drawn]
                sub = Box(int((corners[:, 0] + x).min()), int((corners[:, 1] + y).min()),
                          int((corners[:, 2] + x).max()), int((corners[:, 3] + y).max()))
                result = sub if result is None else result.union(sub)
        self._bbox_memo = (stamp, result)
        return result

    # ------------------------------------------------------------------
    # Flattening (memoized stamping)
    # ------------------------------------------------------------------
    def flat_columns(
        self, orientation: Orientation = NORTH
    ) -> Tuple[np.ndarray, BoxArray]:
        """Fully flattened boxes of this definition under ``orientation``.

        ``(codes, arrays)``: ``codes[i]`` indexes :func:`layer_table` and
        ``arrays`` holds the int64 coordinate columns, box ``i`` being
        the ``i``-th box of ``flatten(Transform(Vec2(0, 0),
        orientation))``.  Built once per (definition, orientation) and
        reused until the subtree mutates; the columns are read-only.

        One gather per definition: the rows of the
        :meth:`instance_table` are grouped by (child, orientation code),
        each group's child columns are fetched once under the composed
        orientation, and every instance is stamped by adding its
        translated point of call to its group's rows, in instance order
        after the definition's own boxes.
        """
        stamp = self.subtree_stamp()
        memo = self._flat_memo.get(orientation)
        if memo is not None and memo[0] == stamp:
            return memo[1]
        layers, codes, own = self.own_columns()
        code_parts = [np.array([_layer_code(name) for name in layers],
                               dtype=np.int64)[codes]]
        column_parts = [own if orientation.is_identity else _oriented(orientation, own)]

        table = self.instance_table()
        if len(table.rows):
            groups, member = np.unique(table.child * 8 + table.turn, return_inverse=True)
            blocks = [
                table.children[key >> 3].flat_columns(
                    orientation.compose(ALL_ORIENTATIONS[key & 7])
                )
                for key in groups.tolist()
            ]
            sizes = np.array([len(block[0]) for block in blocks], dtype=np.int64)
            firsts = np.cumsum(sizes) - sizes
            lengths = sizes[member]
            total = int(lengths.sum())
            starts = np.cumsum(lengths) - lengths
            rows = np.repeat(firsts[member] - starts, lengths) + np.arange(
                total, dtype=np.int64
            )
            dx, dy = orientation.apply(table.x, table.y)
            dx, dy = np.repeat(dx, lengths), np.repeat(dy, lengths)
            code_parts.append(np.concatenate([block[0] for block in blocks])[rows])
            column_parts.append(BoxArray(*(
                np.concatenate([getattr(block[1], name) for block in blocks])[rows]
                + shift
                for name, shift in (("xmin", dx), ("ymin", dy), ("xmax", dx), ("ymax", dy))
            )))
        result = (
            _frozen(_joined(code_parts)),
            BoxArray(*(
                _frozen(_joined([getattr(part, name) for part in column_parts]))
                for name in ("xmin", "ymin", "xmax", "ymax")
            )),
        )
        self._flat_memo[orientation] = (stamp, result)
        return result

    def _flat_ports(self, orientation: Orientation) -> Tuple[Port, ...]:
        """Memoized flattened ports with subtree-relative ``inst/...`` names."""
        stamp = self.subtree_stamp()
        memo = self._port_memo.get(orientation)
        if memo is not None and memo[0] == stamp:
            return memo[1]
        items: List[Port] = []
        for port in self.ports:
            items.append(
                Port(port.name, port.position.transformed(orientation), port.layer)
            )
        for index, instance in enumerate(self.instances):
            location, turn = instance._location, instance._orientation
            if location is None or turn is None:
                continue
            child_items = instance._definition._flat_ports(orientation.compose(turn))
            if not child_items:
                continue
            tag = instance.name or f"{instance.celltype}#{index}"
            offset = location.transformed(orientation)
            for item in child_items:
                items.append(
                    Port(f"{tag}/{item.name}", item.position + offset, item.layer)
                )
        result = tuple(items)
        self._port_memo[orientation] = (stamp, result)
        return result

    def _flat_labels(self, orientation: Orientation) -> Tuple[Label, ...]:
        """Memoized flattened labels under ``orientation``."""
        stamp = self.subtree_stamp()
        memo = self._label_memo.get(orientation)
        if memo is not None and memo[0] == stamp:
            return memo[1]
        items: List[Label] = []
        for label in self.labels:
            items.append(Label(label.text, label.position.transformed(orientation)))
        for instance in self.instances:
            if not instance.is_placed:
                continue
            child_orientation = orientation.compose(instance.orientation)
            offset = instance.location.transformed(orientation)
            for item in instance.definition._flat_labels(child_orientation):
                items.append(Label(item.text, item.position + offset))
        result = tuple(items)
        self._label_memo[orientation] = (stamp, result)
        return result

    def flatten(self, transform: Transform = Transform()) -> Iterator[LayerBox]:
        """Yield every mask box with hierarchy fully expanded.

        Decoded from :meth:`flat_columns` under the transform's
        orientation, translated by its offset; a definition without
        instances yields its own boxes transformed directly.
        """
        orientation = transform.orientation
        offset = transform.offset
        if not self.instances:
            for layer_box in self.boxes:
                yield LayerBox(layer_box.layer, layer_box.box.transformed(orientation, offset))
            return
        codes, arrays = self.flat_columns(orientation)
        names = _LAYER_NAMES
        for code, box in zip(codes.tolist(), boxes_from_arrays(
            arrays.xmin + offset.x, arrays.ymin + offset.y,
            arrays.xmax + offset.x, arrays.ymax + offset.y,
        )):
            yield LayerBox(names[code], box)

    def flatten_ports(self, transform: Transform = Transform(), prefix: str = "") -> Iterator[Port]:
        """Yield ports with hierarchical names ``inst/.../port``.

        A placed instance whose definition's ``_flat_ports`` memo is
        empty (no port anywhere in its subtree, in any orientation) is
        skipped before its orientation, name and offset are formed: an
        array of port-less cells costs one dictionary read per instance.
        """
        orientation = transform.orientation
        offset = transform.offset
        for port in self.ports:
            yield Port(
                prefix + port.name,
                port.position.transformed(orientation) + offset,
                port.layer,
            )
        portless: Dict[CellDefinition, bool] = {}
        for index, instance in enumerate(self.instances):
            location, turn = instance._location, instance._orientation
            if location is None or turn is None:
                continue
            definition = instance._definition
            skip = portless.get(definition)
            if skip is None:
                skip = portless[definition] = not definition._flat_ports(NORTH)
            if skip:
                continue
            tag = instance.name or f"{definition.name}#{index}"
            child_orientation = orientation.compose(turn)
            child_offset = location.transformed(orientation) + offset
            for item in definition._flat_ports(child_orientation):
                yield Port(
                    f"{prefix}{tag}/{item.name}",
                    item.position + child_offset,
                    item.layer,
                )

    def flatten_labels(self, transform: Transform = Transform()) -> Iterator[Label]:
        """Yield every label with hierarchy fully expanded."""
        orientation = transform.orientation
        offset = transform.offset
        for label in self.labels:
            yield Label(label.text, label.position.transformed(orientation) + offset)
        for instance in self.instances:
            if not instance.is_placed:
                continue
            child_orientation = orientation.compose(instance.orientation)
            child_offset = instance.location.transformed(orientation) + offset
            for item in instance.definition._flat_labels(child_orientation):
                yield Label(item.text, item.position + child_offset)

    def count_instances(self, recursive: bool = False) -> int:
        """Number of sub-instances (transitively when ``recursive``, as
        many as the instance paths below this cell).

        The transitive count visits each distinct definition once: a
        definition's total is its :meth:`instance_table` ``uses``
        weighted by one plus each child's total.
        """
        if not recursive:
            return len(self.instances)
        return self._paths_below({})

    def _paths_below(self, totals: Dict["CellDefinition", int]) -> int:
        """The recursive instance count, memoised per definition in ``totals``."""
        total = totals.get(self)
        if total is None:
            table = self.instance_table()
            total = totals[self] = sum(
                uses * (1 + child._paths_below(totals))
                for child, uses in zip(table.children, table.uses)
            )
        return total

    def layers(self) -> Tuple[str, ...]:
        """Sorted tuple of layers present anywhere under this cell."""
        codes, _ = self.flat_columns()
        present = np.bincount(codes).nonzero()[0].tolist()
        return tuple(sorted(_LAYER_NAMES[code] for code in present))

    def __repr__(self) -> str:
        boxes = len(self._born[1]) if self._boxes is None else len(self._boxes)
        return (
            f"CellDefinition({self.name!r}, boxes={boxes},"
            f" instances={len(self.instances)})"
        )


class CellTable:
    """The table of available cell definitions (paper Figure 4.1).

    Variable lookup in the design-file interpreter falls through to this
    table, so cell names behave like ordinary identifiers.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, CellDefinition] = {}

    def define(self, cell: CellDefinition, replace: bool = False) -> CellDefinition:
        """Register ``cell`` under its name; a taken name is a
        :class:`DuplicateCellError` unless ``replace``."""
        if cell.name in self._cells and not replace:
            raise DuplicateCellError(f"cell {cell.name!r} already defined")
        self._cells[cell.name] = cell
        return cell

    def new_cell(self, name: str, replace: bool = False) -> CellDefinition:
        """Register and return an empty definition (see :meth:`define`)."""
        return self.define(CellDefinition(name), replace=replace)

    def lookup(self, name: str) -> CellDefinition:
        """The definition called ``name`` (:class:`UnknownCellError` if none)."""
        try:
            return self._cells[name]
        except KeyError:
            raise UnknownCellError(f"unknown cell {name!r}") from None

    def get(self, name: str) -> Optional[CellDefinition]:
        """The definition called ``name``, or None."""
        return self._cells.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[CellDefinition]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def names(self) -> Tuple[str, ...]:
        """Every registered name, in definition order."""
        return tuple(self._cells)
