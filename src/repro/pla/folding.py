"""Column-folded PLAs (section 1.2.3: "the RSG ... can also generate
more complex PLAs such as PLAs with folded rows or columns").

Column folding shares one physical OR-plane column between two outputs
whose product-term sets can be separated vertically: one output taps the
column from the bottom buffer, the other from a buffer at the top, with
a break mask in between.  Finding a maximum folding is NP-hard; we
implement the classical greedy: pair outputs with disjoint term sets,
maintain a row-precedence graph (all terms of the bottom output must lie
below all terms of the top output), and accept a pair only when the
precedence graph stays acyclic.

The generator reuses the standard PLA sample cells plus two additions
(``colbreak``, and the ``orsq``-above-``outbuf`` interface), so folding
is purely a design-file-level change — the paper's argument that the
sample layout does not constrain the output architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.cell import CellDefinition
from ..core.graph import Node
from ..core.operators import Rsg
from .cells import load_pla_library
from .generator import _build_term_row
from .truthtable import TruthTable

__all__ = ["FoldingPlan", "plan_column_folding", "generate_folded_pla"]

FOLDING_EXTRAS = """\
cell colbreak
  box implant 0 0 2 2
end

# outbuf above an orsq (for the top half of a folded column)
example
  inst orsq 0 0 north
  inst outbuf 0 10 flip_south
  label 2 5 10
end

# the column-break mask inside an orsq
example
  inst orsq 0 0 north
  inst colbreak 4 7 north
  label 1 5 8
end
"""


@dataclass
class FoldingPlan:
    """A legal column folding: column assignments plus a row order."""

    #: physical column -> (bottom output, top output or None)
    columns: List[Tuple[int, Optional[int]]] = field(default_factory=list)
    #: permutation: position -> original term index (bottom to top)
    row_order: List[int] = field(default_factory=list)
    #: physical column -> break row position (first row of the top half)
    breaks: Dict[int, int] = field(default_factory=dict)

    @property
    def folded_pairs(self) -> int:
        return sum(1 for _, top in self.columns if top is not None)

    def column_count(self) -> int:
        """Physical columns after folding."""
        return len(self.columns)


def _terms_of(table: TruthTable, output: int) -> Set[int]:
    return {
        term
        for term in range(table.num_terms)
        if table.or_plane[term][output] == "1"
    }


def _topological_order(n: int, before: Set[Tuple[int, int]]) -> Optional[List[int]]:
    """Order 0..n-1 respecting ``before`` pairs; None when cyclic."""
    successors: Dict[int, List[int]] = {i: [] for i in range(n)}
    indegree = [0] * n
    for a, b in before:
        successors[a].append(b)
        indegree[b] += 1
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    order: List[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    return order if len(order) == n else None


def plan_column_folding(table: TruthTable) -> FoldingPlan:
    """Greedy column folding with row reordering.

    Outputs are considered in index order; each unpaired output tries to
    fold with the first later output whose term set is disjoint *and*
    whose precedence requirements keep the row order realisable.
    """
    n_out = table.num_outputs
    terms = [_terms_of(table, output) for output in range(n_out)]
    paired: Dict[int, int] = {}
    used: Set[int] = set()
    before: Set[Tuple[int, int]] = set()

    for bottom in range(n_out):
        if bottom in used:
            continue
        for top in range(bottom + 1, n_out):
            if top in used or terms[bottom] & terms[top]:
                continue
            # All of bottom's terms must precede all of top's terms.
            candidate = {
                (b, t) for b in terms[bottom] for t in terms[top] if b != t
            }
            if _topological_order(table.num_terms, before | candidate) is None:
                continue
            before |= candidate
            paired[bottom] = top
            used.add(bottom)
            used.add(top)
            break

    order = _topological_order(table.num_terms, before)
    assert order is not None
    position_of = {term: position for position, term in enumerate(order)}

    plan = FoldingPlan(row_order=order)
    for output in range(n_out):
        if output in paired:
            top = paired[output]
            column = len(plan.columns)
            plan.columns.append((output, top))
            # Break above the last row that uses the bottom output.
            bottom_last = max(
                (position_of[t] for t in terms[output]), default=-1
            )
            plan.breaks[column] = min(bottom_last + 1, table.num_terms - 1)
        elif output not in used:
            plan.columns.append((output, None))
    return plan


def generate_folded_pla(
    table: TruthTable,
    rsg: Optional[Rsg] = None,
    name: str = "foldedpla",
    plan: Optional[FoldingPlan] = None,
) -> Tuple[CellDefinition, FoldingPlan]:
    """Generate a column-folded PLA layout.

    Returns the cell and the folding plan used.  The OR plane has one
    physical column per plan column; folded columns get a bottom buffer,
    a top buffer (flipped), and a ``colbreak`` mask at the break row.
    """
    if rsg is None:
        rsg = load_pla_library()
    if "colbreak" not in rsg.cells:
        from ..layout.sample import loads_sample

        loads_sample(FOLDING_EXTRAS, rsg)
    if plan is None:
        plan = plan_column_folding(table)

    # Build a reordered personality whose OR plane has one column per
    # physical column: a term drives a folded column if it belongs to
    # either constituent output.
    folded_or_rows: List[str] = []
    for term in plan.row_order:
        row = []
        for bottom, top in plan.columns:
            drive = table.or_plane[term][bottom] == "1" or (
                top is not None and table.or_plane[term][top] == "1"
            )
            row.append("1" if drive else "0")
        folded_or_rows.append("".join(row))
    folded = TruthTable(
        [table.and_plane[term] for term in plan.row_order], folded_or_rows
    )

    pulls: List[Node] = []
    rows_squares: List[List[Node]] = []
    for term in range(folded.num_terms):
        pull, squares = _build_term_row(rsg, folded, term)
        if pulls:
            rsg.connect(pulls[-1], pull, 2)
        pulls.append(pull)
        rows_squares.append(squares)

    bottom_squares = rows_squares[0]
    top_squares = rows_squares[-1]
    # Input buffers below the bottom row, as in the plain PLA.
    for column in range(folded.num_inputs):
        rsg.connect(bottom_squares[column], rsg.mk_instance("inbuf"), 1)
    # Output buffers: bottom output below; folded top output above.
    for column, (bottom, top) in enumerate(plan.columns):
        or_bottom = bottom_squares[folded.num_inputs + column]
        rsg.connect(or_bottom, rsg.mk_instance("outbuf"), 1)
        if top is not None:
            or_top = top_squares[folded.num_inputs + column]
            rsg.connect(or_top, rsg.mk_instance("outbuf"), 2)
            break_row = plan.breaks[column]
            break_square = rows_squares[break_row][folded.num_inputs + column]
            rsg.connect(break_square, rsg.mk_instance("colbreak"), 1)
    cell = rsg.mk_cell(name, pulls[0])
    return cell, plan
