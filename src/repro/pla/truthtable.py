"""PLA truth tables (personality matrices).

The configuration specification a PLA generator consumes: number of
inputs, outputs, product terms, and the personality — which literal of
each input appears in each product term, and which product terms feed
each output (section 1.2.1).  Includes a logic evaluator so generated
layouts can be verified functionally.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["TruthTable"]

_IN_CHARS = {"0", "1", "-"}
_OUT_CHARS = {"0", "1"}


class TruthTable:
    """A PLA personality: AND-plane and OR-plane matrices.

    ``and_plane[p][i]`` is ``'1'`` (true literal), ``'0'`` (complemented
    literal) or ``'-'`` (input absent from term ``p``);
    ``or_plane[p][o]`` is ``'1'`` when product term ``p`` drives output
    ``o``.
    """

    def __init__(self, and_plane: Sequence[str], or_plane: Sequence[str]) -> None:
        if len(and_plane) != len(or_plane):
            raise ValueError("AND and OR planes must list the same product terms")
        if not and_plane:
            raise ValueError("a PLA needs at least one product term")
        self.and_plane = [str(row) for row in and_plane]
        self.or_plane = [str(row) for row in or_plane]
        widths_in = {len(row) for row in self.and_plane}
        widths_out = {len(row) for row in self.or_plane}
        if len(widths_in) != 1 or len(widths_out) != 1:
            raise ValueError("ragged personality matrix")
        for row in self.and_plane:
            if set(row) - _IN_CHARS:
                raise ValueError(f"bad AND-plane row {row!r}")
        for row in self.or_plane:
            if set(row) - _OUT_CHARS:
                raise ValueError(f"bad OR-plane row {row!r}")

    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return len(self.and_plane[0])

    @property
    def num_outputs(self) -> int:
        return len(self.or_plane[0])

    @property
    def num_terms(self) -> int:
        return len(self.and_plane)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "TruthTable":
        """Parse an espresso-like table: ``<in part> | <out part>`` rows."""
        and_rows: List[str] = []
        or_rows: List[str] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "|" in line:
                left, right = line.split("|", 1)
            else:
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"bad truth-table row {line!r}")
                left, right = parts
            and_rows.append(left.strip().replace(" ", ""))
            or_rows.append(right.strip().replace(" ", ""))
        return cls(and_rows, or_rows)

    # ------------------------------------------------------------------
    def evaluate(self, inputs: Sequence[int], lanes: int = 1) -> List[int]:
        """Evaluate the two-level logic, one vector per bit lane.

        Input *i* is a word whose bit *k* is its value in vector *k*;
        output *o* comes back as the same kind of word.  With the
        default ``lanes=1`` the words are plain 0/1 bits: one vector.
        """
        if len(inputs) != self.num_inputs:
            raise ValueError("wrong input width")
        mask = (1 << lanes) - 1
        true = [value & mask for value in inputs]
        false = [mask ^ value for value in true]
        terms = []
        for row in self.and_plane:
            active = mask
            for literal, high, low in zip(row, true, false):
                if literal == "1":
                    active &= high
                elif literal == "0":
                    active &= low
            terms.append(active)
        outputs = []
        for index in range(self.num_outputs):
            value = 0
            for active, row in zip(terms, self.or_plane):
                if row[index] == "1":
                    value |= active
            outputs.append(value)
        return outputs

    def crosspoints(self) -> Tuple[int, int]:
        """(AND-plane, OR-plane) crosspoint transistor counts."""
        and_count = sum(row.count("0") + row.count("1") for row in self.and_plane)
        or_count = sum(row.count("1") for row in self.or_plane)
        return and_count, or_count

    def __repr__(self) -> str:
        return (
            f"TruthTable(inputs={self.num_inputs}, outputs={self.num_outputs},"
            f" terms={self.num_terms})"
        )
