"""High-level verification entry points (the ``--verify`` flow).

Dispatches a generated cell to the right verification recipe:

* **PLA family** (PLA / ROM / decoder — anything built from the
  :mod:`repro.pla` sample): full mask-level closure.  The transistor
  netlist is extracted from the flattened masks, LVS-compared against
  the generator's ``intended_*_netlist`` golden, and switch-level
  simulated against the truth table — exhaustively up to
  ``max_vectors`` input combinations, seeded-randomly sampled beyond;
* **multiplier** (stylised sample): cell-level LVS of the extracted
  cell graph against :func:`repro.multiplier.generator.intended_multiplier_netlist`,
  personality read-back against the Baugh-Wooley grid, and an
  exhaustive (or sampled) product check of the personality-derived
  arithmetic;
* anything else: extraction summary only (no golden is known).

Every recipe returns a :class:`VerificationReport`; ``report.ok`` is
the single pass/fail the CLI and the example scripts key on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..compact.rules import DesignRules
from ..core.cell import CellDefinition
from ..obs import trace as obs_trace
from .extract import extract_netlist
from .lvs import LvsReport, compare_netlists
from .netlist import SwitchNetlist
from .switchsim import X, input_planes, sample_words, simulate

# Unused here: flowbench/tracing.py's LAYERS wraps this repro.verify.driver alias by name.
extract_netlist_hier = extract_netlist

if TYPE_CHECKING:
    from ..multiplier.netlist import Netlist

__all__ = [
    "VerificationReport",
    "verify_cell",
    "verify_pla",
    "verify_multiplier",
    "multiplier_mismatches",
]

#: default ceiling on simulated input combinations before sampling
DEFAULT_MAX_VECTORS = 4096


class VerificationReport:
    """Outcome of one verification run."""

    def __init__(self, subject: str, mode: str) -> None:
        self.subject = subject
        self.mode = mode
        self.lvs: Optional[LvsReport] = None
        self.vectors_checked = 0
        self.exhaustive = False
        #: human-readable functional mismatches (empty when clean)
        self.failures: List[str] = []
        self.devices = 0
        self.nets = 0

    @property
    def ok(self) -> bool:
        """True when every requested check passed."""
        if self.lvs is not None and not self.lvs.matched:
            return False
        return not self.failures

    def summary(self) -> str:
        """Printable multi-line account of the run."""
        lines = [
            f"verify {self.subject} ({self.mode}, flat extraction):"
            f" {self.devices} devices, {self.nets} nets"
        ]
        if self.lvs is not None:
            lines.append(f"  {self.lvs.summary()}")
        if self.vectors_checked:
            regime = "exhaustive" if self.exhaustive else "sampled"
            lines.append(
                f"  simulation: {self.vectors_checked} vectors ({regime}),"
                f" {len(self.failures)} mismatches"
            )
        for failure in self.failures[:5]:
            lines.append(f"  FAIL {failure}")
        lines.append(f"  result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form (the service stores this per job artifact)."""
        return {
            "subject": self.subject,
            "mode": self.mode,
            "devices": self.devices,
            "nets": self.nets,
            "vectors_checked": self.vectors_checked,
            "exhaustive": self.exhaustive,
            "failures": list(self.failures),
            "lvs": self.lvs.to_dict() if self.lvs is not None else None,
            "ok": self.ok,
            "summary": self.summary(),
        }

    def __repr__(self) -> str:
        return f"VerificationReport({self.subject!r}, ok={self.ok})"


def _celltypes(cell: CellDefinition) -> set:
    """The names of every definition called anywhere below ``cell``.

    Each distinct definition is visited once, through its instance
    table's ``children`` (unplaced calls included).
    """
    seen = {cell}
    pending = [cell]
    while pending:
        for child in pending.pop().instance_table().children:
            if child not in seen:
                seen.add(child)
                pending.append(child)
    seen.discard(cell)
    return {definition.name for definition in seen}


def _extract(cell: CellDefinition, rules: Optional[DesignRules]) -> SwitchNetlist:
    with obs_trace.span("verify.extract") as extract_span:
        netlist = extract_netlist(cell, rules)
        extract_span.set(nets=len(netlist.net_names), devices=len(netlist.devices))
    return netlist


def _stamp_lvs(span, lvs: LvsReport) -> None:
    """Record what one LVS comparison refined on its ``verify.lvs`` span."""
    span.set(
        rounds=lvs.rounds, nets=sum(lvs.net_counts), devices=sum(lvs.device_counts)
    )


def pla_layout_netlist(
    cell: CellDefinition, rules: Optional[DesignRules] = None
) -> SwitchNetlist:
    """Extract a PLA-family layout and bind its primary pins.

    Inputs are the ``in`` ports left to right; outputs the ``out``
    ports (buffered PLA/ROM) or, for a decoder, the ``row`` ports
    bottom to top.
    """
    netlist = _extract(cell, rules)
    netlist.inputs = netlist.nets_with_suffix("in")
    outputs = netlist.nets_with_suffix("out")
    netlist.outputs = outputs or netlist.nets_with_suffix("row")
    return netlist


def verify_pla(
    cell: CellDefinition,
    table=None,
    mode: str = "all",
    max_vectors: int = DEFAULT_MAX_VECTORS,
    rules: Optional[DesignRules] = None,
) -> VerificationReport:
    """Verify a PLA/ROM/decoder layout at the mask level.

    ``table`` is the programmed :class:`~repro.pla.truthtable.TruthTable`;
    when omitted it is recovered from the crosspoint masks with
    :func:`~repro.pla.generator.extract_personality`, which still
    closes the loop from mask geometry to the personality actually
    drawn.  ``mode`` is ``"lvs"``, ``"sim"`` or ``"all"``.

    The functional check simulates every vector in one lane-parallel
    :func:`~repro.verify.switchsim.simulate` call (lane *k* holds
    vector *k*) and decodes only the lanes that mismatch into
    ``inputs (...): got [...], want [...]`` lines, in vector order.
    It fails without simulating when the extracted inputs or outputs
    do not match the table (a decoder needs 2^inputs rows).
    """
    from ..pla.generator import (
        extract_personality,
        intended_decoder_netlist,
        intended_pla_netlist,
    )

    is_decoder = "outbuf" not in _celltypes(cell)
    report = VerificationReport(
        f"{cell.name} ({'decoder' if is_decoder else 'pla'})", mode
    )
    netlist = pla_layout_netlist(cell, rules)
    report.devices = len(netlist.devices)
    report.nets = netlist.num_nets
    if table is None:
        table = extract_personality(cell)

    if mode in ("lvs", "all"):
        with obs_trace.span("verify.lvs") as lvs_span:
            if is_decoder:
                golden = intended_decoder_netlist(table.num_inputs)
            else:
                golden = intended_pla_netlist(table)
            report.lvs = compare_netlists(netlist, golden)
            _stamp_lvs(lvs_span, report.lvs)

    if mode in ("sim", "all"):
        width = len(netlist.inputs)
        if width != table.num_inputs:
            report.failures.append(
                f"extracted {width} inputs, table has {table.num_inputs}"
            )
            return report
        outputs = len(netlist.outputs)
        expected = 1 << width if is_decoder else table.num_outputs
        if outputs != expected:
            what = f"decoder has {expected} rows" if is_decoder else f"table has {expected}"
            report.failures.append(f"extracted {outputs} outputs, {what}")
            return report
        if (1 << width) <= max_vectors:
            lanes = 1 << width
            indices: Sequence[int] = range(lanes)
            report.exhaustive = True
        else:
            indices = sample_words(width, max_vectors, seed=width)
            lanes = len(indices)
        with obs_trace.span(
            "verify.sim", vectors=lanes, exhaustive=report.exhaustive, lanes=lanes
        ):
            planes = input_planes(width, None if report.exhaustive else indices)
            mask = (1 << lanes) - 1
            values = simulate(
                netlist,
                {net: plane | (mask ^ plane) << lanes
                 for net, plane in zip(netlist.inputs, planes)},
                lanes=lanes,
            )
            if is_decoder:
                want = [0] * outputs
                for lane, index in enumerate(indices):
                    want[index] |= 1 << lane
            else:
                want = table.evaluate(planes, lanes=lanes)
            report.failures += _lane_mismatches(
                [values[net] for net in netlist.outputs], want, indices, width, lanes
            )
        report.vectors_checked = lanes
    return report


def _lane_mismatches(
    got: Sequence[int],
    want: Sequence[int],
    indices: Sequence[int],
    width: int,
    lanes: int,
) -> List[str]:
    """One failure line per lane whose outputs are not the wanted ones.

    ``got`` holds two-rail output words from :func:`simulate`, ``want``
    plain output words; a lane matches only when each output is on
    exactly its wanted rail.  Lines come in lane (vector) order, in
    the ``inputs (...): got [...], want [...]`` form.
    """
    mask = (1 << lanes) - 1
    bad = 0
    for word, expected in zip(got, want):
        bad |= word ^ (expected | (mask ^ expected) << lanes)
    bad = (bad | bad >> lanes) & mask
    failures = []
    while bad:
        lane = (bad & -bad).bit_length() - 1
        bad &= bad - 1
        index = indices[lane]
        bits = tuple((index >> k) & 1 for k in range(width))
        values = []
        for word in got:
            high, low = (word >> lane) & 1, (word >> (lanes + lane)) & 1
            values.append(high if high != low else X)
        wanted = [(word >> lane) & 1 for word in want]
        failures.append(f"inputs {bits}: got {values}, want {wanted}")
    return failures


def multiplier_mismatches(
    netlist: Netlist,
    a_values: Sequence[int],
    b_values: Sequence[int],
    m: int,
    n: int,
) -> List[str]:
    """Multiply many operand pairs in one packed evaluation and check them.

    Pair *k* is ``(a_values[k], b_values[k])``, an m-bit and an n-bit
    operand, and occupies lane *k*: each operand bit is packed into one
    word over all pairs, ``netlist`` (a Baugh-Wooley array from
    :func:`~repro.multiplier.baughwooley.build_baugh_wooley`, or a
    mutant of one) is evaluated once, and the m + n product planes are
    unpacked into per-pair signed products.  Returns one
    ``"a x b: got G, want W"`` line per pair whose product differs from
    :func:`~repro.multiplier.baughwooley.reference_product`, in pair
    order: the lines a per-pair :func:`~repro.multiplier.baughwooley.multiply`
    loop would report.  Up to 64 product bits the reference products
    are one sign-extended int64 expression over all pairs; only the
    mismatching pairs are formatted in Python.
    """
    import numpy as np

    from ..multiplier.baughwooley import reference_product

    lanes = len(a_values)
    width = m + n
    # Products of up to 64 bits (a 32x32 array) are assembled in uint64
    # words and sign-extended through int64; wider ones as Python ints
    # in object arrays.
    dtype = np.uint64 if width <= 64 else object
    a = np.asarray(a_values, dtype=dtype)
    b = np.asarray(b_values, dtype=dtype)

    def pack(values, bit: int) -> int:
        plane = ((values >> bit) & 1).astype(np.uint8)
        return int.from_bytes(np.packbits(plane, bitorder="little").tobytes(), "little")

    inputs = {f"a{i}": pack(a, i) for i in range(m)}
    inputs.update({f"b{j}": pack(b, j) for j in range(n)})
    outputs = netlist.evaluate(inputs, lanes=lanes)
    raw = np.zeros(lanes, dtype=dtype)
    for k in range(width):
        plane = np.frombuffer(
            outputs[f"p{k}"].to_bytes((lanes + 7) // 8, "little"), dtype=np.uint8
        )
        bits = np.unpackbits(plane, count=lanes, bitorder="little")
        raw |= bits.astype(dtype) << k
    if dtype is object:
        products = raw - ((raw >> (width - 1)) << width)
        wanted = np.array([
            reference_product(a_k, b_k, m, n) for a_k, b_k in zip(a.tolist(), b.tolist())
        ], dtype=object)
    else:
        def signed(values, bits: int):
            """The low ``bits`` of uint64 ``values``, two's complement, as int64."""
            spare = 64 - bits
            return (values << np.uint64(spare)).view(np.int64) >> spare

        products = signed(raw, width)
        # |a * b| <= 2^(m + n - 2): the signed product never overflows int64.
        wanted = signed((signed(a, m) * signed(b, n)).view(np.uint64), width)
    wrong = np.flatnonzero(products != wanted)
    return [
        f"{a_k} x {b_k}: got {got}, want {want}"
        for a_k, b_k, got, want in zip(
            a[wrong].tolist(), b[wrong].tolist(),
            products[wrong].tolist(), wanted[wrong].tolist(),
        )
    ]


def verify_multiplier(
    cell: CellDefinition,
    mode: str = "all",
    max_vectors: int = DEFAULT_MAX_VECTORS,
) -> VerificationReport:
    """Verify a generated multiplier at the cell level.

    LVS compares the extracted cell graph (placement, personalisation
    masks, seams, register stacks) against the architecture's golden
    netlist; the functional pass reads the personality grid back from
    the masks, checks it against the Baugh-Wooley pattern, and
    multiplies every operand pair (or a seeded sample beyond
    ``max_vectors``) against the reference product, all pairs in one
    packed evaluation (:func:`multiplier_mismatches`).  A multiplier
    with a 1-bit operand has no Baugh-Wooley array to check, so the
    functional pass fails it rather than passing it unchecked.  One
    hierarchy walk feeds both the read-back and the cell graph; a mask
    that lands on no host cell, or on several, fails the read-back.
    """
    # The first call pays these imports: a span of its own keeps them
    # out of the stage's unattributed time.
    with obs_trace.import_span("import.multiplier"):
        from ..multiplier.baughwooley import build_baugh_wooley, cell_type_grid
        from ..multiplier.generator import intended_multiplier_netlist
        from .cellgraph import (
            cell_graph_netlist,
            collect_occurrences,
            multiplier_personality,
        )

    report = VerificationReport(f"{cell.name} (multiplier)", mode)
    with obs_trace.span("verify.collect"):
        occurrences, strays = collect_occurrences(cell)
    report.failures += [f"personality read-back: {stray}" for stray in strays]
    with obs_trace.span("verify.cellgraph") as cellgraph_span:
        try:
            xsize, ysize, grid, cpa = multiplier_personality(occurrences)
        except ValueError as error:
            report.failures.append(f"personality read-back: {error}")
            return report
        netlist = cell_graph_netlist(occurrences)
        cellgraph_span.set(
            hosts=len(occurrences), strays=len(strays),
            nets=netlist.num_nets, devices=len(netlist.devices),
        )
    report.devices = len(netlist.devices)
    report.nets = netlist.num_nets

    if mode in ("lvs", "all"):
        with obs_trace.span("verify.lvs") as lvs_span:
            golden = intended_multiplier_netlist(xsize, ysize)
            report.lvs = compare_netlists(netlist, golden)
            _stamp_lvs(lvs_span, report.lvs)

    if mode in ("sim", "all"):
        if grid != cell_type_grid(xsize, ysize):
            report.failures.append(
                "personality grid does not match the Baugh-Wooley pattern"
            )
        if any(entry != "I" for entry in cpa):
            report.failures.append(
                "carry-propagate row carries a type II mask"
            )
        if xsize < 2 or ysize < 2:
            report.failures.append(
                f"{xsize}x{ysize} multiplier: the functional check needs"
                " operands of at least 2 bits"
            )
        if report.failures:
            return report
        with obs_trace.span("verify.sim") as sim_span:
            total = 1 << (xsize + ysize)
            if total <= max_vectors:
                pairs = range(total)
                a_values = [k >> ysize for k in pairs]
                b_values = [k & ((1 << ysize) - 1) for k in pairs]
                report.exhaustive = True
            else:
                words = sample_words(xsize + ysize, max_vectors, seed=total)
                a_values = [word & ((1 << xsize) - 1) for word in words]
                b_values = [word >> xsize for word in words]
            sim_span.set(vectors=len(a_values), exhaustive=report.exhaustive)
            report.failures += multiplier_mismatches(
                build_baugh_wooley(xsize, ysize), a_values, b_values, xsize, ysize
            )
        report.vectors_checked = len(a_values)
    return report


def verify_cell(
    cell: CellDefinition,
    mode: str = "all",
    max_vectors: int = DEFAULT_MAX_VECTORS,
    rules: Optional[DesignRules] = None,
    table=None,
) -> VerificationReport:
    """Verify any generated cell, dispatching on its leaf vocabulary.

    PLA-family layouts get the mask-level recipe, multipliers the
    cell-level one; unknown vocabularies get an extraction summary
    (device/net counts) with no golden comparison.
    """
    names = _celltypes(cell)
    if "andsq" in names or "orsq" in names:
        return verify_pla(
            cell, table=table, mode=mode, max_vectors=max_vectors, rules=rules
        )
    if "basiccell" in names:
        return verify_multiplier(cell, mode=mode, max_vectors=max_vectors)
    report = VerificationReport(f"{cell.name} (generic)", mode)
    netlist = _extract(cell, rules)
    report.devices = len(netlist.devices)
    report.nets = netlist.num_nets
    return report
