"""The lane-parallel switch-level engine against its event-driven oracle.

:func:`~repro.verify.switchsim.simulate` settles every input vector in
one relaxation, one vector per bit lane; :func:`simulate_reference` is
the one-vector event-driven solver it replaced.  Every net of every
lane must agree on the extracted netlists of each PLA-family generator,
on seeded random depletion-load
gate networks with X inputs, and on feedback loops that settle to X.
``verify_pla`` reports, failure lines included, must be the ones the
old per-vector loop gave.
"""

import random

import pytest

from repro.pla import (
    HplaGenerator,
    TruthTable,
    generate_decoder,
    generate_folded_pla,
    generate_pla,
    generate_pla_via_language,
    generate_rom,
    intended_decoder_netlist,
    intended_pla_netlist,
    load_pla_library,
    rom_table,
)
from repro.verify import (
    SimulationError,
    SwitchNetlist,
    X,
    compare_netlists,
    exhaustive_vectors,
    input_planes,
    sample_vectors,
    simulate,
    verify_pla,
)
from repro.verify.driver import VerificationReport, pla_layout_netlist
from repro.verify.switchsim import simulate_reference

TABLE = TruthTable.parse("1-0 | 10\n01- | 11\n-11 | 01\n00- | 10")
ROM_WORDS = [5, 0, 7, 2, 6, 1]


def pack(vectors, nets):
    """Two-rail lane words: lane *k* holds ``vectors[k]`` (0/1/X per net)."""
    lanes = len(vectors)
    words = {}
    for position, net in enumerate(nets):
        high = low = 0
        for lane, vector in enumerate(vectors):
            if vector[position] != 0:
                high |= 1 << lane
            if vector[position] != 1:
                low |= 1 << lane
        words[net] = high | low << lanes
    return words


def lane_value(word, lane, lanes):
    high, low = (word >> lane) & 1, (word >> (lanes + lane)) & 1
    return high if high != low else X


def assert_engines_agree(netlist, nets, vectors):
    """Every net of every lane equals the oracle's value for that vector."""
    lanes = len(vectors)
    got = simulate(netlist, pack(vectors, nets), lanes=lanes)
    assert len(got) == netlist.num_nets
    for lane, vector in enumerate(vectors):
        want = simulate_reference(netlist, dict(zip(nets, vector)))
        assert [lane_value(word, lane, lanes) for word in got] == want, vector
    first = dict(zip(nets, vectors[0]))
    assert simulate(netlist, first) == simulate_reference(netlist, first)


def with_unknowns(width, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.choice((0, 1, X)) for _ in range(width)) for _ in range(count)]


# ---------------------------------------------------------------------------
# PLA-family layouts
# ---------------------------------------------------------------------------
def _language_pla():
    cell, _ = generate_pla_via_language(
        TruthTable(["1-0-1", "01--0", "-11-1", "0--10", "1-1-0"],
                   ["100", "011", "010", "101", "001"])
    )
    return cell


FAMILY = {
    "pla": lambda: generate_pla(TABLE),
    "rom": lambda: generate_rom(ROM_WORDS, 3)[0],
    "decoder": lambda: generate_decoder(3),
    # A table with no foldable output pair: a folded column's flipped
    # top buffer does not extract at the transistor level.
    "folded": lambda: generate_folded_pla(TABLE)[0],
    "hpla": lambda: HplaGenerator().generate(TABLE),
    "language": _language_pla,
}


@pytest.mark.parametrize("family", sorted(FAMILY))
def test_pla_family_lanes_match_the_oracle(family):
    netlist = pla_layout_netlist(FAMILY[family]())
    width = len(netlist.inputs)
    assert width and netlist.outputs
    vectors = exhaustive_vectors(width) + with_unknowns(width, 8, seed=width)
    assert_engines_agree(netlist, netlist.inputs, vectors)


def test_folded_column_does_not_extract():
    """Why the folded case above uses an unfoldable table."""
    from repro.verify import ExtractionError

    cell, plan = generate_folded_pla(
        TruthTable.parse("1-0 | 10\n01- | 10\n-11 | 01\n00- | 01")
    )
    assert plan.folded_pairs == 1
    with pytest.raises(ExtractionError):
        pla_layout_netlist(cell)


# ---------------------------------------------------------------------------
# Random gate networks
# ---------------------------------------------------------------------------
def random_network(seed):
    """A seeded depletion-load NMOS network with one reachable fixpoint.

    The static part — gates with series/parallel pull-downs, and pass
    gates between their nets — is gated only by primary inputs, so
    every channel in it conducts the same way from the first event.
    NOR stages read any earlier net but put every channel on a rail,
    as the PLA planes do.  Under those two rules every relaxation
    order reaches the same state.  Net ids are shuffled so the two
    engines' schedules differ.  Returns ``(netlist, inputs)``.
    """
    rng = random.Random(seed)
    devices = []  # (gate symbol or None, a, b)
    symbols = ["vdd", "gnd"] + [f"in{k}" for k in range(rng.randint(3, 5))]
    inputs = symbols[2:]

    def new(name):
        symbols.append(name)
        return name

    def pulldown(top, bottom, depth):
        shape = rng.choice(["leaf", "series", "parallel"]) if depth else "leaf"
        if shape == "leaf":
            devices.append((rng.choice(inputs), top, bottom))
        elif shape == "series":
            middle = new(f"mid{len(symbols)}")
            pulldown(top, middle, depth - 1)
            pulldown(middle, bottom, depth - 1)
        else:
            pulldown(top, bottom, depth - 1)
            pulldown(top, bottom, depth - 1)

    static = []
    for index in range(rng.randint(2, 4)):
        out = new(f"g{index}")
        devices.append((None, out, "vdd"))
        pulldown(out, "gnd", rng.randint(0, 3))
        static.append(out)
    static += [name for name in symbols if name.startswith("mid")]
    for index in range(rng.randint(1, 4)):
        source = rng.choice(static)
        target = rng.choice(static + [None, None])
        if target is None:
            target = new(f"pass{index}")
        if target != source:
            devices.append((rng.choice(inputs), source, target))
            static.append(target)
    readable = inputs + static
    for index in range(rng.randint(1, 4)):
        out = new(f"nor{index}")
        devices.append((None, out, "vdd"))
        for _ in range(rng.randint(1, 3)):
            devices.append((rng.choice(readable), out, "gnd"))
        readable.append(out)

    ids = list(range(len(symbols)))
    rng.shuffle(ids)
    net_of = dict(zip(symbols, ids))
    netlist = SwitchNetlist()
    for _ in symbols:
        netlist.add_net()
    netlist.vdd_nets.add(net_of["vdd"])
    netlist.gnd_nets.add(net_of["gnd"])
    rng.shuffle(devices)
    for gate, a, b in devices:
        netlist.add_transistor(
            None if gate is None else net_of[gate], net_of[a], net_of[b],
            depletion=gate is None,
        )
    return netlist, [net_of[name] for name in inputs]


@pytest.mark.parametrize("seed", range(40))
def test_random_gate_networks_match_the_oracle(seed):
    netlist, inputs = random_network(seed)
    vectors = exhaustive_vectors(len(inputs)) + with_unknowns(len(inputs), 16, seed)
    assert_engines_agree(netlist, inputs, vectors)


# ---------------------------------------------------------------------------
# Feedback loops
# ---------------------------------------------------------------------------
def _rails():
    netlist = SwitchNetlist()
    vdd, gnd = netlist.add_net("vdd!"), netlist.add_net("gnd!")
    netlist.vdd_nets.add(vdd)
    netlist.gnd_nets.add(gnd)
    return netlist, vdd, gnd


def _inverter(netlist, vdd, gnd, gate, out):
    netlist.add_transistor(gate, out, gnd)
    netlist.add_transistor(None, out, vdd, depletion=True)


def test_three_inverter_ring_settles_to_x():
    netlist, vdd, gnd = _rails()
    ring = [netlist.add_net() for _ in range(3)]
    for k, out in enumerate(ring):
        _inverter(netlist, vdd, gnd, ring[k - 1], out)
    assert [simulate_reference(netlist, {})[net] for net in ring] == [X] * 3
    words = simulate(netlist, {}, lanes=4)
    assert all(lane_value(words[net], lane, 4) == X for net in ring for lane in range(4))
    assert simulate(netlist, {}) == simulate_reference(netlist, {})


def test_cross_coupled_latch_settles_to_x():
    netlist, vdd, gnd = _rails()
    q, qbar, reset = (netlist.add_net() for _ in range(3))
    _inverter(netlist, vdd, gnd, qbar, q)
    _inverter(netlist, vdd, gnd, q, qbar)
    netlist.add_transistor(reset, q, gnd)
    vectors = [(0,), (1,), (X,)]
    assert_engines_agree(netlist, [reset], vectors)
    words = simulate(netlist, pack(vectors, [reset]), lanes=3)
    for lane in range(3):
        assert lane_value(words[q], lane, 3) == X
        assert lane_value(words[qbar], lane, 3) == X


# ---------------------------------------------------------------------------
# The lane API
# ---------------------------------------------------------------------------
class TestLaneApi:
    @staticmethod
    def inverter():
        netlist, vdd, gnd = _rails()
        a, out = netlist.add_net("a"), netlist.add_net("out")
        _inverter(netlist, vdd, gnd, a, out)
        return netlist, a, out

    def test_two_rail_words(self):
        netlist, a, out = self.inverter()
        # lanes: a = 0, 1, X  ->  out = 1, 0, X
        words = simulate(netlist, {a: 0b110 | 0b101 << 3}, lanes=3)
        assert words[out] == 0b101 | 0b110 << 3
        assert words[netlist.find_net("vdd!")] == 0b111
        assert words[netlist.find_net("gnd!")] == 0b111 << 3

    @pytest.mark.parametrize("word", [0b01, 0b0100, -1, 1 << 6])
    def test_lane_on_neither_rail_is_rejected(self, word):
        netlist, a, _ = self.inverter()
        with pytest.raises(SimulationError):
            simulate(netlist, {a: word}, lanes=2)

    def test_one_lane_value_must_be_a_logic_value(self):
        netlist, a, _ = self.inverter()
        with pytest.raises(SimulationError):
            simulate(netlist, {a: 3})

    def test_event_budget_is_enforced(self):
        netlist, a, out = self.inverter()
        second = netlist.add_net()
        _inverter(netlist, netlist.find_net("vdd!"), netlist.find_net("gnd!"), out, second)
        assert simulate(netlist, {a: 1}, max_events=2)[second] == 1
        with pytest.raises(SimulationError, match="did not settle"):
            simulate(netlist, {a: 1}, max_events=1)

    def test_non_transistor_netlist_is_rejected(self):
        netlist, a, out = self.inverter()
        netlist.add_device("reg", [("d", a), ("q", out)])
        with pytest.raises(SimulationError):
            simulate(netlist, {a: 1})

    def test_input_planes(self):
        assert input_planes(2) == [0b1010, 0b1100]
        assert input_planes(3, [0b011, 0b100, 0b111]) == [0b101, 0b101, 0b110]
        vectors = sample_vectors(5, 40, seed=3)
        planes = input_planes(5, [sum(b << k for k, b in enumerate(v)) for v in vectors])
        assert all(
            (planes[k] >> lane) & 1 == vector[k]
            for lane, vector in enumerate(vectors) for k in range(5)
        )


# ---------------------------------------------------------------------------
# verify_pla reports: lane engine versus the per-vector loop
# ---------------------------------------------------------------------------
def per_vector_report(cell, table, decoder, mode="all", max_vectors=4096):
    """``verify_pla`` as it ran before the lane engine: one oracle call per vector."""
    report = VerificationReport(f"{cell.name} ({'decoder' if decoder else 'pla'})", mode)
    netlist = pla_layout_netlist(cell)
    report.devices = len(netlist.devices)
    report.nets = netlist.num_nets
    if mode in ("lvs", "all"):
        golden = (
            intended_decoder_netlist(table.num_inputs) if decoder
            else intended_pla_netlist(table)
        )
        report.lvs = compare_netlists(netlist, golden)
    if mode in ("sim", "all"):
        width = len(netlist.inputs)
        if (1 << width) <= max_vectors:
            vectors = exhaustive_vectors(width)
            report.exhaustive = True
        else:
            vectors = sample_vectors(width, max_vectors, seed=width)
        for bits in vectors:
            values = simulate_reference(netlist, dict(zip(netlist.inputs, bits)))
            got = [values[net] for net in netlist.outputs]
            if decoder:
                index = sum(bit << k for k, bit in enumerate(bits))
                want = [1 if k == index else 0 for k in range(len(netlist.outputs))]
            else:
                want = table.evaluate(list(bits))
            if got != want:
                report.failures.append(f"inputs {bits}: got {got}, want {want}")
        report.vectors_checked = len(vectors)
    return report


def swap_first_crosspoint(cell):
    """Turn the first true-literal crosspoint mask into a complement one."""
    definitions = {}
    instances = []

    def walk(node):
        for instance in node.instances:
            definitions.setdefault(instance.celltype, instance.definition)
            instances.append(instance)
            walk(instance.definition)

    walk(cell)
    target = next(instance for instance in instances if instance.celltype == "xtrue")
    target.definition = definitions["xfalse"]
    return cell


LYING = TruthTable.parse("1-0 | 01\n01- | 11\n-11 | 01\n00- | 10")
REPORT_CASES = {
    "pla": (lambda: generate_pla(TABLE), TABLE, False, {}),
    "pla-sampled": (lambda: generate_pla(TABLE), TABLE, False, {"max_vectors": 5}),
    "pla-lying": (lambda: generate_pla(TABLE), LYING, False, {"mode": "sim"}),
    "rom": (lambda: generate_rom(ROM_WORDS, 3)[0], rom_table(ROM_WORDS, 3), False, {}),
    "hpla": (lambda: HplaGenerator().generate(TABLE), TABLE, False, {}),
    "decoder": (lambda: generate_decoder(3), TruthTable(["000"], [""]), True, {}),
}


@pytest.mark.parametrize("mutated", [False, True])
@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_matches_the_per_vector_loop(case, mutated):
    build, table, decoder, options = REPORT_CASES[case]
    cells = [build(), build()]
    if mutated:
        cells = [swap_first_crosspoint(cell) for cell in cells]
    report = verify_pla(cells[0], table=table, **options)
    oracle = per_vector_report(cells[1], table, decoder, **options)
    assert report.failures == oracle.failures
    assert report.to_dict() == oracle.to_dict()
    assert report.ok == (not mutated and case != "pla-lying")


# ---------------------------------------------------------------------------
# Vacuous-pass guards
# ---------------------------------------------------------------------------
def _library_without_port(cell_name, port_name):
    rsg = load_pla_library()
    definition = rsg.cells.lookup(cell_name)
    definition.ports[:] = [port for port in definition.ports if port.name != port_name]
    return rsg


def test_decoder_without_row_ports_fails_sim():
    cell = generate_decoder(3, rsg=_library_without_port("andpull", "row"))
    report = verify_pla(cell, mode="sim")
    assert not report.ok
    assert report.failures == ["extracted 0 outputs, decoder has 8 rows"]
    assert report.vectors_checked == 0


def test_pla_output_count_is_checked():
    # With no ``out`` ports the outputs fall back to the 4 term rows.
    cell = generate_pla(TABLE, rsg=_library_without_port("outbuf", "out"))
    report = verify_pla(cell, table=TABLE, mode="sim")
    assert report.failures == ["extracted 4 outputs, table has 2"]
    assert report.vectors_checked == 0
