"""Generation goldens: what the generators place, pinned by digest.

Each case runs one generator in a fresh workspace and hashes, for every
cell in the workspace's cell table (in table order), the cell's name
and each of its instances in order: instance name, definition name,
point of call and orientation.  Primitive cells contribute their name
and no instance, so the digest also pins the table order.  The cases
cover the design-file language (the multiplier at five shapes, the
retimed multiplier, three seeded PLAs shaped like the ``pla-verify``
workload's) and the Python-API generators that share graph expansion
with it.  The API and the language build the same multiplier and the
same PLA, so their digests agree.

The sample libraries are pinned too: every primitive cell's boxes,
ports and labels, and the interface table's entries in their order.

The digests were captured before the interpreter resolved variables
inline and before sample texts were parsed once per process; both
changes must leave them as they are.
"""

import hashlib
import random

import pytest

from repro.core.operators import Rsg
from repro.layout.sample import loads_sample
from repro.multiplier import (
    MULTIPLIER_SAMPLE,
    generate_multiplier,
    generate_retimed_multiplier,
    generate_via_language,
    load_multiplier_library,
)
from repro.pla import (
    PLA_SAMPLE,
    TruthTable,
    generate_pla,
    generate_pla_via_language,
    load_pla_library,
)


def placement_digest(rsg: Rsg) -> str:
    """sha256 over every cell's name and its instances' placements."""
    lines = []
    for cell in rsg.cells:
        lines.append(f"cell {cell.name}")
        for instance in cell.instances:
            location, orientation = instance.location, instance.orientation
            lines.append(
                f"  {instance.name!r} {instance.definition.name}"
                f" {location.x} {location.y} {orientation.r} {orientation.k}"
            )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def library_digest(rsg: Rsg) -> str:
    """sha256 over every cell's own geometry and the interface table."""
    lines = []
    for cell in rsg.cells:
        lines.append(f"cell {cell.name}")
        for item in cell.boxes:
            box = item.box
            lines.append(f"  box {item.layer} {box.xmin} {box.ymin} {box.xmax} {box.ymax}")
        for port in cell.ports:
            lines.append(
                f"  port {port.name} {port.position.x} {port.position.y} {port.layer}"
            )
        for label in cell.labels:
            lines.append(f"  label {label.text} {label.position.x} {label.position.y}")
    for (cell_a, cell_b, index), interface in rsg.interfaces:
        vector, orientation = interface.vector, interface.orientation
        lines.append(
            f"interface {cell_a} {cell_b} {index}"
            f" {vector.x} {vector.y} {orientation.r} {orientation.k}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def seeded_table(seed: int, inputs: int, terms: int, outputs: int) -> TruthTable:
    """A PLA personality with two thirds of each term's inputs as literals."""
    rng = random.Random(seed)
    literals = -(-2 * inputs // 3)
    and_plane, or_plane = [], []
    for _ in range(terms):
        row = ["-"] * inputs
        for position in rng.sample(range(inputs), literals):
            row[position] = rng.choice("01")
        and_plane.append("".join(row))
        out = ["0"] * outputs
        for position in rng.sample(range(outputs), max(1, outputs // 2)):
            out[position] = "1"
        or_plane.append(out)
    for column in range(outputs):
        if all(row[column] == "0" for row in or_plane):
            or_plane[rng.randrange(terms)][column] = "1"
    return TruthTable(and_plane, ["".join(row) for row in or_plane])


def _language(xsize, ysize):
    return generate_via_language(xsize, ysize)[1].rsg


def _retimed(xsize, ysize):
    return generate_retimed_multiplier(xsize, ysize)[1].rsg


def _pla_language(*shape):
    return generate_pla_via_language(seeded_table(*shape))[1].rsg


def _api_multiplier(xsize, ysize):
    rsg = load_multiplier_library()
    generate_multiplier(xsize, ysize, rsg=rsg)
    return rsg


def _api_pla(*shape):
    rsg = load_pla_library()
    generate_pla(seeded_table(*shape), rsg=rsg)
    return rsg


#: case id -> (run, arguments, digest)
GOLDEN_PLACEMENTS = {
    "lang-3x3": (
        _language, (3, 3),
        "252f36eaae1fc2697bbb07476b59e24e685e4f317749c621ed057e122fcab11d",
    ),
    "lang-8x8": (
        _language, (8, 8),
        "c07a4c4c244f8d58c4b2a95b706f8cba5fdefa127af043d8dd090d23f10488bb",
    ),
    "lang-6x11": (
        _language, (6, 11),
        "c6ac9e0e382c8a86575c89ebb273abe8409eb12f433ec55d8d1a6cceca2582aa",
    ),
    "lang-11x6": (
        _language, (11, 6),
        "638782dac7feaab6ad7113236187ee0d10e833c41347aa8ef3858d7aef20b770",
    ),
    "lang-16x16": (
        _language, (16, 16),
        "095417e5a6bab4ea7f0b8da4b58b7b606e6a6602e7ab3a5da24288917afc3ca2",
    ),
    "retimed-6x6": (
        _retimed, (6, 6),
        "0c5e9c47faf48523513aec5ed07b97ba61edecc24d8d2951f08a372aa2d6ef37",
    ),
    "pla-lang-5in-32t-2out": (
        _pla_language, (1, 5, 32, 2),
        "a0126c4e609767d363652987ac4c67b414582d05f8b376b3fe1feb347d9601ac",
    ),
    "pla-lang-8in-8t-2out": (
        _pla_language, (2, 8, 8, 2),
        "9684de896f52e56db4f30aacc8fa5b81a968fae1ebbdbf8d70d9668a0f084145",
    ),
    "pla-lang-6in-24t-5out": (
        _pla_language, (3, 6, 24, 5),
        "acbbce3793d365b8509901363c4c30abfcdef69cdd34bda9e6afd683996c5f02",
    ),
    "api-mult-8x8": (
        _api_multiplier, (8, 8),
        "c07a4c4c244f8d58c4b2a95b706f8cba5fdefa127af043d8dd090d23f10488bb",
    ),
    "api-pla-6in-24t-5out": (
        _api_pla, (3, 6, 24, 5),
        "acbbce3793d365b8509901363c4c30abfcdef69cdd34bda9e6afd683996c5f02",
    ),
}

#: sample text name -> digest of the library it loads
GOLDEN_LIBRARIES = {
    "multiplier": (
        MULTIPLIER_SAMPLE,
        "9114a945a94e3c12451bf75b4fd6a0396e3e59cf9766bf2f00cee7cba22e74b8",
    ),
    "pla": (
        PLA_SAMPLE,
        "99f18d6d6d4fb69cec629348c6eee1a8229df9ec9df83b1abbf358597e379af9",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PLACEMENTS))
def test_generation_places_as_golden(case):
    run, arguments, expected = GOLDEN_PLACEMENTS[case]
    assert placement_digest(run(*arguments)) == expected


@pytest.mark.parametrize("case", sorted(GOLDEN_PLACEMENTS))
def test_generation_is_repeatable_in_one_process(case):
    """A second run in the same process (warm compile and sample caches)
    places exactly as the first."""
    run, arguments, _ = GOLDEN_PLACEMENTS[case]
    assert placement_digest(run(*arguments)) == placement_digest(run(*arguments))


@pytest.mark.parametrize("name", sorted(GOLDEN_LIBRARIES))
def test_sample_library_loads_as_golden(name):
    text, expected = GOLDEN_LIBRARIES[name]
    rsg = Rsg()
    loads_sample(text, rsg)
    assert library_digest(rsg) == expected
