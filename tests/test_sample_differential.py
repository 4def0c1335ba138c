"""Seeded differential test: the sample loader, which parses each text
once and replays it, against a line-by-line loader
(``tests/oracles/sample.py``).

Each seed writes a random sample text with stdlib ``random``: cell
blocks, example blocks placing cells the text defines, cells only the
workspace defines and cells nobody defines, labels that do and do not
pick two instances, duplicate interfaces and cells, and malformed or
unterminated lines.  Each text loads into three workspaces, with and
without ``replace``: an empty one, one that already defines some of the
text's cells and interfaces, and (the parse now cached) the second
again.  The summary or the error type and text, and everything the
workspace holds afterwards, failed load or not, must match the oracle's.
"""

import random

import pytest
from oracles.sample import load_sample_by_line

from repro.core.operators import Rsg
from repro.geometry import NORTH, Vec2
from repro.layout.sample import loads_sample

SEEDS = range(300)
ORIENTATIONS = ("north", "south", "east", "west", "flip_north", "fwest")


def text_for(rng):
    """Cells first (some defined twice, ``base`` clashing with the seeded
    workspace), then examples abutting them with labels on the seam."""
    lines = []
    defined = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    if rng.random() < 0.1:
        defined.append(rng.choice(defined + ["base"]))
    for name in defined:
        lines.append(f"cell {name}")
        for _ in range(rng.randint(0 if rng.random() < 0.05 else 1, 3)):
            x, y = rng.randint(0, 2), rng.randint(0, 2)
            lines.append(f"  box m{rng.randint(1, 2)} {x} {y} {x + rng.choice([6, -1, 4])} 6")
        if rng.random() < 0.4:
            lines.append(f"  port p {rng.randint(0, 4)} {rng.randint(0, 4)}"
                         + (" m1" if rng.random() < 0.5 else ""))
        lines.append("end")
    for _ in range(rng.randint(1, 4)):
        lines.append("example")
        placed = []
        for _ in range(3 if rng.random() < 0.15 else 2):
            roll = rng.random()
            name = "ghost" if roll < 0.03 else "base" if roll < 0.12 else rng.choice(defined)
            x = 6 * len(placed) if rng.random() < 0.8 else rng.randint(0, 12)
            placed.append(x)
            lines.append(f"  inst {name} {x} {rng.randint(0, 1)} {rng.choice(ORIENTATIONS)}")
        for _ in range(0 if rng.random() < 0.04 else rng.randint(1, 2)):
            x = 6 if rng.random() < 0.8 else rng.randint(0, 30)
            lines.append(f"  label {rng.randint(1, 4)} {x} {rng.randint(1, 5)}")
        lines.append("end")
    if rng.random() < 0.15:
        lines.insert(rng.randint(0, len(lines)), rng.choice([
            "end", "wibble 1", "box m1 0 0 1", "cell", "cell x y", "example",
            "  inst a 0 0 diagonal", "  inst a x 0 north", "  label 1 2",
            "  port p 1", "  box m1 0 0 1 z", "label 1 0 0", "inst a 0 0 north",
            "# only a comment", "",
        ]))
    if rng.random() < 0.03:
        lines.pop()  # unterminated
    return "\n".join(lines) + ("\n" if rng.random() < 0.5 else "")


def workspace(seeded):
    rsg = Rsg()
    if seeded:
        base = rsg.define_cell("base")
        base.add_box("m1", 0, 0, 6, 6)
        rsg.define_cell("a").add_box("m2", 0, 0, 4, 4)
        rsg.interface_by_example("base", Vec2(0, 0), NORTH, "base", Vec2(6, 0), NORTH, 1)
    return rsg


def state(rsg):
    cells = []
    for cell in rsg.cells:
        cells.append((
            cell.name,
            [(item.layer, item.box.xmin, item.box.ymin, item.box.xmax, item.box.ymax)
             for item in cell.boxes],
            [(port.name, port.position.x, port.position.y, port.layer) for port in cell.ports],
        ))
    interfaces = [
        (key, (item.vector.x, item.vector.y, item.orientation.r, item.orientation.k))
        for key, item in rsg.interfaces
    ]
    return cells, interfaces


def outcome(load, text, seeded, replace):
    rsg = workspace(seeded)
    try:
        summary = load(text, rsg, replace=replace)
        result = ("summary", summary.cells, summary.interfaces)
    except Exception as error:  # noqa: BLE001 — the error is the outcome
        result = ("error", type(error).__name__, str(error))
    return result, state(rsg)


@pytest.mark.parametrize("seed", SEEDS)
def test_replayed_load_matches_line_by_line_load(seed):
    rng = random.Random(seed)
    text = text_for(rng)
    replace = rng.random() < 0.3
    for seeded in (False, True, True):
        expected = outcome(load_sample_by_line, text, seeded, replace)
        assert outcome(loads_sample, text, seeded, replace) == expected, text


def test_seeds_reach_loads_and_each_failure():
    outcomes = []
    for seed in SEEDS:
        rng = random.Random(seed)
        text = text_for(rng)
        replace = rng.random() < 0.3
        outcomes += [outcome(loads_sample, text, seeded, replace)[0] for seeded in (False, True)]
    loaded = [item for item in outcomes if item[0] == "summary" and item[2]]
    errors = "\n".join(f"{item[1]}: {item[2]}" for item in outcomes if item[0] == "error")
    assert len(loaded) >= len(outcomes) // 6
    for fragment in ("DuplicateCellError", "DuplicateInterfaceError", "UnknownCellError",
                     "does not identify two instances", "declares no interface labels",
                     "expected integer", "unknown orientation", "nested block",
                     "unterminated block", "end outside a block"):
        assert fragment in errors, fragment
