"""Flat compaction on integer columns reproduces the object-era build.

The flat pass stores variables as integer ids and constraints as int64
columns.  Four kinds of evidence that it computes exactly what the
object-era build (``Constraint`` records, ``CompactionBox`` objects and
``"e12.l"`` names) computed:

* **golden digests** — sha256 of the CLI's CIF and its exact stdout
  (Bellman-Ford passes and relaxations included) for the multiplier at
  4x4 and 8x8 along ``x``, ``y``, ``xy`` and ``yx`` and at 13x13 ``yx``,
  of ``execute_job``'s CIF for ``hier`` and ``hier:xy``, and of the
  4x4 and 8x8 rubber-band boxes, all captured with the object-era
  build;
* **pinned library runs** — solver stats, row counts, widths and a box
  digest of a flat pass over random layouts across methods, width
  modes, sizing, merging, axes and edge sorting, also captured with the
  object-era build: ``compact_layout`` runs the options it takes, the
  experiment pass ``oracles.scanline.compact`` the rest;
* **constraint lists** — the column generators against the object-era
  generators kept below as the oracle (``visibility_constraints_reference``
  for the visibility scan);
* **solver** — the column Bellman-Ford finds the solutions, and counts
  the passes and relaxations, of the object-era loop.

Plus: an infeasible system still raises, the flat pass builds no
``Constraint``, ``CompactionBox`` or variable name, and a two-pass
``--compact`` job flattens once and builds no box object from the
start of its compaction to the end of its CIF emit.  A cached chain,
cold or warm from memory or disk, gives the uncached chain's layers,
widths, jogs and stats, builds no box object, and a cached CLI run
writes the uncached run's CIF.
"""

import contextlib
import copy
import hashlib
import io
import json
import pickle
import random
from collections import Counter

import pytest
from oracles.scanline import compact, naive_constraints, visibility_constraints_reference
from oracles.scanline import _add_connection as connection_oracle

from repro import cli
from repro.compact import (
    TECH_A,
    TECH_B,
    add_width_constraints,
    build_edge_variables,
    compact_cell,
    compact_layout,
    compact_passes,
    solve_longest_path,
    visibility_constraints,
)
from repro.compact import constraints as constraints_module
from repro.compact import flat as flat_module
from repro.compact import scanline
from repro.core import cell as cell_module
from repro.core.errors import InfeasibleConstraintsError
from repro.geometry import Box, batch
from repro.obs import trace as obs_trace
from repro.service import jobs as jobs_module
from repro.layout.cif import cif_text
from repro.layout.database import FlatLayout, flatten_cell, merge_boxes
from repro.multiplier import (
    DESIGN_FILE,
    MULTIPLIER_SAMPLE,
    PARAMETER_FILE,
    generate_via_language,
)
from repro.service.jobs import JobSpec, execute_job

#: (size, axes) -> (sha256 of the CIF, the stdout lines reporting each
#: pass), captured with the object-era build
GOLDEN_CLI = {
    (4, "x"): (
        "156314b70b660d489409865be80d4faa27a6bf2e37aca2f59b4d320911cd5f2a",
        "compacted x: width 220 -> 74 (bellman-ford: 688 vars, width 74,"
        " 2 passes, 616 relaxations)\n",
    ),
    (4, "y"): (
        "49502c068ac5c619e4c5916c56b1b7fa0beee738c96ccb96cc6f3d5f74fd5fa2",
        "compacted y: width 164 -> 90 (bellman-ford: 688 vars, width 90,"
        " 2 passes, 612 relaxations)\n",
    ),
    (4, "xy"): (
        "63a1738bd039ad4d975365dd21fa09d9fec9e6eef6880988da3cf449162d1ee8",
        "compacted x: width 220 -> 74 (bellman-ford: 688 vars, width 74,"
        " 2 passes, 616 relaxations)\n"
        "compacted y: width 164 -> 107 (bellman-ford: 688 vars, width 107,"
        " 2 passes, 665 relaxations)\n",
    ),
    (4, "yx"): (
        "2f2b78003d3ee868df4863ca30412eb37d5ae2ba73661ab1d65c8b4b4c17f38a",
        "compacted y: width 164 -> 90 (bellman-ford: 688 vars, width 90,"
        " 2 passes, 612 relaxations)\n"
        "compacted x: width 220 -> 74 (bellman-ford: 688 vars, width 74,"
        " 2 passes, 615 relaxations)\n",
    ),
    (8, "x"): (
        "7855286f3e0ca9e7c3d4ef610d24e23bb3e1e611281ee31499b3acb2ab949791",
        "compacted x: width 420 -> 146 (bellman-ford: 2496 vars, width 146,"
        " 2 passes, 2312 relaxations)\n",
    ),
    (8, "y"): (
        "aacfacdd64d18d39a1968a1d930e51f8f296195ccd38197e64f8ab0471ec8a55",
        "compacted y: width 308 -> 150 (bellman-ford: 2496 vars, width 150,"
        " 2 passes, 2282 relaxations)\n",
    ),
    (8, "xy"): (
        "f45b19d86da85aea51f1eed40a35625aa200abd3c3d44e4c7fc5250374760522",
        "compacted x: width 420 -> 146 (bellman-ford: 2496 vars, width 146,"
        " 2 passes, 2312 relaxations)\n"
        "compacted y: width 308 -> 207 (bellman-ford: 2496 vars, width 207,"
        " 2 passes, 2498 relaxations)\n",
    ),
    (8, "yx"): (
        "0d6deb0aeba8201f8d1683481c68e1c7df49657cdaed88e5791c8fa60719177b",
        "compacted y: width 308 -> 150 (bellman-ford: 2496 vars, width 150,"
        " 2 passes, 2282 relaxations)\n"
        "compacted x: width 420 -> 146 (bellman-ford: 2496 vars, width 146,"
        " 2 passes, 2307 relaxations)\n",
    ),
    (13, "yx"): (
        "15e722f2a0f334bd811342e64e4820434029859883d65827c11e801e5d2295dd",
        "compacted y: width 488 -> 225 (bellman-ford: 6292 vars, width 225,"
        " 2 passes, 5809 relaxations)\n"
        "compacted x: width 660 -> 234 (bellman-ford: 6292 vars, width 234,"
        " 2 passes, 5897 relaxations)\n",
    ),
}

#: compact mode -> sha256 of execute_job's CIF for a 5x4 multiplier
GOLDEN_JOBS = {
    "hier": "99751b3007f1523ea3011dbb89b5b9429828fced1bf96fb9ac2970b30ff6c0ca",
    "hier:xy": "b26b0029157c1bb2d8d6d6970221a5d9a6a31b582d394e179214fcdd76e92a4c",
}

#: multiplier size -> (sha256 of the sorted rubber-band boxes as the flow
#: benchmark digests them, jog before, jog after), object-era build
GOLDEN_RUBBER_BAND = {
    4: ("76614e3b684ea11c2f82998c0d62e42ae0b2198bcedad112be742dbd178c7b08", 2688, 672),
    8: ("24b851ebcc31e4aba3aeaef065566e5154a47f117e701e84be041f342920ad10", 11344, 2384),
}

LAYERS = ["diff", "poly", "metal1", "implant"]


def random_pairs(seed, n, spread):
    """A random (layer, box) layout, degenerate boxes included."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        x, y = rng.randrange(0, spread), rng.randrange(0, spread)
        width, height = rng.randrange(0, 9), rng.randrange(0, 9)
        pairs.append((rng.choice(LAYERS), Box(x, y, x + width, y + height)))
    return pairs


def random_layout(seed, n, spread):
    layout = FlatLayout(f"random{seed}")
    for layer, box in random_pairs(seed, n, spread):
        layout.add(layer, box)
    return layout


#: compact_layout options of the pinned library runs
OPTIONS = [
    {},
    {"width_mode": "min"},
    {"axis": "y"},
    {"method": "naive"},
    {"method": "naive", "width_mode": "min"},
    {"method": "naive-indiscriminate", "width_mode": "min"},
    {"method": "naive-skip-hidden", "width_mode": "min", "axis": "y"},
    {"merge": True},
    {"merge": True, "width_mode": "min", "axis": "y"},
    {"sizing": {("", "poly"): 5, ("", "metal1"): 1}},
    {"sizing": {("", "diff"): 6}, "width_mode": "min"},
    {"width_mode": "min", "sort_edges": False},
    {"width_mode": "min", "axis": "y"},
    {"merge": True, "sort_edges": False},
]

#: ((seed, boxes, spread), option index) -> (str(stats), rows, spacing
#: rows, widths and a digest of the sorted boxes), captured with the
#: object-era build (the stats strings of slots 12 and 13 were recorded
#: later, over their object-era digests: slot 13 is slot 7 with unsorted
#: edges, so it keeps slot 7's geometry); the rules alternate between
#: TECH_A and TECH_B
PINNED = {
    ((1, 12, 30), 0): (
        'bellman-ford: 24 vars, width 11, 2 passes, 15 relaxations',
        '29 rows, 5 spacing, width 31->11, c146c4e1043cfa31',
    ),
    ((1, 12, 30), 1): (
        'bellman-ford: 24 vars, width 6, 2 passes, 17 relaxations',
        '17 rows, 5 spacing, width 31->6, 1588dd9eeb4d79fc',
    ),
    ((1, 12, 30), 2): (
        'bellman-ford: 24 vars, width 24, 2 passes, 15 relaxations',
        '28 rows, 4 spacing, width 32->24, 0ef47610a946ad87',
    ),
    ((1, 12, 30), 3): (
        'bellman-ford: 24 vars, width 10, 2 passes, 15 relaxations',
        '29 rows, 5 spacing, width 31->10, 3e84d0c6117a13da',
    ),
    ((1, 12, 30), 4): (
        'bellman-ford: 24 vars, width 9, 2 passes, 17 relaxations',
        '17 rows, 5 spacing, width 31->9, 8e3c96bc5890b55b',
    ),
    ((1, 12, 30), 5): (
        'bellman-ford: 24 vars, width 6, 2 passes, 17 relaxations',
        '17 rows, 5 spacing, width 31->6, 1588dd9eeb4d79fc',
    ),
    ((1, 12, 30), 6): (
        'bellman-ford: 24 vars, width 8, 2 passes, 16 relaxations',
        '17 rows, 5 spacing, width 32->8, 66f5414565cf181e',
    ),
    ((1, 12, 30), 7): (
        'bellman-ford: 18 vars, width 9, 2 passes, 11 relaxations',
        '20 rows, 2 spacing, width 31->9, c375e3173af19319',
    ),
    ((1, 12, 30), 8): (
        'bellman-ford: 18 vars, width 8, 2 passes, 13 relaxations',
        '13 rows, 4 spacing, width 32->8, e2b214d7560a7f88',
    ),
    ((1, 12, 30), 9): (
        'bellman-ford: 24 vars, width 15, 2 passes, 16 relaxations',
        '24 rows, 5 spacing, width 31->15, d7495d0b1f4c548e',
    ),
    ((1, 12, 30), 10): (
        'bellman-ford: 24 vars, width 15, 2 passes, 17 relaxations',
        '17 rows, 5 spacing, width 31->15, 0c1b328b76c01e3d',
    ),
    ((1, 12, 30), 11): (
        'bellman-ford: 24 vars, width 6, 4 passes, 22 relaxations',
        '17 rows, 5 spacing, width 31->6, 1588dd9eeb4d79fc',
    ),
    ((1, 12, 30), 12): (
        'bellman-ford: 24 vars, width 8, 2 passes, 16 relaxations',
        '16 rows, 4 spacing, width 32->8, 66f5414565cf181e',
    ),
    ((1, 12, 30), 13): (
        'bellman-ford: 18 vars, width 9, 3 passes, 13 relaxations',
        '20 rows, 2 spacing, width 31->9, c375e3173af19319',
    ),
    ((2, 40, 120), 0): (
        'bellman-ford: 80 vars, width 18, 2 passes, 37 relaxations',
        '85 rows, 5 spacing, width 108->18, 04ad23dcfc726d3f',
    ),
    ((2, 40, 120), 1): (
        'bellman-ford: 80 vars, width 9, 2 passes, 45 relaxations',
        '45 rows, 5 spacing, width 108->9, 8af29e7082647ed6',
    ),
    ((2, 40, 120), 2): (
        'bellman-ford: 80 vars, width 14, 2 passes, 40 relaxations',
        '88 rows, 8 spacing, width 122->14, b92eae03449ff4f7',
    ),
    ((2, 40, 120), 3): (
        'bellman-ford: 80 vars, width 18, 2 passes, 37 relaxations',
        '85 rows, 5 spacing, width 108->18, 407c665f920cf956',
    ),
    ((2, 40, 120), 4): (
        'bellman-ford: 80 vars, width 12, 2 passes, 45 relaxations',
        '45 rows, 5 spacing, width 108->12, 35e79feacdaadc4f',
    ),
    ((2, 40, 120), 5): (
        'bellman-ford: 80 vars, width 9, 2 passes, 45 relaxations',
        '45 rows, 5 spacing, width 108->9, 8af29e7082647ed6',
    ),
    ((2, 40, 120), 6): (
        'bellman-ford: 80 vars, width 12, 2 passes, 47 relaxations',
        '48 rows, 8 spacing, width 122->12, 625e627432c04e06',
    ),
    ((2, 40, 120), 7): (
        'bellman-ford: 56 vars, width 18, 2 passes, 31 relaxations',
        '59 rows, 3 spacing, width 108->18, 5173d9b65a455c50',
    ),
    ((2, 40, 120), 8): (
        'bellman-ford: 56 vars, width 12, 2 passes, 33 relaxations',
        '34 rows, 6 spacing, width 122->12, 6650a011f20779b2',
    ),
    ((2, 40, 120), 9): (
        'bellman-ford: 80 vars, width 18, 2 passes, 41 relaxations',
        '64 rows, 5 spacing, width 108->18, 7a897ab433cdf372',
    ),
    ((2, 40, 120), 10): (
        'bellman-ford: 80 vars, width 14, 2 passes, 45 relaxations',
        '45 rows, 5 spacing, width 108->14, f2e7b7a3f227809e',
    ),
    ((2, 40, 120), 11): (
        'bellman-ford: 80 vars, width 9, 3 passes, 50 relaxations',
        '45 rows, 5 spacing, width 108->9, 8af29e7082647ed6',
    ),
    ((2, 40, 120), 12): (
        'bellman-ford: 80 vars, width 12, 2 passes, 47 relaxations',
        '48 rows, 8 spacing, width 122->12, 625e627432c04e06',
    ),
    ((2, 40, 120), 13): (
        'bellman-ford: 56 vars, width 18, 3 passes, 34 relaxations',
        '59 rows, 3 spacing, width 108->18, 5173d9b65a455c50',
    ),
    ((3, 40, 120), 0): (
        'bellman-ford: 80 vars, width 17, 3 passes, 50 relaxations',
        '97 rows, 11 spacing, width 123->17, 54e81272d511cbc1',
    ),
    ((3, 40, 120), 1): (
        'bellman-ford: 80 vars, width 20, 2 passes, 52 relaxations',
        '57 rows, 11 spacing, width 123->20, 4d17408604e44121',
    ),
    ((3, 40, 120), 2): (
        'bellman-ford: 80 vars, width 26, 2 passes, 48 relaxations',
        '96 rows, 13 spacing, width 120->26, 95e327b63db746c1',
    ),
    ((3, 40, 120), 3): (
        'bellman-ford: 80 vars, width 18, 3 passes, 50 relaxations',
        '98 rows, 12 spacing, width 123->18, 462c087e0805d15f',
    ),
    ((3, 40, 120), 4): (
        'bellman-ford: 80 vars, width 15, 2 passes, 52 relaxations',
        '58 rows, 12 spacing, width 123->15, 02db3c2dc26c6f06',
    ),
    ((3, 40, 120), 5): (
        'bellman-ford: 80 vars, width 20, 2 passes, 52 relaxations',
        '58 rows, 12 spacing, width 123->20, 4d17408604e44121',
    ),
    ((3, 40, 120), 6): (
        'bellman-ford: 80 vars, width 15, 2 passes, 51 relaxations',
        '57 rows, 14 spacing, width 120->15, 261cea950f472dfe',
    ),
    ((3, 40, 120), 7): (
        'bellman-ford: 64 vars, width 16, 2 passes, 43 relaxations',
        '75 rows, 11 spacing, width 123->16, 59d6018f68a911ec',
    ),
    ((3, 40, 120), 8): (
        'bellman-ford: 64 vars, width 15, 2 passes, 42 relaxations',
        '48 rows, 13 spacing, width 120->15, b2b2f15918e95667',
    ),
    ((3, 40, 120), 9): (
        'bellman-ford: 80 vars, width 23, 3 passes, 53 relaxations',
        '79 rows, 11 spacing, width 123->23, 12505113b4b233f9',
    ),
    ((3, 40, 120), 10): (
        'bellman-ford: 80 vars, width 15, 2 passes, 52 relaxations',
        '57 rows, 11 spacing, width 123->15, e231ac52846a43e1',
    ),
    ((3, 40, 120), 11): (
        'bellman-ford: 80 vars, width 20, 4 passes, 68 relaxations',
        '57 rows, 11 spacing, width 123->20, 4d17408604e44121',
    ),
    ((3, 40, 120), 12): (
        'bellman-ford: 80 vars, width 15, 2 passes, 50 relaxations',
        '56 rows, 13 spacing, width 120->15, 261cea950f472dfe',
    ),
    ((3, 40, 120), 13): (
        'bellman-ford: 64 vars, width 16, 4 passes, 56 relaxations',
        '75 rows, 11 spacing, width 123->16, 59d6018f68a911ec',
    ),
}


#: the options of :data:`OPTIONS` that ``compact_layout`` takes
PASS_OPTIONS = {"axis", "width_mode"}


def observe(seed, n, spread, options, rules, run):
    """One pinned library run by ``run``, as recorded in :data:`PINNED`."""
    try:
        result = run(random_layout(seed, n, spread), rules, **options)
    except InfeasibleConstraintsError:
        return "infeasible"
    boxes = sorted(
        (layer, b.xmin, b.ymin, b.xmax, b.ymax)
        for layer, items in result.layers.items()
        for b in items
    )
    digest = hashlib.sha256(repr(boxes).encode()).hexdigest()[:16]
    return (
        str(result.stats),
        f"{result.constraint_count} rows, {result.spacing_constraints} spacing,"
        f" width {result.width_before}->{result.width_after}, {digest}",
    )


# ----------------------------------------------------------------------
# The object-era generators and solver loop: the oracle
# ----------------------------------------------------------------------
def width_oracle(system, items, rules, mode="preserve", sizing=None):
    sizing = sizing or {}
    for item in items:
        directive = sizing.get((item.tag, item.layer))
        if mode == "preserve" and directive is None:
            system.require_equal(item.left, item.right, item.box.width)
            continue
        minimum = rules.width(item.layer)
        if directive is not None:
            minimum = max(minimum, directive)
        if mode == "preserve":
            minimum = max(minimum, item.box.width)
        system.add(item.left, item.right, minimum, kind="width")


def gap_covered_oracle(items, layer, left_box, right_box):
    y0 = max(left_box.box.ymin, right_box.box.ymin)
    for other in items:
        if other is left_box or other is right_box or other.layer != layer:
            continue
        if (
            other.box.xmin <= left_box.box.xmax
            and other.box.xmax >= right_box.box.xmin
            and other.box.ymin <= y0 < other.box.ymax
        ):
            return True
    return False


def naive_oracle(system, boxes, rules, skip_hidden=False, merge_aware=True):
    count = 0
    items = sorted(boxes, key=lambda item: item.box.xmin)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if min(a.box.ymax, b.box.ymax) <= max(a.box.ymin, b.box.ymin):
                continue
            connected = a.layer == b.layer and a.box.overlaps(b.box)
            touching = connected and not a.box.overlaps_open(b.box)
            if connected and (merge_aware or not touching):
                connection_oracle(system, a, b, rules)
                continue
            spacing = rules.spacing(a.layer, b.layer)
            if spacing is None:
                continue
            left_box, right_box = (a, b) if a.box.xmin <= b.box.xmin else (b, a)
            if right_box.box.xmin <= left_box.box.xmax and not touching:
                continue
            if skip_hidden and gap_covered_oracle(items, a.layer, left_box, right_box):
                continue
            system.add(left_box.right, right_box.left, spacing, kind="spacing")
            count += 1
    return count


def bellman_ford_oracle(system, sort_edges=True):
    """The name-keyed sorted-edge loop: (solution, passes, relaxations)."""
    initial = dict(zip(system.variables, system.initial.tolist()))
    constraints = list(system.constraints)
    if sort_edges:
        constraints.sort(key=lambda c: initial[c.source])
    x = {name: 0 for name in system.variables}
    passes = relaxations = 0
    while True:
        changed = False
        passes += 1
        for c in constraints:
            if x[c.source] + c.weight > x[c.target]:
                x[c.target] = x[c.source] + c.weight
                relaxations += 1
                changed = True
        if not changed:
            return x, passes, relaxations
        if passes > len(system.variables) + 1:
            raise InfeasibleConstraintsError("positive cycle")


def rows(system):
    return [(c.source, c.target, c.weight, c.kind) for c in system.constraints]


def tagged_pairs(seed, n, spread):
    """Random pairs with per-box sizing tags."""
    rng = random.Random(seed + 1000)
    pairs = random_pairs(seed, n, spread)
    return pairs, [rng.choice(["", "cellA", "cellB"]) for _ in pairs]


SIZING = {("cellA", "poly"): 5, ("", "diff"): 4, ("cellB", "metal1"): 1}
CASES = [(seed, n, spread) for seed in (1, 2, 3) for n, spread in ((10, 24), (50, 90))]


# ----------------------------------------------------------------------
# Golden outputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parameter_file(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    (directory / "mult.sample").write_text(MULTIPLIER_SAMPLE)
    (directory / "mult.design").write_text(DESIGN_FILE)
    body = PARAMETER_FILE.split("\n", 1)[1]
    (directory / "mult.par").write_text(
        f".example_file:{directory}/mult.sample\n"
        f".concept_file:{directory}/mult.design\n"
        f".output_file:{directory}/mult.cif\n.output_cell:thewholething\n" + body
    )
    return directory


@pytest.mark.parametrize("size,axes", sorted(GOLDEN_CLI), ids=lambda v: str(v))
def test_cli_cif_and_stdout_equal_the_object_era_build(parameter_file, size, axes):
    argv = [
        str(parameter_file / "mult.par"), "--set", f"xsize={size}",
        "--set", f"ysize={size}", "--compact", axes,
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    cif_digest, passes = GOLDEN_CLI[size, axes]
    cif = (parameter_file / "mult.cif").read_text()
    assert hashlib.sha256(cif.encode()).hexdigest() == cif_digest
    name = "thewholething" + "_compacted" * len(axes)
    assert out.getvalue().replace(str(parameter_file), "<dir>") == (
        passes
        + "wrote cif to <dir>/mult.cif\n"
        + f"generated cell {name!r}: 0 instances\n"
    )


@pytest.mark.parametrize("mode", sorted(GOLDEN_JOBS))
def test_hierarchical_job_cif_equals_the_object_era_build(mode):
    result = execute_job(
        JobSpec(kind="multiplier", compact=mode, parameters="xsize=5\nysize=4")
    )
    assert hashlib.sha256(result.cif.encode()).hexdigest() == GOLDEN_JOBS[mode]


@pytest.mark.parametrize("size", sorted(GOLDEN_RUBBER_BAND))
def test_rubber_band_boxes_equal_the_object_era_build(size):
    layout = flatten_cell(generate_via_language(size, size)[0])
    result = compact_layout(layout, TECH_A, rubber_band=True, axis="x")
    boxes = sorted(
        (layer, b.xmin, b.ymin, b.xmax, b.ymax)
        for layer, items in result.layers.items()
        for b in items
    )
    digest = hashlib.sha256(json.dumps(boxes, sort_keys=True).encode()).hexdigest()
    assert (digest, result.jog_before, result.jog_after) == GOLDEN_RUBBER_BAND[size]


def test_alignment_runs_only_for_a_rubber_band_or_a_jog_read():
    """A plain pass opens no ``compact.align`` span; reading its jog
    opens one and gives the rubber-band pass's ``jog_before``, which
    that pass found while it ran (the 4x4 golden)."""
    layout = flatten_cell(generate_via_language(4, 4)[0])

    def align_spans(run):
        tracer = obs_trace.Tracer()
        with obs_trace.activated(tracer):
            value = run()
        return value, [span for span in tracer.finished() if span.name == "compact.align"]

    plain, spans = align_spans(lambda: compact_layout(layout, TECH_A))
    assert spans == []
    jog, spans = align_spans(lambda: (plain.jog_before, plain.jog_after))
    assert len(spans) == 1 and jog == (GOLDEN_RUBBER_BAND[4][1],) * 2
    smoothed, spans = align_spans(lambda: compact_layout(layout, TECH_A, rubber_band=True))
    assert len(spans) == 1
    assert (smoothed.jog_before, smoothed.jog_after) == GOLDEN_RUBBER_BAND[4][1:]


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: f"{key[0]}-{key[1]}")
def test_library_run_equals_the_object_era_build(key):
    (seed, n, spread), index = key
    rules = TECH_A if (seed + index) % 2 else TECH_B
    # The experiment pass runs every slot, compact_layout the ones it takes.
    assert observe(seed, n, spread, OPTIONS[index], rules, compact) == PINNED[key]
    if set(OPTIONS[index]) <= PASS_OPTIONS:
        assert observe(seed, n, spread, OPTIONS[index], rules, compact_layout) == PINNED[key]


# ----------------------------------------------------------------------
# Constraint rows against the object-era generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("rules", [TECH_A, TECH_B], ids=lambda r: r.name)
class TestConstraintRows:
    @pytest.mark.parametrize("mode", ["preserve", "min"])
    @pytest.mark.parametrize("sizing", [None, SIZING], ids=["plain", "sizing"])
    def test_width_rows_in_box_order(self, seed, n, spread, rules, mode, sizing):
        pairs, tags = tagged_pairs(seed, n, spread)
        system, boxes = build_edge_variables(pairs, tags=tags)
        add_width_constraints(system, boxes, rules, mode=mode, sizing=sizing)
        oracle, items = build_edge_variables(pairs, tags=tags)
        width_oracle(oracle, list(items), rules, mode=mode, sizing=sizing)
        assert rows(system) == rows(oracle)

    @pytest.mark.parametrize("merge", [False, True], ids=["drawn", "merged"])
    def test_visibility_row_multiset(self, seed, n, spread, rules, merge):
        pairs = random_pairs(seed, n, spread)
        if merge:
            by_layer = {}
            for layer, box in pairs:
                by_layer.setdefault(layer, []).append(box)
            pairs = [
                (layer, box)
                for layer in sorted(by_layer)
                for box in merge_boxes(by_layer[layer])
            ]
        system, boxes = build_edge_variables(pairs)
        count = visibility_constraints(system, boxes, rules)
        oracle, items = build_edge_variables(pairs)
        assert count == visibility_constraints_reference(oracle, list(items), rules)
        assert Counter(rows(system)) == Counter(rows(oracle))

    @pytest.mark.parametrize(
        "options",
        [{}, {"merge_aware": False}, {"skip_hidden": True}],
        ids=["naive", "indiscriminate", "skip-hidden"],
    )
    def test_naive_rows_in_scan_order(self, seed, n, spread, rules, options):
        pairs = random_pairs(seed, n, spread)
        system, boxes = build_edge_variables(pairs)
        count = naive_constraints(system, boxes, rules, **options)
        oracle, items = build_edge_variables(pairs)
        assert count == naive_oracle(oracle, list(items), rules, **options)
        assert rows(system) == rows(oracle)


# ----------------------------------------------------------------------
# Solvers
# ----------------------------------------------------------------------
def generated_system(seed, n, spread, rules, mode):
    system, boxes = build_edge_variables(random_pairs(seed, n, spread))
    add_width_constraints(system, boxes, rules, mode=mode)
    visibility_constraints(system, boxes, rules)
    return system


@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("mode", ["preserve", "min"])
@pytest.mark.parametrize("sort_edges", [True, False], ids=["sorted", "unsorted"])
def test_solver_counts_like_the_object_era_loop(
    seed, n, spread, mode, sort_edges
):
    system = generated_system(seed, n, spread, TECH_A, mode)
    try:
        expected = bellman_ford_oracle(system, sort_edges)
    except InfeasibleConstraintsError:
        with pytest.raises(InfeasibleConstraintsError):
            solve_longest_path(system, sort_edges=sort_edges)
        return
    stats = solve_longest_path(system, sort_edges=sort_edges)
    assert (stats.solution, stats.passes, stats.relaxations) == expected
    assert stats.values == [expected[0][name] for name in system.variables]


@pytest.mark.parametrize("seed,n,spread", CASES)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_edge_order_leaves_the_geometry_unchanged(seed, n, spread, axis):
    # presorting the edges only saves passes: the least solution is
    # unique, so the compacted boxes cannot depend on the edge order
    layout = random_layout(seed, n, spread)
    results = [
        compact(layout, TECH_A, axis=axis, width_mode="min", sort_edges=order)
        for order in (True, False)
    ]
    # every variable is an edge of one box, so equal layers mean equal solutions
    assert results[0].layers == results[1].layers
    assert results[0].stats.passes <= results[1].stats.passes


@pytest.mark.parametrize("sort_edges", [True, False], ids=["sorted", "unsorted"])
def test_infeasible_system_still_raises(sort_edges):
    # Two abutting diff bars pinned to width 2 under a spacing rule that
    # a third bar makes unsatisfiable: x1.l - x0.r >= 3 and <= 0.
    system, boxes = build_edge_variables(
        [("diff", Box(0, 0, 2, 10)), ("diff", Box(2, 0, 4, 10))]
    )
    add_width_constraints(system, boxes, TECH_A)
    system.extend([boxes.right[0]], [boxes.left[1]], [3], "spacing")
    system.extend([boxes.left[1]], [boxes.right[0]], [0], "connect")
    with pytest.raises(InfeasibleConstraintsError):
        solve_longest_path(system, sort_edges=sort_edges)


@pytest.mark.parametrize("sort_edges", [True, False], ids=["sorted", "unsorted"])
def test_infeasible_layout_raises_through_the_driver(sort_edges):
    # Preserve mode pins every width; the connections that keep these
    # three overlapping metal bars in their drawn edge order then form
    # a positive cycle.
    layout = FlatLayout("knot")
    for box in (Box(13, 6, 17, 8), Box(11, 7, 23, 8), Box(19, 2, 38, 8)):
        layout.add("metal1", box)
    with pytest.raises(InfeasibleConstraintsError):
        if sort_edges:
            compact_layout(layout, TECH_A)
        else:
            compact(layout, TECH_A, sort_edges=False)


def test_flat_pass_builds_no_records_boxes_or_names(monkeypatch):
    """The pass stays on columns: no ``Constraint``, no ``CompactionBox``
    and no spelled variable name, from flatten to rebuild."""

    def refuse(*args, **kwargs):
        raise AssertionError("object-era record built on the flat pass")

    monkeypatch.setattr(constraints_module.Constraint, "__init__", refuse)
    monkeypatch.setattr(scanline.CompactionBox, "__init__", refuse)
    monkeypatch.setattr(constraints_module.VariableNames, "spell", refuse)
    cell, _ = generate_via_language(4, 4)
    for axis in "xy":
        cell, result = compact_cell(cell, TECH_A, axis=axis)
        assert result.constraint_count and result.layers
    smoothed = compact_layout(
        random_layout(5, 40, 90), TECH_B, width_mode="min", rubber_band=True
    )
    assert smoothed.jog_after <= smoothed.jog_before


@pytest.mark.parametrize("verify", [None, "lvs"])
def test_two_pass_job_flattens_once_and_builds_no_box_through_emit(monkeypatch, verify):
    """``--compact xy`` reads the hierarchy into columns once, hands the
    solved columns from pass to pass, and builds no ``Box`` or
    ``LayerBox`` from the start of ``job.compact`` to the end of
    ``job.emit``, with or without an LVS verify in between."""
    armed = []

    def guarded(original):
        def call(*args, **kwargs):
            if armed:
                raise AssertionError("box object built after job.compact began")
            return original(*args, **kwargs)
        return call

    def compact_stage(original):
        def call(*args, **kwargs):
            # Generation builds boxes; the guard starts with compaction.
            armed.append(True)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(Box, "__init__", guarded(Box.__init__))
    monkeypatch.setattr(cell_module.LayerBox, "__init__",
                        guarded(cell_module.LayerBox.__init__))
    monkeypatch.setattr(batch, "boxes_from_arrays", guarded(batch.boxes_from_arrays))
    monkeypatch.setattr(cell_module, "boxes_from_arrays",
                        guarded(cell_module.boxes_from_arrays))
    monkeypatch.setattr(jobs_module, "_compact_stage", compact_stage(jobs_module._compact_stage))
    tracer = obs_trace.Tracer()
    with obs_trace.activated(tracer):
        result = execute_job(JobSpec(
            kind="multiplier", compact="xy", verify=verify,
            parameters="xsize=4\nysize=4",
        ))
    assert armed, "the job never compacted"
    armed.clear()
    assert [entry["axis"] for entry in result.compaction] == ["x", "y"]
    assert result.cif.count("B ") > 0
    spans = tracer.finished()
    (stage,) = [span for span in spans if span.name == "job.compact"]
    inside, frontier = [], [stage.span_id]
    while frontier:
        parent = frontier.pop()
        children = [span for span in spans if span.parent_id == parent]
        inside += children
        frontier += [span.span_id for span in children]
    assert [span.name for span in inside].count("compact.flatten") == 1
    assert [span.name for span in inside].count("solver.solve") == 2


def decoded_twin(cell):
    """A cell built box by box from ``cell``'s boxes."""
    twin = cell_module.CellDefinition(cell.name)
    twin.add_boxes(list(cell.boxes))
    return twin


@pytest.mark.parametrize(
    "duplicate", [lambda cell: pickle.loads(pickle.dumps(cell)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_undecoded_compacted_cell_survives_pickle_and_copy(duplicate):
    """A copy of a compacted cell whose boxes were never decoded carries
    its columns (the pickled state drops the flatten memo): its boxes,
    CIF, bounding box and flatten equal the decoded cell's."""
    compacted, _ = compact_passes(generate_via_language(4, 4)[0], TECH_A, "xy", name="out")
    compacted.flat_columns()
    copied = duplicate(compacted)
    assert copied._boxes is None and compacted._boxes is None
    cif = cif_text(copied)
    assert copied._boxes is None
    twin = decoded_twin(compacted)
    assert copied.boxes == compacted.boxes == twin.boxes
    assert cif == cif_text(twin)
    assert copied.bounding_box() == twin.bounding_box()
    assert list(flatten_cell(copied).layers.items()) == list(
        flatten_cell(twin).layers.items()
    )


def test_born_cell_reads_as_its_decoded_twin():
    """Undecoded, a compacted cell gives the fingerprint, bounding box,
    layers and flatten columns of a cell built box by box from its
    boxes, and reading them decodes nothing but the fingerprint's boxes."""
    from repro.compact import fingerprint_cell

    compacted, _ = compact_passes(generate_via_language(4, 4)[0], TECH_B, "yx", name="out")
    born = copy.deepcopy(compacted)
    twin = decoded_twin(compacted)
    assert born.bounding_box() == twin.bounding_box()
    assert born.layers() == twin.layers()
    codes, arrays = born.flat_columns()
    twin_codes, twin_arrays = twin.flat_columns()
    assert codes.tolist() == twin_codes.tolist()
    assert all(
        getattr(arrays, name).tolist() == getattr(twin_arrays, name).tolist()
        for name in ("xmin", "ymin", "xmax", "ymax")
    )
    assert born._boxes is None
    assert repr(born) == repr(twin)
    assert fingerprint_cell(born) == fingerprint_cell(twin)


@pytest.mark.parametrize("axes", ["x", "y", "xy", "yx", "xyx"])
@pytest.mark.parametrize(
    "options",
    [{}, {"width_mode": "min"}, {"rubber_band": True}],
    ids=["preserve", "min", "rubber-band"],
)
def test_chained_passes_equal_one_compact_cell_per_axis(axes, options):
    cell, _ = generate_via_language(4, 4)
    expected = cell
    for axis in axes:
        expected, result = compact_cell(
            expected, TECH_A, name="out", axis=axis, **options
        )
    chained, (*_, last) = compact_passes(cell, TECH_A, axes, name="out", **options)
    assert [(b.layer, b.box) for b in chained.boxes] == [
        (b.layer, b.box) for b in expected.boxes
    ]
    assert last.layers == result.layers
    assert str(last.stats) == str(result.stats)
    assert (last.width_before, last.width_after, last.jog_before) == (
        result.width_before, result.width_after, result.jog_before
    )


#: cache states of one flat chain: which cache a run reads, and the hits
#: it must see (one per pass when warm)
CACHE_STATES = ["uncached", "cold", "warm-memory", "warm-disk"]


def chain_runs(tmp_path, cell, axes, options):
    """``compact_passes`` over ``cell`` in every :data:`CACHE_STATES`,
    in that order: a cold run fills an on-disk cache, the same instance
    answers the warm-from-memory run and a fresh instance over the same
    directory the warm-from-disk run."""
    from repro.compact import CompactionCache

    cold = CompactionCache(str(tmp_path / "cache"))
    caches = {
        "uncached": None, "cold": cold, "warm-memory": cold,
        "warm-disk": CompactionCache(str(tmp_path / "cache")),
    }
    for state in CACHE_STATES:
        cache = caches[state]
        stats = None if cache is None else cache.cache_stats
        before = (stats.hits, stats.disk_hits) if stats is not None else (0, 0)
        compacted, results = compact_passes(
            cell, TECH_A, axes, name="out", cache=cache, **options
        )
        if stats is not None:
            hits = (stats.hits - before[0], stats.disk_hits - before[1])
            assert hits == {
                "cold": (0, 0), "warm-memory": (len(axes), 0),
                "warm-disk": (len(axes), len(axes)),
            }[state], state
        yield state, compacted, results


@pytest.mark.parametrize("axes", ["x", "y", "xy", "yx"])
@pytest.mark.parametrize(
    "options",
    [{}, {"width_mode": "min"}, {"rubber_band": True},
     {"width_mode": "min", "rubber_band": True}],
    ids=["plain", "min", "rubber-band", "min-rubber-band"],
)
def test_cached_chain_equals_the_uncached_chain(tmp_path, axes, options):
    cell, _ = generate_via_language(4, 4)
    runs = list(chain_runs(tmp_path, cell, axes, options))
    _, expected_cell, expected = runs[0]
    for state, compacted, results in runs[1:]:
        assert [(b.layer, b.box) for b in compacted.boxes] == [
            (b.layer, b.box) for b in expected_cell.boxes
        ], state
        assert results[-1].layers == expected[-1].layers, state
        assert [result.layers for result in results[:-1]] == [{}] * (len(axes) - 1)
        assert [
            (r.width_before, r.width_after, r.jog_before, r.jog_after, str(r.stats))
            for r in results
        ] == [
            (r.width_before, r.width_after, r.jog_before, r.jog_after, str(r.stats))
            for r in expected
        ], state


@pytest.mark.parametrize("axes", ["xy", "yx"])
def test_cached_chain_builds_no_box_object(tmp_path, monkeypatch, axes):
    """Uncached, cold, warm from memory and warm from disk, a two-pass
    chain hands columns from pass to pass and builds no ``Box`` or
    ``LayerBox``: the output cell's ``boxes`` and the last result's
    ``layers`` decode on their first read."""
    cell, _ = generate_via_language(4, 4)
    reading = []

    def guarded(original):
        def call(*args, **kwargs):
            if not reading:
                raise AssertionError("box object built by the chain")
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(Box, "__init__", guarded(Box.__init__))
    monkeypatch.setattr(cell_module.LayerBox, "__init__",
                        guarded(cell_module.LayerBox.__init__))
    monkeypatch.setattr(batch, "boxes_from_arrays", guarded(batch.boxes_from_arrays))
    monkeypatch.setattr(cell_module, "boxes_from_arrays",
                        guarded(cell_module.boxes_from_arrays))
    for state, compacted, results in chain_runs(tmp_path, cell, axes, {}):
        reading.append(state)
        assert compacted.boxes and results[-1].layers, state
        reading.clear()


def test_cached_cli_runs_write_the_uncached_cif(parameter_file, tmp_path):
    """Two ``repro <par> --compact xy --cache-dir D`` runs, cold then
    warm, write the CIF of an uncached run byte for byte."""
    argv = [
        str(parameter_file / "mult.par"), "--set", "xsize=4", "--set", "ysize=4",
        "--compact", "xy",
    ]
    cif_path = parameter_file / "mult.cif"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        uncached = cif_path.read_bytes()
        for _ in ("cold", "warm"):
            cif_path.unlink()
            assert cli.main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0
            assert cif_path.read_bytes() == uncached
