"""E-6.5 — Figures 6.4/6.5: fragmented layouts and hidden edges.

A diffusion wire fragmented into n abutting boxes: the indiscriminate
band-scan generator forces the result to roughly n * pitch (it spaces
every facing edge pair), while the visibility method (with box merging
implicitly taken care of) reaches the single-wire minimum.  The series
to check: naive width grows linearly in n, visibility width is flat.
The band scan and merged input are not options of the compactor, so
their rows run the experiment pass of ``tests/oracles/scanline.py``.
"""

import pytest
from oracles.scanline import compact

from repro.compact import TECH_A, compact_layout
from repro.geometry import Box
from repro.layout.database import FlatLayout


def fragmented_wire(n, width=2, height=10):
    flat = FlatLayout(f"frag{n}")
    for k in range(n):
        flat.add("diff", Box(k * width, 0, (k + 1) * width, height))
    return flat


@pytest.mark.parametrize("n", [4, 8, 16])
def test_indiscriminate_band_scan(benchmark, n, report):
    layout = fragmented_wire(n)

    def run():
        return compact(layout, TECH_A, method="naive-indiscriminate", width_mode="min")

    result = benchmark(run)
    report(
        f"E-6.5 n={n:2d} fragments: indiscriminate scan -> width"
        f" {result.width_after:3d} (>= n*lambda = {n * TECH_A.min_spacing['diff']})"
    )
    assert result.width_after >= n * TECH_A.min_spacing["diff"]


@pytest.mark.parametrize("n", [4, 8, 16])
def test_visibility_scan(benchmark, n, report):
    layout = fragmented_wire(n)

    def run():
        return compact_layout(layout, TECH_A, width_mode="min")

    result = benchmark(run)
    report(
        f"E-6.5 n={n:2d} fragments: visibility scan     -> width"
        f" {result.width_after:3d} (minimum diff width = {TECH_A.width('diff')})"
    )
    assert result.width_after == TECH_A.width("diff")


def test_merge_preprocessing(benchmark, report):
    """Explicit merging (``FlatLayout.merged()``), the preprocessing
    section 6.4.1 describes — and which is incompatible with tag-based
    device sizing."""
    layout = fragmented_wire(16)

    def run():
        return compact(layout, TECH_A, width_mode="min", merge=True)

    result = benchmark(run)
    report(
        f"E-6.5 merged preprocessing: 16 fragments -> 1 box, width"
        f" {result.width_after} (sizing tags lost: the section 6.4.1 tradeoff)"
    )
