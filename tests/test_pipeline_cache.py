"""Correctness of the compaction-result cache and the compact-once pipeline.

Covers a cache hit when the identical cell content comes back (even
under a different name), a miss — with distinct results — when the
rules, a driver option or an interface constraint changes, an on-disk
cache that round-trips and survives a fresh process, and the cached
hierarchical pipeline against the uncached oracle.
"""

import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.compact import (
    TECH_A,
    TECH_B,
    CompactionCache,
    HierarchicalCompactor,
    LeafCellCompactor,
    compact_cell,
    compact_cells,
    compact_passes,
    distinct_leaf_cells,
    fingerprint_cell,
    fingerprint_rules,
)
from repro.core import Rsg
from repro.core.cell import CellDefinition
from repro.geometry import NORTH, Vec2

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def make_leaf(name, seed=7, boxes=12):
    rng = random.Random(seed)
    cell = CellDefinition(name)
    for _ in range(boxes):
        x = rng.randrange(0, 80, 2)
        y = rng.randrange(0, 40, 2)
        cell.add_box(
            rng.choice(["diff", "poly", "metal1"]),
            x, y, x + rng.randrange(2, 8), y + rng.randrange(2, 8),
        )
    return cell


def layer_multiset(cell):
    return Counter(cell.flatten())


class TestFingerprints:
    def test_same_content_different_name_same_fingerprint(self):
        assert fingerprint_cell(make_leaf("a")) == fingerprint_cell(make_leaf("b"))

    def test_geometry_change_changes_fingerprint(self):
        changed = make_leaf("a")
        changed.add_box("metal1", 0, 0, 2, 2)
        assert fingerprint_cell(make_leaf("a")) != fingerprint_cell(changed)

    def test_rules_fingerprint_ignores_name_not_content(self):
        renamed = TECH_A.scaled(1, 1, name="techA-renamed")
        assert fingerprint_rules(TECH_A) == fingerprint_rules(renamed)
        assert fingerprint_rules(TECH_A) != fingerprint_rules(TECH_B)

    def test_hierarchy_participates_in_fingerprint(self):
        leaf = make_leaf("leaf")
        parent_a = CellDefinition("p")
        parent_a.add_instance(leaf, Vec2(0, 0), NORTH)
        parent_b = CellDefinition("p")
        parent_b.add_instance(leaf, Vec2(4, 0), NORTH)
        assert fingerprint_cell(parent_a) != fingerprint_cell(parent_b)


class TestGeometryFingerprint:
    """``fingerprint_geometry`` hashes the layer names and the five int64
    columns as bytes: any change to a coordinate, a code or a name gives
    a new key, and the arrays' memory layout gives none."""

    @staticmethod
    def geometry(layers=("diff", "metal1"), codes=(0, 0, 1), **columns):
        import numpy as np

        from repro.compact import EdgeBoxes
        from repro.geometry.batch import BoxArray

        values = {"xmin": [0, 4, 8], "ymin": [0, 1, 2], "xmax": [2, 6, 10], "ymax": [5, 6, 7]}
        values.update(columns)
        return EdgeBoxes(layers, np.array(codes, dtype=np.int64), BoxArray(*(
            np.array(values[name], dtype=np.int64) for name in ("xmin", "ymin", "xmax", "ymax")
        )))

    def test_equal_content_equal_key(self):
        from repro.compact import fingerprint_geometry

        assert fingerprint_geometry(self.geometry()) == fingerprint_geometry(self.geometry())

    @pytest.mark.parametrize("column", ["xmin", "ymin", "xmax", "ymax"])
    def test_one_changed_coordinate_changes_the_key(self, column):
        from repro.compact import fingerprint_geometry

        base = self.geometry()
        values = getattr(base.arrays, column).tolist()
        values[1] += 1
        assert fingerprint_geometry(self.geometry(**{column: values})) != (
            fingerprint_geometry(base)
        )

    def test_one_changed_layer_code_changes_the_key(self):
        from repro.compact import fingerprint_geometry

        assert fingerprint_geometry(self.geometry(codes=(0, 1, 1))) != (
            fingerprint_geometry(self.geometry())
        )

    def test_one_changed_layer_name_changes_the_key(self):
        from repro.compact import fingerprint_geometry

        assert fingerprint_geometry(self.geometry(layers=("diff", "metal2"))) != (
            fingerprint_geometry(self.geometry())
        )

    def test_non_contiguous_columns_hash_as_their_content(self):
        import numpy as np

        from repro.compact import EdgeBoxes, fingerprint_geometry
        from repro.geometry.batch import BoxArray

        base = self.geometry()
        # Every other row of doubled columns, and big-endian copies.
        strided = EdgeBoxes(base.layers, np.repeat(base.codes, 2)[::2], BoxArray(*(
            np.repeat(getattr(base.arrays, name), 2)[::2]
            for name in ("xmin", "ymin", "xmax", "ymax")
        )))
        assert not strided.codes.flags.c_contiguous
        swapped = EdgeBoxes(base.layers, base.codes.astype(">i8"), BoxArray(*(
            getattr(base.arrays, name).astype(">i8")
            for name in ("xmin", "ymin", "xmax", "ymax")
        )))
        assert fingerprint_geometry(strided) == fingerprint_geometry(base)
        assert fingerprint_geometry(swapped) == fingerprint_geometry(base)


class TestFlatCompactionCache:
    def test_hit_on_identical_cell_readd(self):
        cache = CompactionCache()
        first, _ = compact_cell(make_leaf("one"), TECH_A, cache=cache)
        second, _ = compact_cell(make_leaf("two"), TECH_A, cache=cache)
        assert cache.cache_stats.hits == 1 and cache.cache_stats.misses == 1
        assert Counter(
            (b.layer, b.box) for b in first.boxes
        ) == Counter((b.layer, b.box) for b in second.boxes)

    def test_miss_and_distinct_result_on_rule_change(self):
        cache = CompactionCache()
        a, result_a = compact_cell(make_leaf("x"), TECH_A, cache=cache)
        b, result_b = compact_cell(make_leaf("x"), TECH_B, cache=cache)
        assert cache.cache_stats.hits == 0 and cache.cache_stats.misses == 2
        assert result_a.width_after != result_b.width_after or (
            Counter((box.layer, box.box) for box in a.boxes)
            != Counter((box.layer, box.box) for box in b.boxes)
        )

    @pytest.mark.parametrize(
        "option", [{"width_mode": "min"}, {"rubber_band": True}, {"axis": "y"}],
        ids=["width-mode", "rubber-band", "axis"],
    )
    def test_miss_on_option_change(self, option):
        """Each pass option is a field of the key: a plain pass and one
        with the option set are two misses."""
        cache = CompactionCache()
        compact_cell(make_leaf("x"), TECH_A, cache=cache)
        compact_cell(make_leaf("x"), TECH_A, cache=cache, **option)
        assert cache.cache_stats.hits == 0 and cache.cache_stats.misses == 2

    def test_cached_result_equals_uncached_oracle(self):
        cache = CompactionCache()
        compact_cell(make_leaf("x"), TECH_A, cache=cache)
        cached, cached_result = compact_cell(make_leaf("x"), TECH_A, cache=cache)
        plain, plain_result = compact_cell(make_leaf("x"), TECH_A)
        assert layer_multiset(cached) == layer_multiset(plain)
        assert cached_result.width_after == plain_result.width_after
        assert cached_result.layers == plain_result.layers

    def test_cached_value_is_isolated_from_caller_mutation(self):
        cache = CompactionCache()
        _, result = compact_cell(make_leaf("x"), TECH_A, cache=cache)
        result.layers.clear()  # vandalise the returned copy
        _, again = compact_cell(make_leaf("x"), TECH_A, cache=cache)
        assert again.layers  # the cache kept its own copy


class TestLeafCellCache:
    @staticmethod
    def workspace(gap=8, pitch=14):
        rsg = Rsg()
        cell = rsg.define_cell("A")
        cell.add_box("diff", 0, 0, 2, 10)
        cell.add_box("diff", gap, 0, gap + 2, 10)
        rsg.interface_by_example(
            "A", Vec2(0, 0), NORTH, "A", Vec2(pitch, 0), NORTH, index=1
        )
        return rsg

    @staticmethod
    def solve(rsg, cache, rules=TECH_A):
        compactor = LeafCellCompactor(rsg, rules)
        compactor.add_cell("A")
        compactor.add_interface("A", "A", 1)
        return compactor.solve(cache=cache)

    def test_hit_on_identical_resolve(self):
        cache = CompactionCache()
        first = self.solve(self.workspace(), cache)
        second = self.solve(self.workspace(), cache)
        assert cache.cache_stats.hits == 1 and cache.cache_stats.misses == 1
        assert first.pitches == second.pitches
        assert first.edge_positions == second.edge_positions

    def test_miss_on_rule_change(self):
        cache = CompactionCache()
        a = self.solve(self.workspace(), cache, rules=TECH_A)
        b = self.solve(self.workspace(), cache, rules=TECH_B)
        assert cache.cache_stats.hits == 0 and cache.cache_stats.misses == 2
        assert a.pitches != b.pitches  # diff spacing differs across techs

    def test_miss_on_interface_constraint_change(self):
        cache = CompactionCache()
        self.solve(self.workspace(pitch=14), cache)
        self.solve(self.workspace(pitch=20), cache)
        assert cache.cache_stats.hits == 0 and cache.cache_stats.misses == 2

    def test_key_snapshots_geometry_at_registration(self):
        """A workspace mutation between add_cell and solve must not
        poison the cache: the key describes the registered snapshot."""
        cache = CompactionCache()
        rsg = self.workspace()
        compactor = LeafCellCompactor(rsg, TECH_A)
        compactor.add_cell("A")
        compactor.add_interface("A", "A", 1)
        rsg.cells.lookup("A").add_box("diff", 30, 0, 32, 10)  # post-registration
        stale = compactor.solve(cache=cache)
        # A fresh compactor sees the mutated cell: different key, miss,
        # and a result that includes the third bar.
        fresh = LeafCellCompactor(rsg, TECH_A)
        fresh.add_cell("A")
        fresh.add_interface("A", "A", 1)
        current = fresh.solve(cache=cache)
        assert cache.cache_stats.misses == 2 and cache.cache_stats.hits == 0
        assert len(current.cells["A"].boxes) == 3
        assert len(stale.cells["A"].boxes) == 2


class TestImmutableEntries:
    """The cache hands out its stored entries without copying them, so
    every family's reader builds values of its own: changing what one
    read returned leaves the next read unchanged."""

    @staticmethod
    def columns_of(cell):
        _, codes, arrays = cell.own_columns()
        return [codes, arrays.xmin, arrays.ymin, arrays.xmax, arrays.ymax]

    def test_flat_read_is_unchanged_by_changing_the_previous_one(self):
        cache = CompactionCache()
        expected, expected_result = compact_cell(make_leaf("x"), TECH_A)
        for _ in range(2):
            cell, result = compact_cell(make_leaf("x"), TECH_A, cache=cache)
            assert [(b.layer, b.box) for b in cell.boxes] == [
                (b.layer, b.box) for b in expected.boxes
            ]
            assert (result.width_after, result.jog_before, str(result.stats)) == (
                expected_result.width_after, expected_result.jog_before,
                str(expected_result.stats),
            )
            cell.add_box("diff", 0, 0, 2, 10)
            result.width_after = -1
            result.layers.clear()
        assert cache.cache_stats.hits == 1

    def test_compact_cells_read_is_unchanged_by_changing_the_previous_one(self):
        cache = CompactionCache()
        items = [("x", make_leaf("x", boxes=2))]
        for _ in range(3):
            ((_, cell, result),) = compact_cells(items, TECH_A, cache=cache)
            assert len(cell.boxes) == 2
            cell.add_box("diff", 100, 0, 102, 10)
            result.width_after = -1
        ((_, cell, result),) = compact_cells(items, TECH_A, cache=cache)
        ((_, plain, plain_result),) = compact_cells(items, TECH_A)
        assert [(b.layer, b.box) for b in cell.boxes] == [
            (b.layer, b.box) for b in plain.boxes
        ]
        assert (result.width_after, result.jog_before, str(result.stats)) == (
            plain_result.width_after, plain_result.jog_before, str(plain_result.stats)
        )
        assert cache.cache_stats.hits == 3

    def test_leaf_cell_read_is_unchanged_by_changing_the_previous_one(self):
        cache = CompactionCache()
        expected = TestLeafCellCache.solve(TestLeafCellCache.workspace(), None)
        for _ in range(2):
            result = TestLeafCellCache.solve(TestLeafCellCache.workspace(), cache)
            assert result.pitches == expected.pitches
            assert result.edge_positions == expected.edge_positions
            assert [(b.layer, b.box) for b in result.cells["A"].boxes] == [
                (b.layer, b.box) for b in expected.cells["A"].boxes
            ]
            result.pitches.clear()
            result.edge_positions.clear()
            result.cells["A"].add_box("diff", 40, 0, 42, 10)
        assert cache.cache_stats.hits == 1

    def test_stored_columns_are_read_only(self, tmp_path):
        cache = CompactionCache(str(tmp_path))
        for _ in range(2):  # cold, then warm from memory
            cell, _ = compact_cell(make_leaf("x"), TECH_A, cache=cache)
            for column in self.columns_of(cell):
                assert not column.flags.writeable
            with pytest.raises(ValueError):
                cell.own_columns()[2].xmin[0] = 7

    def test_entry_promoted_from_disk_is_read_only(self, tmp_path):
        import numpy as np

        compact_cell(make_leaf("x"), TECH_A, cache=CompactionCache(str(tmp_path)))
        compact_cells([("x", make_leaf("x"))], TECH_A, cache=CompactionCache(str(tmp_path)))
        reader = CompactionCache(str(tmp_path))
        cell, _ = compact_cell(make_leaf("x"), TECH_A, cache=reader)
        ((_, leaf, _),) = compact_cells([("x", make_leaf("x"))], TECH_A, cache=reader)
        assert reader.cache_stats.disk_hits == 2
        for column in self.columns_of(cell) + self.columns_of(leaf):
            assert not column.flags.writeable
        arrays = [
            item for entry in reader._memory.values() for item in entry
            if isinstance(item, np.ndarray)
        ]
        assert len(arrays) == 10
        assert not any(array.flags.writeable for array in arrays)


class TestFormatVersion:
    """Keys carry the cached values' format, so an entry pickled by a
    build with another result shape is never found."""

    @staticmethod
    def layout():
        from repro.layout.database import flatten_cell

        return flatten_cell(make_leaf("x"))

    def test_token_change_changes_flat_key(self, monkeypatch):
        from repro.compact import cache as cache_module, compact_layout

        cache = CompactionCache()
        layout = self.layout()
        compact_layout(layout, TECH_A, cache=cache)
        compact_layout(layout, TECH_A, cache=cache)
        assert cache.cache_stats.hits == 1 and len(cache) == 1
        monkeypatch.setattr(cache_module, "FORMAT_VERSION", "another-format")
        compact_layout(layout, TECH_A, cache=cache)
        assert cache.cache_stats.misses == 2 and len(cache) == 2

    def test_entry_under_the_unversioned_key_is_a_miss(self):
        from repro.compact import EdgeBoxes, cache_key, compact_layout, fingerprint_geometry

        cache = CompactionCache()
        layout = self.layout()
        # The key an unversioned build used for the default options.
        old_key = cache_key(
            "flat",
            fingerprint_geometry(EdgeBoxes.from_pairs(
                [(layer, box) for layer, boxes in sorted(layout.layers.items()) for box in boxes]
            )),
            fingerprint_rules(TECH_A),
            "visibility", "preserve", False, "x", False, None, True, "",
        )
        cache.put(old_key, "stale object-era result")
        result = compact_layout(layout, TECH_A, cache=cache)
        assert result != "stale object-era result"
        assert cache.cache_stats.misses == 1 and cache.cache_stats.hits == 0
        assert result.layers == compact_layout(layout, TECH_A).layers

    def test_entry_under_the_previous_format_key_is_a_miss(self, tmp_path):
        """An on-disk entry written by the ``columns-3`` build (keyed by
        its per-box tuple fingerprint) is never read."""
        import pickle

        from repro.compact import cache_key, compact_layout

        layout = self.layout()
        parts = []
        for layer, boxes in sorted(layout.layers.items()):
            parts.append(layer)
            parts.extend((b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes)
        old_key = cache_key(
            "flat", "columns-3", cache_key(*parts), fingerprint_rules(TECH_A),
            "visibility", "preserve", False, "x", False, None, True,
        )
        (tmp_path / f"{old_key}.pkl").write_bytes(pickle.dumps("stale columns-3 entry"))
        cache = CompactionCache(str(tmp_path))
        result = compact_layout(layout, TECH_A, cache=cache)
        assert cache.cache_stats.misses == 1 and cache.cache_stats.hits == 0
        assert result.layers == compact_layout(layout, TECH_A).layers

    def test_token_change_changes_leaf_cell_key(self, monkeypatch):
        from repro.compact import PitchCost, cache as cache_module

        compactor = LeafCellCompactor(TestLeafCellCache.workspace(), TECH_A)
        compactor.add_cell("A")
        compactor.add_interface("A", "A", 1)
        key = compactor._cache_key(PitchCost())
        monkeypatch.setattr(cache_module, "FORMAT_VERSION", "another-format")
        assert compactor._cache_key(PitchCost()) != key

    def test_token_change_changes_pipeline_key(self, monkeypatch):
        from repro.compact import cache as cache_module

        cache = CompactionCache()
        compact_cells([("x", make_leaf("x"))], TECH_A, cache=cache)
        monkeypatch.setattr(cache_module, "FORMAT_VERSION", "another-format")
        compact_cells([("x", make_leaf("x"))], TECH_A, cache=cache)
        assert cache.cache_stats.hits == 0 and len(cache) == 2


class TestOnDiskCache:
    def test_round_trip_through_fresh_cache_instance(self, tmp_path):
        directory = tmp_path / "cache"
        writer = CompactionCache(str(directory))
        compact_cell(make_leaf("x"), TECH_A, cache=writer)
        assert writer.cache_stats.disk_hits == 0
        reader = CompactionCache(str(directory))
        cell, result = compact_cell(make_leaf("x"), TECH_A, cache=reader)
        assert reader.cache_stats.hits == 1 and reader.cache_stats.disk_hits == 1
        plain, _ = compact_cell(make_leaf("x"), TECH_A)
        assert layer_multiset(cell) == layer_multiset(plain)

    def test_survives_a_fresh_process(self, tmp_path):
        directory = tmp_path / "cache"
        script = (
            "import sys, random\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.compact import TECH_A, CompactionCache, compact_cell\n"
            "from repro.core.cell import CellDefinition\n"
            "rng = random.Random(7)\n"
            "cell = CellDefinition('x')\n"
            "for _ in range(12):\n"
            "    x = rng.randrange(0, 80, 2); y = rng.randrange(0, 40, 2)\n"
            "    cell.add_box(rng.choice(['diff', 'poly', 'metal1']),"
            " x, y, x + rng.randrange(2, 8), y + rng.randrange(2, 8))\n"
            f"compact_cell(cell, TECH_A, cache=CompactionCache({str(directory)!r}))\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)
        reader = CompactionCache(str(directory))
        compact_cell(make_leaf("anything"), TECH_A, cache=reader)
        assert reader.cache_stats.disk_hits == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        directory = tmp_path / "cache"
        writer = CompactionCache(str(directory))
        compact_cell(make_leaf("x"), TECH_A, cache=writer)
        for entry in directory.iterdir():
            entry.write_bytes(b"not a pickle")
        reader = CompactionCache(str(directory))
        cell, _ = compact_cell(make_leaf("x"), TECH_A, cache=reader)
        assert reader.cache_stats.misses == 1 and reader.cache_stats.hits == 0
        assert cell.boxes


class TestCompactCells:
    @staticmethod
    def batch():
        return [(f"cell{index}", make_leaf(f"cell{index}", seed=index)) for index in range(5)]

    def test_deterministic_ordering_with_cache_mix(self):
        cache = CompactionCache()
        compact_cells(self.batch()[:2], TECH_A, cache=cache)
        mixed = compact_cells(self.batch(), TECH_A, cache=cache)
        assert [name for name, _, _ in mixed] == [name for name, _ in self.batch()]
        assert cache.cache_stats.hits == 2

    def test_equals_compacting_each_cell_alone(self):
        """The batch is exactly one compaction per item, in order."""
        for (name, cell, result), (_, item) in zip(
            compact_cells(self.batch(), TECH_A), self.batch()
        ):
            alone, (alone_result,) = compact_passes(item, TECH_A, "x", name=item.name)
            assert cell.name == name
            assert layer_multiset(cell) == layer_multiset(alone)
            assert result.width_after == alone_result.width_after

    def test_cached_batch_equals_uncached_oracle(self):
        cache = CompactionCache()
        oracle = compact_cells(self.batch(), TECH_A, axes="xy")
        compact_cells(self.batch(), TECH_A, cache=cache, axes="xy")
        cached = compact_cells(self.batch(), TECH_A, cache=cache, axes="xy")
        assert cache.cache_stats.hits == 5
        for (_, cell_o, result_o), (_, cell_c, result_c) in zip(oracle, cached):
            assert layer_multiset(cell_o) == layer_multiset(cell_c)
            assert result_o.width_after == result_c.width_after

    def test_repeated_content_within_one_batch_hits(self):
        """A miss is written back before the next item is looked up."""
        cache = CompactionCache()
        items = [("a", make_leaf("a", seed=3)), ("b", make_leaf("b", seed=3))]
        results = compact_cells(items, TECH_A, cache=cache)
        assert (cache.cache_stats.hits, cache.cache_stats.misses) == (1, 1)
        assert [name for name, _, _ in results] == ["a", "b"]
        assert layer_multiset(results[0][1]) == layer_multiset(results[1][1])


class TestHierarchicalCompactor:
    @staticmethod
    def tiled(n=4, distinct=3):
        leaves = [make_leaf(f"leaf{k}", seed=k) for k in range(distinct)]
        top = CellDefinition("top")
        for i in range(n):
            for j in range(n):
                top.add_instance(leaves[(i + j) % distinct], Vec2(i * 100, j * 50))
        return top

    def test_distinct_leaf_collection(self):
        top = self.tiled()
        assert [leaf.name for leaf in distinct_leaf_cells(top)] == [
            "leaf0", "leaf1", "leaf2",
        ]

    def test_cached_path_equals_uncached_oracle(self):
        cache = CompactionCache()
        oracle = HierarchicalCompactor(TECH_A).compact(self.tiled())
        warm = HierarchicalCompactor(TECH_A, cache=cache)
        warm.compact(self.tiled())
        cached = warm.compact(self.tiled())
        assert layer_multiset(cached) == layer_multiset(oracle)
        assert warm.last_report.cache_hits == 3
        assert warm.last_report.cache_misses == 0

    def test_repeat_run_is_deterministic(self):
        first = HierarchicalCompactor(TECH_A).compact(self.tiled())
        second = HierarchicalCompactor(TECH_A).compact(self.tiled())
        assert list(first.flatten()) == list(second.flatten())

    def test_name_collision_keeps_both_contents(self):
        """Distinct-content leaves sharing a name are compacted apart."""
        top = CellDefinition("top")
        top.add_instance(make_leaf("same", seed=1), Vec2(0, 0), NORTH)
        top.add_instance(make_leaf("same", seed=2), Vec2(300, 0), NORTH)
        compactor = HierarchicalCompactor(TECH_A)
        compactor.compact(top)
        report = compactor.last_report
        assert report.unique_contents == 2

    def test_content_dedup_compacts_once(self):
        """Same-content leaves under different names share one solve."""
        top = CellDefinition("top")
        top.add_instance(make_leaf("a", seed=3), Vec2(0, 0), NORTH)
        top.add_instance(make_leaf("b", seed=3), Vec2(200, 0), NORTH)
        compactor = HierarchicalCompactor(TECH_A)
        compactor.compact(top)
        assert compactor.last_report.distinct_cells == 2
        assert compactor.last_report.unique_contents == 1

    def test_ports_and_labels_survive(self):
        leaf = make_leaf("leaf")
        leaf.add_port("in", 0, 0, "metal1")
        leaf.add_label("note", 1, 1)
        top = CellDefinition("top")
        top.add_instance(leaf, Vec2(0, 0), NORTH, name="u0")
        compacted = HierarchicalCompactor(TECH_A).compact(top)
        assert [port.name for port in compacted.flatten_ports()] == ["u0/in"]
        assert [label.text for label in compacted.flatten_labels()] == ["note"]

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            HierarchicalCompactor(TECH_A, axes="z")

    def test_report_counts(self):
        compactor = HierarchicalCompactor(TECH_A)
        compactor.compact(self.tiled(n=4, distinct=3))
        report = compactor.last_report
        assert report.instance_count == 16
        assert report.distinct_cells == 3
        assert "3 distinct leaf cell(s)" in report.summary()

    def test_report_dict_fields(self):
        """The report is counts and cache traffic only."""
        compactor = HierarchicalCompactor(TECH_A, cache=CompactionCache())
        compactor.compact(self.tiled())
        report = compactor.last_report.to_dict()
        assert set(report) == {
            "distinct_cells", "unique_contents", "instance_count",
            "cache_hits", "cache_misses", "cache_stats", "summary",
        }
        assert report["summary"] == compactor.last_report.summary()
        assert "jobs" not in report["summary"]


class TestCacheStats:
    def test_counters_track_lookups_and_disk_traffic(self, tmp_path):
        directory = tmp_path / "cache"
        writer = CompactionCache(str(directory))
        compact_cell(make_leaf("x"), TECH_A, cache=writer)
        stats = writer.cache_stats
        assert stats.misses == 1 and stats.hits == 0
        assert stats.bytes_written > 0 and stats.bytes_read == 0

        reader = CompactionCache(str(directory))
        compact_cell(make_leaf("x"), TECH_A, cache=reader)
        stats = reader.cache_stats
        assert stats.hits == 1 and stats.disk_hits == 1
        assert stats.bytes_read == writer.cache_stats.bytes_written
        assert stats.hit_rate == 1.0

    def test_cache_stats_is_the_one_counter_surface(self):
        cache = CompactionCache()
        compact_cell(make_leaf("x"), TECH_A, cache=cache)
        assert cache.cache_stats.misses == 1
        for name in ("hits", "misses", "disk_hits"):
            assert not hasattr(cache, name)

    def test_hit_rate_is_zero_when_idle(self):
        from repro.compact import CacheStats

        assert CacheStats().hit_rate == 0.0
        assert CacheStats().lookups == 0

    def test_merge_accumulates(self):
        from repro.compact import CacheStats

        total = CacheStats(hits=1, misses=2, bytes_read=10)
        total.merge(CacheStats(hits=3, disk_hits=1, bytes_written=5, locks_broken=1))
        assert total.to_dict() == {
            "hits": 4,
            "misses": 2,
            "disk_hits": 1,
            "bytes_read": 10,
            "bytes_written": 5,
            "locks_broken": 1,
            "write_errors": 0,
        }

    def test_diff_returns_the_delta(self):
        from repro.compact import CacheStats

        earlier = CacheStats(hits=1, misses=2, bytes_read=10)
        later = CacheStats(hits=4, misses=2, bytes_read=25, write_errors=1)
        delta = later.diff(earlier)
        assert delta.to_dict() == {
            "hits": 3,
            "misses": 0,
            "disk_hits": 0,
            "bytes_read": 15,
            "bytes_written": 0,
            "locks_broken": 0,
            "write_errors": 1,
        }

    def test_pipeline_report_carries_cache_stats(self):
        top = CellDefinition("top")
        top.add_instance(make_leaf("a", seed=3), Vec2(0, 0), NORTH)
        top.add_instance(make_leaf("b", seed=3), Vec2(200, 0), NORTH)
        compactor = HierarchicalCompactor(TECH_A, cache=CompactionCache())
        compactor.compact(top)
        report = compactor.last_report.to_dict()
        assert report["cache_stats"]["misses"] == report["cache_misses"] == 1
        assert set(report["cache_stats"]) == {
            "hits", "misses", "disk_hits", "bytes_read", "bytes_written",
            "locks_broken", "write_errors",
        }
        # A second run through the same cache reports its own traffic,
        # not the cache's lifetime counters.
        compactor.compact(top)
        report = compactor.last_report.to_dict()
        assert report["cache_stats"]["hits"] == report["cache_hits"] == 1
        assert report["cache_stats"]["misses"] == report["cache_misses"] == 0


class TestConcurrentWrites:
    """The multi-process safety satellite: lock files guard the store."""

    def test_held_lock_skips_the_disk_write(self, tmp_path):
        directory = tmp_path / "cache"
        cache = CompactionCache(str(directory))
        cache.put("somekey", {"value": 1})
        path = directory / "somekey.pkl"
        written = path.read_bytes()

        # another process is mid-write: its lock makes us skip disk
        lock = directory / "somekey.lock"
        lock.touch()
        cache.put("somekey", {"value": 2})
        assert path.read_bytes() == written  # disk untouched
        assert cache.get("somekey") == {"value": 2}  # memory updated
        lock.unlink()

    def test_stale_lock_is_broken(self, tmp_path):
        import os

        directory = tmp_path / "cache"
        cache = CompactionCache(str(directory))
        lock = directory / "somekey.lock"
        lock.touch()
        ancient = 1_000_000.0
        os.utime(lock, (ancient, ancient))
        cache.put("somekey", {"value": 3})
        assert not lock.exists()
        assert cache.cache_stats.locks_broken == 1
        assert CompactionCache(str(directory)).get("somekey") == {"value": 3}

    def test_stale_window_is_configurable(self, tmp_path):
        import os
        import time

        directory = tmp_path / "cache"
        assert CompactionCache(str(directory)).stale_lock_seconds == 30.0
        cache = CompactionCache(str(directory), stale_lock_seconds=0.1)
        assert cache.stale_lock_seconds == 0.1
        lock = directory / "somekey.lock"
        lock.touch()
        recent = time.time() - 1.0  # stale for 0.1s, fresh for 30s
        os.utime(lock, (recent, recent))
        cache.put("somekey", {"value": 4})
        assert not lock.exists()
        assert cache.cache_stats.locks_broken == 1

    def test_stale_window_ignores_the_environment(self, tmp_path, monkeypatch):
        """Only the constructor sets the window: a lock a second old is
        fresh under the 30 s default whatever the environment says."""
        import os
        import time

        monkeypatch.setenv("REPRO_CACHE_STALE_LOCK_S", "0.1")
        directory = tmp_path / "cache"
        cache = CompactionCache(str(directory))
        assert cache.stale_lock_seconds == 30.0
        lock = directory / "somekey.lock"
        lock.touch()
        recent = time.time() - 1.0
        os.utime(lock, (recent, recent))
        cache.put("somekey", {"value": 5})
        assert lock.exists() and not (directory / "somekey.pkl").exists()
        assert cache.cache_stats.locks_broken == 0

    def test_many_processes_hammer_one_directory(self, tmp_path):
        """N processes write and read the same keys; nobody crashes and
        every surviving entry is intact."""
        directory = tmp_path / "cache"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {REPO_SRC!r})\n"
            "from repro.compact import CompactionCache\n"
            f"cache = CompactionCache({str(directory)!r})\n"
            "for round in range(20):\n"
            "    for key in ('alpha', 'beta', 'gamma'):\n"
            "        cache.put(key, {'key': key, 'payload': list(range(200))})\n"
            "        value = CompactionCache("
            f"{str(directory)!r}).get(key)\n"
            "        assert value is None or value['key'] == key\n"
        )
        processes = [
            subprocess.Popen([sys.executable, "-c", script])
            for _ in range(4)
        ]
        assert all(process.wait() == 0 for process in processes)
        reader = CompactionCache(str(directory))
        for key in ("alpha", "beta", "gamma"):
            assert reader.get(key)["key"] == key
        assert not list(Path(directory).glob("*.lock"))
        assert not list(Path(directory).glob("*.tmp*"))
