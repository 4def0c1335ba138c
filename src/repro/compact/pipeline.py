"""Compact-once / stamp-many: the hierarchical generation pipeline.

A generated array is a handful of distinct leaf cells stamped thousands
of times, so compaction cost should scale with *distinct cells*, not
*instances*.  This module provides the two pieces the flat driver
lacks:

* :func:`compact_cells` — a batch that compacts several independent
  cells, optionally through a :class:`~repro.compact.cache.CompactionCache`
  (results keyed by content, so identical cells are solved once per run
  and — with an on-disk cache — once *ever*).  Results come back in
  input order.
* :class:`HierarchicalCompactor` — the compact-once/stamp-many driver:
  collect the distinct leaf definitions under a cell, compact each
  exactly once (deduplicated by content fingerprint), and rebuild the
  hierarchy with every instance re-stamped at its original placement.
  The stamped rebuild pairs with the array-aware flatten memo in
  :class:`~repro.core.cell.CellDefinition`, so downstream flattening is
  O(instances) translations.

``cache=None`` is the uncached oracle: the cached path must produce
identical geometry (property-tested in ``tests/test_pipeline_cache.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cell import CellDefinition
from ..obs import trace as obs_trace
from . import cache as cache_module
from .cache import (
    CompactionCache,
    cache_key,
    fingerprint_cell,
    fingerprint_rules,
)
from .flat import CompactionResult, _entry, _record, _result, compact_passes
from .rules import DesignRules

__all__ = [
    "HierarchicalCompactor",
    "PipelineReport",
    "compact_cells",
    "distinct_leaf_cells",
]


def compact_cells(
    items: Sequence[Tuple[str, CellDefinition]],
    rules: DesignRules,
    cache: Optional[CompactionCache] = None,
    axes: str = "x",
) -> List[Tuple[str, CellDefinition, CompactionResult]]:
    """Compact independent ``(name, cell)`` pairs, each at most once.

    One axis pass per letter of ``axes``; each compacted cell keeps its
    name.  Results come back in input order, and misses are written back
    to the cache so the next run (or the next batch) hits.  An entry
    holds the leaf's solved columns and last pass record; each hit
    builds its own cell and result.  Each item runs in a
    ``compact.leaf`` span whose ``cell`` and ``cached`` attributes say
    which leaf it was and whether the cache answered.
    """
    fingerprint = fingerprint_cell if cache is not None else lambda cell: ""
    return _compact_leaves(
        [(name, cell, fingerprint(cell)) for name, cell in items], rules, cache, axes
    )


def _compact_leaves(
    items: Sequence[Tuple[str, CellDefinition, str]],
    rules: DesignRules,
    cache: Optional[CompactionCache],
    axes: str,
) -> List[Tuple[str, CellDefinition, CompactionResult]]:
    """:func:`compact_cells` over ``(name, cell, fingerprint)`` triples
    (the fingerprint is read only with a cache)."""
    rules_print = fingerprint_rules(rules) if cache is not None else ""
    results: List[Tuple[str, CellDefinition, CompactionResult]] = []
    for name, cell, fingerprint in items:
        with obs_trace.span("compact.leaf", cell=name) as leaf:
            key, entry = "", None
            if cache is not None:
                key = cache_key(
                    "pipeline", cache_module.FORMAT_VERSION, fingerprint, rules_print, axes
                )
                entry = cache.get(key)
            leaf.set(cached=entry is not None)
            if entry is None:
                compacted, passes = compact_passes(cell, rules, axes, name=cell.name)
                result = passes[-1]
                if cache is not None:
                    cache.put(key, _entry(_record(result), *compacted.own_columns()))
            else:
                result, columns = _result(entry)
                compacted = CellDefinition.from_columns(
                    cell.name, columns.layers, columns.codes, columns.arrays
                )
        results.append((name, compacted, result))
    return results


def distinct_leaf_cells(cell: CellDefinition) -> List[CellDefinition]:
    """Distinct leaf definitions under ``cell``, in first-encounter order.

    A *leaf* is a definition with boxes and no sub-instances — the
    sample-library cells the generators stamp.  Distinctness is by
    definition object; content-level deduplication happens in the
    compaction batch via fingerprints.
    """
    seen: Dict[int, bool] = {}
    leaves: List[CellDefinition] = []

    def walk(definition: CellDefinition) -> None:
        if id(definition) in seen:
            return
        seen[id(definition)] = True
        if definition.boxes and not definition.instances:
            leaves.append(definition)
            return
        for instance in definition.instances:
            walk(instance.definition)

    walk(cell)
    return leaves


@dataclass
class PipelineReport:
    """What a :class:`HierarchicalCompactor` run did, in numbers."""

    distinct_cells: int = 0
    unique_contents: int = 0
    instance_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: the cache traffic this run caused (None when uncached)
    cache_stats: Optional[Dict[str, int]] = None

    def summary(self) -> str:
        """One printable line for the CLI."""
        return (
            f"hierarchical compaction: {self.distinct_cells} distinct leaf"
            f" cell(s) ({self.unique_contents} unique) over"
            f" {self.instance_count} instance(s),"
            f" {self.cache_hits} cache hit(s), {self.cache_misses} miss(es)"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the service stores this per job artifact)."""
        return {
            "distinct_cells": self.distinct_cells,
            "unique_contents": self.unique_contents,
            "instance_count": self.instance_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stats": self.cache_stats,
            "summary": self.summary(),
        }


def _copy_of(definition: CellDefinition, columns) -> CellDefinition:
    """A new cell named as ``definition``, with the boxes of ``columns``
    (as :meth:`~repro.core.cell.CellDefinition.own_columns` gives them)
    and ``definition``'s ports and labels; no instances."""
    copy = CellDefinition.from_columns(definition.name, *columns)
    for port in definition.ports:
        copy.add_port(port.name, port.position.x, port.position.y, port.layer)
    for label in definition.labels:
        copy.add_label(label.text, label.position.x, label.position.y)
    return copy


class HierarchicalCompactor:
    """Compact each distinct leaf cell once, then re-stamp every instance.

    The flat compactor (:func:`~repro.compact.flat.compact_cell`)
    flattens the whole hierarchy and solves one giant system —
    instance-proportional work.  This driver exploits the leaf-cell
    property instead (all instances of a cell share one geometry, paper
    section 6.1): leaves are compacted independently — deduplicated by
    content and optionally cached — and the hierarchy is rebuilt with
    instances stamped at their original placements, so the expensive
    work is O(distinct cells) and the rebuild is O(instances).  Leaf
    ports and labels are carried over verbatim; composite cells keep
    their own geometry untouched.  Placements are
    *not* re-spaced: this is per-leaf compaction under the original
    pitches, not a substitute for flat compaction of the assembly.
    """

    def __init__(
        self,
        rules: DesignRules,
        axes: str = "x",
        cache: Optional[CompactionCache] = None,
    ) -> None:
        """``axes`` is a sequence of flat-compaction pass letters applied
        to each leaf (``"x"``, ``"y"``, ``"xy"``, ``"yx"``); ``cache``
        memoises the leaf compactions of :func:`compact_cells`."""
        if not axes or any(axis not in "xy" for axis in axes):
            raise ValueError(f"axes must combine 'x' and 'y', not {axes!r}")
        self.rules = rules
        self.axes = axes
        self.cache = cache
        self.last_report: Optional[PipelineReport] = None

    def compact(self, cell: CellDefinition) -> CellDefinition:
        """Return a rebuilt ``cell`` with every distinct leaf compacted.

        Leaves with identical content share one compaction (and one
        cache entry); the rebuilt hierarchy re-stamps each instance at
        its original location/orientation.  ``last_report`` records the
        run's statistics.
        """
        leaves = distinct_leaf_cells(cell)
        report = PipelineReport(
            distinct_cells=len(leaves),
            instance_count=cell.count_instances(recursive=True),
        )
        if self.cache is not None:
            before = replace(self.cache.cache_stats)

        # Deduplicate by content so a run compacts each unique geometry
        # exactly once even without a cache.
        by_content: Dict[str, List[CellDefinition]] = {}
        for leaf in leaves:
            by_content.setdefault(fingerprint_cell(leaf), []).append(leaf)
        report.unique_contents = len(by_content)

        compacted_list = _compact_leaves(
            [(group[0].name, group[0], content) for content, group in by_content.items()],
            self.rules, self.cache, self.axes,
        )
        # Definition id -> its rebuilt copy, the compacted leaves first.
        rebuilt: Dict[int, CellDefinition] = {}
        for group, (_, compacted, _) in zip(by_content.values(), compacted_list):
            columns = compacted.own_columns()
            for leaf in group:
                rebuilt[id(leaf)] = _copy_of(leaf, columns)

        def rebuild(definition: CellDefinition) -> CellDefinition:
            copy = rebuilt.get(id(definition))
            if copy is None:
                copy = rebuilt[id(definition)] = _copy_of(
                    definition, definition.own_columns()
                )
                for instance in definition.instances:
                    copy.add_instance(
                        rebuild(instance.definition),
                        instance.location,
                        instance.orientation,
                        instance.name,
                    )
            return copy

        result = rebuild(cell)
        if self.cache is not None:
            run_stats = self.cache.cache_stats.diff(before)
            report.cache_hits = run_stats.hits
            report.cache_misses = run_stats.misses
            report.cache_stats = run_stats.to_dict()
        self.last_report = report
        return result
