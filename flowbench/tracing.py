"""Layer spans recorded from outside the program.

The traced run wraps each layer's public functions at the name their
caller looks up (``repro.compact.flat.alignment_pairs``, not the
``repro.compact`` re-export) and restores them afterwards; the program's
source is never edited.  Spans live in memory with their parent and the
job they belong to, and are written out when the run ends.

A span is only recorded inside :meth:`Recorder.job`, so the output
checks that run after the timed phase are never traced.  A wrapped call
nested inside a span of the same name (``write_cif`` inside
``cif_text``) is not recorded twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _constraint_counts(counts: Counter, result: Any) -> None:
    """``compact_cell`` returns ``(cell, result)``; ``compact_layout`` a result."""
    outcome = result[1] if isinstance(result, tuple) else result
    counts["compact.constraints"] += outcome.constraint_count


def _relaxations(counts: Counter, stats: Any) -> None:
    counts["compact.solve_relaxations"] += stats.relaxations


def _align_pairs(counts: Counter, pairs: Any) -> None:
    counts["compact.align_pairs"] += len(pairs)


def _devices(counts: Counter, report: Any) -> None:
    counts["verify.devices"] += report.devices


def _lvs_rounds(counts: Counter, report: Any) -> None:
    counts["verify.lvs_rounds"] += report.rounds


#: span name -> [(module, attribute path, optional count hook)].  Each
#: entry is the name a caller in the flow looks up at call time.
LAYERS: List[Tuple[str, List[Tuple[str, str, Optional[Callable]]]]] = [
    ("lang.generate", [("repro.lang.interpreter", "Interpreter.run", None)]),
    ("layout.flatten", [
        ("repro.compact.flat", "flatten_cell", None),
        ("repro.layout.database", "flatten_cell", None),
    ]),
    ("layout.cif", [
        ("repro.cli", "write_cif", None),
        ("repro.service.jobs", "cif_text", None),
        ("repro.layout.cif", "cif_text", None),
    ]),
    ("compact.cell", [
        ("repro.cli", "compact_cell", _constraint_counts),
        ("repro.service.jobs", "compact_cell", _constraint_counts),
        ("repro.compact", "compact_layout", _constraint_counts),
    ]),
    ("compact.edges", [("repro.compact.flat", "build_edge_variables", None)]),
    ("compact.width", [("repro.compact.flat", "add_width_constraints", None)]),
    ("compact.constraints", [("repro.compact.flat", "visibility_constraints", None)]),
    ("compact.solve", [("repro.compact.flat", "solve_longest_path", _relaxations)]),
    ("compact.align", [
        ("repro.compact.flat", "alignment_pairs", _align_pairs),
        ("repro.compact.flat", "misalignment", None),
    ]),
    ("compact.rubberband", [("repro.compact.flat", "rubber_band_solve", None)]),
    ("compact.rebuild", [("repro.compact.flat", "rebuild_boxes", None)]),
    ("verify.cell", [("repro.verify", "verify_cell", _devices)]),
    ("verify.extract", [
        ("repro.verify.driver", "extract_netlist", None),
        ("repro.verify.driver", "extract_netlist_hier", None),
    ]),
    ("verify.lvs", [("repro.verify.driver", "compare_netlists", _lvs_rounds)]),
    ("verify.sim", [("repro.verify.driver", "simulate", None)]),
    ("verify.cellgraph", [
        ("repro.verify.cellgraph", "cell_graph_netlist", None),
        ("repro.verify.cellgraph", "multiplier_personality", None),
    ]),
    ("multiplier.evaluate", [("repro.multiplier.baughwooley", "multiply", None)]),
    ("service.submit", [("repro.service.client", "ServiceClient.submit", None)]),
    ("service.wait", [("repro.service.client", "ServiceClient.wait", None)]),
    ("service.result", [("repro.service.client", "ServiceClient.result", None)]),
]


class Recorder:
    """In-memory span store plus the wrappers that feed it.

    A span is ``[span_id, parent_id, job_id, name, start, end]``;
    ``calls`` counts every recorded span by name and ``counts`` holds
    the per-layer work counts the hooks read off return values.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, job_id: Any = None) -> List[Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = [
                len(self.spans),
                parent[0] if parent else None,
                parent[2] if parent else job_id,
                name,
                time.perf_counter(),
                None,
            ]
            self.spans.append(span)
            self.calls[name] += 1
        stack.append(span)
        return span

    def _close(self, span: List[Any]) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def job(self, job_id: Any) -> Iterator[None]:
        """Root span of one job; wrapped calls inside it are recorded."""
        span = self._open("job", job_id)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, owner: Any, attribute: str, name: str,
              hook: Optional[Callable]) -> None:
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(recorder._local, "stack", None)
            if not stack or any(open_span[3] == name for open_span in stack):
                return original(*args, **kwargs)
            span = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(span)
            if hook is not None:
                with recorder._lock:
                    hook(recorder.counts, result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every layer function listed in :data:`LAYERS`."""
        for name, targets in LAYERS:
            for module_name, path, hook in targets:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                self._wrap(owner, attribute, name, hook)

    def uninstall(self) -> None:
        """Restore every wrapped function, last wrapped first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- summaries ---------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Total seconds of the spans of each name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[3]] += span[5] - span[4]
        return dict(totals)

    def unattributed(self) -> Dict[str, float]:
        """Per parent span name: its time not covered by child spans."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                covered[span[1]] += span[5] - span[4]
        parents = {self.spans[index][3] for index in covered}
        residual: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[3] in parents:
                residual[span[3]] += (span[5] - span[4]) - covered[span[0]]
        return dict(residual)

    def records(self) -> List[Dict[str, Any]]:
        """Spans as JSON-ready dicts (times relative to the first span)."""
        origin = self.spans[0][4] if self.spans else 0.0
        return [
            {
                "id": span[0], "parent": span[1], "job": span[2],
                "name": span[3], "start_s": span[4] - origin,
                "duration_s": span[5] - span[4],
            }
            for span in self.spans
        ]
