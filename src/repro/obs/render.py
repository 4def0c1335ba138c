"""Trace artifact codec (JSONL) and the indented-tree renderer.

Completed jobs persist their span tree as a ``trace.jsonl`` artifact —
one :meth:`repro.obs.trace.Span.to_dict` record per line — which is
digest-verified like every other artifact.  ``repro trace
<fingerprint>`` downloads it and renders the tree shown here.

Spans whose parent id is absent from the artifact are treated as roots:
a deduplicated resubmission legitimately attaches a second client span
tree to a job whose worker spans were recorded earlier, so the renderer
tolerates a forest without complaint.

Every span with children closes its child list with an
``(unattributed)`` line: the part of its interval that no child
covers, so a stage's time accounts for itself (``repro <par>
--timings`` prints the same tree for a local run).
"""

import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.obs.trace import Span

__all__ = ["render_trace", "spans_from_jsonl", "spans_to_jsonl"]


def spans_to_jsonl(spans: Iterable[Span]) -> bytes:
    """Serialise spans as UTF-8 JSONL, one record per line."""
    lines = [
        json.dumps(s.to_dict(), sort_keys=True, separators=(",", ":"))
        for s in spans
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def spans_from_jsonl(payload: bytes) -> List[Span]:
    """Parse a JSONL trace artifact back into spans (blank lines skipped)."""
    spans: List[Span] = []
    for line in payload.decode("utf-8").splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


_SHOWN_ATTRIBUTES = (
    "cell",
    "cached",
    "passes",
    "relaxations",
    "variables",
    "constraints",
    "boxes",
    "nodes",
    "rounds",
    "retries",
    "state",
    "deduplicated",
    "stage",
    "worker_pid",
    "http_status",
    "gc_s",
    "modules",
)


def _attribute_value(value: Any) -> str:
    """One attribute value; floats in fixed point (``0.000050``, never
    ``5e-05``), so a row reads the same at every magnitude."""
    return f"{value:f}" if isinstance(value, float) else f"{value}"


def _attribute_text(attributes: Dict[str, Any]) -> str:
    """Render the whitelisted attributes as a compact ``k=v`` suffix."""
    shown = [
        f"{key}={_attribute_value(attributes[key])}"
        for key in _SHOWN_ATTRIBUTES
        if key in attributes
    ]
    return f"  [{' '.join(shown)}]" if shown else ""


def _unattributed_s(parent: Span, kids: Sequence[Span]) -> float:
    """The part of ``parent``'s interval that no child interval covers.

    ``kids`` are sorted by start.  Each child is clipped to the parent
    and overlapping children count once, so a child that outlives its
    parent (``worker.execute`` under the ``client.request`` that
    submitted it) never drives the figure negative.
    """
    end = parent.start_s + parent.duration_s
    covered, reach = 0.0, parent.start_s
    for kid in kids:
        low = max(kid.start_s, reach)
        high = min(kid.start_s + kid.duration_s, end)
        if high > low:
            covered += high - low
            reach = high
    return max(0.0, parent.duration_s - covered)


def render_trace(spans: Sequence[Span]) -> str:
    """Render spans as an indented tree with millisecond durations.

    Children sort by wall-clock start; any span whose parent is not in
    ``spans`` renders as a root.  A span with children ends its list
    with an ``(unattributed)`` line at child indent (see
    :func:`_unattributed_s`).  Returns a newline-joined string.
    """
    if not spans:
        return "(empty trace)"
    by_id = {s.span_id: s for s in spans}
    children: Dict[str, List[Span]] = {}
    roots: List[Span] = []
    for s in spans:
        if s.parent_id and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    for kids in children.values():
        kids.sort(key=lambda s: (s.start_s, s.span_id))
    roots.sort(key=lambda s: (s.start_s, s.span_id))

    lines: List[str] = [f"trace {spans[0].trace_id}  ({len(spans)} spans)"]

    def walk(node: Span, depth: int) -> None:
        status = "" if node.status == "ok" else f"  !{node.status}"
        lines.append(
            f"{'  ' * depth}{node.name}  {node.duration_s * 1000.0:.2f} ms"
            f"{status}{_attribute_text(node.attributes)}"
        )
        kids = children.get(node.span_id, ())
        for child in kids:
            walk(child, depth + 1)
        if kids:
            lines.append(
                f"{'  ' * (depth + 1)}(unattributed)"
                f"  {_unattributed_s(node, kids) * 1000.0:.2f} ms"
            )

    for root in roots:
        walk(root, 1)
    return "\n".join(lines)
