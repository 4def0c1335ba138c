"""Trace artifact codec (JSONL) and the indented-tree renderer.

Completed jobs persist their span tree as a ``trace.jsonl`` artifact —
one :meth:`repro.obs.trace.Span.to_dict` record per line — which is
digest-verified like every other artifact.  ``repro trace
<fingerprint>`` downloads it and renders the tree shown here.

Spans whose parent id is absent from the artifact are treated as roots:
a deduplicated resubmission legitimately attaches a second client span
tree to a job whose worker spans were recorded earlier, so the renderer
tolerates a forest without complaint.
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
    "backend",
    "passes",
    "relaxations",
    "variables",
    "retries",
    "state",
    "deduplicated",
    "stage",
    "worker_pid",
    "http_status",
)


def _attribute_text(attributes: Dict[str, Any]) -> str:
    """Render the whitelisted attributes as a compact ``k=v`` suffix."""
    shown = [
        f"{key}={attributes[key]}" for key in _SHOWN_ATTRIBUTES if key in attributes
    ]
    return f"  [{' '.join(shown)}]" if shown else ""


def render_trace(spans: Sequence[Span]) -> str:
    """Render spans as an indented tree with millisecond durations.

    Children sort by wall-clock start; any span whose parent is not in
    ``spans`` renders as a root.  Returns a newline-joined string.
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
        for child in children.get(node.span_id, ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 1)
    return "\n".join(lines)
