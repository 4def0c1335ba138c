"""Hierarchical trace spans with cross-process propagation.

A :class:`Span` is one timed operation: a name, a trace id shared by
every span in the same request, its own span id, the span id of its
parent (or ``None`` for a root), a wall-clock start, a monotonic
duration, free-form attributes, and a status.  Spans are produced by a
:class:`Tracer`, which keeps a per-thread stack so nested ``with
span(...)`` blocks parent correctly, and a process-local list of
finished spans that the service drains into the job ledger.

Propagation across the client → HTTP → store → worker boundary uses a
token of the form ``"<trace_id>:<span_id>"`` carried in the
:data:`TRACE_HEADER` request header and in a column of the job row, so
a worker process can root its spans under the submitting client's.

The module-level helpers (:func:`span`, :func:`stage_span`,
:func:`annotate`) act on the *activated* tracer.  When no tracer is
activated they return a shared no-op object — a dict lookup plus an
identity call — so instrumented hot paths cost effectively nothing
when tracing is off.  The
``REPRO_TRACE`` environment variable only steers the service's policy
(:func:`service_enabled`); the hooks themselves key off activation,
never off the environment.

While a tracer is activated, one ``gc.callbacks`` hook times the cyclic
collector, and :func:`stage_span` stamps a stage span with the
collector's seconds and collection count inside it (``gc_s``,
``gc_collections``).  The counts are process-wide: a collection that
another thread triggers during the stage counts too.
"""

import contextlib
import gc
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "TRACE_HEADER",
    "Span",
    "Tracer",
    "activated",
    "active",
    "annotate",
    "is_enabled",
    "new_id",
    "parse_token",
    "propagation_token",
    "service_enabled",
    "span",
    "stage_span",
]

TRACE_HEADER = "X-Repro-Trace-Id"


def new_id(nbytes: int = 8) -> str:
    """Return a random lowercase-hex identifier of ``2 * nbytes`` chars."""
    return os.urandom(nbytes).hex()


@dataclass
class Span:
    """One timed operation inside a trace tree."""

    name: str
    trace_id: str
    span_id: str = field(default_factory=new_id)
    parent_id: Optional[str] = None
    start_s: float = 0.0
    duration_s: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    _t0: float = field(default=0.0, repr=False, compare=False)

    def begin(self, at: Optional[float] = None) -> "Span":
        """Stamp the wall-clock start and the monotonic reference point.

        ``at`` backdates the start to an earlier ``time.perf_counter()``
        mark, for work that ran before the tracer existed.
        """
        now = time.perf_counter()
        self._t0 = now if at is None else at
        self.start_s = time.time() - (now - self._t0)
        return self

    def finish(self, status: Optional[str] = None) -> "Span":
        """Stamp the monotonic duration and optionally override status."""
        self.duration_s = time.perf_counter() - self._t0
        if status is not None:
            self.status = status
        return self

    def set(self, **attributes: Any) -> "Span":
        """Attach structured attributes to the span; returns ``self``."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serialisable record persisted in trace artifacts."""
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.attributes:
            record["attributes"] = self.attributes
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        """Rebuild a span from a :meth:`to_dict` record."""
        return cls(
            name=record["name"],
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            start_s=record.get("start_s", 0.0),
            duration_s=record.get("duration_s", 0.0),
            attributes=dict(record.get("attributes", {})),
            status=record.get("status", "ok"),
        )


class Tracer:
    """Process-local span collector with per-thread parenting stacks."""

    def __init__(self, trace_id: Optional[str] = None):
        """Create a tracer; a fresh trace id is minted when none is given."""
        self.trace_id = trace_id or new_id()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """Return the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent_id: Optional[str] = None, **attributes: Any) -> Span:
        """Open a span without entering it as a context manager.

        The caller owns the span and must pass it to :meth:`add` (after
        ``finish()``) for it to be collected.  Used for manually-managed
        root spans such as the worker's synthesized ``store.claim``.
        """
        current = self.current()
        if parent_id is None and current is not None:
            parent_id = current.span_id
        opened = Span(name=name, trace_id=self.trace_id, parent_id=parent_id)
        if attributes:
            opened.set(**attributes)
        return opened.begin()

    def add(self, finished_span: Span) -> None:
        """Collect a finished span produced by :meth:`open`."""
        with self._lock:
            self._finished.append(finished_span)

    @contextlib.contextmanager
    def span(
        self, name: str, parent_id: Optional[str] = None, **attributes: Any
    ) -> Iterator[Span]:
        """Context manager: open, push, time, pop, and collect a span."""
        opened = self.open(name, parent_id=parent_id, **attributes)
        stack = self._stack()
        stack.append(opened)
        try:
            yield opened
            opened.finish()
        except BaseException:
            opened.finish(status="error")
            raise
        finally:
            stack.pop()
            self.add(opened)

    def finished(self) -> List[Span]:
        """Return a snapshot of the collected spans (oldest first)."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> List[Span]:
        """Return the collected spans and clear the collector."""
        with self._lock:
            drained, self._finished = self._finished, []
        return drained


class _NoopSpan:
    """Shared do-nothing span handed out when tracing is not activated."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        """Enter the no-op context; returns itself."""
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        """Exit without suppressing exceptions."""
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        """Discard attributes; returns itself."""
        return self


_NOOP = _NoopSpan()
#: the ambient tracer: the newest live activation's, or ``None``
_ACTIVE: Optional[Tracer] = None
#: one ``[tracer]`` entry per live activation, oldest first; changed
#: only under ``_ACTIVATIONS_LOCK``
_ACTIVATIONS: List[List[Tracer]] = []
_ACTIVATIONS_LOCK = threading.Lock()


def active() -> Optional[Tracer]:
    """Return the currently activated tracer, or ``None``."""
    return _ACTIVE


def is_enabled() -> bool:
    """True when a tracer is activated in this process."""
    return _ACTIVE is not None


#: [collector seconds, collections, start of the running collection]
#: while a tracer is activated; :func:`stage_span` reads differences
_COLLECTOR: List[Any] = [0.0, 0, None]


def _time_collector(phase: str, info: Dict[str, Any]) -> None:
    """The ``gc.callbacks`` hook: add up the collector's time and runs."""
    if phase == "start":
        _COLLECTOR[2] = time.perf_counter()
    elif _COLLECTOR[2] is not None:
        _COLLECTOR[0] += time.perf_counter() - _COLLECTOR[2]
        _COLLECTOR[1] += 1
        _COLLECTOR[2] = None


@contextlib.contextmanager
def activated(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the process-wide ambient tracer for the block.

    Activations may overlap across threads and need not end in the
    order they began: each one is an entry in a shared list, and on
    exit it removes its own entry and makes the newest remaining one
    ambient (``None`` when none is left).  The collector hook stays
    installed while any activation is live.
    """
    global _ACTIVE
    entry = [tracer]
    with _ACTIVATIONS_LOCK:
        if not _ACTIVATIONS and _time_collector not in gc.callbacks:
            gc.callbacks.append(_time_collector)
        _ACTIVATIONS.append(entry)
        _ACTIVE = tracer
    try:
        yield tracer
    finally:
        with _ACTIVATIONS_LOCK:
            _ACTIVATIONS[:] = [live for live in _ACTIVATIONS if live is not entry]
            _ACTIVE = _ACTIVATIONS[-1][0] if _ACTIVATIONS else None
            if not _ACTIVATIONS and _time_collector in gc.callbacks:
                gc.callbacks.remove(_time_collector)


def span(name: str, **attributes: Any):
    """Open an ambient span, or a shared no-op when tracing is off.

    This is the hook instrumented code calls.  Disabled cost is one
    global read and one identity return — no allocation, no clock read.
    """
    if _ACTIVE is None:
        return _NOOP
    return _ACTIVE.span(name, **attributes)


@contextlib.contextmanager
def stage_span(name: str, **attributes: Any) -> Iterator[Any]:
    """:func:`span` stamped with the cyclic collector's work inside it.

    On close the span gets ``gc_s`` (collector seconds) and
    ``gc_collections`` (collections of any generation), both taken
    while it was open.  A no-op span when tracing is off.
    """
    if _ACTIVE is None:
        yield _NOOP
        return
    seconds, collections = _COLLECTOR[0], _COLLECTOR[1]
    with _ACTIVE.span(name, **attributes) as opened:
        try:
            yield opened
        finally:
            opened.set(
                gc_s=round(_COLLECTOR[0] - seconds, 6),
                gc_collections=_COLLECTOR[1] - collections,
            )


@contextlib.contextmanager
def import_span(name: str) -> Iterator[Any]:
    """:func:`span` around a deferred import, stamped with ``modules``.

    ``modules`` is how many modules the block added to ``sys.modules``:
    zero when an earlier import (or a warmed parent process) had
    already loaded them.  A no-op span when tracing is off.
    """
    if _ACTIVE is None:
        yield _NOOP
        return
    before = len(sys.modules)
    with _ACTIVE.span(name) as opened:
        try:
            yield opened
        finally:
            opened.set(modules=len(sys.modules) - before)


def annotate(**attributes: Any) -> None:
    """Attach attributes to the innermost open ambient span, if any."""
    if _ACTIVE is None:
        return
    current = _ACTIVE.current()
    if current is not None:
        current.set(**attributes)


def propagation_token(tracer: Tracer, span_id: Optional[str] = None) -> str:
    """Encode ``trace_id:span_id`` for the trace header / job row."""
    if span_id is None:
        current = tracer.current()
        span_id = current.span_id if current is not None else ""
    return f"{tracer.trace_id}:{span_id}"


def parse_token(token: Optional[str]) -> Tuple[Optional[str], Optional[str]]:
    """Decode a propagation token into ``(trace_id, parent_span_id)``.

    Malformed or empty tokens decode to ``(None, None)`` — a fresh
    trace — rather than raising, because telemetry must never fail a
    job.
    """
    if not token or not isinstance(token, str):
        return None, None
    trace_id, _, parent = token.partition(":")
    if not trace_id:
        return None, None
    return trace_id, parent or None


def service_enabled() -> bool:
    """Policy: should the service record traces?  Default on.

    The daemon and its workers trace unless ``REPRO_TRACE=0`` — traces
    are the service's flight recorder, so opting *out* is explicit.
    """
    return os.environ.get("REPRO_TRACE", "1") != "0"
