"""The job model: canonicalised request specs and the pure pipeline.

A service request is a :class:`JobSpec` — everything that determines
the output layout: which generator library to use (a builtin *kind* or
inline sample/design texts), the parameter-file text, the technology,
and the compact / route / verify options.  :meth:`JobSpec.canonical`
normalises the spec so that semantically identical requests collapse to
one job:

* the parameter-file text is *parsed*, not hashed verbatim — key
  order, whitespace, and comments do not change the fingerprint, while
  any binding change does;
* default-equal options are folded onto their defaults
  (``sim_vectors=None`` equals the verification driver's cap; options
  that have no effect for the request, like a router without routing,
  are rejected outright the way the CLI rejects them);
* builtin kinds resolve to their library texts, so a library change
  changes the fingerprint (no stale artifact survives an upgrade).

:func:`run_job` is the one definition of the pipeline's stages —
generate → compact → route → verify — shared by the workers and the
batch CLI (:func:`repro.cli.run_flow`), which both build their spec
with :func:`spec_from_files` or directly.  :func:`execute_job`, what
the workers run, adds the emit stage (the CIF text) and returns a
:class:`JobResult` with the stage reports and per-stage wall timings;
the CLI emits to a file in the format the parameter file asks for.
Each stage runs inside a ``job.<stage>`` trace span
(:mod:`repro.obs.trace`) and the ``timings`` dict is a thin view over
those spans — one clock, two presentations.  Both take an optional
shared :class:`~repro.compact.cache.CompactionCache`, which is how the
store's compaction memos reach every worker.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compact import (
    TECH_A,
    TECH_B,
    CompactionCache,
    HierarchicalCompactor,
    SolveStats,
    compact_passes,
)
# Unused here: flowbench/tracing.py's LAYERS wraps repro.service.jobs.compact_cell by name.
from ..compact import compact_cell  # noqa: F401
from ..compact.cache import cache_key
from ..core.cell import CellDefinition
from ..core.errors import RsgError, ServiceError, VerificationError
from ..core.operators import Rsg
from ..lang.environment import Alias
from ..lang.interpreter import Interpreter
from ..lang.param_file import parse_parameters
from ..layout.cif import cif_text
from ..layout.sample import loads_sample
from ..obs import trace as obs_trace

__all__ = [
    "JobSpec", "JobResult", "execute_job", "fingerprint_spec", "run_job",
    "spec_from_files",
]

_COMPACT_MODES = ("x", "y", "xy", "yx", "hier", "hier:x", "hier:y", "hier:xy", "hier:yx")
_VERIFY_MODES = ("lvs", "sim", "all")
_ROUTERS = ("auto", "river", "channel")
_TECHS = {"A": TECH_A, "B": TECH_B}
#: spec fields that hold text, and those of them that may be null
_TEXT_FIELDS = ("kind", "parameters", "tech", "router")
_OPTIONAL_TEXT_FIELDS = (
    "sample_text", "design_text", "output_cell", "compact", "verify", "route_text",
)


def _builtin_kinds() -> Dict[str, Tuple[str, str, str, str]]:
    """Builtin generator kinds: name -> (sample, design, parameters, cell).

    Resolved lazily so importing the service does not pull every
    generator library in.
    """
    from ..multiplier import DESIGN_FILE, MULTIPLIER_SAMPLE, PARAMETER_FILE

    return {
        "multiplier": (MULTIPLIER_SAMPLE, DESIGN_FILE, PARAMETER_FILE, "thewholething"),
    }


@dataclass(frozen=True)
class JobSpec:
    """A self-contained, canonicalisable layout-generation request.

    ``kind`` is ``"custom"`` (inline ``sample_text`` / ``design_text``)
    or a builtin generator kind (currently ``"multiplier"``).
    ``parameters`` is parameter-file text layered over the kind's base
    parameters.  ``delay`` injects synthetic pipeline latency (seconds)
    — a load- and robustness-testing knob, part of the fingerprint like
    every other field that changes what a worker does.
    """

    kind: str = "custom"
    parameters: str = ""
    sample_text: Optional[str] = None
    design_text: Optional[str] = None
    output_cell: Optional[str] = None
    tech: str = "A"
    compact: Optional[str] = None
    verify: Optional[str] = None
    sim_vectors: Optional[int] = None
    route_text: Optional[str] = None
    router: str = "auto"
    delay: float = 0.0

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Build a spec from a JSON payload, rejecting unknown keys.

        Specs written when the longest-path solver was selectable carry
        a ``solver`` key: ``null`` and ``"bellman-ford"`` load as the
        spec they always meant, any other backend name is rejected.
        """
        if not isinstance(payload, dict):
            raise ServiceError(f"job spec must be a JSON object, not {type(payload).__name__}")
        payload = dict(payload)
        solver = payload.pop("solver", None)
        if solver not in (None, SolveStats.backend):
            raise ServiceError(
                f"solver {solver!r} is not available: the alternative"
                " longest-path backends were removed and"
                f" {SolveStats.backend} is the only solver (drop the"
                " solver field)"
            )
        known = {entry.name for entry in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(f"unknown job-spec field(s): {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as error:
            raise ServiceError(f"bad job spec: {error}") from None

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-ready dict (raw, not canonicalised)."""
        return asdict(self)

    def validate(self) -> None:
        """Raise :class:`ServiceError` unless the spec is serviceable.

        Every field is type-checked first, so a malformed payload is a
        :class:`ServiceError` at submission, not a crash in a worker.
        Then it mirrors the CLI's option policing: options that cannot
        take effect (vector caps without simulation, a router without
        routing) are errors, not silently ignored spellings — they
        would otherwise split one job into many fingerprints.
        """
        for name in _TEXT_FIELDS:
            if not isinstance(getattr(self, name), str):
                raise ServiceError(f"{name} must be a string")
        for name in _OPTIONAL_TEXT_FIELDS:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ServiceError(f"{name} must be a string or null")
        if self.kind == "custom":
            if not self.sample_text or not self.design_text:
                raise ServiceError(
                    "kind 'custom' needs sample_text and design_text"
                )
        elif self.kind not in _builtin_kinds():
            raise ServiceError(
                f"unknown generator kind {self.kind!r}"
                f" (use custom or one of: {', '.join(sorted(_builtin_kinds()))})"
            )
        if self.tech.upper() not in _TECHS:
            raise ServiceError(f"unknown technology {self.tech!r} (use A or B)")
        if self.compact is not None and self.compact not in _COMPACT_MODES:
            raise ServiceError(
                f"compact takes one of {', '.join(_COMPACT_MODES)}, not {self.compact!r}"
            )
        if self.verify is not None and self.verify not in _VERIFY_MODES:
            raise ServiceError(
                f"verify takes lvs, sim or all, not {self.verify!r}"
            )
        if self.sim_vectors is not None:
            if self.verify not in ("sim", "all"):
                raise ServiceError("sim_vectors has no effect without verify sim/all")
            if (
                isinstance(self.sim_vectors, bool)
                or not isinstance(self.sim_vectors, int)
                or self.sim_vectors < 1
            ):
                raise ServiceError("sim_vectors must be a positive integer")
        if self.route_text is not None and self.sim_vectors is not None:
            raise ServiceError(
                "sim_vectors has no effect with route_text: routed composites"
                " verify by connectivity round-trip, not simulation"
            )
        if self.route_text is not None and self.compact is not None:
            raise ServiceError("compact and route cannot be combined")
        if self.router != "auto":
            if self.route_text is None:
                raise ServiceError("router has no effect without route_text")
            if self.router not in _ROUTERS:
                raise ServiceError(
                    f"router takes auto, river or channel, not {self.router!r}"
                )
        if (
            isinstance(self.delay, bool)
            or not isinstance(self.delay, (int, float))
            or not math.isfinite(self.delay)
            or self.delay < 0
        ):
            raise ServiceError("delay must be a finite, non-negative number of seconds")

    def _resolved_texts(self) -> Tuple[str, str, str, Optional[str]]:
        """(sample, design, base parameter text, default output cell)."""
        if self.kind == "custom":
            assert self.sample_text is not None and self.design_text is not None
            return self.sample_text, self.design_text, "", None
        sample, design, base_parameters, output_cell = _builtin_kinds()[self.kind]
        return sample, design, base_parameters, output_cell

    def resolved(self) -> Tuple[str, str, Dict[str, Any], Optional[str]]:
        """(sample text, design text, parsed bindings, output cell name).

        The user's parameter text is layered over the kind's base
        parameters (later bindings win, exactly like ``--set`` on the
        CLI); a ``.output_cell`` directive in either text is honoured
        unless the spec names one explicitly.
        """
        sample, design, base_parameters, output_cell = self._resolved_texts()
        combined = base_parameters + "\n" + self.parameters
        try:
            parameters = parse_parameters(combined)
        except RsgError as error:
            raise ServiceError(f"bad parameter text: {error}") from None
        cell_name = self.output_cell or parameters.directives.get("output_cell") or output_cell
        return sample, design, parameters.bindings, cell_name

    def canonical(self) -> Dict[str, Any]:
        """The normalised, JSON-ready form the fingerprint is taken over.

        Semantically identical specs (parameter key order, whitespace,
        comments, default-equal options) canonicalise identically;
        distinct kinds, techs, bindings or options do not.
        """
        self.validate()
        sample, design, bindings, cell_name = self.resolved()
        return {
            "kind": self.kind,
            "sample": sample,
            "design": design,
            "bindings": _canonical_bindings(bindings),
            "output_cell": cell_name,
            "tech": self.tech.upper(),
            # hier compacts along x, so hier:x is the same job.
            "compact": "hier" if self.compact == "hier:x" else self.compact,
            "verify": self.verify,
            "sim_vectors": _canonical_vectors(self.verify, self.sim_vectors),
            "route": self.route_text,
            "router": self.router if self.route_text else None,
            "delay": float(self.delay),
        }

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the canonical spec — the job identity."""
        return cache_key("job", json.dumps(self.canonical(), sort_keys=True))


def fingerprint_spec(payload: Dict[str, Any]) -> str:
    """Fingerprint a raw spec payload (convenience for clients)."""
    return JobSpec.from_dict(payload).fingerprint


def _canonical_vectors(verify: Optional[str], sim_vectors: Optional[int]) -> Optional[int]:
    """Fold the vector cap onto the driver default when simulating."""
    if verify not in ("sim", "all"):
        return None
    if sim_vectors is not None:
        return sim_vectors
    from ..verify.driver import DEFAULT_MAX_VECTORS

    return DEFAULT_MAX_VECTORS


def _canonical_bindings(bindings: Dict[Any, Any]) -> List[List[Any]]:
    """Sorted, tagged, JSON-ready form of parsed parameter bindings.

    Keys are plain names or ``(name, indices)`` pairs (the register
    configuration tables); values are integers, strings, or
    :class:`~repro.lang.environment.Alias` deferred names.
    """
    rows: List[List[Any]] = []
    for key, value in bindings.items():
        if isinstance(key, tuple):
            name, indices = key[0], list(key[1])
        else:
            name, indices = key, []
        if isinstance(value, Alias):
            tagged: List[Any] = ["alias", value.name]
        elif isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ServiceError(
                f"parameter {name!r} has unserialisable value {value!r}"
            )
        elif isinstance(value, int):
            tagged = ["int", value]
        else:
            tagged = ["str", value]
        rows.append([name, indices, *tagged])
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


@dataclass
class JobResult:
    """What one pipeline execution produced, JSON-serialisable.

    The CIF text is the layout artifact; ``compaction`` has one entry
    per flat pass (axis, widths before and after, the solver stats
    string); the report dicts come from
    :meth:`~repro.compact.pipeline.PipelineReport.to_dict` /
    :meth:`~repro.verify.driver.VerificationReport.to_dict`; ``timings``
    maps stage name (``generate`` / ``compact`` / ``route`` / ``verify``
    / ``emit``) to wall seconds.
    """

    cell_name: str = ""
    instance_count: int = 0
    cif: str = ""
    compaction: List[Dict[str, Any]] = field(default_factory=list)
    pipeline: Optional[Dict[str, Any]] = None
    verification: Optional[Dict[str, Any]] = None
    route_summary: Optional[str] = None
    timings: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form without the CIF, which rides separately as
        an artifact."""
        payload = asdict(self)
        payload.pop("cif")
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobResult":
        """Rebuild a result from its JSON form (CIF may be absent)."""
        known = {entry.name for entry in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


def spec_from_files(
    parameter_path: str,
    overrides: Optional[Sequence[str]] = None,
    kind: str = "custom",
    **options: Any,
) -> JobSpec:
    """Read a parameter file into a self-contained :class:`JobSpec`.

    The one reader behind ``repro <par>`` and ``repro submit <par>``.
    ``overrides`` are ``name=value`` lines appended to the file's text
    (later bindings win, as with ``--set``).  For ``kind="custom"`` the
    file's ``.example_file`` / ``.concept_file`` directives are read and
    their *contents* embedded, so whoever runs the spec needs no access
    to this filesystem; builtin kinds carry their library texts.
    ``options`` are the remaining :class:`JobSpec` fields (``tech``,
    ``compact``, ``verify``, ...).
    """
    with open(parameter_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if overrides:
        text += "\n" + "\n".join(overrides)
    sample_text = design_text = None
    if kind == "custom":
        directives = parse_parameters(text).directives
        sample_path = directives.get("example_file")
        design_path = directives.get("concept_file")
        if not sample_path or not design_path:
            raise RsgError(
                "parameter file must name .example_file (sample layout) and"
                " .concept_file (design file)"
            )
        with open(sample_path, "r", encoding="utf-8") as handle:
            sample_text = handle.read()
        with open(design_path, "r", encoding="utf-8") as handle:
            design_text = handle.read()
    return JobSpec(
        kind=kind, parameters=text, sample_text=sample_text,
        design_text=design_text, **options,
    )


def tracing():
    """Activate a private tracer unless one is ambient.

    Stage timings are span durations, so :func:`run_job` always runs
    under a tracer: a traced caller's (a worker, ``repro <par>``) or the
    private one its caller opens here.
    """
    return obs_trace.activated(obs_trace.active() or obs_trace.Tracer())


def execute_job(spec: JobSpec, cache: Optional[CompactionCache] = None) -> JobResult:
    """Run the full pipeline for ``spec`` and return its result.

    This is the pure function the worker pool dispatches: no service
    state, no filesystem side effects — everything it needs is in the
    spec and everything it produced is in the returned
    :class:`JobResult`.  It is :func:`run_job` plus the ``job.emit``
    stage, which renders the CIF text.  ``cache`` is the shared
    compaction cache; failures surface as
    :class:`~repro.core.errors.RsgError` subclasses
    (:class:`~repro.core.errors.VerificationError` for a layout that
    generated fine but failed its checks).
    """
    with tracing():
        cell, result = run_job(spec, cache)
        with obs_trace.stage_span("job.emit") as stage:
            result.cell_name = cell.name
            result.instance_count = cell.count_instances(recursive=True)
            result.cif = cif_text(cell)
        result.timings["emit"] = stage.duration_s
    return result


def run_job(
    spec: JobSpec, cache: Optional[CompactionCache] = None
) -> Tuple[CellDefinition, JobResult]:
    """The generate → compact → route → verify stages for ``spec``.

    The one definition of the pipeline, shared by :func:`execute_job`
    and the batch CLI (:func:`repro.cli.run_flow`); each caller emits
    the returned cell its own way.  Each stage runs inside a
    ``job.<stage>`` trace span and ``result.timings`` is a view over
    those spans.  ``cache`` memoises compaction.  A failed verification
    raises :class:`~repro.core.errors.VerificationError` carrying the
    partial result.  The stages run under the caller's tracer: call it
    inside :func:`tracing`.
    """
    assert obs_trace.active() is not None, "run_job needs an ambient tracer"
    spec.validate()
    sample, design, bindings, cell_name = spec.resolved()
    result = JobResult()
    if spec.delay:
        time.sleep(spec.delay)
    with obs_trace.stage_span("job.generate") as stage:
        rsg = Rsg()
        with obs_trace.span("sample.load"):
            loads_sample(sample, rsg)
        interpreter = Interpreter(rsg)
        interpreter.set_parameters(bindings)
        value = interpreter.run(design)
        if cell_name:
            cell = rsg.cells.lookup(cell_name)
        elif isinstance(value, CellDefinition):
            cell = value
        else:
            raise RsgError(
                "design file did not end with mk_cell and no"
                " .output_cell directive was given"
            )
    result.timings["generate"] = stage.duration_s

    rules = _TECHS[spec.tech.upper()]
    if spec.compact:
        with obs_trace.stage_span("job.compact") as stage:
            cell = _compact_stage(spec.compact, cell, rules, cache, result)
        result.timings["compact"] = stage.duration_s

    plan = None
    if spec.route_text:
        with obs_trace.stage_span("job.route") as stage:
            from ..route import compose_from_netfile

            cell, plan = compose_from_netfile(
                spec.route_text, rsg.cells, name=f"{cell.name}_routed",
                rules=rules, router=spec.router,
            )
            result.route_summary = plan.summary()
        result.timings["route"] = stage.duration_s

    if spec.verify:
        with obs_trace.stage_span("job.verify") as stage:
            _verify_stage(spec, cell, plan, rules, result)
        result.timings["verify"] = stage.duration_s
    return cell, result


def _compact_stage(
    mode: str,
    cell: CellDefinition,
    rules,
    cache: Optional[CompactionCache],
    result: JobResult,
) -> CellDefinition:
    """Run the requested compaction mode, recording its reports."""
    if mode.startswith("hier"):
        axes = mode[len("hier:"):] if mode.startswith("hier:") else "x"
        compactor = HierarchicalCompactor(rules, axes=axes, cache=cache)
        cell = compactor.compact(cell)
        assert compactor.last_report is not None
        result.pipeline = compactor.last_report.to_dict()
        return cell
    # One chain for every pass; each pass still renames the cell.
    cell, passes = compact_passes(
        cell, rules, mode, name=cell.name + "_compacted" * len(mode), cache=cache,
    )
    for axis, pass_result in zip(mode, passes):
        result.compaction.append(
            {
                "axis": axis,
                "width_before": pass_result.width_before,
                "width_after": pass_result.width_after,
                "stats": str(pass_result.stats),
            }
        )
    return cell


def _verify_stage(
    spec: JobSpec, cell: CellDefinition, plan, rules, result: JobResult
) -> None:
    """Run the requested verification, raising unless it passes.

    A failed check raises :class:`~repro.core.errors.VerificationError`;
    its message carries the report summary and ``error.result`` the
    partial result.
    """
    if plan is not None:
        from ..route.compose import verify_composite

        mismatches = verify_composite(cell, plan)
        summary = (
            f"verify {cell.name} (routed composite, connectivity round-trip"
            f" for any --verify mode): {len(plan.nets)} nets round-tripped,"
            f" {len(mismatches)} mismatches"
        )
        result.verification = {
            "subject": f"{cell.name} (routed composite)",
            "mode": spec.verify,
            "nets": len(plan.nets),
            "failures": mismatches,
            "ok": not mismatches,
            "summary": summary,
        }
        if mismatches:
            raise VerificationError(
                "verification failed: " + "; ".join(mismatches[:3]),
                result=result,
            )
        return
    # The first call pays the package import: a span of its own keeps it
    # out of the stage's unattributed time.
    with obs_trace.import_span("import.verify"):
        from ..verify import verify_cell
        from ..verify.driver import DEFAULT_MAX_VECTORS

    report = verify_cell(
        cell, mode=spec.verify or "all",
        max_vectors=spec.sim_vectors or DEFAULT_MAX_VECTORS,
        rules=rules,
    )
    result.verification = report.to_dict()
    if not report.ok:
        raise VerificationError(
            f"verification failed for {cell.name!r}",
            detail=report.summary(), result=result,
        )
