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
* default-equal options are folded onto their defaults (``solver=None``
  equals the registry default; ``sim_vectors=None`` equals the
  verification driver's cap; options that have no effect for the
  request, like a solver without compaction, are rejected outright the
  way the CLI rejects them);
* builtin kinds resolve to their library texts, so a library change
  changes the fingerprint (no stale artifact survives an upgrade).

:func:`execute_job` is the pure pipeline the workers run: generate →
compact → route → verify → emit, returning a :class:`JobResult` with
the CIF text, the stage reports, and per-stage wall timings.  Each
stage runs inside a ``job.<stage>`` trace span
(:mod:`repro.obs.trace`) and the ``timings`` dict is a thin view over
those spans — one clock, two presentations.  It takes an optional
shared :class:`~repro.compact.cache.CompactionCache`, which is how the
store's compaction memos reach every worker.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from ..compact import TECH_A, TECH_B, CompactionCache, HierarchicalCompactor, compact_cell
from ..compact.cache import cache_key
from ..compact.solvers import DEFAULT_SOLVER, available_solvers
from ..core.cell import CellDefinition
from ..core.errors import RsgError, ServiceError, VerificationError
from ..core.operators import Rsg
from ..lang.environment import Alias
from ..lang.interpreter import Interpreter
from ..lang.param_file import parse_parameters
from ..layout.cif import cif_text
from ..layout.sample import loads_sample
from ..obs import trace as obs_trace

__all__ = ["JobSpec", "JobResult", "execute_job", "fingerprint_spec"]

_COMPACT_MODES = ("x", "y", "xy", "yx", "hier", "hier:x", "hier:y", "hier:xy", "hier:yx")
_VERIFY_MODES = ("lvs", "sim", "all")
_ROUTERS = ("auto", "river", "channel")
_TECHS = {"A": TECH_A, "B": TECH_B}


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
    solver: Optional[str] = None
    verify: Optional[str] = None
    sim_vectors: Optional[int] = None
    route_text: Optional[str] = None
    router: str = "auto"
    delay: float = 0.0

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Build a spec from a JSON payload, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise ServiceError(f"job spec must be a JSON object, not {type(payload).__name__}")
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

        Mirrors the CLI's option policing: options that cannot take
        effect (a solver without compaction, vector caps without
        simulation) are errors, not silently ignored spellings — they
        would otherwise split one job into many fingerprints.
        """
        kinds = _builtin_kinds()
        if self.kind != "custom" and self.kind not in kinds:
            raise ServiceError(
                f"unknown generator kind {self.kind!r}"
                f" (use custom or one of: {', '.join(sorted(kinds))})"
            )
        if self.kind == "custom":
            if not self.sample_text or not self.design_text:
                raise ServiceError(
                    "kind 'custom' needs sample_text and design_text"
                )
        if not isinstance(self.parameters, str):
            raise ServiceError("parameters must be parameter-file text")
        if self.tech.upper() not in _TECHS:
            raise ServiceError(f"unknown technology {self.tech!r} (use A or B)")
        if self.compact is not None and self.compact not in _COMPACT_MODES:
            raise ServiceError(
                f"compact takes one of {', '.join(_COMPACT_MODES)}, not {self.compact!r}"
            )
        if self.solver is not None:
            if self.compact is None:
                raise ServiceError("solver has no effect without compact")
            if self.solver not in available_solvers():
                raise ServiceError(
                    f"unknown solver {self.solver!r}"
                    f" (use one of: {', '.join(available_solvers())})"
                )
        if self.verify is not None and self.verify not in _VERIFY_MODES:
            raise ServiceError(
                f"verify takes lvs, sim or all, not {self.verify!r}"
            )
        if self.sim_vectors is not None:
            if self.verify not in ("sim", "all"):
                raise ServiceError("sim_vectors has no effect without verify sim/all")
            if not isinstance(self.sim_vectors, int) or self.sim_vectors < 1:
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
        if not isinstance(self.delay, (int, float)) or self.delay < 0:
            raise ServiceError("delay must be a non-negative number of seconds")

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
            "compact": self.compact,
            "solver": (self.solver or DEFAULT_SOLVER) if self.compact else None,
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

    The CIF text is the layout artifact; the report dicts come from
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

    def to_dict(self, include_cif: bool = False) -> Dict[str, Any]:
        """JSON-ready form; the CIF rides separately as an artifact."""
        payload = asdict(self)
        if not include_cif:
            payload.pop("cif")
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobResult":
        """Rebuild a result from its JSON form (CIF may be absent)."""
        known = {entry.name for entry in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


def execute_job(spec: JobSpec, cache: Optional[CompactionCache] = None) -> JobResult:
    """Run the full pipeline for ``spec`` and return its result.

    This is the pure function the worker pool dispatches: no service
    state, no filesystem side effects — everything it needs is in the
    spec and everything it produced is in the returned
    :class:`JobResult`.  ``cache`` is the shared compaction cache;
    failures surface as :class:`~repro.core.errors.RsgError` subclasses
    (:class:`~repro.core.errors.VerificationError` for a layout that
    generated fine but failed its checks).

    Stage timing is span-derived: when a tracer is ambient (a traced
    worker or ``--timings``) the stages parent under it; otherwise a
    private tracer is activated just for this call, so ``timings`` is
    always the same span clock either way.
    """
    if obs_trace.active() is None:
        with obs_trace.activated(obs_trace.Tracer()):
            return _execute_traced(spec, cache)
    return _execute_traced(spec, cache)


def _execute_traced(spec: JobSpec, cache: Optional[CompactionCache]) -> JobResult:
    """The pipeline body; requires an ambient tracer (see execute_job)."""
    spec.validate()
    sample, design, bindings, cell_name = spec.resolved()
    result = JobResult()
    if spec.delay:
        time.sleep(spec.delay)

    with obs_trace.span("job.generate") as stage:
        rsg = Rsg()
        loads_sample(sample, rsg)
        interpreter = Interpreter(rsg)
        interpreter.set_parameters(bindings)
        value = interpreter.run(design)
        if cell_name:
            cell = rsg.cells.lookup(cell_name)
        elif isinstance(value, CellDefinition):
            cell = value
        else:
            raise ServiceError(
                "design text did not end with mk_cell and no output_cell was given"
            )
    result.timings["generate"] = stage.duration_s

    rules = _TECHS[spec.tech.upper()]
    if spec.compact:
        with obs_trace.span("job.compact") as stage:
            cell = _compact_stage(spec, cell, rules, cache, result)
        result.timings["compact"] = stage.duration_s

    plan = None
    if spec.route_text:
        with obs_trace.span("job.route") as stage:
            from ..route import compose_from_netfile

            cell, plan = compose_from_netfile(
                spec.route_text, rsg.cells, name=f"{cell.name}_routed",
                rules=rules, router=spec.router,
            )
            result.route_summary = plan.summary()
        result.timings["route"] = stage.duration_s

    if spec.verify:
        with obs_trace.span("job.verify") as stage:
            _verify_stage(spec, cell, plan, rules, cache, result)
        result.timings["verify"] = stage.duration_s

    with obs_trace.span("job.emit") as stage:
        result.cell_name = cell.name
        result.instance_count = cell.count_instances(recursive=True)
        result.cif = cif_text(cell)
    result.timings["emit"] = stage.duration_s
    return result


def _compact_stage(
    spec: JobSpec,
    cell: CellDefinition,
    rules,
    cache: Optional[CompactionCache],
    result: JobResult,
) -> CellDefinition:
    """Run the requested compaction mode, recording its reports."""
    mode = spec.compact
    assert mode is not None
    if mode.startswith("hier"):
        axes = mode[len("hier:"):] if mode.startswith("hier:") else "x"
        compactor = HierarchicalCompactor(
            rules, axes=axes, width_mode="preserve", solver=spec.solver,
            cache=cache,
        )
        cell = compactor.compact(cell)
        assert compactor.last_report is not None
        result.pipeline = compactor.last_report.to_dict()
        return cell
    for axis in mode:
        cell, pass_result = compact_cell(
            cell, rules, axis=axis, width_mode="preserve", solver=spec.solver,
            cache=cache,
        )
        result.compaction.append(
            {
                "axis": axis,
                "width_before": pass_result.width_before,
                "width_after": pass_result.width_after,
            }
        )
    return cell


def _verify_stage(
    spec: JobSpec,
    cell: CellDefinition,
    plan,
    rules,
    cache: Optional[CompactionCache],
    result: JobResult,
) -> None:
    """Run the requested verification, raising on functional failure."""
    if plan is not None:
        from ..route.compose import verify_composite

        mismatches = verify_composite(cell, plan)
        result.verification = {
            "subject": f"{cell.name} (routed composite)",
            "mode": spec.verify,
            "nets": len(plan.nets),
            "failures": mismatches,
            "ok": not mismatches,
            "summary": f"connectivity round-trip: {len(plan.nets)} nets,"
            f" {len(mismatches)} mismatches",
        }
        if mismatches:
            raise VerificationError(
                "verification failed: " + "; ".join(mismatches[:3])
            )
        return
    from ..verify import verify_cell
    from ..verify.driver import DEFAULT_MAX_VECTORS

    report = verify_cell(
        cell, mode=spec.verify or "all",
        max_vectors=spec.sim_vectors or DEFAULT_MAX_VECTORS,
        rules=rules, cache=cache,
    )
    result.verification = report.to_dict()
    if not report.ok:
        raise VerificationError(
            f"verification failed for {cell.name!r}: {report.summary()}"
        )
