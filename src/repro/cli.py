"""Command-line driver: the complete Figure 1.1 flow.

The RSG's inputs are a design file, a layout (sample) file, and a
parameter file; the parameter file names the other two through its
directives, exactly as Appendix C does::

    .example_file:mult.sample      # the layout/sample file
    .concept_file:mult.design      # the design file
    .output_file:mult.cif          # where to write the layout
    .output_cell:thewholething     # which cell to write (default: last)
    .format:cif                    # cif | sample | svg | ascii
    xsize=16
    ysize=16

Usage::

    python -m repro parameters.par
    python -m repro parameters.par --set xsize=8 --set ysize=8
    python -m repro parameters.par --compact xy --solver topological
    python -m repro parameters.par --compact hier --jobs 4 --cache-dir .rsgcache
    python -m repro parameters.par --route wires.net --router channel
    python -m repro parameters.par --verify all --sim-vectors 256
    python -m repro serve --root .repro-service --workers 4
    python -m repro submit parameters.par --url http://127.0.0.1:8737 --wait
    python -m repro --version

The ``serve``, ``submit``, ``gc``, ``stats`` and ``trace`` verbs are
the layout-as-a-service front door (:mod:`repro.service`): ``serve``
runs the job-queue daemon with its shared artifact store (recovering
orphaned jobs and torn artifacts on boot), ``submit`` sends the same
parameter file to a running daemon instead of generating locally,
``gc`` evicts least-recently-used artifacts and cache entries down to
a byte budget (``repro gc --root DIR --max-bytes 512M``) without ever
touching queued or running jobs, ``stats`` pretty-prints a running
daemon's ``/stats`` and ``/metrics`` telemetry, and ``trace`` renders
the span tree a finished job recorded (:mod:`repro.obs`).

Every failure mode exits with a family-specific code and a one-line
diagnostic on stderr (no raw tracebacks): 1 generic, 2 usage (argparse),
3 parse errors in design/parameter files, 4 verification failures,
5 filesystem/OS errors, 6 service errors, 70 internal errors (set
``REPRO_DEBUG=1`` to re-raise those with the full traceback).

``--compact`` runs the chapter-6 flat compactor over the generated cell
before it is written (``x``/``y``/``xy``/``yx``), or — with ``hier`` —
the compact-once/stamp-many hierarchical pipeline that compacts each
distinct leaf cell exactly once and re-stamps every instance.
``--solver`` picks the longest-path backend from the
:mod:`repro.compact.solvers` registry.  ``--jobs N`` fans independent
leaf-cell compactions out over N worker processes (``hier`` only;
output is byte-identical to ``--jobs 1``), and ``--cache-dir``
persists compaction results on disk so an unchanged cell is never
compacted twice, even across runs.  ``--route`` composes two cells
from the workspace with the wiring subsystem: the net file names a
bottom cell, a top cell and the nets to route between their facing
edges (see :func:`repro.route.compose.parse_net_file`); the routed
composite becomes the output cell.  ``--verify`` closes the loop from
mask geometry back to logical function (:mod:`repro.verify`): device
extraction plus LVS against the intended netlist and/or switch-level
simulation against the programmed personality, with ``--sim-vectors``
bounding the vector count; a failed check exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

from .compact import (
    TECH_A,
    TECH_B,
    CompactionCache,
    HierarchicalCompactor,
    available_solvers,
    compact_cell,
)
from .core.cell import CellDefinition
from .core.errors import (
    LanguageError,
    RsgError,
    ServiceError,
    VerificationError,
)
from .core.operators import Rsg
from .lang.interpreter import Interpreter
from .lang.param_file import parse_parameters
from .layout.cif import write_cif
from .layout.render import ascii_render, svg_render
from .layout.sample import load_sample
from .obs import trace as obs_trace

__all__ = [
    "main",
    "run_flow",
    "exit_code_for",
    "solver_summary_lines",
    "timings_table",
]

# Exit-code families: every failure mode maps to a stable, distinct
# code (tested in tests/test_cli.py) so scripts and CI can branch on
# *why* a run failed, not just that it did.
EXIT_ERROR = 1       #: generic RsgError (bad inputs, unknown tech, ...)
EXIT_USAGE = 2       #: argparse usage errors (argparse's own constant)
EXIT_PARSE = 3       #: syntax errors in design/parameter/net files
EXIT_VERIFY = 4      #: the layout generated but failed verification
EXIT_IO = 5          #: filesystem/OS errors (missing or unwritable files)
EXIT_SERVICE = 6     #: bad or unserviceable layout-service requests
EXIT_INTERNAL = 70   #: unexpected exceptions (os.EX_SOFTWARE)


def exit_code_for(error: BaseException) -> int:
    """The exit-code family for ``error`` (see the module docstring).

    Order matters: the most specific families are checked first, so a
    :class:`~repro.core.errors.ParseError` (a ``LanguageError`` and an
    ``RsgError``) maps to :data:`EXIT_PARSE`, not :data:`EXIT_ERROR`.
    """
    if isinstance(error, LanguageError):
        return EXIT_PARSE
    if isinstance(error, VerificationError):
        return EXIT_VERIFY
    if isinstance(error, ServiceError):
        return EXIT_SERVICE
    if isinstance(error, RsgError):
        return EXIT_ERROR
    if isinstance(error, OSError):
        return EXIT_IO
    return EXIT_INTERNAL


def _report_error(error: BaseException) -> int:
    """One-line stderr diagnostic plus the family exit code.

    Raw tracebacks never reach the user; ``REPRO_DEBUG=1`` re-raises
    unexpected errors for debugging.
    """
    code = exit_code_for(error)
    if code == EXIT_INTERNAL:
        if os.environ.get("REPRO_DEBUG"):
            raise error
        print(
            f"internal error: {type(error).__name__}: {error}"
            " (set REPRO_DEBUG=1 for the traceback)",
            file=sys.stderr,
        )
    else:
        print(f"error: {error}", file=sys.stderr)
    return code


def run_flow(
    parameter_path: str,
    overrides: Optional[List[str]] = None,
    output_stream=None,
    compact_axes: Optional[str] = None,
    solver: Optional[str] = None,
    technology: str = "A",
    route_path: Optional[str] = None,
    router: str = "auto",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    verify_mode: Optional[str] = None,
    sim_vectors: Optional[int] = None,
    timings: Optional[Dict[str, float]] = None,
) -> CellDefinition:
    """Execute the full generation flow described by a parameter file.

    Returns the output cell.  ``overrides`` is a list of ``name=value``
    strings applied on top of the parameter file (sizes, mostly).
    ``compact_axes`` (``"x"``, ``"y"``, ``"xy"``, ``"yx"``) runs the flat
    compactor over the result before writing, using the named ``solver``
    backend and the ``technology`` rule set ("A" or "B");
    ``compact_axes="hier"`` (or ``"hier:<axes>"`` to pick the per-leaf
    passes) runs the hierarchical compact-once pipeline instead,
    fanning leaf-cell solves over ``jobs`` worker processes.
    ``cache_dir`` enables the on-disk compaction-result cache for
    either compaction mode.  ``route_path`` names a net-request file:
    the named cells are composed with the wiring subsystem (``router``
    picks the algorithm) and the routed composite replaces the output
    cell.  ``verify_mode`` (``"lvs"``, ``"sim"`` or ``"all"``) runs
    the silicon-verification subsystem over the result — mask-level
    extraction + LVS + switch-level simulation for PLA-family outputs,
    the cell-level recipe for multipliers, the connectivity round-trip
    for routed composites — and raises :class:`RsgError` on failure;
    ``sim_vectors`` caps the simulated input combinations (exhaustive
    below the cap, seeded sampling above).  ``timings``, when given a
    dict, receives per-stage wall-clock seconds under the same stage
    names :func:`repro.service.jobs.execute_job` records (``generate``
    / ``compact`` / ``route`` / ``verify`` / ``emit``) — the
    ``--timings`` flag prints them as a table.  Stage timing is
    span-derived (:mod:`repro.obs.trace`): asking for timings (or
    ``REPRO_TRACE=1``) activates a tracer if none is ambient, and each
    stage's wall time is its ``job.<stage>`` span's duration.
    """
    if obs_trace.active() is None and (
        timings is not None or obs_trace.local_enabled()
    ):
        with obs_trace.activated(obs_trace.Tracer()):
            return run_flow(
                parameter_path,
                overrides,
                output_stream,
                compact_axes=compact_axes,
                solver=solver,
                technology=technology,
                route_path=route_path,
                router=router,
                jobs=jobs,
                cache_dir=cache_dir,
                verify_mode=verify_mode,
                sim_vectors=sim_vectors,
                timings=timings,
            )
    if compact_axes and route_path:
        # The composite is built from the workspace cells, which flat
        # compaction does not touch — allowing both would print
        # compaction stats for geometry that never reaches the output.
        raise RsgError("--compact and --route cannot be combined")
    with open(parameter_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if overrides:
        text += "\n" + "\n".join(overrides)
    parameters = parse_parameters(text)

    sample_path = parameters.directives.get("example_file")
    design_path = parameters.directives.get("concept_file")
    if not sample_path or not design_path:
        raise RsgError(
            "parameter file must name .example_file (sample layout) and"
            " .concept_file (design file)"
        )

    with obs_trace.span("job.generate") as stage_span:
        rsg = Rsg()
        load_sample(sample_path, rsg)
        interpreter = Interpreter(rsg)
        interpreter.set_parameters(parameters.bindings)
        result = interpreter.run_file(design_path)

        output_cell_name = parameters.directives.get("output_cell")
        if output_cell_name:
            cell = rsg.cells.lookup(output_cell_name)
        elif isinstance(result, CellDefinition):
            cell = result
        else:
            raise RsgError(
                "design file did not end with mk_cell and no .output_cell"
                " directive was given"
            )
    if timings is not None:
        timings["generate"] = stage_span.duration_s

    if compact_axes:
        with obs_trace.span("job.compact") as stage_span:
            cell = _compact_flow_cell(
                cell, compact_axes, solver, technology, output_stream,
                jobs=jobs, cache_dir=cache_dir,
            )
        if timings is not None:
            timings["compact"] = stage_span.duration_s

    plan = None
    if route_path:
        from .route import compose_from_netfile

        with obs_trace.span("job.route") as stage_span:
            rules = {"A": TECH_A, "B": TECH_B}.get(technology.upper())
            if rules is None:
                raise RsgError(f"unknown technology {technology!r} (use A or B)")
            with open(route_path, "r", encoding="utf-8") as handle:
                net_text = handle.read()
            cell, plan = compose_from_netfile(
                net_text, rsg.cells, name=f"{cell.name}_routed",
                rules=rules, router=router,
            )
        if timings is not None:
            timings["route"] = stage_span.duration_s
        if output_stream is not None:
            print(plan.summary(), file=output_stream)

    if verify_mode:
        with obs_trace.span("job.verify") as stage_span:
            _verify_flow_cell(
                cell, plan, verify_mode, sim_vectors, technology, output_stream,
            )
        if timings is not None:
            timings["verify"] = stage_span.duration_s

    with obs_trace.span("job.emit") as stage_span:
        output_path = parameters.directives.get("output_file")
        output_format = parameters.directives.get("format", "cif").lower()
        if output_path:
            if output_format == "cif":
                write_cif(cell, output_path)
            elif output_format == "svg":
                with open(output_path, "w", encoding="utf-8") as handle:
                    handle.write(svg_render(cell))
            elif output_format == "ascii":
                with open(output_path, "w", encoding="utf-8") as handle:
                    handle.write(ascii_render(cell))
            else:
                raise RsgError(f"unknown output format {output_format!r}")
            if output_stream is not None:
                print(
                    f"wrote {output_format} to {output_path}", file=output_stream
                )
    if timings is not None:
        timings["emit"] = stage_span.duration_s
    return cell


def timings_table(timings: Dict[str, float], extras: tuple = ()) -> str:
    """Format per-stage wall timings as the ``--timings`` table.

    Stages print in pipeline order (``generate`` / ``compact`` /
    ``route`` / ``verify`` / ``emit``); stages that did not run are
    omitted, and a total row closes the table.  ``extras`` lines (the
    solver summaries from the run's trace spans) are appended verbatim
    after the total.  The same shape works for the stage timings a
    service :class:`~repro.service.jobs.JobResult` carries.
    """
    stage_order = ("generate", "compact", "route", "verify", "emit")
    rows = [f"{'stage':<10} {'seconds':>9}"]
    for stage in stage_order:
        if stage in timings:
            rows.append(f"{stage:<10} {timings[stage]:>9.3f}")
    for stage in timings:  # any stage outside the known pipeline order
        if stage not in stage_order:
            rows.append(f"{stage:<10} {timings[stage]:>9.3f}")
    rows.append(f"{'total':<10} {sum(timings.values()):>9.3f}")
    rows.extend(extras)
    return "\n".join(rows)


def solver_summary_lines(spans) -> tuple:
    """Summarise ``solver.solve`` spans for the ``--timings`` table.

    Aggregates iteration and relaxation counts per solver backend —
    the :class:`~repro.compact.solvers.base.SolveStats` numbers that
    used to be ``__str__``-only — one line per backend used.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span.name != "solver.solve":
            continue
        backend = str(span.attributes.get("backend", "?"))
        entry = totals.setdefault(
            backend, {"solves": 0, "passes": 0, "relaxations": 0, "seconds": 0.0}
        )
        entry["solves"] += 1
        entry["passes"] += span.attributes.get("passes", 0)
        entry["relaxations"] += span.attributes.get("relaxations", 0)
        entry["seconds"] += span.duration_s
    return tuple(
        f"solver {backend}: {int(entry['solves'])} solve(s),"
        f" {int(entry['passes'])} pass(es),"
        f" {int(entry['relaxations'])} relaxation(s)"
        f" in {entry['seconds']:.3f}s"
        for backend, entry in sorted(totals.items())
    )


def _verify_flow_cell(
    cell: CellDefinition,
    plan,
    mode: str,
    sim_vectors: Optional[int],
    technology: str,
    output_stream,
) -> None:
    """Run the requested verification over the flow's output cell.

    Routed composites get the wiring connectivity round-trip (the two
    routed blocks are opaque here, so every mode runs the same
    structural check — stated in the output rather than silently
    assumed); everything else goes through
    :func:`repro.verify.verify_cell`.  Raises :class:`RsgError` when
    any check fails, so the CLI exits non-zero on a functionally
    broken layout.
    """
    if mode not in ("lvs", "sim", "all"):
        raise RsgError(f"--verify takes lvs, sim or all, not {mode!r}")
    if plan is not None:
        from .route.compose import verify_composite

        mismatches = verify_composite(cell, plan)
        if output_stream is not None:
            print(
                f"verify {cell.name} (routed composite, connectivity"
                f" round-trip for any --verify mode):"
                f" {len(plan.nets)} nets round-tripped,"
                f" {len(mismatches)} mismatches", file=output_stream,
            )
        if mismatches:
            raise VerificationError(
                "verification failed: " + "; ".join(mismatches[:3])
            )
        return
    from .verify import verify_cell
    from .verify.driver import DEFAULT_MAX_VECTORS

    rules = {"A": TECH_A, "B": TECH_B}.get(technology.upper())
    if rules is None:
        raise RsgError(f"unknown technology {technology!r} (use A or B)")
    report = verify_cell(
        cell, mode=mode,
        max_vectors=sim_vectors or DEFAULT_MAX_VECTORS,
        rules=rules,
    )
    if output_stream is not None:
        print(report.summary(), file=output_stream)
    if not report.ok:
        raise VerificationError(f"verification failed for {cell.name!r}")


def _compact_flow_cell(
    cell: CellDefinition,
    axes: str,
    solver: Optional[str],
    technology: str,
    output_stream,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> CellDefinition:
    """Run the requested compaction mode over ``cell``.

    ``axes`` is one flat pass per letter (``x``/``y``/``xy``/``yx``) or
    ``"hier"``/``"hier:<axes>"`` for the compact-once/stamp-many
    hierarchical pipeline (bare ``hier`` compacts leaves along x;
    ``hier:xy`` runs both passes per leaf).
    """
    hier_axes = None
    if axes == "hier":
        hier_axes = "x"
    elif axes.startswith("hier:"):
        hier_axes = axes[len("hier:"):]
        if hier_axes not in ("x", "y", "xy", "yx"):
            raise RsgError(
                f"--compact hier:<axes> takes x, y, xy or yx, not {hier_axes!r}"
            )
    elif axes not in ("x", "y", "xy", "yx"):
        raise RsgError(
            f"--compact takes x, y, xy, yx, hier or hier:<axes>, not {axes!r}"
        )
    rules = {"A": TECH_A, "B": TECH_B}.get(technology.upper())
    if rules is None:
        raise RsgError(f"unknown technology {technology!r} (use A or B)")
    cache = CompactionCache(cache_dir) if cache_dir else None
    if hier_axes is not None:
        compactor = HierarchicalCompactor(
            rules, axes=hier_axes, width_mode="preserve", solver=solver,
            jobs=jobs, cache=cache,
        )
        cell = compactor.compact(cell)
        if output_stream is not None:
            print(compactor.last_report.summary(), file=output_stream)
            if cache is not None:
                print(cache.stats(), file=output_stream)
        return cell
    for axis in axes:
        cell, result = compact_cell(
            cell, rules, axis=axis, width_mode="preserve", solver=solver,
            cache=cache,
        )
        if output_stream is not None:
            print(
                f"compacted {axis}: width {result.width_before} ->"
                f" {result.width_after} ({result.stats})",
                file=output_stream,
            )
    if cache is not None and output_stream is not None:
        print(cache.stats(), file=output_stream)
    return cell


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: the batch flow plus the service verbs."""
    arguments_list = list(sys.argv[1:] if argv is None else argv)
    if arguments_list and arguments_list[0] in (
        "serve", "submit", "gc", "stats", "trace"
    ):
        verb, rest = arguments_list[0], arguments_list[1:]
        try:
            if verb == "serve":
                from .service.server import serve_main

                return serve_main(rest)
            if verb == "gc":
                from .service.store import gc_main

                return gc_main(rest)
            if verb == "stats":
                from .service.client import stats_main

                return stats_main(rest)
            if verb == "trace":
                from .service.client import trace_main

                return trace_main(rest)
            from .service.client import submit_main

            return submit_main(rest)
        except KeyboardInterrupt:
            return EXIT_ERROR
        except Exception as error:  # noqa: BLE001 — mapped to exit families
            return _report_error(error)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regular Structure Generator: design file + sample"
        " layout + parameter file -> layout.  The 'serve', 'submit',"
        " 'gc', 'stats' and 'trace' verbs operate the layout service"
        " instead (see 'repro <verb> --help').",
    )
    from . import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the installed package version and exit",
    )
    parser.add_argument("parameter_file", help="the parameter file (Appendix C style)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a parameter binding (repeatable)",
    )
    parser.add_argument(
        "--render",
        action="store_true",
        help="print an ASCII rendering of the result to stdout",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print the per-stage wall-clock table after the flow"
        " (generate/compact/route/verify/emit — the same stages the"
        " layout service records per job)",
    )
    parser.add_argument(
        "--compact",
        choices=["x", "y", "xy", "yx", "hier", "hier:x", "hier:y", "hier:xy", "hier:yx"],
        metavar="AXES",
        help="run the flat compactor over the result (x, y, xy or yx),"
        " or the compact-once/stamp-many hierarchical pipeline"
        " ('hier' = per-leaf x pass; 'hier:xy' etc. pick the leaf passes)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --compact hier leaf-cell fan-out"
        " (default: 1; output is byte-identical for any N)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist compaction results under DIR so unchanged cells"
        " are never compacted twice, even across runs",
    )
    parser.add_argument(
        "--solver",
        choices=list(available_solvers()),
        help="longest-path backend for compaction (default: bellman-ford)",
    )
    parser.add_argument(
        "--tech",
        choices=["A", "B"],
        help="design-rule technology used by --compact/--route (default: A)",
    )
    parser.add_argument(
        "--route",
        metavar="NETFILE",
        help="compose two workspace cells with the wiring subsystem; the"
        " file names bottom/top cells and the nets to route",
    )
    parser.add_argument(
        "--router",
        choices=["auto", "river", "channel"],
        default="auto",
        help="routing algorithm for --route (default: auto)",
    )
    parser.add_argument(
        "--verify",
        choices=["lvs", "sim", "all"],
        metavar="MODE",
        help="verify the result against silicon: extract a transistor"
        " netlist from the masks, compare it with the intended netlist"
        " (lvs), switch-level simulate it against the programmed"
        " function (sim), or both (all); routed composites get the"
        " wiring connectivity round-trip",
    )
    parser.add_argument(
        "--sim-vectors",
        type=int,
        metavar="N",
        help="cap on simulated input combinations for --verify sim/all"
        " (exhaustive up to N, seeded random sampling beyond;"
        " default: 4096)",
    )
    arguments = parser.parse_args(arguments_list)
    if not arguments.compact and not arguments.route and (
        arguments.solver or arguments.tech
    ):
        parser.error("--solver/--tech have no effect without --compact/--route")
    if arguments.solver and not arguments.compact:
        parser.error("--solver has no effect without --compact")
    if arguments.jobs < 1:
        parser.error("--jobs must be at least 1")
    if arguments.jobs != 1 and not (
        arguments.compact or ""
    ).startswith("hier"):
        parser.error("--jobs has no effect without --compact hier")
    if arguments.cache_dir and not arguments.compact:
        parser.error("--cache-dir has no effect without --compact")
    if arguments.router != "auto" and not arguments.route:
        parser.error("--router has no effect without --route")
    if arguments.sim_vectors is not None and arguments.verify not in ("sim", "all"):
        parser.error("--sim-vectors has no effect without --verify sim/all")
    if arguments.sim_vectors is not None and arguments.sim_vectors < 1:
        parser.error("--sim-vectors must be at least 1")
    if arguments.sim_vectors is not None and arguments.route:
        parser.error(
            "--sim-vectors has no effect with --route: routed composites"
            " verify by connectivity round-trip, not simulation"
        )
    if arguments.compact and arguments.route:
        parser.error("--compact and --route cannot be combined (the composite"
                     " is built from the uncompacted workspace cells)")
    stage_timings: Optional[Dict[str, float]] = (
        {} if arguments.timings else None
    )
    tracer: Optional[obs_trace.Tracer] = (
        obs_trace.Tracer()
        if arguments.timings or obs_trace.local_enabled()
        else None
    )
    try:
        with (
            obs_trace.activated(tracer)
            if tracer is not None
            else _null_context()
        ):
            cell = run_flow(
                arguments.parameter_file,
                arguments.set,
                sys.stdout,
                compact_axes=arguments.compact,
                solver=arguments.solver,
                technology=arguments.tech or "A",
                route_path=arguments.route,
                router=arguments.router,
                jobs=arguments.jobs,
                cache_dir=arguments.cache_dir,
                verify_mode=arguments.verify,
                sim_vectors=arguments.sim_vectors,
                timings=stage_timings,
            )
    except Exception as error:  # noqa: BLE001 — mapped to exit families
        return _report_error(error)
    print(
        f"generated cell {cell.name!r}:"
        f" {cell.count_instances(recursive=True)} instances"
    )
    if stage_timings is not None:
        extras = solver_summary_lines(tracer.finished()) if tracer else ()
        print(timings_table(stage_timings, extras=extras))
    if arguments.render:
        print(ascii_render(cell))
    return 0


def _null_context():
    """A no-op context manager (the untraced run_flow path)."""
    import contextlib

    return contextlib.nullcontext()


if __name__ == "__main__":
    raise SystemExit(main())
