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
    python -m repro parameters.par --compact xy --timings
    python -m repro parameters.par --compact hier --cache-dir .rsgcache
    python -m repro parameters.par --route wires.net --router channel
    python -m repro parameters.par --verify all --sim-vectors 256
    python -m repro serve --root .repro-service --workers 4
    python -m repro submit parameters.par --url http://127.0.0.1:8737 --wait
    python -m repro --version

The flow is the layout service's pipeline: :func:`run_flow` reads the
parameter file into a :class:`~repro.service.jobs.JobSpec` with the
reader ``repro submit`` uses, runs
:func:`~repro.service.jobs.run_job` (the one definition of the
generate, compact, route and verify stages), prints the stage reports
and writes the output file, so ``repro <par>`` and ``repro submit
<par>`` produce the same layout.  The service package is imported on
the first run, not with this module.

The ``serve``, ``submit``, ``gc``, ``stats`` and ``trace`` verbs are
the layout-as-a-service front door (:mod:`repro.service`): ``serve``
runs the job-queue daemon with its shared artifact store (recovering
orphaned jobs and torn artifacts on boot), ``submit`` sends the same
parameter file to a running daemon instead of generating locally,
``gc`` evicts least-recently-used artifacts and cache entries down to
a byte budget (``repro gc --root DIR --max-bytes 512M``) without ever
touching queued or running jobs, ``stats`` pretty-prints a running
daemon's ``/stats`` and ``/metrics`` telemetry, and ``trace`` renders
the span tree a finished job recorded (:mod:`repro.obs`).  ``repro
<par> --timings`` prints the same tree for a local run, under one
``repro.run`` root span.

Every failure mode exits with a family-specific code and a one-line
diagnostic on stderr (no raw tracebacks): 1 generic, 2 usage (argparse),
3 parse errors in design/parameter files, 4 verification failures,
5 filesystem/OS errors, 6 service errors, 70 internal errors (set
``REPRO_DEBUG=1`` to re-raise those with the full traceback).

``--compact`` runs the chapter-6 flat compactor over the generated cell
before it is written (``x``/``y``/``xy``/``yx``), or — with ``hier`` —
the compact-once/stamp-many hierarchical pipeline that compacts each
distinct leaf cell exactly once and re-stamps every instance; every
pass solves its constraints with the paper's sorted-edge Bellman-Ford
(:mod:`repro.compact.solver`).  ``--tech`` picks the design-rule set
that compaction, routing and verification read, and ``--cache-dir``
persists compaction results on disk so an unchanged cell is never
compacted twice, even across runs.  ``--route``
composes two cells from the workspace with the wiring subsystem: the
net file names a bottom cell, a top cell and the nets to route between
their facing edges (see :func:`repro.route.compose.parse_net_file`);
the routed composite becomes the output cell.  ``--verify`` closes the
loop from mask geometry back to logical function (:mod:`repro.verify`):
device extraction plus LVS against the intended netlist and/or
switch-level simulation against the programmed personality, with
``--sim-vectors`` bounding the vector count; a failed check prints
the report and exits 4.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from ._lazy import lazy_exports
from .core.cell import CellDefinition
from .core.errors import (
    LanguageError,
    RsgError,
    ServiceError,
    VerificationError,
)
from .lang.param_file import parse_parameters
from .layout.cif import write_cif
from .layout.render import ascii_render, svg_render
from .obs import trace as obs_trace
from .obs.render import render_trace

if TYPE_CHECKING:
    from .compact.cache import CompactionCache

__all__ = [
    "main",
    "run_flow",
    "exit_code_for",
]

# The CLI never calls compact_cell; flowbench/tracing.py's LAYERS wraps
# repro.cli.compact_cell by name, and resolving it on that first read
# keeps the compactor out of `import repro.cli`.
__getattr__ = lazy_exports(__name__, {"repro.compact": ["compact_cell"]})[0]

#: ``(start, end)`` ``time.perf_counter()`` marks around the import of
#: this module, set by ``python -m repro`` (:mod:`repro.__main__`);
#: :func:`main` records the window as an ``import.cli`` span that opens
#: the ``repro.run`` root.
import_window: Optional[Tuple[float, float]] = None

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
    technology: str = "A",
    route_path: Optional[str] = None,
    router: str = "auto",
    cache_dir: Optional[str] = None,
    verify_mode: Optional[str] = None,
    sim_vectors: Optional[int] = None,
) -> CellDefinition:
    """Execute the full generation flow described by a parameter file.

    Returns the output cell.  The flow is the layout service's: the
    parameter file becomes a :class:`~repro.service.jobs.JobSpec`
    (:func:`~repro.service.jobs.spec_from_files`, the reader ``repro
    submit`` uses), :func:`~repro.service.jobs.run_job` runs its
    generate / compact / route / verify stages, and this front end
    prints the stage reports to ``output_stream`` and writes the output
    file.  ``overrides`` is a list of ``name=value`` strings applied on
    top of the parameter file (sizes, mostly).  ``compact_axes``
    (``"x"``, ``"y"``, ``"xy"``, ``"yx"``) runs the flat compactor over
    the result, using the ``technology`` rule set ("A" or "B", which
    routing and verification read too); ``compact_axes="hier"`` (or
    ``"hier:<axes>"`` to pick the per-leaf passes) runs the
    hierarchical compact-once pipeline instead.  ``cache_dir`` enables the
    on-disk compaction-result cache for either compaction mode.
    ``route_path`` names a net-request file: the named cells are
    composed with the wiring subsystem (``router`` picks the algorithm)
    and the routed composite replaces the output cell.  ``verify_mode``
    (``"lvs"``, ``"sim"`` or ``"all"``) runs the silicon-verification
    subsystem over the result and raises
    :class:`~repro.core.errors.VerificationError` on failure;
    ``sim_vectors`` caps the simulated input combinations.  Options that cannot take effect raise
    :class:`~repro.core.errors.ServiceError` from
    :meth:`~repro.service.jobs.JobSpec.validate`.  Each stage runs in
    a ``job.<stage>`` trace span (``generate`` / ``compact`` /
    ``route`` / ``verify`` / ``emit``) under the ambient tracer, or a
    private one when none is activated.
    """
    # Imported here, not at module level, so `import repro.cli` stays
    # light; the span keeps the first call's import out of the root's
    # unattributed time.
    with obs_trace.import_span("import.service"):
        from .service.jobs import run_job, spec_from_files, tracing

    route_text = None
    if route_path:
        with open(route_path, "r", encoding="utf-8") as handle:
            route_text = handle.read()
    spec = spec_from_files(
        parameter_path, overrides, tech=technology,
        compact=compact_axes, verify=verify_mode, sim_vectors=sim_vectors,
        route_text=route_text, router=router,
    )
    directives = parse_parameters(spec.parameters).directives
    cache = None
    if cache_dir:
        from .compact.cache import CompactionCache

        cache = CompactionCache(cache_dir)
    with tracing():
        try:
            cell, result = run_job(spec, cache=cache)
        except VerificationError as error:
            _print_result(error.result, cache, output_stream)
            raise VerificationError(error.headline) from None
        _print_result(result, cache, output_stream)
        with obs_trace.stage_span("job.emit"):
            output_path = directives.get("output_file")
            output_format = directives.get("format", "cif").lower()
            if output_path:
                if output_format == "cif":
                    write_cif(cell, output_path)
                elif output_format in ("svg", "ascii"):
                    render = svg_render if output_format == "svg" else ascii_render
                    with open(output_path, "w", encoding="utf-8") as handle:
                        handle.write(render(cell))
                else:
                    raise RsgError(f"unknown output format {output_format!r}")
                if output_stream is not None:
                    print(
                        f"wrote {output_format} to {output_path}",
                        file=output_stream,
                    )
    return cell


def _print_result(result, cache: Optional["CompactionCache"], output_stream) -> None:
    """Print a job result's stage reports, in pipeline order."""
    if output_stream is None or result is None:
        return
    lines = [
        f"compacted {entry['axis']}: width {entry['width_before']} ->"
        f" {entry['width_after']} ({entry['stats']})"
        for entry in result.compaction
    ]
    if result.pipeline is not None:
        lines.append(result.pipeline["summary"])
    if cache is not None and "compact" in result.timings:
        lines.append(cache.stats())
    if result.route_summary is not None:
        lines.append(result.route_summary)
    if result.verification is not None:
        lines.append(result.verification["summary"])
    for line in lines:
        print(line, file=output_stream)


def _record_import(tracer, root, started: float, imported: float) -> None:
    """Start ``root`` at ``started`` and add the ``import.cli`` span under it."""
    root.begin(at=started)
    tracer.add(obs_trace.Span(
        name="import.cli", trace_id=tracer.trace_id, parent_id=root.span_id,
        start_s=root.start_s, duration_s=imported - started,
    ))


class _VersionAction(argparse.Action):
    """``--version``: print ``repro <version>`` and exit.

    argparse's own version action takes the text when the parser is
    built; this one reads :data:`repro.__version__` only when asked, so
    a run without ``--version`` never loads the packaging metadata.
    """

    def __init__(self, option_strings, dest=argparse.SUPPRESS, help=None):
        super().__init__(
            option_strings=option_strings, dest=dest, default=argparse.SUPPRESS,
            nargs=0, help=help,
        )

    def __call__(self, parser, namespace, values, option_string=None):
        from . import __version__

        print(f"{parser.prog} {__version__}")
        parser.exit()


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
    parser.add_argument(
        "--version",
        action=_VersionAction,
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
        help="print the run's span tree after the flow: every stage"
        " (generate/compact/route/verify/emit) and its sub-stages in"
        " milliseconds, each parent closed by an (unattributed) line"
        " — the renderer 'repro trace' uses",
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
        "--cache-dir",
        metavar="DIR",
        help="persist compaction results under DIR so unchanged cells"
        " are never compacted twice, even across runs",
    )
    parser.add_argument(
        "--tech",
        choices=["A", "B"],
        help="design-rule technology used by --compact, --route and"
        " --verify (default: A)",
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
    if arguments.tech and not (
        arguments.compact or arguments.route or arguments.verify
    ):
        parser.error("--tech has no effect without --compact, --route or --verify")
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
    tracer = obs_trace.Tracer()
    try:
        with obs_trace.activated(tracer), tracer.span("repro.run") as root:
            if import_window is not None:
                _record_import(tracer, root, *import_window)
            cell = run_flow(
                arguments.parameter_file,
                arguments.set,
                sys.stdout,
                compact_axes=arguments.compact,
                technology=arguments.tech or "A",
                route_path=arguments.route,
                router=arguments.router,
                cache_dir=arguments.cache_dir,
                verify_mode=arguments.verify,
                sim_vectors=arguments.sim_vectors,
            )
    except Exception as error:  # noqa: BLE001 — mapped to exit families
        return _report_error(error)
    print(
        f"generated cell {cell.name!r}:"
        f" {cell.count_instances(recursive=True)} instances"
    )
    if arguments.timings:
        print(render_trace(tracer.finished()))
    if arguments.render:
        print(ascii_render(cell))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
