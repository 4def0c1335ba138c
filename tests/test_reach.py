"""The reach gate: every function under ``src/repro/`` runs in a flow,
or ``tests/reach_allowlist.txt`` says why it ships.

A fixed matrix of the flows a user runs executes in one fresh process
under ``sys.setprofile`` (and ``threading.setprofile`` for the service's
threads), which records the code object of every Python call:

* every ``--compact`` mode (none included) × every ``--verify`` mode ×
  both rule sets on the 4×4 multiplier, through ``repro.cli.main``;
* ``--cache-dir``, cold then warm, for ``xy`` and ``hier``;
* ``--route`` with each router on ``tests/test_cli.py``'s blocks, and
  once with ``--verify``;
* the CLI options no run above sets: ``--timings``, ``--sim-vectors``,
  ``--render`` and ``--version``;
* the in-process calls the flow benchmark's workloads make: a
  rubber-band ``compact_layout``, ``execute_job`` with ``verify="all"``,
  and a language PLA through ``verify_cell(mode="all")`` and
  ``cif_text``;
* ``repro submit`` against an in-process ``LayoutServer``, twice (the
  second answer is deduplicated), then ``repro stats`` and ``repro
  trace``, and ``repro gc`` over its root once it stops;
* each ``examples/*.py`` but ``service_demo.py`` (a daemon in a
  subprocess, which CI runs on its own), through ``runpy``.

A run that exits with a code other than 0 (or 4, a verification
failure) fails the test: a flow that stops early would reach less.

Every ``def`` under ``src/repro/`` that never ran must be listed in the
allowlist, one ``path:qualname  # reason`` line each, and every listed
function must still be unreached: a new unreached function fails the
test until a flow reaches it, it is listed with a reason, or it is
deleted, and a listed function that a flow now runs fails it until its
line goes.  A reason is one of a fixed set (:data:`REASONS`), and the
gate reads what it cites to confirm it (:func:`reason_error`).  Methods
Python calls implicitly (:data:`IMPLICIT`) are exempt.

The matrix runs in a child process so that the caches a test session
has warmed (compiled design texts, parsed samples, imported modules)
cannot hide a function from it.  The child starts without the caller's
``REPRO_*`` variables, whose tracing, chaos and debug switches change
which paths run, and with ``TMPDIR`` set to a fresh directory, where
the examples write their output.  Run this file as a script to print
the unreached set, one ``path:qualname`` a line:

    PYTHONPATH=src python tests/test_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Optional, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.txt")

#: the reasons an unreached function may ship for, as whole-reason
#: patterns.  Each names what the gate reads to confirm it
#: (:func:`reason_error`): a benchmark carrying the E-label, a test or
#: caller file, the module citing the paper locus, the package
#: exporting the function.
LOCUS = r"§\d[\d.]*|Figure \d[\d.]*|(chapter|section) \d[\d.]*|Appendix [A-C]"
TESTED = r", tested by (?P<test>tests/\w+\.py)"
REASONS = (
    # a labelled experiment: a benchmark carrying the label names it
    re.compile(r"(?P<label>E-[0-9T][0-9.]*): .+"),
    # a locus the function's module cites, and the test that runs it
    re.compile(rf"(?P<locus>{LOCUS}): .+{TESTED}"),
    # a benchmark, an example or a flowbench workload outside the matrix
    re.compile(r"called by (?P<caller>(benchmarks|examples|flowbench)/\w+\.py)(: .+)?"),
    # the service's worker side, which the profile cannot see
    re.compile(r"runs only in a worker process"),
    # the ROM, the decoders, HPLA and the register-configuration table
    re.compile(r"library generator verified by (?P<test>tests/\w+\.py)"),
    re.compile(rf"safety check: .+{TESTED}"),
    # exported by a package and pinned by its unit tests, no flow
    # calling it (candidates for deletion)
    re.compile(rf"public API of (?P<package>repro\.\w+){TESTED}"),
)

#: dunder methods Python calls implicitly (printing, comparison,
#: hashing, pickling, attribute access, context managers, iteration)
IMPLICIT = re.compile(r"__(?!init__|post_init__)\w+__")


def defined_functions() -> Set[str]:
    """Every ``def`` under ``src/repro/`` as ``path:qualname``."""
    found: Set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    found.add(f"{relative}:{qualname}")
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def read_allowlist() -> Dict[str, str]:
    """The allowlist as ``{path:qualname: reason}``."""
    entries: Dict[str, str] = {}
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        entries[name.strip()] = reason.strip()
    return entries


def anchor(name: str) -> str:
    """The pattern a file that names ``name`` (``path:qualname``) carries:
    the function, or for a private or local helper the nearest public
    def or class around it, or else its module or a public def or class
    of the module that calls it."""
    path, qualname = name.split(":")
    parts = qualname.split(".<locals>.")[0].split(".")
    for depth in range(len(parts), 0, -1):
        word = parts[depth - 1]
        if not word.startswith("_"):
            # a method is read as an attribute, anything else by name
            return rf"\.{word}\b" if depth > 1 and word[0].islower() else rf"\b{word}\b"
    callers = [Path(path).stem] + [
        node.name for node in ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and any(
            getattr(inner, "id", getattr(inner, "attr", None)) == parts[0]
            for inner in ast.walk(node)
        )
    ]
    return r"\b(" + "|".join(callers) + r")\b"


def _cites(text: str, locus: str) -> bool:
    """Whether ``text`` cites ``locus`` (section N also spelled §N)."""
    kind, _, number = locus.replace("§", "section ").partition(" ")
    spelled = {"section": r"(section|§)\s*", "Figure": r"fig(ure|\.)\s*"}.get(kind, kind + r"\s+")
    return re.search(spelled + re.escape(number) + r"(?![.]?\w)", text, re.IGNORECASE) is not None


def reason_error(name: str, reason: str) -> Optional[str]:
    """Why ``reason`` does not hold for ``name`` (``path:qualname``), or
    None if it does: it must be one of :data:`REASONS`, and what it
    cites must exist and bear it out."""
    match = next((m for m in (pattern.fullmatch(reason) for pattern in REASONS) if m), None)
    if match is None:
        return f"reason {reason!r} is not one of the fixed set"
    found = match.groupdict()
    path = name.split(":")[0]
    named = re.compile(anchor(name))
    # a caller may reach it through what it imports; a test names it
    for key in ("caller", "test"):
        cited = found.get(key)
        if cited is None:
            continue
        if not (ROOT / cited).is_file():
            return f"{cited} does not exist"
        if key == "test" and not named.search((ROOT / cited).read_text(encoding="utf-8")):
            return f"{cited} does not name it ({named.pattern})"
    if found.get("label") is not None:
        label = re.compile(re.escape(found["label"]) + r"(?![.]?\w)")
        carriers = [
            bench for bench in sorted((ROOT / "benchmarks").glob("*.py"))
            if label.search(bench.read_text(encoding="utf-8"))
        ]
        if not carriers:
            return f"no benchmark carries {found['label']}"
        if not any(named.search(bench.read_text(encoding="utf-8")) for bench in carriers):
            return f"no benchmark carrying {found['label']} names it ({named.pattern})"
    if found.get("locus") is not None and not _cites(
        (ROOT / path).read_text(encoding="utf-8"), found["locus"]
    ):
        return f"{path} does not cite {found['locus']}"
    if found.get("package") is not None:
        exported = set(getattr(importlib.import_module(found["package"]), "__all__", ()))
        if not exported & set(name.split(":")[1].split(".")):
            return f"{found['package']} does not export it"
    if reason == "runs only in a worker process" and not path.startswith("src/repro/service/"):
        return f"{path} is not part of the service"
    return None


def gate_failures(unreached: Set[str], listed: Set[str]) -> List[str]:
    """The gate's complaints: unreached functions the allowlist lacks,
    then listed functions that are no longer unreached."""
    failures = []
    missing = sorted(unreached - listed)
    if missing:
        failures.append(
            "functions no flow reaches (reach them, list them with a reason"
            " in tests/reach_allowlist.txt, or delete them):\n  " + "\n  ".join(missing)
        )
    stale = sorted(listed - unreached)
    if stale:
        failures.append(
            "allowlisted functions a flow now runs (drop their lines):\n  "
            + "\n  ".join(stale)
        )
    return failures


# ---------------------------------------------------------------------------
# The matrix (runs in the child process)
# ---------------------------------------------------------------------------
COMPACT = ["hier", "hier:xy", "x", "y", "xy", "yx"]
VERIFY = ["lvs", "sim", "all"]
TECHS = ["A", "B"]


def run_matrix(work: Path) -> None:
    """Run every flow of the matrix once, output discarded."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import ROUTE_DESIGN, ROUTE_NETS, ROUTE_SAMPLE

    from repro.cli import EXIT_VERIFY, main
    from repro.multiplier import DESIGN_FILE, MULTIPLIER_SAMPLE, PARAMETER_FILE

    (work / "mult.sample").write_text(MULTIPLIER_SAMPLE)
    (work / "mult.design").write_text(DESIGN_FILE)
    multiplier = work / "mult.par"
    multiplier.write_text(
        f".example_file:{work / 'mult.sample'}\n"
        f".concept_file:{work / 'mult.design'}\n"
        f".output_file:{work / 'mult.cif'}\n"
        ".output_cell:thewholething\n"
        + PARAMETER_FILE.split("\n", 1)[1]
    )
    size = ["--set", "xsize=4", "--set", "ysize=4"]
    flows: List[List[str]] = []
    for tech in TECHS:
        for compact in [None] + COMPACT:
            for verify in [None] + VERIFY:
                argv = [str(multiplier), *size]
                argv += ["--compact", compact] if compact else []
                argv += ["--verify", verify] if verify else []
                if compact or verify:  # --tech alone is a usage error
                    flows.append(argv + ["--tech", tech])
                elif tech == TECHS[0]:
                    flows.append(argv)
    for compact in ("xy", "hier"):
        cache = ["--compact", compact, "--cache-dir", str(work / f"cache-{compact}")]
        flows += [[str(multiplier), *size, *cache]] * 2
    flows += [
        [str(multiplier), *size, "--compact", "hier", "--timings"],
        [str(multiplier), *size, "--verify", "sim", "--sim-vectors", "8"],
        [str(multiplier), *size, "--render"],
    ]

    (work / "blocks.sample").write_text(ROUTE_SAMPLE)
    (work / "blocks.design").write_text(ROUTE_DESIGN)
    (work / "blocks.net").write_text(ROUTE_NETS)
    blocks = work / "blocks.par"
    blocks.write_text(
        f".example_file:{work / 'blocks.sample'}\n"
        f".concept_file:{work / 'blocks.design'}\n"
        f".output_file:{work / 'routed.cif'}\n"
    )
    for router in ("auto", "river", "channel"):
        flows.append([str(blocks), "--route", str(work / "blocks.net"), "--router", router])
    flows.append([str(blocks), "--route", str(work / "blocks.net"), "--verify", "all"])

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            main(["--version"])
        for argv in flows:
            # a flat-compacted TECH_B multiplier does not extract: exit 4
            assert main(argv) in (0, EXIT_VERIFY), argv
        library_calls()
        service_verbs(main, multiplier, size, work)
    for example in sorted((ROOT / "examples").glob("*.py")):
        if example.name == "service_demo.py":
            continue
        argv, sys.argv = sys.argv, [str(example)]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(example), run_name="__main__")
        finally:
            sys.argv = argv


def library_calls() -> None:
    """The in-process calls the flow benchmark's workloads make."""
    from repro import compact, verify
    from repro.compact import TECH_A
    from repro.layout import cif_text, flatten_cell
    from repro.multiplier import generate_via_language
    from repro.pla import TruthTable, generate_pla_via_language
    from repro.service.jobs import JobSpec, execute_job

    cell, _ = generate_via_language(3, 3)
    compact.compact_layout(flatten_cell(cell), TECH_A, rubber_band=True, axis="x")
    execute_job(JobSpec(kind="multiplier", parameters="xsize=3\nysize=3", verify="all"))
    table = TruthTable.parse(
        "1-0-1 | 10\n01--0 | 01\n-11-1 | 11\n0--10 | 10\n1-1-0 | 01"
    )
    cell, _ = generate_pla_via_language(table)
    verify.verify_cell(cell, mode="all", table=table)
    cif_text(cell)


def service_verbs(main, parameter: Path, size: List[str], work: Path) -> None:
    """``repro submit`` to an in-process service, the same job again (the
    deduplicated answer), ``repro stats`` and ``repro trace`` of the job,
    then ``repro gc`` over the stopped service's root."""
    from repro.service.jobs import spec_from_files
    from repro.service.server import LayoutServer

    root = work / "store"
    submit = ["submit", str(parameter), *size, "--compact", "hier"]
    job = spec_from_files(
        str(parameter), [option for option in size if option != "--set"],
        tech="A", compact="hier",
    ).fingerprint
    server = LayoutServer(str(root), port=0, workers=1)
    server.start()
    try:
        for _ in range(2):
            assert main([*submit, "--url", server.url, "--output", str(work / "out.cif")]) == 0
        assert main(["stats", "--url", server.url, "--metrics"]) == 0
        assert main(["trace", job, "--url", server.url]) == 0
    finally:
        server.stop(drain=True)
    assert main(["gc", "--root", str(root), "--max-bytes", "1K", "--cache-max-bytes", "1K"]) == 0


def reached_functions() -> Set[str]:
    """Run the matrix under the profiler; the ``path:qualname`` of every
    function under ``src/repro/`` that it called.  Threads started after
    the hook is set are profiled too; forked worker processes are not."""
    codes: Dict[int, object] = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in codes:
                codes[id(code)] = code

    package = str(PACKAGE) + os.sep
    with tempfile.TemporaryDirectory() as directory:
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            run_matrix(Path(directory))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return {
        f"{Path(code.co_filename).relative_to(ROOT).as_posix()}:{code.co_qualname}"
        for code in codes.values()
        if code.co_filename.startswith(package)
    }


def unreached(reached: Set[str]) -> Set[str]:
    """The defs under ``src/repro/`` outside ``reached``, implicit
    methods left out."""
    return {
        name for name in defined_functions() - reached
        if not IMPLICIT.fullmatch(name.rsplit(":", 1)[-1].rsplit(".", 1)[-1])
    }


def unreached_functions() -> Set[str]:
    """The defs under ``src/repro/`` that the matrix never runs, measured
    in a fresh process."""
    # the REPRO_* switches (tracing, chaos, debug) would change which
    # paths run, and the examples' output goes under the child's TMPDIR
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    with tempfile.TemporaryDirectory() as directory:
        env["TMPDIR"] = directory
        output = Path(directory) / "reached.json"
        completed = subprocess.run(
            [sys.executable, __file__, "--json", str(output)], capture_output=True,
            text=True, env=env, cwd=ROOT,
        )
        assert completed.returncode == 0, completed.stderr
        return unreached(set(json.loads(output.read_text())))


# ---------------------------------------------------------------------------
# The tests
# ---------------------------------------------------------------------------
def test_unreached_functions_equal_the_allowlist():
    failures = gate_failures(unreached_functions(), set(read_allowlist()))
    assert not failures, "\n".join(failures)


def test_every_allowlist_line_names_a_function_and_a_reason():
    defined = defined_functions()
    for name, reason in read_allowlist().items():
        assert name in defined, f"{name}: no such function under src/repro/"
        error = reason_error(name, reason)
        assert error is None, f"{name}: {error}"


@pytest.mark.parametrize("name, reason", [
    ("src/repro/geometry/orientation.py:Orientation.name",
     "E-2.5: Figure 2.5's table names each orientation"),
    ("src/repro/core/graph.py:collect_graph",
     "chapter 3: the nodes of a connectivity graph, tested by tests/test_graph.py"),
    ("src/repro/pla/truthtable.py:TruthTable.crosspoints",
     "§1.2.1: the crosspoint counts, tested by tests/test_pla.py"),
    ("src/repro/compact/flat.py:compact_layout_xy",
     "called by benchmarks/bench_flat_compaction.py"),
    ("src/repro/cli.py:_record_import",
     "called by examples/service_demo.py: the daemon's own span"),
    ("src/repro/service/workers.py:worker_loop", "runs only in a worker process"),
    ("src/repro/pla/rom.py:generate_rom",
     "library generator verified by tests/test_rom_and_lang_pla.py"),
    ("src/repro/layout/sample.py:_fail.<locals>.fail",
     "safety check: a malformed text fails each load, tested by tests/test_sample.py"),
    ("src/repro/geometry/box.py:Box.intersection",
     "public API of repro.geometry, tested by tests/test_geometry.py"),
])
def test_reason_in_the_fixed_set_is_accepted(name, reason):
    assert reason_error(name, reason) is None


@pytest.mark.parametrize("name, reason, error", [
    ("src/repro/geometry/box.py:Box.intersection", "", "not one of the fixed set"),
    ("src/repro/geometry/box.py:Box.intersection", "unused", "not one of the fixed set"),
    ("src/repro/compact/flat.py:compact_layout_xy", "E-6.2", "not one of the fixed set"),
    ("src/repro/core/graph.py:collect_graph", "chapter 3: the nodes of a graph",
     "not one of the fixed set"),
    ("src/repro/layout/sample.py:_fail", "safety check: a malformed text fails",
     "not one of the fixed set"),
    ("src/repro/service/workers.py:worker_loop",
     "runs only in a worker process sometimes", "not one of the fixed set"),
    ("src/repro/compact/flat.py:compact_layout_xy", "called by tests/test_cli.py",
     "not one of the fixed set"),
    ("src/repro/compact/flat.py:compact_layout_xy",
     "called by benchmarks/bench_nothing_here.py", "does not exist"),
    ("src/repro/pla/rom.py:generate_rom",
     "library generator verified by tests/test_nothing_here.py", "does not exist"),
    ("src/repro/geometry/box.py:Box.intersection",
     "public API of repro.geometry, tested by tests/test_pla.py", "does not name it"),
    ("src/repro/compact/flat.py:compact_layout_xy", "E-9.9: no such experiment",
     "no benchmark carries E-9.9"),
    ("src/repro/compact/flat.py:compact_layout_xy", "E-T2: the three phases",
     "no benchmark carrying E-T2 names it"),
    ("src/repro/core/graph.py:collect_graph",
     "Figure 6.5: not this module's, tested by tests/test_graph.py", "does not cite Figure 6.5"),
    ("src/repro/geometry/box.py:Box.intersection",
     "public API of repro.verify, tested by tests/test_geometry.py", "does not export it"),
    ("src/repro/cli.py:_record_import", "runs only in a worker process",
     "is not part of the service"),
])
def test_reason_that_does_not_hold_is_rejected(name, reason, error):
    assert error in reason_error(name, reason)


def test_a_helper_is_named_through_what_encloses_it():
    assert anchor("src/repro/a/b.py:f") == r"\bf\b"
    assert anchor("src/repro/a/b.py:Cls.method") == r"\.method\b"
    assert anchor("src/repro/a/b.py:Cls._private") == r"\bCls\b"
    assert anchor("src/repro/a/b.py:Cls.method.<locals>.inner") == r"\.method\b"
    # all private: the module, or a public def of it that calls the helper
    assert anchor("src/repro/multiplier/regconfig.py:_ceil_div") == (
        r"\b(regconfig|register_configuration)\b"
    )
    assert anchor("src/repro/lang/environment.py:_describe.<locals>.x") == (
        r"\b(environment|Environment|GlobalEnvironment)\b"
    )
    assert _cites("see section 2.4 and Figure 6.3", "section 2.4")
    assert _cites("the rule of §2.4.", "section 2.4")
    assert not _cites("section 2.4.1 only", "section 2.4")
    assert _cites("as Fig. 6.3 shows", "Figure 6.3")
    assert _cites("Appendix A's grammar", "Appendix A")


def test_missing_and_stale_lines_both_fail_the_gate():
    assert gate_failures({"a.py:f", "a.py:g"}, {"a.py:f", "a.py:g"}) == []
    missing, stale = gate_failures({"a.py:f", "a.py:new"}, {"a.py:f", "a.py:old"})
    assert missing.startswith("functions no flow reaches") and "a.py:new" in missing
    assert stale.startswith("allowlisted functions a flow now runs") and "a.py:old" in stale


def test_only_implicit_dunder_methods_are_exempt():
    for name in ("__repr__", "__eq__", "__hash__", "__reduce__", "__enter__"):
        assert IMPLICIT.fullmatch(name)
    for name in ("__init__", "__post_init__", "_private", "public"):
        assert not IMPLICIT.fullmatch(name)
    assert unreached({"src/repro/cli.py:main"}) >= {"src/repro/cli.py:exit_code_for"}


def test_defined_functions_carry_the_qualnames_the_profiler_reports():
    """The gate names a ``def`` from the source as the profiler names its
    code object (``co_qualname``), nested and local ones included; a
    mismatch would leave a function unreached however often it ran."""
    compiled: Set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while codes:
            code = codes.pop()
            codes.extend(const for const in code.co_consts if hasattr(const, "co_qualname"))
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                compiled.add(f"{relative}:{code.co_qualname}")
    assert defined_functions() == compiled


if __name__ == "__main__":
    if sys.argv[1:2] == ["--json"]:
        Path(sys.argv[2]).write_text(json.dumps(sorted(reached_functions())))
    else:
        print("\n".join(sorted(unreached(reached_functions()))))
