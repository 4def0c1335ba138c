"""What a cold start of the command line loads.

Every ``repro`` run imports ``repro.cli`` first, so whatever that import
pulls in is paid on every run.  ``importlib.metadata`` (with ``email``
and ``socket`` under it) serves only ``repro --version`` and is read on
first use of ``repro.__version__``; ``http.server`` belongs to ``repro
serve``; scipy loads when an LP is solved.  ``make docs-check`` runs
this module beside ``tests/test_package_surface.py``.

Every package ``__init__`` declares its exports as a
``lazy_exports(__name__, {submodule: [names]})`` table
(``repro/_lazy.py``) and loads nothing until a name is read, so the
CLI's import loads no compactor, verifier, router or service module,
and a one-shot run never loads the service stack around the pipeline.
The table checks below read each package's table from its source and
hold the package to it.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SRC = str(PACKAGE_DIR.parent)
PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in PACKAGE_DIR.glob("*/__init__.py")
)

#: submodules a package imports eagerly: ``repro.route`` binds
#: ``compose`` (also a submodule name) before that submodule can shadow it
EAGER = {
    "repro.route": [
        "repro.route.channel", "repro.route.compose", "repro.route.river",
        "repro.route.style", "repro.route.wiring",
    ],
}

#: modules a cold ``import repro.cli`` must leave unloaded
DEFERRED = ("importlib.metadata", "email", "http.server", "scipy")


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [part for part in env.get("PYTHONPATH", "").split(os.pathsep) if part]
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, check=True, env=env,
    ).stdout


def test_cli_import_leaves_metadata_http_and_scipy_unloaded():
    loaded = _run("-c", (
        "import sys, repro.cli;"
        f" print(sorted(m for m in {DEFERRED!r} if m in sys.modules))"
    ))
    assert loaded.strip() == "[]"


def test_cold_start_loads_only_the_cli_and_the_sample_libraries():
    """flowbench's cold start, the CLI plus both sample libraries, loads
    no compactor, verifier, service or router module, and of the PLA
    package only its sample library."""
    prefixes = ("repro.compact", "repro.verify", "repro.service", "repro.route", "repro.pla")
    loaded = _run("-c", (
        "import sys, repro.cli; from repro.multiplier import load_multiplier_library;"
        " from repro.pla import load_pla_library; load_multiplier_library();"
        " load_pla_library();"
        f" print(' '.join(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))"
    ))
    assert loaded.split() == ["repro.pla", "repro.pla.cells"]


#: what the service wraps around the pipeline: a one-shot run needs none
SERVICE_STACK = (
    "sqlite3", "http.server", "http.client", "email", "multiprocessing",
    "repro.service.chaos", "repro.service.client", "repro.service.server",
    "repro.service.store", "repro.service.workers", "repro.service.metrics",
)


def test_one_shot_flow_leaves_the_service_stack_unloaded(tmp_path):
    from repro.multiplier import DESIGN_FILE, MULTIPLIER_SAMPLE, PARAMETER_FILE

    (tmp_path / "mult.sample").write_text(MULTIPLIER_SAMPLE)
    (tmp_path / "mult.design").write_text(DESIGN_FILE)
    parameters = tmp_path / "mult.par"
    parameters.write_text(
        f".example_file:{tmp_path / 'mult.sample'}\n"
        f".concept_file:{tmp_path / 'mult.design'}\n"
        f".output_file:{tmp_path / 'mult.cif'}\n"
        ".output_cell:thewholething\n" + PARAMETER_FILE
    )
    argv = [str(parameters), "--set", "xsize=4", "--set", "ysize=4",
            "--compact", "xy", "--verify", "all"]
    out = _run("-c", (
        f"import sys; from repro.cli import main; code = main({argv!r});"
        f" print(code, sorted(m for m in {SERVICE_STACK!r} if m in sys.modules))"
    ))
    assert out.splitlines()[-1] == "0 []"


def test_verify_only_flow_leaves_the_compactor_unloaded(tmp_path):
    """A run that verifies without compacting imports no compactor: the
    pipeline imports ``repro.compact.flat`` and ``.pipeline`` inside its
    compact stage."""
    from repro.multiplier import DESIGN_FILE, MULTIPLIER_SAMPLE, PARAMETER_FILE

    (tmp_path / "mult.sample").write_text(MULTIPLIER_SAMPLE)
    (tmp_path / "mult.design").write_text(DESIGN_FILE)
    parameters = tmp_path / "mult.par"
    parameters.write_text(
        f".example_file:{tmp_path / 'mult.sample'}\n"
        f".concept_file:{tmp_path / 'mult.design'}\n"
        f".output_file:{tmp_path / 'mult.cif'}\n"
        ".output_cell:thewholething\n" + PARAMETER_FILE
    )
    argv = [str(parameters), "--set", "xsize=3", "--set", "ysize=3", "--verify", "all"]
    compactor = ("repro.compact.flat", "repro.compact.pipeline")
    out = _run("-c", (
        f"import sys; from repro.cli import main; code = main({argv!r});"
        f" print(code, sorted(m for m in {compactor!r} if m in sys.modules))"
    ))
    assert out.splitlines()[-1] == "0 []"


def test_version_resolves_on_first_read():
    out = _run("-c", (
        "import sys, repro; before = 'importlib.metadata' in sys.modules;"
        " print(before, repro.__version__, 'importlib.metadata' in sys.modules)"
    ))
    assert out.split() == ["False", repro.__version__, "True"]


def test_version_flag_prints_the_package_version():
    assert _run("-m", "repro", "--version") == f"repro {repro.__version__}\n"


def _table(package):
    """The ``{submodule: [names]}`` table the package hands to lazy_exports."""
    path = PACKAGE_DIR.joinpath(*package.split(".")[1:], "__init__.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} declares no lazy_exports table")


def test_every_package_is_checked():
    assert {"repro.compact", "repro.route", "repro.service", "repro.verify"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_table_covers_all_once(package):
    names = [name for names in _table(package).values() for name in names]
    assert len(names) == len(set(names))
    assert set(names) == set(importlib.import_module(package).__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_each_name_is_the_submodules_own_object(package):
    module = importlib.import_module(package)
    for submodule, names in _table(package).items():
        owner = importlib.import_module(submodule, package)
        for name in names:
            assert getattr(module, name) is getattr(owner, name), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_star_import_and_unknown_names(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")
    assert not hasattr(module, "no_such_export")


@pytest.mark.parametrize("package", PACKAGES)
def test_import_loads_no_submodule(package):
    loaded = _run("-c", (
        f"import sys, {package};"
        f" print(' '.join(sorted(m for m in sys.modules if m.startswith('{package}.'))))"
    )).split()
    assert set(loaded) <= set(EAGER.get(package, ())) | {"repro._lazy"}


def test_compose_stays_the_function_after_its_submodule_loads():
    out = _run("-c", (
        "import inspect, sys, repro.route.compose;"
        " from repro.route import compose;"
        " print(inspect.isfunction(compose),"
        " compose is sys.modules['repro.route.compose'].compose)"
    ))
    assert out.split() == ["True", "True"]


def test_flowbench_layer_targets_resolve():
    """Each flowbench ``LAYERS`` wrap target resolves by ``importlib``
    and ``getattr``, the way its ``Recorder.install`` finds it."""
    flowbench = str(PACKAGE_DIR.parent.parent / "flowbench")
    sys.path.insert(0, flowbench)
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(flowbench)
    targets = [target for _, targets in tracing.LAYERS for target in targets]
    assert targets
    for module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        for attribute in path.split("."):
            owner = getattr(owner, attribute)
        assert callable(owner), f"{module_name}:{path}"
