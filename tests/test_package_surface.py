"""The package ships one build of each pass, and no test oracle.

The interpreted oracles the equivalence tests and benchmarks compare
the program against live in ``tests/oracles/``.  These checks walk
every ``repro`` module and fail when an oracle grows back into the
package: a module-level name or a class attribute ending in
``_reference``, an ``__all__`` entry ending so, the interpreted sweep
module ``repro.geometry.sweep``, or an import of the test tree from
``src/``.  The band scan of Figures 6.5/6.6 (``naive_constraints``,
``_gap_covered``) counts as an oracle too, and a flat entry point takes
the pass's own options by name and nothing else: no ``**kwargs``,
``method``, ``merge``, ``sizing`` or ``sort_edges``.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent


def _module_names():
    return ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]


MODULES = _module_names()

#: oracles named without the ``_reference`` suffix: the band scan of
#: Figures 6.5/6.6
ORACLES = {"naive_constraints", "_gap_covered"}


def _is_oracle(name):
    return name.endswith("_reference") or name in ORACLES


def test_walk_reaches_every_package():
    for package in ("compact", "core", "geometry", "lang", "layout", "multiplier",
                    "obs", "pla", "route", "service", "verify"):
        assert f"repro.{package}" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_defines_and_exports_no_reference_build(name):
    module = importlib.import_module(name)
    found = [
        attribute for attribute in list(vars(module)) + list(getattr(module, "__all__", ()))
        if _is_oracle(attribute)
    ]
    for attribute, value in vars(module).items():
        if inspect.isclass(value) and value.__module__ == name:
            found += [
                f"{attribute}.{member}" for member in vars(value) if _is_oracle(member)
            ]
    assert not found, f"{name} ships oracle builds: {sorted(set(found))}"


@pytest.mark.parametrize(
    "entry", ["compact_layout", "compact_layout_xy", "compact_passes", "compact_cell"]
)
def test_flat_entry_takes_only_the_pass_options(entry):
    from repro.compact import flat

    parameters = inspect.signature(getattr(flat, entry)).parameters.values()
    assert all(parameter.kind != parameter.VAR_KEYWORD for parameter in parameters)
    assert not {"method", "merge", "sizing", "sort_edges"} & {p.name for p in parameters}


def test_interpreted_sweep_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.geometry.sweep")


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_source_imports_nothing_from_the_tests(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [node.module or ""]
        else:
            continue
        for target in targets:
            assert target.split(".")[0] not in ("tests", "oracles", "conftest"), (
                f"{path.relative_to(SRC)}:{node.lineno} imports {target}"
            )
