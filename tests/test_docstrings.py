"""Documentation-surface enforcement for the library's subsystems.

``make docs-check`` runs exactly this module.  Every public module under
``repro.compact``, ``repro.core``, ``repro.lang``, ``repro.layout``,
``repro.multiplier``, ``repro.obs``, ``repro.pla``, ``repro.route``,
``repro.service`` and ``repro.verify`` must carry a module docstring, and every public class and function they
define must be documented — these subsystems are walked through in the
architecture docs, so an undocumented entry point is a docs regression.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.compact
import repro.core
import repro.lang
import repro.layout
import repro.multiplier
import repro.obs
import repro.pla
import repro.route
import repro.service
import repro.verify


def _public_modules():
    """Import every non-underscore module under the documented packages."""
    modules = []
    for package in (
        repro.compact,
        repro.core,
        repro.lang,
        repro.layout,
        repro.multiplier,
        repro.obs,
        repro.pla,
        repro.route,
        repro.service,
        repro.verify,
    ):
        modules.append(package)
        for info in pkgutil.walk_packages(
            package.__path__, prefix=package.__name__ + "."
        ):
            if info.name.rsplit(".", 1)[-1].startswith("_"):
                continue
            modules.append(importlib.import_module(info.name))
    return modules


MODULES = _public_modules()


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module.__name__} lacks a module docstring"
    )


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_public_members_documented(module):
    undocumented = []
    for name in getattr(module, "__all__", []):
        member = getattr(module, name)
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
        elif inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_") or not inspect.isfunction(method):
                    continue
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(f"{name}.{method_name}")
    assert undocumented == [], (
        f"{module.__name__} has undocumented public members: {undocumented}"
    )
