"""What a cold start of the command line loads.

Every ``repro`` run imports ``repro.cli`` first, so whatever that import
pulls in is paid on every run.  ``importlib.metadata`` (with ``email``
and ``socket`` under it) serves only ``repro --version`` and is read on
first use of ``repro.__version__``; ``http.server`` belongs to ``repro
serve``; scipy loads when an LP is solved.  ``make docs-check`` runs
this module beside ``tests/test_package_surface.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

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


def test_version_resolves_on_first_read():
    out = _run("-c", (
        "import sys, repro; before = 'importlib.metadata' in sys.modules;"
        " print(before, repro.__version__, 'importlib.metadata' in sys.modules)"
    ))
    assert out.split() == ["False", repro.__version__, "True"]


def test_version_flag_prints_the_package_version():
    assert _run("-m", "repro", "--version") == f"repro {repro.__version__}\n"
