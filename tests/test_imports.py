"""The package imports no submodule, and each submodule imports on its own.

``goc/__init__.py`` re-exports nothing, so it no longer fixes an import
order: a cycle between two submodules would surface only when one of them
is imported first. Each check runs in a fresh interpreter, where nothing
is imported yet.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules([str(SRC / "goc")]))


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_package_imports_no_submodule():
    run = _fresh("import sys, goc; print(sorted(m for m in sys.modules if m.startswith('goc.')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_first(name):
    run = _fresh(f"import goc.{name}")
    assert run.returncode == 0, run.stderr
