"""The package imports no submodule, each submodule imports on its own, the
modules keep their layering, and only truncated-Gaussian noise loads
``scipy.special``.

``goc/__init__.py`` re-exports nothing, so it no longer fixes an import
order: a cycle between two submodules would surface only when one of them
is imported first. Uniform noise calls no scipy function, so a uniform run
does not pay for importing ``scipy.special``. Each check runs in a fresh
interpreter, where nothing is imported yet.
"""

import ast
import graphlib
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


def _goc_imports(name: str) -> list[tuple[str, str | None]]:
    """``(goc submodule, enclosing function or None)`` for each import in ``goc/<name>.py``,
    read with ``ast`` so that nothing is imported."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((a.name, func) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.extend((child.module, func) if child.module != "goc" else
                             (f"goc.{a.name}", func) for a in child.names)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(ast.parse((SRC / "goc" / f"{name}.py").read_text()), None)
    return [(m.split(".")[1], func) for m, func in found if m.startswith("goc.")]


def test_module_layering():
    imports = {name: _goc_imports(name) for name in SUBMODULES}
    # arm environments draw from tables alone; best responses come from prepare_instance
    assert {m for m, _ in imports["environment"]} == {"envelope", "noise"}
    assert imports["noise"] == []
    # the one cycle: estimate_lipschitz imports oracle inside the function, as its comment says
    local = ("utility", "oracle", "estimate_lipschitz")
    graph = {name: {m for m, func in deps if (name, m, func) != local}
             for name, deps in imports.items()}
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


SMOKE_CONFIG = (
    "learner.a = 2.0\nlearner.b = 3.0\nlearner.lambda = 0.5\n"
    "lipschitz.ell = 2.0\nlipschitz.L = 0.3\nlipschitz.d = 1.0\n"
    "envelope.grid = 401\nexperiment.budget_scale = 0.02\n"
)
LOADED = "print('scipy.special' in sys.modules)"


def test_uniform_set_up_leaves_scipy_special_unloaded():
    run = _fresh(
        "import sys\n"
        "from goc.config import load_config_text\n"
        "from goc.experiments import prepare_instance\n"
        f"prepare_instance(load_config_text({SMOKE_CONFIG!r}))\n" + LOADED
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_uniform_envelope_command_leaves_scipy_special_unloaded(tmp_path):
    out = tmp_path / "env.csv"
    run = _fresh(
        "import sys\n"
        "from goc.cli import main\n"
        f"assert main(['envelope', '--eta-list', '2,2.5', '--out', {str(out)!r}]) == 0\n" + LOADED
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_truncated_gaussian_config_loads_scipy_special():
    run = _fresh(
        "import sys\n"
        "from goc.config import load_config_text\n" + LOADED + "\n"
        "cfg = load_config_text('noise.kind = truncated_gaussian\\nnoise.sigma = 0.5\\n')\n"
        + LOADED
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]
