"""Every module under src/igsaft, and the tests' scalar reference helper,
uses each name it imports. Importing the package and its CLI loads every
module under src/igsaft, so none is dead, resolves every name in
igsaft.__all__, and leaves scipy.stats, scipy.optimize, scipy.linalg and
scipy.sparse unloaded: of scipy's submodules the package imports only
scipy.special."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "igsaft"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
HELPERS = [Path(__file__).with_name("scalar_reference.py")]


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES + HELPERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


FRESH_IMPORT = """
import igsaft, igsaft.cli, json, sys
print(json.dumps({
    "modules": [m for m in sys.modules if m.startswith("igsaft")],
    "unresolved": [n for n in igsaft.__all__ if not hasattr(igsaft, n)],
    "scipy_stats": "scipy.stats" in sys.modules,
    "scipy_optimize": "scipy.optimize" in sys.modules,
    "scipy_linalg": "scipy.linalg" in sys.modules,
    "scipy_sparse": "scipy.sparse" in sys.modules,
}))
"""


@pytest.fixture(scope="module")
def fresh_import():
    """What `import igsaft, igsaft.cli` leaves behind in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_import_does_not_load_scipy_stats(fresh_import):
    # scipy.stats costs about 0.5 s and 20 MB at import; the package takes its
    # chi-square tails and normal quantiles from scipy.special instead
    assert fresh_import["scipy_stats"] is False


def test_import_does_not_load_scipy_optimize(fresh_import):
    # scipy.optimize (with HiGHS, scipy.fft and scipy.sparse.linalg) costs
    # about 0.2 s and 15 MB at import; censoring calibration ports its
    # Brent root finder instead
    assert fresh_import["scipy_optimize"] is False


def test_import_does_not_load_scipy_linalg_or_scipy_sparse(fresh_import):
    # positive-definite solves use numpy.linalg (igsaft.spd) and the censoring
    # group sums one np.bincount; the two modules cost about 0.1 s and 8 MB
    assert (fresh_import["scipy_linalg"], fresh_import["scipy_sparse"]) == (False, False)


def test_every_module_is_imported(fresh_import):
    # a module that neither the package nor its CLI imports runs in no fit
    expected = {f"igsaft.{p.stem}" for p in MODULES if p.name != "__main__.py"}
    assert expected - set(fresh_import["modules"]) == set()


def test_every_exported_name_resolves(fresh_import):
    assert fresh_import["unresolved"] == []
