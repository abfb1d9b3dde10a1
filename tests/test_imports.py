"""Every module under src/igsaft uses each name it imports, and importing the
package and its CLI leaves scipy.stats unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "igsaft"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about 0.5 s and 20 MB at import; the package takes its
    # chi-square tails and normal quantiles from scipy.special instead
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import igsaft, igsaft.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
