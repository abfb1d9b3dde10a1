"""Every module under src/igsaft, and the tests' scalar reference helper,
uses each name it imports. Importing the package and its CLI loads every
module under src/igsaft, so none is dead, resolves every name in
igsaft.__all__, and loads no scipy module: the package runs on numpy alone,
and a fit, a Monte Carlo replication and the CLI manifest complete where
scipy cannot be imported. Fits over repeated splits do not load numpy.ma."""

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
after_import = {
    "modules": [m for m in sys.modules if m.startswith("igsaft")],
    "unresolved": [n for n in igsaft.__all__ if not hasattr(igsaft, n)],
    "scipy": [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")],
}
ds = igsaft.generate(igsaft.SimConfig(case=1, n=300, p=4, seed=3, reps=1), 0, taus=(-2.0, 14.0))[0]
igsaft.fit_igsaft(ds, igsaft.FitConfig(n_splits=2))
igsaft.run_monte_carlo(igsaft.SimConfig(case=1, n=200, p=3, target_cr=0.2, reps=1, seed=4),
                       igsaft.FitConfig(n_splits=2), ["el", "aft"])
print(json.dumps({**after_import, "numpy_ma_after_fits": "numpy.ma" in sys.modules}))
"""


@pytest.fixture(scope="module")
def fresh_import():
    """What `import igsaft, igsaft.cli` leaves behind in a new interpreter,
    and whether a fit and a Monte Carlo replication, both over 2 splits,
    then load numpy.ma."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_import_does_not_load_scipy_stats(fresh_import):
    # scipy.stats costs about 0.5 s and 20 MB at import
    assert "scipy.stats" not in fresh_import["scipy"]


def test_import_does_not_load_scipy_optimize(fresh_import):
    # scipy.optimize (with HiGHS, scipy.fft and scipy.sparse.linalg) costs
    # about 0.2 s and 15 MB at import; censoring calibration ports its
    # Brent root finder instead
    assert "scipy.optimize" not in fresh_import["scipy"]


def test_import_does_not_load_scipy_linalg_or_scipy_sparse(fresh_import):
    # positive-definite solves use numpy.linalg (igsaft.spd) and the censoring
    # group sums one np.bincount; the two modules cost about 0.1 s and 8 MB
    assert {"scipy.linalg", "scipy.sparse"} & set(fresh_import["scipy"]) == set()


def test_import_loads_no_scipy_module(fresh_import):
    # scipy.special alone, through its array-API layer, cost about 0.3 s and
    # 20 MB at import; normal quantiles come from the Cephes port
    # (igsaft.cephes), chi-square tails from their closed form
    # (diagnostics._chi2_sf), solves from numpy.linalg (igsaft.spd) and the
    # censoring root from a port of Brent's method
    assert fresh_import["scipy"] == []


def test_every_module_is_imported(fresh_import):
    # a module that neither the package nor its CLI imports runs in no fit
    expected = {f"igsaft.{p.stem}" for p in MODULES if p.name != "__main__.py"}
    assert expected - set(fresh_import["modules"]) == set()


def test_every_exported_name_resolves(fresh_import):
    assert fresh_import["unresolved"] == []


def test_fits_do_not_load_numpy_ma(fresh_import):
    # numpy.ma costs about 1 MB of peak resident memory on first use;
    # np.unique, np.intersect1d and np.median load it
    assert not fresh_import["numpy_ma_after_fits"]


WITHOUT_SCIPY = """
import importlib.abc, json, sys, time


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
    sys.exit("the finder let scipy through")
except ImportError:
    pass

from igsaft import FitConfig, SimConfig, fit_igsaft, generate, run_monte_carlo
from igsaft.cli import _manifest

ds = generate(SimConfig(case=1, n=300, p=4, seed=3, reps=1), 0, taus=(-2.0, 14.0))[0]
report = fit_igsaft(ds, FitConfig(n_splits=1)).to_dict()
mc = run_monte_carlo(SimConfig(case=1, n=200, p=3, target_cr=0.2, reps=1, seed=4),
                     FitConfig(n_splits=1), ["el", "aft"])
manifest = _manifest("simulate", {}, time.time())
print(json.dumps({"p_F": report["p_F"], "p_overid": report["p_overid"],
                  "mc_rows": [(r.estimator, r.n_used + r.n_excluded) for r in mc.rows],
                  "manifest": sorted(manifest)}))
"""


def test_fit_monte_carlo_and_manifest_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert 0.0 <= got["p_F"] <= 1.0 and 0.0 <= got["p_overid"] <= 1.0
    assert got["mc_rows"] == [["el", 1], ["aft", 1]]
    assert {"numpy", "python", "platform", "fit_blas_threads"} <= set(got["manifest"])
