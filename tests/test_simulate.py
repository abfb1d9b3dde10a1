"""Monte Carlo runs: estimator names are checked before any replication;
the AFT interval has the fit's level; censoring calibration hits its target
rate with a root finder that returns scipy's brentq root bit for bit; the
summary does not depend on the worker count."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtri

from igsaft import simulate
from igsaft.blas import bundled_openblas
from igsaft.errors import CalibrationError, DomainError
from igsaft.pipeline import FitConfig
from igsaft.simulate import SimConfig, calibrate_censoring, generate, run_monte_carlo


@pytest.mark.parametrize("bad", ["foo", "truth"])
def test_unknown_estimator_rejected_before_fitting(bad, monkeypatch):
    def no_replication(*args, **kwargs):
        raise AssertionError("a replication ran before the names were checked")

    monkeypatch.setattr(simulate, "generate", no_replication)
    monkeypatch.setattr(simulate, "calibrate_censoring", no_replication)
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.2, reps=3)
    with pytest.raises(DomainError, match=f"unknown estimator '{bad}'"):
        run_monte_carlo(cfg, FitConfig(), ["el", bad, "aft"])


@pytest.mark.parametrize("nonzero_frac", [-0.1, 1.5, math.nan])
def test_nonzero_frac_outside_0_1_is_refused(nonzero_frac):
    # -0.1 once made 171 of 190 pairs nonzero at p = 20
    with pytest.raises(DomainError, match="^nonzero_frac "):
        SimConfig(case=1, n=200, p=20, nonzero_frac=nonzero_frac)


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_1_are_refused_before_fitting(threads, monkeypatch):
    # once ran serially
    def no_replication(*args, **kwargs):
        raise AssertionError("a replication ran before threads was checked")

    monkeypatch.setattr(simulate, "calibrate_censoring", no_replication)
    monkeypatch.setattr(simulate, "_mc_one_rep", no_replication)
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.2, reps=2)
    with pytest.raises(DomainError, match="^threads "):
        run_monte_carlo(cfg, FitConfig(), ["el"], threads=threads)


def test_known_estimators_give_one_row_each():
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.0, reps=2, seed=4)
    summary = run_monte_carlo(cfg, FitConfig(n_splits=1), ["cue", "aft"])
    assert [r.estimator for r in summary.rows] == ["cue", "aft"]
    assert all(r.n_used + r.n_excluded == 2 for r in summary.rows)


def test_null_design_reports_bias_as_undefined():
    # beta0 = 0 is allowed, since a null design checks size; the relative
    # bias once divided by it and read inf%
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.0, beta0=0.0, reps=2, seed=4)
    summary = run_monte_carlo(cfg, FitConfig(n_splits=1), ["aft"])
    (row,) = summary.rows
    assert row.bias_pct is None and row.n_used == 2 and math.isfinite(row.sd)
    assert summary.to_table().splitlines()[1].startswith("AFT,NA,")


def test_aft_interval_has_the_fit_level():
    # the coverage column compares AFT and GEL intervals at one level
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.0, reps=1, seed=4)
    job = (cfg, FitConfig(alpha=0.1), ["aft"], 0, (np.inf, np.inf))
    _, out = simulate._mc_one_rep(job)
    b, se, lo, hi, _ = out["aft"]
    np.testing.assert_allclose([b - lo, hi - b], ndtri(0.95) * se, rtol=1e-12)


@pytest.mark.parametrize("target_cr", [0.2, 0.4])
@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_calibrated_censoring_hits_target(case, target_cr):
    cfg = SimConfig(case=case, n=2000, p=10, target_cr=target_cr, reps=10, seed=3)
    taus = calibrate_censoring(cfg)
    shares = [1.0 - generate(cfg, rep, taus=taus)[0].delta.mean() for rep in range(cfg.reps)]
    assert abs(np.mean(shares) - target_cr) <= 0.01


@pytest.mark.parametrize("nonzero_frac", [0.25, 0.4])
def test_pair_support_above_p_10(nonzero_frac):
    # nonzero_frac and fix_support act only when p > 10: each replication
    # keeps round(nonzero_frac * C(12, 2)) of the 66 pairs, and only with
    # fix_support do the replications share them
    supports = {}
    for fix in (False, True):
        cfg = SimConfig(case=1, n=100, p=12, target_cr=0.0, reps=3, seed=7,
                        nonzero_frac=nonzero_frac, fix_support=fix)
        masks = [generate(cfg, rep)[1].phi_pairs != 0.0 for rep in range(cfg.reps)]
        assert [int(m.sum()) for m in masks] == [round(nonzero_frac * 66)] * 3
        supports[fix] = {tuple(np.flatnonzero(m)) for m in masks}
    assert (len(supports[False]), len(supports[True])) == (3, 1)
    cfg = SimConfig(case=1, n=100, p=10, target_cr=0.0, reps=1, nonzero_frac=nonzero_frac,
                    fix_support=True)
    assert np.count_nonzero(generate(cfg, 0)[1].phi_pairs) == 45


def test_monte_carlo_does_not_depend_on_the_worker_count():
    cfg = SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=5, reps=4)
    serial = run_monte_carlo(cfg, FitConfig(), ("el", "aft"), threads=1)
    pooled = run_monte_carlo(cfg, FitConfig(), ("el", "aft"), threads=2)
    assert all(r.n_used == cfg.reps for r in serial.rows)  # no NaN in the compared fields
    assert pooled == serial


@pytest.mark.parametrize("threads, reps, pools", [(5000, 2, [2]), (3, 1, []), (2, 3, [2])])
def test_a_pool_has_at_most_one_worker_per_replication(threads, reps, pools, monkeypatch):
    sizes = []

    class InProcessPool:  # records its worker count and maps here: no process starts
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, jobs):
            return map(fn, jobs)

    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.2, seed=5, reps=reps)
    serial = run_monte_carlo(cfg, FitConfig(n_splits=1), ("el", "aft"))
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InProcessPool)
    assert run_monte_carlo(cfg, FitConfig(n_splits=1), ("el", "aft"), threads=threads) == serial
    assert sizes == pools


def test_monte_carlo_on_the_paper_design_does_not_depend_on_the_worker_count():
    # p = 10, m = 45, n = 2000: the AIPCW products are large enough for
    # OpenBLAS to split them over threads, which moves the last bits of
    # unpinned fits; the serial run also starts from another BLAS thread count
    cfg = SimConfig(case=1, n=2000, p=10, target_cr=0.2, seed=0, reps=2)
    fit_cfg = FitConfig(n_splits=5)
    before = [lib.get() for lib in bundled_openblas()]
    try:
        for lib in bundled_openblas():
            lib.set(1)
        serial = run_monte_carlo(cfg, fit_cfg, ("el", "aft"), threads=1)
    finally:
        for lib, k in zip(bundled_openblas(), before):
            lib.set(k)
    pooled = run_monte_carlo(cfg, fit_cfg, ("el", "aft"), threads=2)
    assert all(r.n_used == cfg.reps for r in serial.rows)
    assert pooled == serial


def test_calibration_frees_its_pilot_draws_without_a_gc_pass():
    # reference counting must free the 100,000 pilot draws when the call
    # returns; held in a reference cycle by the root finder or its function,
    # they would wait for a full collection
    cfg = SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=5)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        calibrate_censoring(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 100_000


def test_brent_port_returns_the_scipy_brentq_root(monkeypatch):
    # the pilot gap is zero on a flat segment, and every censored simulated
    # time depends on where in it tau1 lands, so equality is exact
    problems = []

    def both(f, lo, hi, args, xtol):
        problems.append((f, lo, hi, args, xtol))
        return brentq(f, lo, hi, args=args, xtol=xtol)

    monkeypatch.setattr(simulate, "_brentq", both)
    monkeypatch.setattr(simulate, "_PILOT_SETS", 2)
    monkeypatch.setattr(simulate, "_PILOT_N", 1500)
    for case in (1, 2, 3, 4):
        for target_cr, seed in ((0.1, 0), (0.2, 1), (0.4, 2)):
            calibrate_censoring(SimConfig(case=case, n=400, p=10, target_cr=target_cr,
                                          seed=seed))
    monkeypatch.undo()

    rng = np.random.default_rng(8)
    for _ in range(300):  # decreasing step functions, some with repeated steps
        cuts = np.sort(rng.normal(size=rng.integers(1, 30)))
        vals = np.sort(rng.uniform(-1.0, 1.0, cuts.size + 1))[::-1]
        if rng.random() < 0.3:
            vals = np.round(vals, 1)
        lo, hi = -1.0 - 4.0 * rng.random(), 1.0 + 4.0 * rng.random()
        f = lambda x, cuts, vals: float(vals[np.searchsorted(cuts, x)])  # noqa: E731
        if f(lo, cuts, vals) > 0 > f(hi, cuts, vals):
            problems.append((f, lo, hi, (cuts, vals), 1e-10))
    smooth = [(math.cos, (), 0.0, 3.0), (lambda x, c: x ** 3 - c, (2.0,), -1.0, 4.0),
              (lambda x, s: math.tanh(s * (x - 0.3)) + 0.05 * x, (7.0,), -5.0, 2.0),
              (lambda x: math.exp(x) - 10.0, (), -20.0, 20.0)]
    problems += [(f, lo, hi, args, xtol) for f, args, lo, hi in smooth
                 for xtol in (1e-10, 2e-12, 1e-4)]
    # a root at either end returns that end
    problems += [(lambda x: x - 1.0, 1.0, 3.0, (), 1e-10), (lambda x: 2.0 - x, -1.0, 2.0, (), 1e-10)]

    assert len(problems) > 150
    for f, lo, hi, args, xtol in problems:
        assert simulate._brentq(f, lo, hi, args, xtol) == brentq(f, lo, hi, args=args, xtol=xtol)


def test_brent_port_raises_typed_errors():
    with pytest.raises(CalibrationError, match="gap is nan"):
        simulate._brentq(lambda x: x if x in (-1.0, 1.0) else math.nan, -1.0, 1.0, (), 1e-10)
    with pytest.raises(CalibrationError, match="gap is inf"):
        simulate._brentq(lambda x: math.inf, -1.0, 1.0, (), 1e-10)
    # a sign flip only bisects, and 100 halvings cannot shrink 2e30 to 1e-10
    with pytest.raises(CalibrationError, match="did not converge"):
        simulate._brentq(lambda x: 1.0 if x < 0.5 else -1.0, -1e30, 1e30, (), 1e-10)
    with pytest.raises(CalibrationError, match="different signs"):
        simulate._brentq(lambda x: x * x + 1.0, -1.0, 1.0, (), 1e-10)
