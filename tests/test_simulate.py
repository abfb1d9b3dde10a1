"""Monte Carlo runs: estimator names are checked before any replication;
the AFT interval has the fit's level; censoring calibration hits its target
rate; the summary does not depend on the worker count."""

import gc
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from igsaft import simulate
from igsaft.blas import bundled_openblas
from igsaft.errors import DomainError
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


def test_known_estimators_give_one_row_each():
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.0, reps=2, seed=4)
    summary = run_monte_carlo(cfg, FitConfig(n_splits=1), ["cue", "aft"])
    assert [r.estimator for r in summary.rows] == ["cue", "aft"]
    assert all(r.n_used + r.n_excluded == 2 for r in summary.rows)


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


def test_monte_carlo_does_not_depend_on_the_worker_count():
    cfg = SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=5, reps=4)
    serial = run_monte_carlo(cfg, FitConfig(), ("el", "aft"), threads=1)
    pooled = run_monte_carlo(cfg, FitConfig(), ("el", "aft"), threads=2)
    assert all(r.n_used == cfg.reps for r in serial.rows)  # no NaN in the compared fields
    assert pooled == serial


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
    # brentq's wrapper of the bisected function sits in a reference cycle;
    # the 100,000 pilot draws must not wait in it for a full collection
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
