"""Pipeline flow around the GEL fits: how repeated-split fits are combined,
what runs before the first nuisance fit, and that neither the splits' moment
matrices nor, with the folds run in turn, the folds' working sets are held
at once; with the second fold forked, the caller holds only the first's."""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

import igsaft.pipeline
from igsaft import moments
from igsaft.data import Dataset
from igsaft.errors import DomainError, IllPosedError
from igsaft.gel import GelFit, _z_crit
from igsaft.interactions import MomentSpec
from igsaft.pipeline import FitConfig, combine_split_fits, fit_families, fit_igsaft
from igsaft.simulate import SimConfig, generate, run_monte_carlo


def split_fit(beta, q_hat):
    return GelFit(family="el", beta_hat=beta, lambda_hat=np.array([q_hat]), q_hat=q_hat,
                  n=100, m=1, converged=True, h_hat=q_hat, v_hat=q_hat, se=0.1)


@pytest.mark.parametrize("betas, picked", [
    ((1.2, 0.8), 0.8),
    ((0.8, 1.2), 0.8),
    ((1.0, 0.7, 1.3, 0.9), 0.9),
    ((1.3, 0.9, 1.0, 0.7), 0.9),
    ((1.0, 0.7, 1.3), 1.0),
])
def test_combine_split_fits_picks_the_lower_middle_split(betas, picked):
    # q_hat tags each split by its beta, so the pick is visible in the output
    out = combine_split_fits([split_fit(b, b) for b in betas], alpha=0.05)
    assert out.beta_hat == pytest.approx(float(np.median(betas)))
    assert (out.q_hat, out.h_hat, out.v_hat, float(out.lambda_hat[0])) == (picked,) * 4


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_split_interval_uses_the_normal_quantile(alpha):
    z = norm.ppf(1.0 - alpha / 2.0)
    assert _z_crit(alpha) == z
    out = combine_split_fits([split_fit(b, b) for b in (1.2, 0.8, 1.0)], alpha=alpha)
    assert out.ci == (out.beta_hat - z * out.se, out.beta_hat + z * out.se)


def test_split_interval_does_not_overflow():
    # e^beta overflows a double above beta = 709.78; the interval itself is finite
    out = combine_split_fits([split_fit(b, b) for b in (749.9, 750.1)], alpha=0.05)
    z = _z_crit(0.05)
    assert out.ci == (out.beta_hat - z * out.se, out.beta_hat + z * out.se)
    assert out.exp_scale == (math.inf, math.inf)


@pytest.mark.parametrize("n_converged, beta, converged, dropped", [
    (0, 1.0, False, None),
    (1, 1.2, False, None),
    (2, 1.0, True, "1 of 3 splits did not converge and were dropped"),
    (3, 1.0, True, None),
])
def test_only_converged_splits_count_toward_the_majority(n_converged, beta, converged,
                                                         dropped):
    # once three failed splits fell back to all three, and the majority rule
    # counted them: the fit was reported as converged, with "0 of 3 splits
    # did not converge and were dropped"
    fits = [split_fit(b, b) for b in (1.2, 0.8, 1.0)]
    for f in fits[n_converged:]:
        f.converged = False
    out = combine_split_fits(fits, alpha=0.05)
    assert (out.beta_hat, out.converged) == (beta, converged)
    assert [w for w in out.warnings if "splits did not converge" in w] == (
        [dropped] if dropped else [])


def test_monte_carlo_excludes_a_replication_whose_splits_all_fail(monkeypatch):
    # replication 0's two splits are the first two GEL fits; both fail
    fit_gel, calls = igsaft.pipeline.fit_gel, []

    def failing_first_rep(*args, **kwargs):
        fit = fit_gel(*args, **kwargs)
        calls.append(fit)
        return replace(fit, converged=False) if len(calls) <= 2 else fit

    monkeypatch.setattr(igsaft.pipeline, "fit_gel", failing_first_rep)
    summary = run_monte_carlo(SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=0, reps=2),
                              FitConfig(n_splits=2), ("el", "aft"))
    assert len(calls) == 4 and all(f.converged for f in calls)
    el, aft = summary.rows
    assert (el.n_used, el.n_excluded, aft.n_used, aft.n_excluded) == (1, 1, 2, 0)
    assert math.isfinite(el.mean_se)


def test_overid_entry_names_why_the_test_was_skipped(monkeypatch):
    # an unconverged fit with m >= 2 skips the test for its convergence, not
    # because it is just identified
    ds = generate(SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=0, reps=1), 0)[0]
    cfg = FitConfig(n_splits=1, screen=False)
    fit_gel = igsaft.pipeline.fit_gel
    monkeypatch.setattr(igsaft.pipeline, "fit_gel",
                        lambda *a, **k: replace(fit_gel(*a, **k), converged=False))
    report = fit_igsaft(ds, cfg)
    assert report.spec.m == 6 and report.over_id is None
    assert "overidentification test skipped: fit did not converge" in report.warnings
    out = report.to_dict()
    assert out["over_id"] == {"not_applicable": "fit did not converge"}
    assert out["p_overid"] is None
    just = fit_igsaft(ds, replace(cfg, indices=((1, 2),))).to_dict()
    assert just["over_id"] == {"not_applicable": "just identified (m = 1)"}


@pytest.mark.parametrize("kwargs, field", [
    ({"max_keep": 0}, "max_keep"),
    ({"max_keep": -1}, "max_keep"),
    ({"search": (1.0, 1.0)}, "search"),
    ({"search": (2.0, -2.0)}, "search"),
    ({"search": (-math.inf, 10.0)}, "search"),
    ({"search": (-10.0, math.nan)}, "search"),
])
def test_bad_fit_config_values_are_refused_when_built(kwargs, field):
    # once max_keep = -1 kept 14 of 15 lasso picks, 0 failed only after
    # screening, and a bad search interval was refused only after screening,
    # the relevance test and split 0's moment construction
    with pytest.raises(DomainError, match=f"^{field} "):
        FitConfig(**kwargs)


def test_too_small_design_is_refused_before_any_fitting(monkeypatch):
    def no_fitting(*args, **kwargs):
        raise AssertionError("nuisances were fitted for a design the relevance test refuses")

    monkeypatch.setattr(igsaft.pipeline, "fit_all", no_fitting)
    ds = generate(SimConfig(case=1, n=300, p=4, seed=3, reps=1), 0, taus=(-2.0, 14.0))[0]
    # p = 4 with all 6 pairs: 22 = 2 (1 + p + m) rows are one too few
    with pytest.raises(IllPosedError, match="rows"):
        fit_igsaft(ds.subset(range(22)), FitConfig(n_splits=5, screen=False))


def test_dependent_instrument_is_refused_without_screening():
    # screening checks [1, Z]; with it off, the relevance test's rank check on
    # [1, Z, interactions] refuses the design, where it once reported a
    # meaningless statistic and fitted on with ridged partialling
    ds = generate(SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=0, reps=1), 0)[0]
    z = ds.z.copy()
    z[:, 1] = z[:, 0]
    with pytest.raises(IllPosedError, match="instrument column 2 "):
        fit_igsaft(Dataset(z, ds.d, ds.y, ds.delta), FitConfig(n_splits=1, screen=False))


def test_dependent_instrument_is_refused_on_the_monte_carlo_path():
    # fit_families runs no relevance test, so it checks the rank of
    # [1, Z, interactions] itself; without the check it fitted this design to
    # the search boundary and reported convergence
    ds = generate(SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=0, reps=1), 0)[0]
    z = ds.z.copy()
    z[:, 1] = z[:, 0]
    with pytest.raises(IllPosedError, match="instrument column 2 "):
        fit_families(Dataset(z, ds.d, ds.y, ds.delta), FitConfig(n_splits=1, screen=False),
                     ("el",))


@pytest.mark.parametrize("fit", [fit_igsaft, lambda ds, cfg: fit_families(ds, cfg, ("el",))],
                         ids=["fit_igsaft", "fit_families"])
def test_peak_memory_does_not_grow_with_the_split_count(fit, monkeypatch):
    # the splits go through one at a time: more splits must not hold more
    # than one split's moment pair (A, B) at once. With the folds run in
    # turn: tracemalloc sees neither a forked fold's process nor the shared
    # mapping that A and B then live in
    monkeypatch.setattr(moments, "_fan_out", lambda: False)
    ds = generate(SimConfig(case=1, n=800, p=6, target_cr=0.2, seed=0, reps=1), 0)[0]

    def peak(n_splits):
        tracemalloc.start()
        try:
            fit(ds, FitConfig(n_splits=n_splits, screen=False))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first fit's one-time allocations (np.unique imports numpy.ma) are no split's
    one_pair = 2 * ds.n * MomentSpec.full(ds.p, 2).m * 8
    assert peak(4) - peak(1) < one_pair


def track_working_sets(monkeypatch, forked):
    """fit_igsaft over one split with fan-out forced on or off; per transform
    in this process, which nuisance fits and g arrays made so far in this
    process are alive, and the number of nuisance fits made."""
    monkeypatch.setattr(moments, "_fan_out", lambda: forked)
    ds = generate(SimConfig(case=1, n=400, p=4, target_cr=0.2, seed=0, reps=1), 0)[0]
    fits, g_arrays, alive = [], [], []
    fit_all, fold_g_values, transform = (igsaft.pipeline.fit_all, moments.fold_g_values,
                                         moments.aipcw_transform)

    def tracked_fit_all(*args, **kwargs):
        out = fit_all(*args, **kwargs)
        fits.append(weakref.ref(out))
        return out

    def tracked_g_values(*args, **kwargs):
        out = fold_g_values(*args, **kwargs)
        g_arrays.extend(weakref.ref(g) for g in out)
        return out

    def checked_transform(*args, **kwargs):
        alive.append(([r() is not None for r in fits], [r() is not None for r in g_arrays]))
        return transform(*args, **kwargs)

    monkeypatch.setattr(igsaft.pipeline, "fit_all", tracked_fit_all)
    monkeypatch.setattr(moments, "fold_g_values", tracked_g_values)
    monkeypatch.setattr(moments, "aipcw_transform", checked_transform)
    fit_igsaft(ds, FitConfig(n_splits=1, screen=False))
    return alive, len(fits)


def test_one_folds_working_set_at_a_time(monkeypatch):
    # with the folds run in turn: while a fold is transformed, the other
    # fold's nuisances are not fitted yet (fold 0) or already dropped (fold
    # 1), and the fold's g values live only in its rows of A and B
    alive, _ = track_working_sets(monkeypatch, forked=False)
    assert alive == [([True], [False] * 2), ([False, True], [False] * 4)]


def test_forked_second_fold_leaves_the_caller_one_folds_working_set(monkeypatch):
    # with the second fold forked, the caller fits only the first fold's
    # nuisances, and its transform sees only them alive
    alive, n_fits = track_working_sets(monkeypatch, forked=True)
    assert n_fits == 1 and alive == [([True], [False] * 2)]
