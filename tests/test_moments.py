import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from igsaft import moments
from igsaft.data import Dataset
from igsaft.errors import IllPosedError
from igsaft.interactions import MomentSpec
from igsaft.moments import aipcw_transform, build_moment_matrix
from igsaft.nuisance import CondMoment, KernelConfig, fit_all, fold_g_values
from igsaft.pipeline import FitConfig, _fold_assignment, fit_igsaft
from igsaft.simulate import SimConfig, generate
from scalar_reference import (Observation, eval_g, eval_psi, evaluate, mean_and_cov,
                              observation, row)

KC = KernelConfig()


def cross_fitted(ds, spec, kc=KC, seed=0):
    """Split seed's fold assignment and its cross-fitted moment matrix."""
    assign = _fold_assignment(ds.n, seed)
    return assign, build_moment_matrix(ds, assign, partial(fit_all, spec=spec, cfg=kc), spec)


def fold_fits(ds, assign, spec, kc=KC):
    """The nuisance fit that evaluates each fold: the one on the other fold."""
    return {lab: fit_all(ds.subset(np.flatnonzero(assign == 1 - lab)), spec, kc)
            for lab in (0, 1)}


def test_eval_g_zero_at_centered_point():
    cfg = SimConfig(case=1, n=300, p=3, target_cr=0.0, reps=1, seed=1)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(3, 2)
    nu = fit_all(ds, spec, KC)
    obs = Observation(z=nu.zeta.copy(), d=1.0, y=0.5, delta=1)
    g = eval_g(obs, nu, spec)
    np.testing.assert_array_equal(g.a, np.zeros(spec.m))
    np.testing.assert_array_equal(g.b, np.zeros(spec.m))


def test_eval_g_direct_substitution():
    # zero nuisances, z = (1,1): a = y, b = -d on the single pair moment
    cfg = SimConfig(case=1, n=200, p=2, target_cr=0.0, reps=1, seed=2)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(2, 2)
    nu = fit_all(ds, spec, KC)
    nu.zeta[:] = 0.0
    nu.partials[2].theta_y[:] = 0.0
    nu.partials[2].theta_d[:] = 0.0
    g = eval_g(Observation(z=np.array([1.0, 1.0]), d=3.0, y=2.0, delta=1), nu, spec)
    np.testing.assert_allclose(g.a, [2.0])
    np.testing.assert_allclose(g.b, [-3.0])


def test_eval_g_affinity():
    cfg = SimConfig(case=1, n=300, p=4, target_cr=0.0, reps=1, seed=3)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(4, 2)
    nu = fit_all(ds, spec, KC)
    g = eval_g(observation(ds, 11), nu, spec)
    v0, v1, v2 = g(0.0), g(1.0), g(2.0)
    np.testing.assert_array_equal(v2 - 2 * v1 + v0, np.zeros(spec.m))


def test_zero_censoring_reduction_exact():
    cfg = SimConfig(case=1, n=500, p=5, target_cr=0.0, reps=1, seed=4)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(5, 2)
    assign, M = cross_fitted(ds, spec)
    nuis = fold_fits(ds, assign, spec)
    for lab in (0, 1):
        idx = np.flatnonzero(assign == lab)
        ga, gb = fold_g_values(ds.subset(idx), nuis[lab].zeta, nuis[lab].partials, spec)
        assert np.array_equal(M.A[idx], ga)
        assert np.array_equal(M.B[idx], gb)


def test_censored_below_first_event_returns_xi_inf():
    cfg = SimConfig(case=1, n=240, p=3, target_cr=0.3, reps=1, seed=5)
    ds, _ = generate(cfg, 0, taus=(-2.0, 15.0))
    spec = MomentSpec.full(3, 2)
    nu = fit_all(ds, spec, KC)
    first_event = nu.censor_model.grid_vals[0]
    obs = Observation(z=ds.z[3].copy(), d=float(ds.d[3]), y=first_event - 1.0, delta=0)
    am = eval_psi(obs, nu, spec)
    a_inf, b_inf = evaluate(nu.cond_moment, -np.inf, obs.z, obs.d)
    np.testing.assert_allclose(am.a, a_inf, rtol=1e-10)
    np.testing.assert_allclose(am.b, b_inf, rtol=1e-10)


def test_batch_matches_per_observation():
    cfg = SimConfig(case=1, n=260, p=4, target_cr=0.35, reps=1, seed=6)
    ds, _ = generate(cfg, 0, taus=(-2.0, 16.0))
    spec = MomentSpec.full(4, 2)
    assign, M = cross_fitted(ds, spec, seed=2)
    nuis = fold_fits(ds, assign, spec)
    for i in range(0, ds.n, 13):
        am = eval_psi(observation(ds, i), nuis[assign[i]], spec)
        np.testing.assert_allclose(M.A[i], am.a, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(M.B[i], am.b, rtol=1e-9, atol=1e-11)


def test_subnormal_risk_set_mass_counts_as_empty():
    # a narrow full kernel gives row 83 a subnormal last event weight; 1/S
    # would overflow, so both paths treat the mass as an empty risk set
    cfg = SimConfig(case=1, n=400, p=4, target_cr=0.3, reps=1, seed=3)
    ds, _ = generate(cfg, 0, taus=(-2.0, 15.0))
    spec = MomentSpec.full(4, 2)
    kc = KernelConfig(km_conditioning="full", fixed_h=0.05)
    assign = _fold_assignment(ds.n, 0)
    nuis = fold_fits(ds, assign, spec, kc)
    cm = nuis[assign[83]].censor_model
    w = cm.tables(ds.z[[83]], ds.d[[83]]).w * cm.delta_s
    assert 0.0 < w[w > 0].min() < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = build_moment_matrix(ds, assign, partial(fit_all, spec=spec, cfg=kc), spec)
    assert np.isfinite(M.A).all() and np.isfinite(M.B).all()
    for i in range(ds.n):
        am = eval_psi(observation(ds, i), nuis[assign[i]], spec)
        np.testing.assert_allclose(M.A[i], am.a, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(M.B[i], am.b, rtol=1e-9, atol=1e-11)


def test_mean_psi_at_truth_case1():
    cfg = SimConfig(case=1, n=10_000, p=5, target_cr=0.2, reps=1, seed=7)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(5, 2)
    _, M = cross_fitted(ds, spec, kc=KernelConfig(km_conditioning="d_only"))
    psibar, Om = mean_and_cov(M, 1.0)
    # five-sigma aggregate band on the standardized component means
    sd = np.sqrt(np.diag(Om))
    assert np.sqrt(ds.n) * np.linalg.norm(psibar / sd) / np.sqrt(spec.m) < 5.0


def test_cross_fitting_uses_opposite_fold():
    cfg = SimConfig(case=1, n=200, p=3, target_cr=0.0, reps=1, seed=8)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(3, 2)
    assign = np.array([0, 1] * 100)
    trained_on = []

    def fit(train):
        trained_on.append(train)
        return fit_all(train, spec, KC)

    M = build_moment_matrix(ds, assign, fit, spec)  # without a fold worker: both fits here
    # fold 0 is evaluated with the fit on fold 1's rows, then fold 1 with the
    # fit on fold 0's, each in dataset order
    assert trained_on == [ds.subset(range(1, 200, 2)), ds.subset(range(0, 200, 2))]
    g0 = eval_g(observation(ds, 0), fit_all(trained_on[0], spec, KC), spec)
    np.testing.assert_allclose(M.A[0], g0.a, rtol=1e-12)


def test_row_permutation_equivariance():
    cfg = SimConfig(case=1, n=220, p=3, target_cr=0.25, reps=1, seed=9)
    ds, _ = generate(cfg, 0, taus=(-2.0, 16.0))
    spec = MomentSpec.full(3, 2)
    assign, M = cross_fitted(ds, spec, seed=5)

    perm = np.random.default_rng(10).permutation(ds.n)
    ds_p = Dataset(ds.z[perm], ds.d[perm], ds.y[perm], ds.delta[perm])
    M_p = build_moment_matrix(ds_p, assign[perm], partial(fit_all, spec=spec, cfg=KC), spec)
    np.testing.assert_allclose(M_p.A, M.A[perm], rtol=1e-9, atol=1e-10)


def test_train_equals_eval_debug_mode_close():
    # disabling cross-fitting moves the moment mean by less than 3 SE
    cfg = SimConfig(case=1, n=4000, p=4, target_cr=0.2, reps=1, seed=12)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(4, 2)
    assign, M = cross_fitted(ds, spec)
    # train == evaluate: each fold's g and psi from a fit on the fold itself
    A, B = np.empty_like(M.A), np.empty_like(M.B)
    for lab in (0, 1):
        idx = np.flatnonzero(assign == lab)
        fold = ds.subset(idx)
        nu = fit_all(fold, spec, KC)
        A[idx], B[idx] = fold_g_values(fold, nu.zeta, nu.partials, spec)
        aipcw_transform(fold, A, B, idx, nu.cond_moment)
    M_dbg = replace(M, A=A, B=B)
    pb, Om = mean_and_cov(M, 1.0)
    pb_dbg, _ = mean_and_cov(M_dbg, 1.0)
    se = np.sqrt(np.diag(Om) / ds.n)
    assert np.all(np.abs(pb - pb_dbg) < 3 * se + 1e-6)


def test_mean_and_cov_single_row_rank_one():
    spec = MomentSpec.full(2, 2)
    a = np.array([[1.0]])
    b = np.array([[2.0]])
    from igsaft.moments import MomentMatrix, TransformStats

    M = MomentMatrix(A=np.array([[1.0, 2.0]]), B=np.array([[0.5, -1.0]]),
                     spec=MomentSpec.full(3, 2).from_subsets(3, 2, [(1, 2), (1, 3)]),
                     fold_tags=np.array([0]), stats=TransformStats())
    psibar, Om = mean_and_cov(M, 2.0)
    psi = M.A[0] + 2.0 * M.B[0]
    np.testing.assert_allclose(psibar, psi)
    np.testing.assert_allclose(Om, np.outer(psi, psi))
    assert np.linalg.matrix_rank(Om) == 1


def test_mean_and_cov_symmetric_rows_zero_mean():
    from igsaft.moments import MomentMatrix, TransformStats

    A = np.array([[1.0, -2.0], [-1.0, 2.0]])
    B = np.array([[0.3, 0.4], [-0.3, -0.4]])
    M = MomentMatrix(A=A, B=B, spec=MomentSpec.from_subsets(3, 2, [(1, 2), (1, 3)]),
                     fold_tags=np.zeros(2), stats=TransformStats())
    psibar, _ = mean_and_cov(M, 0.7)
    np.testing.assert_allclose(psibar, np.zeros(2), atol=1e-15)


def test_second_moment_psd_random():
    from igsaft.moments import MomentMatrix, TransformStats

    rng = np.random.default_rng(13)
    spec = MomentSpec.from_subsets(4, 2, [(1, 2), (1, 3), (2, 4)])
    for _ in range(100):
        n = int(rng.integers(2, 12))
        M = MomentMatrix(A=rng.normal(size=(n, 3)), B=rng.normal(size=(n, 3)),
                         spec=spec, fold_tags=np.zeros(n), stats=TransformStats())
        _, Om = mean_and_cov(M, float(rng.normal()))
        assert np.linalg.eigvalsh(Om).min() >= -1e-10


def test_aipcw_map_linear_in_g():
    cfg = SimConfig(case=1, n=180, p=3, target_cr=0.3, reps=1, seed=14)
    ds, _ = generate(cfg, 0, taus=(-2.0, 14.0))
    spec = MomentSpec.full(3, 2)
    nu = fit_all(ds, spec, KC)
    rng = np.random.default_rng(15)
    ge_a = rng.normal(size=(ds.n, spec.m))
    ge_b = rng.normal(size=(ds.n, spec.m))
    tr_a1 = rng.normal(size=(ds.n, spec.m))
    tr_a2 = rng.normal(size=(ds.n, spec.m))
    tr_b1 = rng.normal(size=(ds.n, spec.m))
    tr_b2 = rng.normal(size=(ds.n, spec.m))
    cm = nu.censor_model

    def transform(ea, eb, ta, tb):
        cond = CondMoment(cm, ta, tb)
        pa, pb = ea.copy(), eb.copy()
        aipcw_transform(ds, pa, pb, np.arange(ds.n), cond)
        return pa, pb

    pa, pb = transform(ge_a + ge_a, ge_b + ge_b, tr_a1 + tr_a2, tr_b1 + tr_b2)
    pa1, pb1 = transform(ge_a, ge_b, tr_a1, tr_b1)
    pa2, pb2 = transform(ge_a, ge_b, tr_a2, tr_b2)
    np.testing.assert_allclose(pa, pa1 + pa2, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(pb, pb1 + pb2, rtol=1e-9, atol=1e-10)


def test_exact_affinity_of_psi_rows():
    cfg = SimConfig(case=1, n=240, p=3, target_cr=0.3, reps=1, seed=16)
    ds, _ = generate(cfg, 0, taus=(-2.0, 14.0))
    spec = MomentSpec.full(3, 2)
    _, M = cross_fitted(ds, spec)
    for i in (0, 5, 17):
        r = row(M, i)
        np.testing.assert_allclose(r(2.0) - 2 * r(1.0) + r(0.0), np.zeros(spec.m),
                                   atol=1e-12)


def test_fold_too_small_raises():
    cfg = SimConfig(case=1, n=200, p=4, target_cr=0.0, reps=1, seed=17)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(4, 2)
    assign = np.zeros(ds.n, dtype=int)
    assign[:3] = 1
    with pytest.raises(IllPosedError):
        build_moment_matrix(ds, assign, partial(fit_all, spec=spec, cfg=KC), spec)


@pytest.mark.parametrize("forked", [False, True])
def test_a_fold_without_an_event_is_ill_posed(forked, monkeypatch):
    ds, _ = generate(SimConfig(case=1, n=300, p=4, seed=3, reps=1), 0, taus=(-2.0, 14.0))
    event = np.flatnonzero(ds.delta)[0]
    ds = Dataset(ds.z, ds.d, ds.y, (np.arange(ds.n) == event).astype(float))  # one event
    monkeypatch.setattr(moments, "_fan_out", lambda: forked)
    empty = 1 - _fold_assignment(ds.n, 0)[event]
    with pytest.raises(IllPosedError, match=f"^fold {empty} has no observed event$"):
        fit_igsaft(ds, FitConfig(n_splits=1))
