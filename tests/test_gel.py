from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg
from scipy.stats import norm

from igsaft import gel
from igsaft.blas import one_blas_thread
from igsaft.data import Dataset
from igsaft.errors import DomainError
from igsaft.gel import (_GRID_POINTS, _INNER_MAX_ITER, FAMILIES, _grid_argmin, fit_gel,
                        inner_lambda, minimize_beta, q_derivatives, rho, variance)
from igsaft.interactions import MomentSpec
from igsaft.moments import MomentMatrix, TransformStats, build_moment_matrix
from igsaft.nuisance import KernelConfig, fit_all
from igsaft.pipeline import _fold_assignment
from igsaft.simulate import SimConfig, generate
from scalar_reference import mean_and_cov


def random_matrix(rng, n, m, spread=1.0, slope=1.0):
    subsets = [(1, j + 2) for j in range(m)]
    spec = MomentSpec.from_subsets(m + 1, 2, subsets)
    A = rng.normal(size=(n, m)) * spread
    B = (rng.normal(size=(n, m)) * spread - 0.5) * slope
    return MomentMatrix(A=A, B=B, spec=spec, fold_tags=np.zeros(n, dtype=int),
                        stats=TransformStats())


@pytest.mark.parametrize("family", FAMILIES)
def test_rho_normalization_at_zero(family):
    v, d1, d2 = rho(0.0, family)
    assert float(v) == 0.0
    assert float(d1) == -1.0
    assert float(d2) == -1.0


def test_rho_cue_polynomial():
    v, d1, d2 = rho(2.0, "cue")
    assert (float(v), float(d1), float(d2)) == (-4.0, -3.0, -1.0)


def test_rho_el_value():
    v, _, _ = rho(0.5, "el")
    np.testing.assert_allclose(float(v), np.log(0.5))


def test_rho_el_domain_error():
    with pytest.raises(DomainError):
        rho(1.0, "el")
    with pytest.raises(DomainError):
        rho(1.0 - 1e-12, "el")


def test_rho_unknown_family():
    with pytest.raises(DomainError):
        rho(0.0, "gmm")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FAMILIES), st.floats(-0.9, 0.9))
def test_rho_derivatives_consistent(family, v):
    h = 1e-6
    f = lambda x: rho(x, family)[0]
    val, d1, d2 = rho(v, family)
    np.testing.assert_allclose((f(v + h) - f(v - h)) / (2 * h), d1, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose((f(v + h) - 2 * val + f(v - h)) / h ** 2, d2,
                               rtol=1e-3, atol=1e-3)


@pytest.mark.parametrize("family", FAMILIES)
def test_inner_lambda_zero_mean(family):
    rng = np.random.default_rng(1)
    A = rng.normal(size=(40, 2))
    A = np.vstack([A, -A])  # exactly symmetric rows
    M = MomentMatrix(A=A, B=np.zeros_like(A),
                     spec=MomentSpec.from_subsets(3, 2, [(1, 2), (1, 3)]),
                     fold_tags=np.zeros(80), stats=TransformStats())
    lam, Q, conv = inner_lambda(M, 0.0, family)
    assert conv
    np.testing.assert_allclose(lam, np.zeros(2), atol=1e-8)
    assert abs(Q) < 1e-12


def test_cue_closed_form_100_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(50, 200))
        m = int(rng.integers(1, 11))
        M = random_matrix(rng, n, m)
        beta = float(rng.normal())
        lam, Q, conv = inner_lambda(M, beta, "cue")
        assert conv
        psibar, Om = mean_and_cov(M, beta)
        lam_cf = -linalg.solve(Om, psibar, assume_a="pos")
        q_cf = 0.5 * psibar @ linalg.solve(Om, psibar, assume_a="pos")
        np.testing.assert_allclose(lam, lam_cf, atol=1e-8)
        np.testing.assert_allclose(Q, q_cf, atol=1e-8)


def test_cue_scalar_specialization():
    rng = np.random.default_rng(3)
    M = random_matrix(rng, 120, 1)
    lam, Q, conv = inner_lambda(M, 0.4, "cue")
    psibar, Om = mean_and_cov(M, 0.4)
    np.testing.assert_allclose(lam, -psibar / Om[0, 0], atol=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_inner_stationarity(family):
    rng = np.random.default_rng(4)
    for _ in range(10):
        M = random_matrix(rng, 200, 3, spread=0.6)
        beta = float(rng.normal() * 0.2)
        lam, _, conv = inner_lambda(M, beta, family)
        assert conv
        u = M.eval(beta)
        _, d1, _ = rho(u @ lam, family)
        grad = u.T @ d1 / u.shape[0]
        assert np.linalg.norm(grad) < 1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_inner_convergence_does_not_depend_on_the_moment_scale(family):
    # lambda'psi, and so Q, is unchanged when A and B are rescaled; under an
    # absolute gradient tolerance the EL solve at scale 1e3 did not converge.
    # Below a term scale of 1 the tolerance is absolute, so the solve at 1e-3
    # may stop one step earlier
    rng = np.random.default_rng(0)
    A = rng.normal(size=(400, 4)) + 0.2
    B = rng.normal(size=(400, 4)) - 0.5
    spec = MomentSpec.from_subsets(5, 2, [(1, j + 2) for j in range(4)])
    out = []
    for scale in (1e-3, 1.0, 1e3):
        M = MomentMatrix(A=A * scale, B=B * scale, spec=spec, fold_tags=np.zeros(400, dtype=int),
                         stats=TransformStats())
        lam, Q, conv = inner_lambda(M, 0.3, family)
        out.append((conv, Q))
    assert [conv for conv, _ in out] == [True] * 3
    np.testing.assert_allclose([Q for _, Q in out], out[1][1], rtol=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
def test_q_nonnegative(family):
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = random_matrix(rng, 80, 3)
        _, Q, _ = inner_lambda(M, float(rng.normal()), family)
        assert Q >= 0.0


def test_minimize_matches_dense_grid_cue():
    rng = np.random.default_rng(6)
    M = random_matrix(rng, 300, 4, spread=0.8)
    fit = minimize_beta(M, "cue", search=(-4.0, 4.0))

    def q_exact(beta):
        psibar, Om = mean_and_cov(M, beta)
        return 0.5 * psibar @ linalg.solve(Om, psibar, assume_a="pos")

    grid = np.linspace(-4, 4, 100_001)
    qs = np.array([q_exact(b) for b in grid[::100]])  # coarse screen
    b0 = grid[::100][np.argmin(qs)]
    fine = np.linspace(b0 - 0.1, b0 + 0.1, 20_001)
    qf = np.array([q_exact(b) for b in fine])
    beta_star = fine[np.argmin(qf)]
    assert abs(fit.beta_hat - beta_star) < 1e-4  # fine-grid spacing limits the oracle


def test_ratio_estimator_single_moment():
    cfg = SimConfig(case=1, n=2000, p=2, target_cr=0.0, reps=1, seed=7)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(2, 2)
    assign = _fold_assignment(ds.n, 1)
    M = build_moment_matrix(ds, assign, partial(fit_all, spec=spec, cfg=KernelConfig()), spec)
    fit = minimize_beta(M, "cue")
    # m = 1, no censoring: beta solves the sample moment exactly, namely the
    # ratio of interaction-weighted residuals
    ratio = M.A.mean() / (-M.B.mean())
    assert abs(fit.beta_hat - ratio) < 1e-6


def test_family_agreement_case1():
    cfg = SimConfig(case=1, n=4000, p=5, target_cr=0.2, reps=1, seed=8)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(5, 2)
    assign = _fold_assignment(ds.n, 2)
    kc = KernelConfig(km_conditioning="d_only")
    M = build_moment_matrix(ds, assign, partial(fit_all, spec=spec, cfg=kc), spec)
    fits = {fam: fit_gel(M, fam) for fam in FAMILIES}
    for f1 in FAMILIES:
        for f2 in FAMILIES:
            bound = 2 * (fits[f1].se + fits[f2].se)
            assert abs(fits[f1].beta_hat - fits[f2].beta_hat) <= bound


def test_variance_fd_matches_analytic_quadratic():
    rng = np.random.default_rng(9)
    M = random_matrix(rng, 400, 3, spread=0.7)
    fit = minimize_beta(M, "cue", search=(-3.0, 3.0))
    fit = variance(M, fit)

    def q_exact(beta):
        psibar, Om = mean_and_cov(M, beta)
        return 0.5 * psibar @ linalg.solve(Om, psibar, assume_a="pos")

    h = 1e-4
    h_true = (q_exact(fit.beta_hat + h) - 2 * q_exact(fit.beta_hat)
              + q_exact(fit.beta_hat - h)) / h ** 2
    np.testing.assert_allclose(fit.h_hat, h_true, rtol=1e-4)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_interval_uses_the_normal_quantile(alpha):
    rng = np.random.default_rng(9)
    M = random_matrix(rng, 400, 3, spread=0.7)
    fit = variance(M, minimize_beta(M, "el", search=(-3.0, 3.0)), alpha=alpha)
    z = norm.ppf(1.0 - alpha / 2.0)
    assert fit.converged
    assert fit.ci == (fit.beta_hat - z * fit.se, fit.beta_hat + z * fit.se)


def test_variance_exp_scale_at_zero():
    rng = np.random.default_rng(10)
    # symmetric rows force beta_hat = 0 for CUE
    A = rng.normal(size=(200, 2))
    A = np.vstack([A, -A])
    b = rng.normal(size=(200, 2)) - 1.0
    B = np.vstack([b, b])
    M = MomentMatrix(A=A, B=B, spec=MomentSpec.from_subsets(3, 2, [(1, 2), (1, 3)]),
                     fold_tags=np.zeros(400), stats=TransformStats())
    fit = fit_gel(M, "cue", search=(-2.0, 2.0))
    assert abs(fit.beta_hat) < 1e-6
    np.testing.assert_allclose(fit.exp_scale[0], 1.0, atol=1e-6)
    np.testing.assert_allclose(fit.exp_scale[1], fit.se, rtol=1e-4)


def test_variance_flags_flat_objective():
    # slope exactly zero: Q is constant in beta, curvature vanishes
    rng = np.random.default_rng(11)
    M = MomentMatrix(A=rng.normal(size=(100, 2)), B=np.zeros((100, 2)),
                     spec=MomentSpec.from_subsets(3, 2, [(1, 2), (1, 3)]),
                     fold_tags=np.zeros(100), stats=TransformStats())
    fit = minimize_beta(M, "cue")
    fit = variance(M, fit)
    assert not fit.converged
    assert np.isnan(fit.se)


def test_translation_equivariance_cue():
    cfg = SimConfig(case=1, n=1500, p=3, target_cr=0.0, reps=1, seed=12)
    ds, _ = generate(cfg, 0)
    spec = MomentSpec.full(3, 2)
    c = 0.8

    def fit_for(dataset):
        assign = _fold_assignment(dataset.n, 3)
        M = build_moment_matrix(dataset, assign, partial(fit_all, spec=spec, cfg=KernelConfig()),
                                spec)
        return minimize_beta(M, "cue").beta_hat

    from igsaft.data import Dataset

    shifted = Dataset(ds.z, ds.d, ds.y + c * ds.d, ds.delta)
    assert abs(fit_for(shifted) - fit_for(ds) - c) < 1e-6


def test_boundary_warning():
    rng = np.random.default_rng(13)
    # moments whose root sits far outside the search box
    A = np.abs(rng.normal(size=(100, 1))) + 5.0
    B = np.abs(rng.normal(size=(100, 1))) * 0.01 + 0.05
    M = MomentMatrix(A=A, B=B, spec=MomentSpec.from_subsets(2, 2, [(1, 2)]),
                     fold_tags=np.zeros(100), stats=TransformStats())
    fit = minimize_beta(M, "cue", search=(-1.0, 1.0))
    assert fit.boundary_warning


@pytest.mark.parametrize("family", FAMILIES)
def test_q_derivatives_match_central_differences(family):
    rng = np.random.default_rng(14)
    h = 1e-4

    def q(beta, lam0):
        lam, val, conv = inner_lambda(M, beta, family, lam0=lam0)
        assert conv
        return val

    for _ in range(10):
        M = random_matrix(rng, 200, int(rng.integers(1, 6)), spread=0.6)
        beta = float(rng.normal() * 0.2)
        lam, q0, conv = inner_lambda(M, beta, family)
        assert conv
        d1, d2, _ = q_derivatives(M, beta, lam, family)
        qp, qm = q(beta + h, lam), q(beta - h, lam)
        np.testing.assert_allclose(d1, (qp - qm) / (2 * h), rtol=1e-5)
        np.testing.assert_allclose(d2, (qp - 2 * q0 + qm) / h ** 2, rtol=1e-5)


@pytest.mark.parametrize("family", FAMILIES)
def test_inner_solve_without_a_finite_maximum_is_not_converged(family):
    # the first moment is positive in every row, so 0 lies outside the convex
    # hull of the psi_i: EL and ET rise without bound as lambda_1 falls, and
    # their solves end on a vanishing gradient; CUE's quadratic has a maximum
    rng = np.random.default_rng(4)
    A = rng.normal(size=(200, 3))
    A[:, 0] = np.abs(A[:, 0]) + 0.5
    spec = MomentSpec.from_subsets(4, 2, [(1, 2), (1, 3), (1, 4)])
    M = MomentMatrix(A=A, B=np.zeros_like(A), spec=spec, fold_tags=np.zeros(200, dtype=int),
                     stats=TransformStats())
    lam, Q, conv = inner_lambda(M, 0.0, family)
    assert conv == (family == "cue")
    assert np.isfinite(Q) and Q > 0.0
    # centred near 0, which then lies inside the hull: a finite maximum with
    # lambda != 0, where lambda'psi_i takes both signs
    centered = MomentMatrix(A=A - A.mean(axis=0) + 0.1, B=np.zeros_like(A), spec=spec,
                            fold_tags=np.zeros(200, dtype=int), stats=TransformStats())
    lam, Q, conv = inner_lambda(centered, 0.0, family)
    v = centered.A @ lam
    assert conv and v.min() < 0.0 < v.max()


@pytest.mark.parametrize("family", FAMILIES)
def test_pruned_grid_picks_the_full_grid_argmin(family):
    rng = np.random.default_rng(15)
    grid = np.linspace(-4.0, 4.0, _GRID_POINTS)
    for k in range(24):
        # every other matrix is weakly identified: Q is nearly flat in beta
        M = random_matrix(rng, int(rng.integers(80, 400)), int(rng.integers(1, 9)),
                          spread=float(rng.uniform(0.3, 1.0)),
                          slope=0.05 if k % 2 else 1.0)
        qs, lam = [], None
        for b in grid:
            lam, val, _ = inner_lambda(M, float(b), family, lam0=lam)
            qs.append(val)
        assert _grid_argmin(M, family, grid)[0] == int(np.argmin(qs))


def test_inner_solve_stops_when_a_step_no_longer_raises_the_value(monkeypatch):
    # the EL design of test_overid_power_against_invalid_moment at seed 106:
    # warm-started at beta = -3.0, the gradient stalls above the 1e-9
    # tolerance after 8 Newton steps, and every later step leaves the value
    # unchanged; the solve used to run all 100 iterations and now stops at 12
    ds, _ = generate(SimConfig(case=1, n=10_000, p=5, target_cr=0.0, reps=1, seed=106), 0)
    ds = Dataset(ds.z, ds.d, ds.y + 0.35 * ds.z[:, 0] * ds.z[:, 1], ds.delta)
    spec = MomentSpec.full(5, 2)
    assign = _fold_assignment(ds.n, 5)  # split 0 of fold seed 5
    with one_blas_thread:
        M = build_moment_matrix(ds, assign, partial(fit_all, spec=spec, cfg=KernelConfig()), spec)
        steps = {}
        solve_spd, inner = gel.solve_spd, gel.inner_lambda

        def counted_solve(*args):  # one Newton system per inner iteration
            steps[beta] += 1
            return solve_spd(*args)

        def counted_inner(M, b, *args, **kwargs):
            nonlocal beta
            beta = b
            steps[b] = 0
            return inner(M, b, *args, **kwargs)

        beta = None
        monkeypatch.setattr(gel, "solve_spd", counted_solve)
        monkeypatch.setattr(gel, "inner_lambda", counted_inner)
        fit = fit_gel(M, "el")
    assert steps[-3.0] <= 15
    assert max(steps.values()) < _INNER_MAX_ITER
    assert fit.converged and abs(fit.beta_hat - 1.0862162690393) < 1e-9
