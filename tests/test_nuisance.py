import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igsaft.data import Dataset
from igsaft.errors import IllPosedError
from igsaft.interactions import MomentSpec, build_Vk
from igsaft.nuisance import CensorModel, CondMoment, KernelConfig, fit_all, fit_partials
from igsaft.simulate import SimConfig, generate
from scalar_reference import cumlog, evaluate, kernel_weights, survival


def make_dataset(rng, n, p, censor_frac=0.0):
    z = rng.normal(size=(n, p))
    d = rng.normal(size=n)
    y = rng.normal(size=n)
    delta = (rng.random(n) >= censor_frac).astype(int)
    if delta.sum() == 0:
        delta[0] = 1
    return Dataset(z, d, y, delta)


def textbook_km_censoring(y, delta):
    """Independent product-limit survival of the censoring times.

    Plain O(n^2) textbook implementation used as an oracle: at each censored
    time, multiply by 1 - (#censored there) / (#at risk).
    """
    times = np.unique(y[delta == 0])

    def G(u):
        val = 1.0
        for t in times[times <= u]:
            at_risk = np.sum(y >= t)
            fails = np.sum((y == t) & (delta == 0))
            val *= 1.0 - fails / at_risk
        return val

    return G


def fitted_means(z, rng):
    """Instrument means zeta as fit_all estimates them on a fold with these z."""
    n, p = z.shape
    ds = Dataset(z, rng.normal(size=n), rng.normal(size=n), np.ones(n, dtype=int))
    return fit_all(ds, MomentSpec.full(p, 2), KernelConfig()).zeta


def test_estimate_means_two_rows():
    # two distinct rows, repeated until the fold is large enough for fit_all
    z = np.tile([[0.0, 0.0], [2.0, 4.0]], (4, 1))
    np.testing.assert_array_equal(fitted_means(z, np.random.default_rng(1)), [1.0, 2.0])


def test_estimate_means_constant_column():
    rng = np.random.default_rng(0)
    z = np.column_stack([np.full(50, 3.25), rng.normal(size=50)])
    assert fitted_means(z, rng)[0] == 3.25


def test_estimate_means_clt_band():
    rng = np.random.default_rng(11)
    n = 10 ** 5
    zeta = fitted_means(rng.standard_normal((n, 3)), rng)
    assert np.all(np.abs(zeta) < 5.0 / np.sqrt(n))


def test_partials_exact_interpolation():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(40, 3))
    V = build_Vk(z, 2)
    c = np.array([0.5, -1.0, 2.0, 0.25])
    ds = Dataset(z, rng.normal(size=40), V @ c, np.ones(40, dtype=int))
    fit = fit_partials(ds, 2)
    np.testing.assert_allclose(fit.theta_y, c, atol=1e-10)


def test_partials_orthogonal_outcome():
    rng = np.random.default_rng(5)
    n = 500
    z = rng.standard_normal((n, 2))
    raw = rng.standard_normal(n)
    V = build_Vk(z, 2)
    # project out every non-intercept column so Y is exactly orthogonal
    coefs, *_ = np.linalg.lstsq(V[:, 1:] - V[:, 1:].mean(axis=0), raw - raw.mean(),
                                rcond=None)
    y = raw - (V[:, 1:] - V[:, 1:].mean(axis=0)) @ coefs
    ds = Dataset(z, rng.normal(size=n), y, np.ones(n, dtype=int))
    fit = fit_partials(ds, 2)
    np.testing.assert_allclose(fit.theta_y, [y.mean(), 0.0, 0.0], atol=1e-10)


def test_partials_recover_exposure_model():
    # OLS sampling distribution: main effects of D on V2 near theta_k = 1
    cfg = SimConfig(case=1, n=10_000, p=5, target_cr=0.0, reps=1, seed=13)
    ds, truth = generate(cfg, 0)
    fit = fit_partials(ds, 2)
    se = 3.0 / np.sqrt(ds.n)  # conservative: unit-variance regressors
    assert np.all(np.abs(fit.theta_d[1:] - truth.theta) < 3 * np.sqrt(np.e) * se + 0.05)


def test_partials_ill_posed():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, 5, 4)
    with pytest.raises(IllPosedError):
        fit_partials(ds, 3)


def test_partials_rank_deficient_fallback():
    rng = np.random.default_rng(7)
    z1 = rng.normal(size=60)
    ds = Dataset(np.column_stack([z1, z1]), rng.normal(size=60), rng.normal(size=60),
                 np.ones(60, dtype=int))
    fit = fit_partials(ds, 2)
    assert fit.ridge_fallback
    assert np.all(np.isfinite(fit.theta_y))


def test_kernel_weights_concentrate_small_h():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng, 30, 2)
    cfg = KernelConfig(fixed_h=1e-3, km_conditioning="full")
    w = kernel_weights((ds.z[7], ds.d[7]), ds, cfg)
    assert w[7] > 0.999


def test_kernel_weights_three_point_hand_computation():
    z = np.array([[0.0], [1.0], [2.0]])
    d = np.array([0.0, 1.0, 2.0])
    ds = Dataset(z, d, np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
    cfg = KernelConfig(fixed_h=1.0, km_conditioning="full")
    w = kernel_weights((z[0], d[0]), ds, cfg)
    # standardized coordinates: sd(z) = sd(d) = sqrt(2/3)
    sd = np.sqrt(2.0 / 3.0)
    u = np.array([0.0, 1.0, 2.0]) / sd
    k = np.exp(-0.5 * (u ** 2) * 2)  # product over the two coordinates
    np.testing.assert_allclose(w, k / k.sum(), rtol=1e-12)


def test_local_km_all_events_is_one():
    rng = np.random.default_rng(10)
    ds = make_dataset(rng, 40, 2)
    model = CensorModel(ds, KernelConfig())
    yq = np.linspace(-3, 3, 9)
    np.testing.assert_array_equal(survival(model, yq, ds.z[0], ds.d[0]), np.ones(9))


def test_local_km_two_point_hand_product():
    ds = Dataset(np.array([[0.0], [0.0]]), np.zeros(2), np.array([1.0, 2.0]),
                 np.array([0, 1]))
    model = CensorModel(ds, KernelConfig(km_conditioning="marginal"))
    G = survival(model, np.array([0.5, 1.0, 1.5, 2.5]), np.array([0.0]), 0.0)
    np.testing.assert_allclose(G, [1.0, 0.5, 0.5, 0.5])


def test_local_km_uniform_weights_match_textbook():
    rng = np.random.default_rng(12)
    cfg = KernelConfig(km_conditioning="marginal")
    for trial in range(50):
        n = int(rng.integers(5, 40))
        y = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        delta = rng.integers(0, 2, size=n)
        if delta.sum() == 0:
            delta[0] = 1
        ds = Dataset(rng.normal(size=(n, 2)), rng.normal(size=n), y, delta)
        model = CensorModel(ds, cfg)
        oracle = textbook_km_censoring(y, delta)
        yq = np.concatenate([y, [y.min() - 1, y.max() + 1]])
        got = survival(model, yq, ds.z[0], ds.d[0])
        want = np.maximum([oracle(u) for u in yq], cfg.trunc_eps)
        np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_local_km_monotone_and_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 60))
    ds = make_dataset(rng, n, 2, censor_frac=0.4)
    cfg = KernelConfig(km_conditioning="full")
    model = CensorModel(ds, cfg)
    yq = np.sort(rng.normal(size=25) * 2)
    G = survival(model, yq, rng.normal(size=2), rng.normal())
    assert np.all(np.diff(G) <= 1e-15)
    assert np.all((G >= cfg.trunc_eps) & (G <= 1.0))


def test_cond_moment_minus_inf_formula():
    rng = np.random.default_rng(14)
    cfg = SimConfig(case=1, n=300, p=3, target_cr=0.3, reps=1, seed=15)
    ds, _ = generate(cfg, 0, taus=(-1.0, 12.0))
    spec = MomentSpec.full(3, 2)
    nu = fit_all(ds, spec, KernelConfig(km_conditioning="d_only"))
    z, d = rng.normal(size=3), rng.normal()
    a_inf, b_inf = evaluate(nu.cond_moment, -np.inf, z, d)
    # direct evaluation of the displayed ratio
    cm = nu.censor_model
    t = cm.tables(z[None, :], [d])
    G = np.maximum(np.exp(cumlog(cm, t)[0]), 0.01)
    om = t.w[0] * cm.delta_s / G
    np.testing.assert_allclose(a_inf, om @ nu.cond_moment.a / om.sum(), rtol=1e-12)
    np.testing.assert_allclose(b_inf, om @ nu.cond_moment.b / om.sum(), rtol=1e-12)


def test_cond_moment_single_survivor():
    # only one uncensored observation in the risk set: xi equals its g exactly
    ds = Dataset(np.array([[0.0], [0.2], [0.4]]), np.zeros(3),
                 np.array([1.0, 2.0, 3.0]), np.array([0, 0, 1]))
    cm = CensorModel(ds, KernelConfig(km_conditioning="marginal"))
    g_a = np.array([[1.0], [2.0], [7.0]])
    g_b = np.array([[0.5], [0.25], [4.0]])
    cond = CondMoment(cm, g_a, g_b)
    a, b = evaluate(cond, 2.5, np.array([0.0]), 0.0)
    np.testing.assert_allclose(a, [7.0])
    np.testing.assert_allclose(b, [4.0])


def test_cond_moment_no_censoring_uniform_mean():
    rng = np.random.default_rng(16)
    ds = make_dataset(rng, 50, 2)
    cm = CensorModel(ds, KernelConfig(km_conditioning="marginal"))
    g_a = rng.normal(size=(50, 3))
    g_b = rng.normal(size=(50, 3))
    cond = CondMoment(cm, g_a, g_b)
    a, b = evaluate(cond, -np.inf, np.zeros(2), 0.0)
    np.testing.assert_allclose(a, g_a.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(b, g_b.mean(axis=0), rtol=1e-12)


def test_cond_moment_carry_forward_flag():
    ds = Dataset(np.array([[0.0], [0.2], [0.4]]), np.zeros(3),
                 np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]))
    cm = CensorModel(ds, KernelConfig(km_conditioning="marginal"))
    cond = CondMoment(cm, np.arange(3.0)[:, None], np.zeros((3, 1)))
    a_last, _ = evaluate(cond, 2.0, np.array([0.0]), 0.0)  # risk set = {2.0-event}
    a_beyond, _ = evaluate(cond, 10.0, np.array([0.0]), 0.0)  # empty risk set
    np.testing.assert_allclose(a_last, [1.0])
    np.testing.assert_allclose(a_beyond, a_last)


def test_xi_affine_in_beta():
    # xi(beta) = a + beta * b, with a and b averaged under one set of weights
    cfg = SimConfig(case=1, n=400, p=3, target_cr=0.25, reps=1, seed=17)
    ds, _ = generate(cfg, 0, taus=(-2.0, 14.0))
    spec = MomentSpec.full(3, 2)
    nu = fit_all(ds, spec, KernelConfig())
    z, d, u = ds.z[5], float(ds.d[5]), float(np.median(ds.y))
    a, b = evaluate(nu.cond_moment, u, z, d)
    cm = nu.censor_model
    t = cm.tables(z[None, :], [d])
    om = t.w[0] * cm.delta_s / np.maximum(np.exp(cumlog(cm, t)[0]), cm.cfg.trunc_eps)
    om[cm.ys < u] = 0.0  # risk set I(Y_j >= u)
    np.testing.assert_allclose(a, om @ nu.cond_moment.a / om.sum(), rtol=1e-13)
    np.testing.assert_allclose(b, om @ nu.cond_moment.b / om.sum(), rtol=1e-13)
    # the second difference over beta in {0, 1, 2} is zero up to rounding
    vals = np.array([a + beta * b for beta in (0.0, 1.0, 2.0)])
    assert np.all(np.abs(vals[2] - 2 * vals[1] + vals[0]) <= 4 * np.spacing(np.abs(vals).max()))


@pytest.mark.parametrize("h", [None, 0.05, 0.5, 3.0])
@pytest.mark.parametrize("conditioning", ["d_only", "full"])
def test_gaussian_weights_match_difference_reference(conditioning, h):
    # exp(-|t - x|^2 / 2h^2) from explicit differences, normalized per target
    rng = np.random.default_rng(19)
    n, p = 400, 5
    ds = Dataset(rng.normal(size=(n, p)) * 2.0 + 1.0, rng.normal(size=n) * 0.5,
                 rng.normal(size=n), np.ones(n, dtype=int))
    cfg = KernelConfig(fixed_h=h, km_conditioning=conditioning)
    cm = CensorModel(ds, cfg)
    zt = rng.normal(size=(30, p)) * 3.0 + 1.0
    dt = rng.normal(size=30)
    w = cm.tables(zt, dt).w

    X = np.column_stack([ds.z, ds.d]) if conditioning == "full" else ds.d[:, None]
    T = np.column_stack([zt, dt]) if conditioning == "full" else dt[:, None]
    X = X[cm.order]
    dim = X.shape[1]
    assert dim == (p + 1 if conditioning == "full" else 1)
    mean, sd = X.mean(axis=0), X.std(axis=0)
    hh = 1.06 * n ** (-1.0 / (4 + dim)) if h is None else h
    U = ((T - mean) / sd)[:, None, :] - ((X - mean) / sd)[None, :, :]
    logk = -0.5 * (U * U).sum(axis=2) / hh ** 2
    ref = np.exp(logk - logk.max(axis=1, keepdims=True))
    ref /= ref.sum(axis=1, keepdims=True)
    assert np.all(np.abs(w - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))


@pytest.mark.parametrize("conditioning, dim", [("d_only", 1), ("full", 6)])
def test_gaussian_weights_match_the_matmul_then_shift_formula(conditioning, dim):
    # the former formula: a (c, dim) x (dim, n) product minus |x|^2 / 2h^2,
    # then exp(w - max) and w / sum, each into a fresh array
    rng = np.random.default_rng(22)
    n = 2000
    ds = Dataset(rng.normal(size=(n, 5)) * 2.0 + 1.0, rng.normal(size=n) * 0.5,
                 rng.normal(size=n), np.ones(n, dtype=int))
    cm = CensorModel(ds, KernelConfig(km_conditioning=conditioning))
    zt, dt = rng.normal(size=(32, 5)) * 2.0 + 1.0, rng.normal(size=32) * 0.5
    w = cm.tables(zt, dt).w

    X = (np.column_stack([ds.z, ds.d]) if dim == 6 else ds.d[:, None])[cm.order]
    T = np.column_stack([zt, dt]) if dim == 6 else dt[:, None]
    mean, sd, h = X.mean(axis=0), X.std(axis=0), 1.06 * n ** (-1.0 / (4 + dim))
    Xh = (X - mean) / sd / h
    half_sq = 0.5 * (Xh * Xh).sum(axis=1)
    ref = ((T - mean) / sd / h) @ Xh.T - half_sq
    ref = np.exp(ref - ref.max(axis=1, keepdims=True))
    ref = ref / ref.sum(axis=1, keepdims=True)
    assert np.all(np.abs(w - ref) <= 4 * np.spacing(ref.max(axis=1, keepdims=True)))


def all_groups_cumlog(cm, w):
    """Cumulative log product-limit factors with one factor per tie group,
    censored or not, in sorted training order."""
    ys = cm.ys
    starts = np.flatnonzero(np.r_[True, ys[1:] != ys[:-1]])
    suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    cens = np.add.reduceat(w * (cm.delta_s == 0.0), starts, axis=1)
    frac = cens / np.maximum(suffix[:, starts], 1e-300)
    with np.errstate(divide="ignore"):
        logf_group = np.maximum(np.log1p(-np.minimum(frac, 1.0)), -745.0)
    logf = np.zeros_like(w)
    logf[:, starts] = logf_group
    return np.cumsum(logf, axis=1)


def test_censored_group_product_limit_matches_all_groups():
    rng = np.random.default_rng(20)
    n = 300
    y = np.round(rng.normal(size=n), 1)
    delta = (rng.random(n) >= 0.35).astype(int)
    ds = Dataset(rng.normal(size=(n, 2)), rng.normal(size=n), y, delta)
    shared = [v for v in np.unique(y) if {0, 1} <= set(delta[y == v])]
    assert len(shared) > 5  # censored and event rows share these times
    cm = CensorModel(ds, KernelConfig(fixed_h=0.5, km_conditioning="full"))
    t = cm.tables(rng.normal(size=(20, 2)), rng.normal(size=20))
    assert np.all(t.w.max(axis=1) > 5 * t.w.min(axis=1))  # non-uniform weights
    ref = all_groups_cumlog(cm, t.w)
    np.testing.assert_allclose(cumlog(cm, t), ref, rtol=0, atol=1e-14)
    last = np.searchsorted(cm.ys, cm.ys, side="right") - 1
    np.testing.assert_allclose(cumlog(cm, t), ref[:, last], rtol=0, atol=1e-14)


def test_no_censored_rows_give_zero_log_survival():
    rng = np.random.default_rng(21)
    ds = make_dataset(rng, 80, 2)
    ds = Dataset(ds.z, ds.d, np.round(ds.y, 1), ds.delta)
    cm = CensorModel(ds, KernelConfig(fixed_h=0.5, km_conditioning="full"))
    t = cm.tables(rng.normal(size=(7, 2)), rng.normal(size=7))
    assert cumlog(cm, t).shape == (7, 80)
    assert not cumlog(cm, t).any()


def test_fit_all_requires_enough_rows():
    rng = np.random.default_rng(18)
    ds = make_dataset(rng, 8, 4)
    with pytest.raises(IllPosedError):
        fit_all(ds, MomentSpec.full(4, 3), KernelConfig())
