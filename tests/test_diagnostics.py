import math
import tracemalloc

import numpy as np
import pytest
from scipy import linalg
from scipy.stats import chi2, kstest

from igsaft.data import Dataset
from igsaft.diagnostics import _chi2_sf, check_rank, overid_test, relevance_f_test
from igsaft.errors import DomainError, EstimationError
from igsaft.gel import GelFit
from igsaft.interactions import MomentSpec, eval_centered_matrix
from igsaft.pipeline import FitConfig, fit_igsaft
from igsaft.simulate import SimConfig, generate, rng_stream, std_normal


def null_dataset(seed, n=4000, p=5):
    gen = rng_stream(seed, 901)
    Z = std_normal(gen, (n, p))
    D = Z.sum(axis=1) + std_normal(gen, n)  # main effects only
    Y = std_normal(gen, n)
    return Dataset(Z, D, Y, np.ones(n, dtype=int))


def make_fit(q_hat, m, n, converged=True):
    return GelFit(family="el", beta_hat=1.0, lambda_hat=np.zeros(m), q_hat=q_hat,
                  n=n, m=m, converged=converged)


def test_m1_statistic_is_squared_robust_t():
    ds = null_dataset(0, n=800, p=3)
    spec = MomentSpec.from_subsets(3, 2, [(1, 2)])
    res = relevance_f_test(ds, spec)
    # recompute the HC3 robust t directly
    zeta = ds.z.mean(axis=0)
    X = np.column_stack([np.ones(ds.n), ds.z, eval_centered_matrix(ds.z, zeta, spec)])
    beta = linalg.solve(X.T @ X, X.T @ ds.d)
    e = ds.d - X @ beta
    Xi = linalg.inv(X.T @ X)
    h = np.diag(X @ Xi @ X.T)
    V = Xi @ (X * (e ** 2 / (1.0 - h) ** 2)[:, None]).T @ X @ Xi
    t = beta[-1] / np.sqrt(V[-1, -1])
    np.testing.assert_allclose(res.statistic, t ** 2, rtol=1e-10)
    assert res.df == (1, ds.n - X.shape[1])


def test_case1_interactions_detected():
    cfg = SimConfig(case=1, n=10_000, p=10, target_cr=0.0, reps=1, seed=2)
    ds, _ = generate(cfg, 0)
    res = relevance_f_test(ds, MomentSpec.full(10, 2))
    assert res.p_value < 1e-3


def test_relevance_size_null_dgp():
    rejections = 0
    reps = 500
    for seed in range(reps):
        ds = null_dataset(seed, n=4000, p=5)
        res = relevance_f_test(ds, MomentSpec.full(5, 2))
        rejections += res.p_value < 0.05
    rate = rejections / reps
    assert 0.02 <= rate <= 0.09


def test_relevance_pvalues_uniform_under_null():
    pvals = [relevance_f_test(null_dataset(seed, n=2500, p=4),
                              MomentSpec.full(4, 2)).p_value for seed in range(200)]
    assert kstest(pvals, "uniform").pvalue > 0.01


def test_relevance_invariant_to_exposure_scaling():
    ds = null_dataset(7, n=1500, p=4)
    spec = MomentSpec.full(4, 2)
    base = relevance_f_test(ds, spec)
    scaled = relevance_f_test(Dataset(ds.z, 3.7 * ds.d, ds.y, ds.delta), spec)
    np.testing.assert_allclose(scaled.statistic, base.statistic, rtol=1e-9)


def test_relevance_needs_enough_rows():
    ds = null_dataset(8, n=18, p=4)
    from igsaft.errors import IllPosedError

    with pytest.raises(IllPosedError):
        relevance_f_test(ds, MomentSpec.full(4, 2))

    # the rule n > 2(1 + p + m) at its boundary
    p, spec = 4, MomentSpec.full(4, 2)
    k = 1 + p + spec.m
    with pytest.raises(IllPosedError, match=f"= {2 * k} rows"):
        relevance_f_test(null_dataset(8, n=2 * k, p=p), spec)
    n = 2 * k + 1
    res = relevance_f_test(null_dataset(8, n=n, p=p), spec)
    assert np.isfinite(res.statistic)
    assert res.df == (spec.m, n - k)


@pytest.mark.parametrize("j, make_dependent, column", [
    (1, lambda z: z[:, 0], "instrument column 2 "),
    # a product of two instruments: centered, the interaction (1, 2) is
    # z1 z2 - zeta2 z1 - zeta1 z2 + zeta1 zeta2, linear in [1, Z]
    (2, lambda z: z[:, 0] * z[:, 1], r"interaction \(1, 2\) "),
], ids=["duplicate", "product"])
def test_relevance_rejects_a_dependent_column(j, make_dependent, column):
    from igsaft.errors import IllPosedError

    ds = null_dataset(9, n=400, p=4)
    z = ds.z.copy()
    z[:, j] = make_dependent(z)
    with pytest.raises(IllPosedError, match=column):
        relevance_f_test(Dataset(z, ds.d, ds.y, ds.delta), MomentSpec.full(4, 2))


def test_rank_check_with_more_columns_than_rows():
    # R alone has one diagonal entry per row; the columns past them lie in
    # the span of those before
    from igsaft.errors import IllPosedError

    X = np.column_stack([np.ones(3), std_normal(rng_stream(4, 902), (3, 4))])
    with pytest.raises(IllPosedError, match="instrument column 3 "):
        check_rank(np.linalg.qr(X, mode="r"), X.T @ X)


def one_qr_statistic(ds, spec):
    """The relevance statistic from one QR of the whole design, with its Q."""
    X = np.column_stack([np.ones(ds.n), ds.z,
                         eval_centered_matrix(ds.z, ds.z.mean(axis=0), spec)])
    Q, _ = np.linalg.qr(X)
    c = Q.T @ ds.d
    lever = np.einsum("ij,ij->i", Q, Q)
    e2 = (ds.d - Q @ c) ** 2 / np.maximum(1.0 - lever, 1e-8) ** 2
    Q2, c2 = Q[:, 1 + ds.p:], c[1 + ds.p:]
    return float(c2 @ np.linalg.solve((Q2 * e2[:, None]).T @ Q2, c2))


@pytest.mark.parametrize("ds, spec", [
    (null_dataset(0, n=800, p=3), MomentSpec.from_subsets(3, 2, [(1, 2)])),
    (null_dataset(7, n=1500, p=4), MomentSpec.full(4, 2)),
    (null_dataset(8, n=23, p=4), MomentSpec.full(4, 2)),
    (null_dataset(3, n=4000, p=5), MomentSpec.full(5, 2)),
    (generate(SimConfig(case=1, n=4000, p=10, target_cr=0.0, reps=1, seed=2), 0)[0],
     MomentSpec.full(10, 2)),
], ids=["m1", "p4", "smallest_n", "p5", "case1_p10"])
def test_row_blocks_match_one_qr(ds, spec):
    # the row-block statistic read within 7.7e-15 relative of the one-QR one
    # on these designs, and within 3.5e-15 on the benchmark's fit inputs;
    # 1e-13 leaves room for another BLAS
    ref = one_qr_statistic(ds, spec)
    assert abs(relevance_f_test(ds, spec).statistic - ref) <= 1e-13 * abs(ref)


def test_relevance_memory_does_not_grow_with_n():
    # one block of design rows at a time: at n = 20,000, p = 10, m = 45 the
    # peak read 25.7 MB with one QR of the whole design and 0.98 MB by row
    # blocks, as at n = 4000 and n = 80,000
    gen = rng_stream(5, 903)
    n = 20_000
    Z = std_normal(gen, (n, 10))
    ds = Dataset(Z, Z.sum(axis=1) + std_normal(gen, n), std_normal(gen, n), np.ones(n, dtype=int))
    spec = MomentSpec.full(10, 2)
    relevance_f_test(ds, spec)  # one-time allocations of the first call
    tracemalloc.start()
    try:
        relevance_f_test(ds, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_relevance_size_small_n():
    # HC0 rejected 23.5% of these null datasets at 5%; HC3 keeps the size
    pvals = [relevance_f_test(null_dataset(seed, n=100, p=4), MomentSpec.full(4, 2)).p_value
             for seed in range(400)]
    assert np.mean(np.array(pvals) < 0.05) <= 0.10


def test_overid_zero_statistic():
    res = overid_test(make_fit(0.0, m=5, n=1000), 1000, 5)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.df == 4


def test_overid_just_identified_error():
    with pytest.raises(DomainError, match="just identified"):
        overid_test(make_fit(0.1, m=1, n=100), 100, 1)


def test_overid_requires_convergence():
    with pytest.raises(EstimationError):
        overid_test(make_fit(0.1, m=3, n=100, converged=False), 100, 3)


def test_overid_statistic_scaling():
    res = overid_test(make_fit(0.002, m=4, n=5000), 5000, 4)
    np.testing.assert_allclose(res.statistic, 20.0)
    np.testing.assert_allclose(res.p_value, chi2.sf(20.0, 3))


def test_p_values_monotone_in_statistic():
    fits = [make_fit(q, m=6, n=2000) for q in (0.0005, 0.001, 0.002, 0.004)]
    ps = [overid_test(f, 2000, 6).p_value for f in fits]
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))


# _chi2_sf's closed form against scipy's chdtrc: the worst measured relative
# error is 2.5e-13 (df 63, p = 5e-268), from rounding in the exponent
CHI2_RTOL = 1e-12


def test_p_values_equal_scipy_stats_chi2():
    for seed, p in ((0, 4), (1, 5), (2, 6)):
        ds = null_dataset(seed, n=600, p=p)
        spec = MomentSpec.full(p, 2)
        res = relevance_f_test(ds, spec)
        np.testing.assert_allclose(res.p_value, chi2.sf(res.statistic, spec.m),
                                   rtol=CHI2_RTOL, atol=0)
    for q_hat, m, n in ((0.0, 5, 1000), (0.0007, 6, 2000), (0.002, 4, 5000), (0.05, 45, 2000)):
        res = overid_test(make_fit(q_hat, m=m, n=n), n, m)
        np.testing.assert_allclose(res.p_value, chi2.sf(res.statistic, m - 1),
                                   rtol=CHI2_RTOL, atol=0)


def test_chi2_tail_with_two_degrees_of_freedom_is_exp():
    # df 2 is the exponential law with mean 2: one term, no rounding of its own
    for stat in np.geomspace(1e-300, 1e300, 601):
        assert _chi2_sf(float(stat), 2) == math.exp(-stat / 2.0)


def test_chi2_tail_matches_scipy_on_a_grid():
    # out to statistics where e^(-stat/2) underflows long before the tail does
    stats = np.concatenate([np.geomspace(1e-8, 1e4, 301), [2e5, 1e300]])
    for df in range(1, 101):
        want = chi2.sf(stats, df)
        got = np.array([_chi2_sf(float(s), df) for s in stats])
        tiny = want < 1e-300
        np.testing.assert_allclose(got[~tiny], want[~tiny], rtol=CHI2_RTOL, atol=0,
                                   err_msg=f"df {df}")
        assert np.all(got[tiny] < 1e-290), f"df {df}"


@pytest.mark.parametrize("stat, expected", [(0.0, 1.0), (-1e-12, 1.0), (-5.0, 1.0),
                                            (np.inf, 0.0), (np.nan, np.nan)])
def test_chi2_tail_at_the_edges(stat, expected):
    # chdtrc alone gives NaN below its support, where chi2.sf gives 1.0
    for df in (1, 3, 44):
        np.testing.assert_equal([_chi2_sf(stat, df), float(chi2.sf(stat, df))],
                                [expected, expected])


def test_overid_power_against_invalid_moment():
    # one interaction given a direct outcome effect: its moment is invalid
    rejections = 0
    reps = 12
    for seed in range(reps):
        cfg = SimConfig(case=1, n=10_000, p=5, target_cr=0.0, reps=1, seed=100 + seed)
        ds, truth = generate(cfg, 0)
        y_bad = ds.y + 0.35 * ds.z[:, 0] * ds.z[:, 1]
        ds_bad = Dataset(ds.z, ds.d, y_bad, ds.delta)
        rep = fit_igsaft(ds_bad, FitConfig(gel="el", seed=5, screen=False, n_splits=1))
        rejections += rep.over_id.p_value < 0.05
    assert rejections / reps > 0.5
