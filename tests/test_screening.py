import numpy as np
import pytest
from scipy import linalg

from igsaft.data import Dataset
from igsaft.errors import DomainError, IllPosedError
from igsaft.interactions import MomentSpec, eval_centered_matrix
from igsaft.screening import _lasso_path, screen_interactions
from igsaft.simulate import SimConfig, generate, rng_stream, std_normal

_CD_TOL = 1e-10  # largest scaled coordinate step that ends a sweep loop
_CD_MAX_SWEEPS = 1000


def planted_dataset(seed, n=5000, p=6, strong=((1, 2),), coef=0.8, noise=1.0):
    """D driven by the chosen interactions only; T irrelevant here."""
    gen = rng_stream(seed, 900)
    Z = std_normal(gen, (n, p))
    D = noise * std_normal(gen, n)
    for (j, k) in strong:
        D = D + coef * Z[:, j - 1] * Z[:, k - 1]
    Y = std_normal(gen, n)
    return Dataset(Z, D, Y, np.ones(n, dtype=int))


def test_single_strong_interaction_recovered():
    hits = 0
    for seed in range(20):
        ds = planted_dataset(seed)
        res = screen_interactions(ds, MomentSpec.full(6, 2))
        if (1, 2) in [ix.subset for ix in res.selected.indices]:
            hits += 1
    assert hits >= 19  # support-recovery oracle: >= 95% of replications


def test_null_exposure_fallback_nonempty():
    ds = planted_dataset(3, strong=(), coef=0.0)
    res = screen_interactions(ds, MomentSpec.full(6, 2))
    assert res.selected.m >= 1
    assert res.selected.m <= 10


def test_single_candidate_always_kept():
    ds = planted_dataset(4, strong=(), coef=0.0)
    cand = MomentSpec.from_subsets(6, 2, [(2, 5)])
    res = screen_interactions(ds, cand)
    assert [ix.subset for ix in res.selected.indices] == [(2, 5)]


def test_determinism():
    ds = planted_dataset(5)
    cand = MomentSpec.full(6, 2)
    r1 = screen_interactions(ds, cand)
    r2 = screen_interactions(ds, cand)
    assert r1.selected == r2.selected
    assert r1.penalty == r2.penalty
    np.testing.assert_array_equal(r1.pilot_coefs, r2.pilot_coefs)
    assert r1.path == r2.path


def test_path_support_monotone_in_penalty():
    ds = planted_dataset(6, strong=((1, 2), (3, 4), (2, 6)), coef=0.5)
    res = screen_interactions(ds, MomentSpec.full(6, 2))
    lams = [lam for lam, _ in res.path]
    sizes = [s for _, s in res.path]
    assert lams == sorted(lams, reverse=True)
    assert all(s2 >= s1 for s1, s2 in zip(sizes, sizes[1:]))


def test_selected_subset_canonical_order():
    ds = planted_dataset(7, strong=((2, 3), (1, 5)), coef=0.7)
    res = screen_interactions(ds, MomentSpec.full(6, 2))
    subs = [ix.subset for ix in res.selected.indices]
    assert subs == sorted(subs)
    assert set(subs) <= {ix.subset for ix in MomentSpec.full(6, 2).indices}


def test_max_keep_truncation():
    ds = planted_dataset(8, strong=tuple((1, k) for k in range(2, 7)), coef=0.6)
    res = screen_interactions(ds, MomentSpec.full(6, 2), max_keep=3)
    assert res.selected.m <= 3


def test_screen_result_serializes():
    ds = planted_dataset(9)
    res = screen_interactions(ds, MomentSpec.full(6, 2))
    d = res.to_dict()
    assert isinstance(d["selected"], list) and isinstance(d["penalty"], float)
    assert len(d["pilot_coefs"]) == 15


def test_empty_candidates_rejected():
    ds = planted_dataset(10)
    with pytest.raises((DomainError, ValueError)):
        screen_interactions(ds, MomentSpec.from_subsets(6, 2, []))


def test_identification_preserved_under_partial_support():
    # 40% of pairs nonzero; selection must intersect the true support
    miss = 0
    for seed in range(12):
        cfg = SimConfig(case=1, n=4000, p=12, target_cr=0.0, reps=1, seed=seed,
                        nonzero_frac=0.4)
        ds, truth = generate(cfg, 0)
        res = screen_interactions(ds, MomentSpec.full(12, 2))
        true_nonzero = {truth.pairs[t] for t in np.flatnonzero(truth.phi_pairs)}
        got = {ix.subset for ix in res.selected.indices}
        if not (got & true_nonzero):
            miss += 1
    assert miss == 0


def _cd_lasso_gram(G, c, w_pen, n_unpen, lam, theta):
    """Coordinate descent on the Gram system; objective
    (1/2n)||d - X theta||^2 + lam * sum_t w_t |theta_t| over penalized coords.

    G = X'X/n, c = X'd/n. theta is updated in place and returned.
    """
    m = G.shape[0]
    diag = np.maximum(G.diagonal().copy(), 1e-300)
    Gt = G @ theta
    thresh = lam * np.concatenate([np.zeros(n_unpen), w_pen])

    def sweep(active):
        nonlocal Gt
        delta_max = 0.0
        for j in active:
            gj = c[j] - Gt[j] + diag[j] * theta[j]
            if j < n_unpen:
                new = gj / diag[j]
            else:
                new = np.sign(gj) * max(abs(gj) - thresh[j], 0.0) / diag[j]
            step = new - theta[j]
            if step != 0.0:
                theta[j] = new
                Gt += G[:, j] * step
                delta_max = max(delta_max, abs(step) * np.sqrt(diag[j]))
        return delta_max

    all_coords = range(m)
    for _ in range(_CD_MAX_SWEEPS):
        if sweep(all_coords) < _CD_TOL:
            break
        active = [j for j in all_coords if j < n_unpen or theta[j] != 0.0]
        for _ in range(_CD_MAX_SWEEPS):
            if sweep(active) < _CD_TOL:
                break
    return theta


def _lasso_problem(ds, candidates):
    """The Gram system, adaptive weights and penalty grid of screen_interactions."""
    n, n_unpen = ds.n, 1 + ds.p
    Ic = eval_centered_matrix(ds.z, ds.z.mean(axis=0), candidates)
    X = np.column_stack([np.ones(n), ds.z, Ic])
    G, c = X.T @ X / n, X.T @ ds.d / n
    pen = np.full(X.shape[1], 1e-4)
    pen[0] = 0.0
    pilot = linalg.solve(G + np.diag(pen), c, assume_a="pos")
    w_pen = 1.0 / (np.abs(pilot[n_unpen:]) + 1e-8)
    base = linalg.solve(G[:n_unpen, :n_unpen], c[:n_unpen], assume_a="pos")
    resid_corr = c[n_unpen:] - G[n_unpen:, :n_unpen] @ base
    lam_max = float(np.max(np.abs(resid_corr) / w_pen))
    if lam_max <= 0.0 or not np.isfinite(lam_max):
        lam_max = 1.0
    lams = np.geomspace(lam_max * 0.999, lam_max * 1e-3, 50)
    return G, c, pilot[n_unpen:], w_pen, base, resid_corr, lams


def _cd_screen(ds, candidates, max_keep=100):
    """(selected subsets, penalty, path) of screening by warm-started
    coordinate descent over the penalty grid, then BIC."""
    G, c, pilot_cand, w_pen, base, _, lams = _lasso_problem(ds, candidates)
    n, n_unpen = ds.n, 1 + ds.p
    d2 = float(ds.d @ ds.d / n)
    theta = np.concatenate([base, np.zeros(candidates.m)])
    path = []
    best = None
    for lam in lams:
        theta = _cd_lasso_gram(G, c, w_pen, n_unpen, lam, theta)
        support = int(np.count_nonzero(theta[n_unpen:]))
        rss = max(d2 - 2 * c @ theta + theta @ (G @ theta), 1e-300)
        bic = n * np.log(rss) + np.log(n) * (n_unpen + support)
        path.append((float(lam), support))
        if best is None or bic < best[0]:
            best = (bic, float(lam), theta.copy())
    _, lam_star, theta_star = best
    coef_cand = theta_star[n_unpen:]
    nz = np.flatnonzero(coef_cand != 0.0)
    if nz.size > max_keep:
        keep = nz[np.argsort(-np.abs(coef_cand[nz]), kind="stable")[:max_keep]]
    else:
        keep = nz
    if keep.size == 0:
        keep = np.argsort(-np.abs(pilot_cand), kind="stable")[:min(max_keep, 10, candidates.m)]
    selected = [candidates.indices[int(t)].subset for t in np.sort(keep)]
    return selected, lam_star, tuple(path)


def _assert_matches_cd(ds, candidates, max_keep=100):
    res = screen_interactions(ds, candidates, max_keep=max_keep)
    selected, penalty, path = _cd_screen(ds, candidates, max_keep)
    assert [ix.subset for ix in res.selected.indices] == selected
    assert res.penalty == penalty
    assert res.path == path
    return res


def test_exact_path_matches_coordinate_descent():
    sims = [generate(SimConfig(case=case, n=2000, p=10, target_cr=0.2, reps=1, seed=0), 0)[0]
            for case in (1, 2, 3, 4)]
    for ds in sims:
        _assert_matches_cd(ds, MomentSpec.full(10, 2))
    for seed in range(3):
        ds = planted_dataset(seed, n=800, strong=((1, 2), (3, 4), (2, 6)), coef=0.3)
        _assert_matches_cd(ds, MomentSpec.full(6, 2))
    res = _assert_matches_cd(sims[0], MomentSpec.full(10, 2), max_keep=6)
    assert res.selected.m == 6


def test_lasso_path_meets_kkt_at_every_grid_penalty():
    # a small design whose support shrinks along the path (4 -> 3 at the 6th penalty)
    ds = planted_dataset(0, strong=((1, 2),), coef=0.5, n=24)
    cand = MomentSpec.full(6, 2)
    G, _, _, w, _, r, lams = _lasso_problem(ds, cand)
    n_unpen = 1 + ds.p
    G_up = G[:n_unpen, n_unpen:]
    S = G[n_unpen:, n_unpen:] - G_up.T @ linalg.solve(G[:n_unpen, :n_unpen], G_up)
    coefs = _lasso_path(S, r, w, lams)
    sizes = np.count_nonzero(coefs, axis=1)
    assert sizes[4] == 4 and sizes[5] == 3
    # one coefficient leaves positive and comes back negative
    assert np.any((coefs > 0.0).any(axis=0) & (coefs < 0.0).any(axis=0))
    for lam, t in zip(lams, coefs):
        corr = (r - S @ t) / (lam * w)  # +-1 where t != 0, within [-1, 1] elsewhere
        on = t != 0.0
        np.testing.assert_allclose(corr[on], np.sign(t[on]), rtol=0, atol=1e-9)
        assert np.all(np.abs(corr[~on]) <= 1.0 + 1e-9)


def test_tied_interactions_enter_together():
    # rows repeated with z1 and z2 swapped: (1, 3) and (2, 3) are mirror images
    ds = planted_dataset(0, n=400, strong=((1, 3),), coef=0.5)
    z = np.vstack([ds.z, ds.z[:, [1, 0, 2, 3, 4, 5]]])
    twin = Dataset(z, np.tile(ds.d, 2), np.tile(ds.y, 2), np.ones(2 * ds.n, dtype=int))
    res = _assert_matches_cd(twin, MomentSpec.full(6, 2))
    subs = [ix.subset for ix in res.selected.indices]
    assert (1, 3) in subs and (2, 3) in subs
    assert res.path[0][1] == 2  # both enter at the top of the path


@pytest.mark.parametrize("make_dependent", [
    lambda z: z[:, 2].copy(),         # duplicates instrument 3
    lambda z: np.full(z.shape[0], 2.5),  # constant: spanned by the intercept
])
def test_dependent_instrument_rejected(make_dependent):
    ds = planted_dataset(11, n=600)
    z = ds.z.copy()
    z[:, 4] = make_dependent(z)
    bad = Dataset(z, ds.d, ds.y, ds.delta)
    with pytest.raises(IllPosedError, match="instrument column 5 "):
        screen_interactions(bad, MomentSpec.full(6, 2))
