"""The segment-table AIPCW transform against a dense reference.

`dense_transform` computes the same map densely: it builds omega, the
suffix sums and a (chunk, K + 1) table indexed by event grid rank over every
(evaluation, training) pair, and reads Ghat from the expanded `cumlog`. The
designs below reach every branch of the segment form: ties, zero kernel
weights, heavy clipping, empty risk sets, marginal conditioning, an
uncensored training fold, and a hand-made fold with an empty first segment,
a tie group holding censored and event rows, and a segment without events.
"""

from functools import partial

import numpy as np
import pytest

from igsaft import moments
from igsaft.data import Dataset
from igsaft.interactions import MomentSpec
from igsaft.moments import _MASS_FLOOR, TransformStats, aipcw_transform, build_moment_matrix
from igsaft.nuisance import CensorModel, CondMoment, KernelConfig, fit_all, fold_g_values
from igsaft.pipeline import _fold_assignment
from igsaft.simulate import SimConfig, generate
from scalar_reference import cumlog


def _grid_tables(cond: CondMoment, tables, y_eval, delta_eval):
    """Shared per-chunk quantities for the AIPCW weight assembly."""
    cm = cond.censor
    eps = cm.cfg.trunc_eps
    stats = TransformStats()

    G_train_raw = np.exp(cumlog(cm, tables))
    G_train = np.maximum(G_train_raw, eps)
    omega = tables.w * cm.delta_s[None, :] / G_train
    stats.clip_count += int(((G_train_raw < eps) & (cm.delta_s[None, :] == 1.0)
                             & (tables.w > 0)).sum())

    suffix = np.cumsum(omega[:, ::-1], axis=1)[:, ::-1]
    S_total = suffix[:, 0]

    K = cm.grid_vals.size
    S_grid = suffix[:, cm.grid_first]
    logG_grid = cumlog(cm, tables)[:, cm.grid_first]
    G_grid_raw = np.exp(logG_grid)
    G_grid = np.maximum(G_grid_raw, eps)

    T = np.searchsorted(cm.grid_vals, y_eval, side="right")
    last_valid = (S_grid > _MASS_FLOOR).sum(axis=1)  # S_grid is nonincreasing along the grid
    T_eff = np.minimum(T, last_valid)
    stats.empty_risk_sets += int((T_eff < T).sum() + (S_total <= _MASS_FLOOR).sum())
    used = np.arange(K)[None, :] < T_eff[:, None]
    stats.clip_count += int(((G_grid_raw < eps) & used).sum())

    # Ghat at the evaluation row's own time
    pos = np.searchsorted(cm.ys, y_eval, side="right") - 1
    logGy = np.where(pos >= 0, cumlog(cm, tables)[np.arange(len(y_eval)), np.maximum(pos, 0)], 0.0)
    Gy_raw = np.exp(logGy)
    Gy = np.maximum(Gy_raw, eps)
    stats.clip_count += int(((Gy_raw < eps) & (delta_eval == 1)).sum())
    ipcw = delta_eval / Gy

    return omega, S_total, S_grid, G_grid, T_eff, ipcw, stats


def dense_transform(fold: Dataset, A, B, idx, cond: CondMoment):
    cm = cond.censor
    eval_z, eval_d, eval_y, eval_delta = fold.z, fold.d, fold.y, fold.delta
    n_eval = len(eval_y)
    ge_a, ge_b = A[idx], B[idx]
    m = ge_a.shape[1]
    psi_a = np.empty((n_eval, m))
    psi_b = np.empty((n_eval, m))
    stats = TransformStats()
    K = cm.grid_vals.size
    # rank of each training time on the event grid: #events <= Y_j
    rank_tr = np.searchsorted(cm.grid_vals, cm.ys, side="right") if K else None

    for start in range(0, n_eval, 32):
        sl = slice(start, min(start + 32, n_eval))
        y_c = eval_y[sl]
        delta_c = eval_delta[sl].astype(float)
        tables = cm.tables(eval_z[sl], eval_d[sl])
        omega, S_total, S_grid, G_grid, T_eff, ipcw, st = _grid_tables(
            cond, tables, y_c, delta_c)
        stats.merge(st)
        c = len(y_c)
        ok = S_total > _MASS_FLOOR  # rows without weighted events degenerate to the IPCW term

        if K:
            invG = 1.0 / G_grid
            valid = np.arange(K)[None, :] < T_eff[:, None]
            wgt = invG * valid
            d0 = wgt.copy()
            d0[:, :-1] -= wgt[:, 1:]
            e = d0 / np.where(S_grid > _MASS_FLOOR, S_grid, 1.0)
            table = np.zeros((c, K + 1))  # column r: coefficient at rank r
            np.cumsum(e, axis=1, out=table[:, 1:])  # integral term

            has_grid = T_eff >= 1
            invS_tot = np.where(ok, 1.0 / np.where(ok, S_total, 1.0), 0.0)
            c1 = np.where(has_grid, invG[:, 0], 0.0)   # Abel correction only with a nonempty sum
            coef_inf = invS_tot * (1.0 - c1)
            t1 = np.maximum(T_eff, 1)
            S_T = S_grid[np.arange(c), np.minimum(t1, K) - 1]
            live_T = S_T > _MASS_FLOOR
            invS_T = np.where(live_T, 1.0 / np.where(live_T, S_T, 1.0), 0.0)
            # -ipcw * xi at floor(Y), on ranks with I(Y_j >= u_{t1})
            table -= (ipcw * invS_T)[:, None] * (np.arange(K + 1) >= t1[:, None])
            table += coef_inf[:, None]
            table[~ok] = 0.0
            W = omega * table[:, rank_tr]
        else:
            W = np.zeros((c, cm.n))

        psi_a[sl] = ipcw[:, None] * ge_a[sl] + W @ cond.a
        psi_b[sl] = ipcw[:, None] * ge_b[sl] + W @ cond.b
    A[idx], B[idx] = psi_a, psi_b
    return stats


def assert_close_to_reference(got, ref):
    for x, r in zip(got, ref):
        scale = np.abs(r).max(axis=0)
        assert np.all(np.abs(x - r) <= 1e-12 * scale)


def both_moment_matrices(ds, kc, monkeypatch):
    """build_moment_matrix with the segment transform, then with the dense one."""
    spec = MomentSpec.full(ds.p, 2)
    assign, fit = _fold_assignment(ds.n, 0), partial(fit_all, spec=spec, cfg=kc)
    M = build_moment_matrix(ds, assign, fit, spec)
    monkeypatch.setattr(moments, "aipcw_transform", dense_transform)
    return M, build_moment_matrix(ds, assign, fit, spec), assign


def simulated(n=400, p=4, cr=0.3, seed=3):
    ds, _ = generate(SimConfig(case=1, n=n, p=p, target_cr=cr, reps=1, seed=seed), 0,
                     taus=(-2.0, 15.0))
    return ds


def rounded(ds, step):
    return Dataset(ds.z, ds.d, np.round(ds.y / step) * step, ds.delta)


def uncensored(ds):
    return Dataset(ds.z, ds.d, ds.y, np.ones(ds.n, dtype=int))


DESIGNS = {
    "ties_0.1": (lambda: rounded(simulated(), 0.1), KernelConfig(), ()),
    "ties_0.25": (lambda: rounded(simulated(seed=4), 0.25),
                  KernelConfig(km_conditioning="d_only"), ()),
    "zero_weights": (simulated, KernelConfig(km_conditioning="d_only", fixed_h=0.02),
                     ("zero_weights", "empty")),
    "clip_0.2": (simulated, KernelConfig(trunc_eps=0.2), ("clip",)),
    "clip_0.3": (lambda: rounded(simulated(seed=5), 0.1),
                 KernelConfig(trunc_eps=0.3, km_conditioning="d_only"), ("clip",)),
    "marginal": (lambda: rounded(simulated(), 0.1), KernelConfig(km_conditioning="marginal"),
                 ()),
    # every chunk skips W, yet still counts the rows whose risk sets run empty
    "uncensored_narrow": (lambda: uncensored(simulated()),
                          KernelConfig(km_conditioning="full", fixed_h=0.05),
                          ("empty", "psi_is_g")),
}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_segment_transform_matches_dense_reference(name, monkeypatch):
    make, kc, branches = DESIGNS[name]
    ds = make()
    M, M_ref, assign = both_moment_matrices(ds, kc, monkeypatch)
    assert_close_to_reference((M.A, M.B), (M_ref.A, M_ref.B))
    assert M.stats == M_ref.stats
    if "clip" in branches:
        assert M.stats.clip_count > 0
    if "empty" in branches:
        assert M.stats.empty_risk_sets > 0
    if "zero_weights" in branches:
        train = np.flatnonzero(assign == 1)
        cm = fit_all(ds.subset(train), M.spec, kc).censor_model
        assert (cm.tables(ds.z[:50], ds.d[:50]).w == 0).any()
    if "psi_is_g" in branches:
        for label in (0, 1):
            idx, aux = np.flatnonzero(assign == label), np.flatnonzero(assign != label)
            nu = fit_all(ds.subset(aux), M.spec, kc)
            g_a, g_b = fold_g_values(ds.subset(idx), nu.zeta, nu.partials, M.spec)
            assert np.array_equal(M.A[idx], g_a) and np.array_equal(M.B[idx], g_b)


def test_uncensored_training_fold_with_censored_evaluation_rows(monkeypatch):
    ds = simulated()
    assign = _fold_assignment(ds.n, 0)
    delta = np.where(assign == 1, 1, ds.delta)  # fold 1 trains fold 0's nuisances
    ds = Dataset(ds.z, ds.d, ds.y, delta)
    assert (ds.delta[assign == 0] == 0).any()
    M, M_ref, _ = both_moment_matrices(ds, KernelConfig(), monkeypatch)
    assert_close_to_reference((M.A, M.B), (M_ref.A, M_ref.B))
    assert M.stats == M_ref.stats


# Hand-made fold, in time order: a censored row at the smallest time (segment
# 0 is empty), a tie group at 2.0 with censored and event rows, and censored
# groups at 3.0 and 3.5 next to each other (the segment from 3.0 has no events).
HAND_Y = np.array([0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 2.5, 3.0, 3.5, 4.0, 4.0, 4.5, 5.0, 5.5])
HAND_DELTA = np.array([0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1])


# The same times with an event at the smallest one and censored rows at 1.0:
# segment 0 holds one event group, so its first run is empty.
HAND_DELTA_EVENT_FIRST = np.array([1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1])

# Uncensored folds, whose event-run masses are slice sums: the same times,
# and every row at one time, where the run before the last event group is empty.
HAND_ALL_EVENTS = np.ones(HAND_Y.size, dtype=int)
HAND_ONE_TIME = np.full(HAND_Y.size, 2.0)


def hand_model(kc=KernelConfig(km_conditioning="full", fixed_h=0.8), delta=HAND_DELTA,
               y=HAND_Y):
    rng = np.random.default_rng(30)
    perm = rng.permutation(y.size)  # CensorModel sorts the rows itself
    ds = Dataset(rng.normal(size=(y.size, 2)), rng.normal(size=y.size), y[perm], delta[perm])
    return ds, CensorModel(ds, kc)


@pytest.mark.parametrize("kc", [KernelConfig(km_conditioning="full", fixed_h=0.8),
                                KernelConfig(km_conditioning="full", fixed_h=0.8,
                                             trunc_eps=0.5),
                                KernelConfig(km_conditioning="marginal")])
def test_hand_made_fold_matches_dense_reference(kc):
    ds, cm = hand_model(kc)
    rng = np.random.default_rng(31)
    cond = CondMoment(cm, rng.normal(size=(ds.n, 3)), rng.normal(size=(ds.n, 3)))
    y_eval = np.repeat(np.arange(0.0, 6.01, 0.25), 2)
    n_eval = y_eval.size
    fold = Dataset(rng.normal(size=(n_eval, 2)), rng.normal(size=n_eval), y_eval,
                   np.tile([1, 0], n_eval // 2))
    ge_a, ge_b = rng.normal(size=(n_eval, 3)), rng.normal(size=(n_eval, 3))
    rows = np.arange(n_eval)
    # 50 rows: a full chunk of 32 and a partial one of 18
    got, ref = (ge_a.copy(), ge_b.copy()), (ge_a.copy(), ge_b.copy())
    st = aipcw_transform(fold, *got, rows, cond)
    st_ref = dense_transform(fold, *ref, rows, cond)
    assert_close_to_reference(got, ref)
    assert st == st_ref


def test_transform_writes_psi_over_the_g_arrays_it_is_given():
    ds = simulated()
    spec = MomentSpec.full(ds.p, 2)
    assign = _fold_assignment(ds.n, 0)
    train, ev = ds.subset(np.flatnonzero(assign == 1)), ds.subset(np.flatnonzero(assign == 0))
    nu = fit_all(train, spec, KernelConfig(trunc_eps=0.2))
    ge_a, ge_b = fold_g_values(ev, nu.zeta, nu.partials, spec)
    rows = np.arange(ev.n)
    ref = (ge_a.copy(), ge_b.copy())
    st_ref = dense_transform(ev, *ref, rows, nu.cond_moment)
    # 200 rows: six chunks of 32 and a partial one of 8
    st = aipcw_transform(ev, ge_a, ge_b, rows, nu.cond_moment)
    assert_close_to_reference((ge_a, ge_b), ref)
    assert st == st_ref and st.clip_count > 0


def test_segment_metadata_matches_brute_force():
    _, cm = hand_model()
    ys, dl, n = cm.ys, cm.delta_s, cm.n
    group_start = [min(i for i in range(n) if ys[i] == ys[j]) for j in range(n)]
    cens_starts = sorted({group_start[j] for j in range(n) if dl[j] == 0})
    seg_of = [sum(s <= j for s in cens_starts) for j in range(n)]
    event_segs = sorted({seg_of[j] for j in range(n) if dl[j] == 1})
    last_group = {s: max(group_start[j] for j in range(n) if dl[j] == 1 and seg_of[j] == s)
                  for s in event_segs}
    cls_of = [2 * event_segs.index(seg_of[j]) + (group_start[j] == last_group[seg_of[j]])
              if dl[j] == 1 else 2 * len(event_segs) for j in range(n)]
    grid_first = sorted({group_start[j] for j in range(n) if dl[j] == 1})

    assert list(cm.seg_of) == seg_of == [1, 1, 1, 1, 2, 2, 2, 2, 3, 4, 4, 4, 4, 5, 5]
    assert list(cm.ev_seg) == event_segs == [1, 2, 4, 5]
    assert list(cm.last_first) == [last_group[s] for s in event_segs] == [3, 7, 12, 14]
    assert list(cm.bnd_grid) == [grid_first.index(last_group[s]) for s in event_segs]
    assert list(cm.cls_of) == cls_of
    assert sorted(cm.cls_of) == [0, 0, 1, 2, 3, 4, 4, 5, 7, 8, 8, 8, 8, 8, 8]
    assert list(cm.grid_first) == grid_first


@pytest.mark.parametrize("y, delta, empty_runs", [
    (HAND_Y, HAND_DELTA, [6]), (HAND_Y, HAND_DELTA_EVENT_FIRST, [0, 2, 8]),
    (HAND_Y, HAND_ALL_EVENTS, []), (HAND_ONE_TIME, HAND_ALL_EVENTS, [0]),
], ids=["hand", "event_first", "all_events", "all_events_one_time"])
def test_segment_sums_match_loop_sums(y, delta, empty_runs):
    # censored tie-group sums and event-run masses (CensorModel.segment_sums,
    # or two slice sums without censored rows) against sums in a loop over
    # the rows of each group and run
    ds, cm = hand_model(delta=delta, y=y)
    t = cm.tables(np.random.default_rng(32).normal(size=(9, 2)), np.linspace(-2.0, 2.0, 9))
    ys, dl, n, S = cm.ys, cm.delta_s, cm.n, cm.cens_starts.size
    group_start = [min(i for i in range(n) if ys[i] == ys[j]) for j in range(n)]
    cens_groups = sorted({group_start[j] for j in range(n) if dl[j] == 0})
    seg_of = [sum(s <= j for s in cens_groups) for j in range(n)]
    event_segs = sorted({seg_of[j] for j in range(n) if dl[j] == 1})
    last_group = {s: max(group_start[j] for j in range(n) if dl[j] == 1 and seg_of[j] == s)
                  for s in event_segs}

    def loop_sum(rows):
        total = np.zeros(len(t.w))
        for j in rows:
            total += t.w[:, j]
        return total

    cens_ref = [loop_sum(j for j in range(n) if dl[j] == 0 and group_start[j] == g)
                for g in cens_groups]
    run_ref = [loop_sum(j for j in range(n) if dl[j] == 1 and seg_of[j] == s
                        and (group_start[j] == last_group[s]) == last)
               for s in event_segs for last in (False, True)]
    cens_got = cm.segment_sums(t.w)[:, :S]
    cens_ref = np.reshape(cens_ref, (S, 9)).T  # (9, 0) without censored groups
    for got, ref in ((cens_got, cens_ref), (t.mass, np.column_stack(run_ref))):
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
    # the runs without an event row: before 5.5 only 5.0 is in its segment;
    # in the second fold, 0.5 is the only event group of segment 0 and 1.5
    # the only one of the segment from 1.0; in the last, all rows are the
    # last event group
    empty = ~np.column_stack(run_ref).any(axis=0)
    assert list(np.flatnonzero(empty)) == empty_runs
    assert np.all(t.mass[:, empty] == 0.0)


@pytest.mark.parametrize("delta", [HAND_DELTA, HAND_DELTA_EVENT_FIRST, HAND_ALL_EVENTS],
                         ids=["hand", "event_first", "all_events"])
def test_a_models_kept_segment_index_gives_a_fresh_models_tables(delta):
    # one model keeps the index of its largest batch so far: built for 9
    # rows, read for 1, rebuilt for 20
    rng = np.random.default_rng(33)
    kept = hand_model(delta=delta)[1]
    for c in (9, 1, 20):
        z, d = rng.normal(size=(c, 2)), rng.normal(size=c)
        fresh = hand_model(delta=delta)[1]
        got, want = kept.tables(z, d), fresh.tables(z, d)
        for name in ("w", "seglog", "mass"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(kept.live_events(got.w), fresh.live_events(got.w))
