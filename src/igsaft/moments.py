"""Moment evaluation: the uncensored interaction moment g, its AIPCW
transform psi with the discrete integral over training event times, stacked
moment matrices, and mean/second-moment summaries.

Every moment is affine in beta and is stored as an (intercept, slope) pair,
so downstream beta searches reuse one construction pass.

The batch transform rewrites psi as

    psi_i = ipcw_i * g_i + sum_j W_ij * g_j                    (training j)

by telescoping the integral term over the training event grid; building W
costs O(n_eval * n_train) and the moment dimension enters only through two
matrix products. The discrete step function xi_hat jumps only at training
event times (censored rows carry zero inverse-probability mass), and psi
reads it left-of-jump at Y, which makes the zero-censoring identity
psi == g exact in floating point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Observation
from .errors import IllPosedError
from .interactions import MomentSpec, build_Vk, eval_centered, vk_width
from .nuisance import CondMoment, NuisanceFit, fold_g_values


@dataclass(frozen=True)
class AffineMoment:
    """psi(beta) = a + b * beta, exactly."""

    a: np.ndarray
    b: np.ndarray

    def __call__(self, beta: float) -> np.ndarray:
        return self.a + beta * self.b


@dataclass
class TransformStats:
    clip_count: int = 0
    empty_risk_sets: int = 0

    def merge(self, other: "TransformStats") -> None:
        self.clip_count += other.clip_count
        self.empty_risk_sets += other.empty_risk_sets


@dataclass(frozen=True)
class MomentMatrix:
    """Evaluated affine moments for every dataset row, in dataset order."""

    A: np.ndarray          # (n, m) intercepts
    B: np.ndarray          # (n, m) slopes
    spec: MomentSpec
    fold_tags: np.ndarray  # (n,) evaluation-fold label per row
    stats: TransformStats

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    def row(self, i: int) -> AffineMoment:
        return AffineMoment(self.A[i], self.B[i])

    def eval(self, beta: float) -> np.ndarray:
        return self.A + beta * self.B


def eval_g(obs: Observation, nuis: NuisanceFit, spec: MomentSpec) -> AffineMoment:
    """Uncensored interaction moment for one observation."""
    Ic = eval_centered(obs.z, nuis.zeta, spec)
    a = np.empty(spec.m)
    b = np.empty(spec.m)
    for k in spec.orders:
        cols = [t for t, ix in enumerate(spec.indices) if ix.order == k]
        v = build_Vk(obs.z[None, :], k)[0]
        a[cols] = Ic[cols] * (obs.y - v @ nuis.partials[k].theta_y)
        b[cols] = Ic[cols] * (-(obs.d - v @ nuis.partials[k].theta_d))
    return AffineMoment(a=a, b=b)


def _grid_tables(cond: CondMoment, tables, y_eval, delta_eval):
    """Shared per-chunk quantities for the AIPCW weight assembly."""
    cm = cond.censor
    eps = cm.cfg.trunc_eps
    stats = TransformStats()

    G_train_raw = np.exp(tables.logG_train)
    G_train = np.maximum(G_train_raw, eps)
    omega = tables.w * cm.delta_s[None, :] / G_train
    stats.clip_count += int(((G_train_raw < eps) & (cm.delta_s[None, :] == 1.0)
                             & (tables.w > 0)).sum())

    suffix = np.cumsum(omega[:, ::-1], axis=1)[:, ::-1]
    S_total = suffix[:, 0]

    K = cm.grid_vals.size
    S_grid = suffix[:, cm.grid_first]
    logG_grid = tables.cumlog[:, cm.grid_first]
    G_grid_raw = np.exp(logG_grid)
    G_grid = np.maximum(G_grid_raw, eps)

    T = np.searchsorted(cm.grid_vals, y_eval, side="right")
    last_valid = (S_grid > 0).sum(axis=1)  # S_grid is nonincreasing along the grid
    T_eff = np.minimum(T, last_valid)
    stats.empty_risk_sets += int((T_eff < T).sum() + (S_total <= 0).sum())
    used = np.arange(K)[None, :] < T_eff[:, None]
    stats.clip_count += int(((G_grid_raw < eps) & used).sum())

    # Ghat at the evaluation row's own time
    pos = np.searchsorted(cm.ys, y_eval, side="right") - 1
    logGy = np.where(pos >= 0, tables.cumlog[np.arange(len(y_eval)), np.maximum(pos, 0)], 0.0)
    Gy_raw = np.exp(logGy)
    Gy = np.maximum(Gy_raw, eps)
    stats.clip_count += int(((Gy_raw < eps) & (delta_eval == 1)).sum())
    ipcw = delta_eval / Gy

    return omega, S_total, S_grid, G_grid, T_eff, ipcw, stats


def aipcw_transform(eval_z, eval_d, eval_y, eval_delta, ge_a, ge_b,
                    cond: CondMoment, chunk: int = 32):
    """Apply the censoring adjustment to evaluation-fold g values.

    Returns (psi_a, psi_b, stats). The map is linear in g: it is
    ipcw * g_eval plus a weighted combination of the training fold's g.
    Evaluation rows go through in chunks; each chunk makes a few
    (chunk, n_train) temporaries, so a small chunk keeps them in cache and
    peak memory low. Rows do not interact across a chunk; the output is
    the same bit for bit at chunks 16, 32 and 256 (tests/test_moments.py).

    The coefficient of training row j depends on j only through its rank
    rank_tr[j] in 0..K on the event grid, so the integral, snap and
    xi(-inf) terms fill one (chunk, K + 1) table, gathered once by
    table[:, rank_tr]. W @ a and W @ b stay two products: one product on
    [a | b] rounds differently with the chunk's row count.
    """
    cm = cond.censor
    n_eval = len(eval_y)
    m = ge_a.shape[1]
    psi_a = np.empty((n_eval, m))
    psi_b = np.empty((n_eval, m))
    stats = TransformStats()
    K = cm.grid_vals.size
    # rank of each training time on the event grid: #events <= Y_j
    rank_tr = np.searchsorted(cm.grid_vals, cm.ys, side="right") if K else None

    for start in range(0, n_eval, chunk):
        sl = slice(start, min(start + chunk, n_eval))
        y_c = eval_y[sl]
        delta_c = eval_delta[sl].astype(float)
        tables = cm.tables(eval_z[sl], eval_d[sl])
        omega, S_total, S_grid, G_grid, T_eff, ipcw, st = _grid_tables(
            cond, tables, y_c, delta_c)
        stats.merge(st)
        c = len(y_c)
        ok = S_total > 0  # rows without weighted events degenerate to the IPCW term

        if K:
            invG = 1.0 / G_grid
            valid = np.arange(K)[None, :] < T_eff[:, None]
            wgt = invG * valid
            d0 = wgt.copy()
            d0[:, :-1] -= wgt[:, 1:]
            e = d0 / np.where(S_grid > 0, S_grid, 1.0)
            table = np.zeros((c, K + 1))  # column r: coefficient at rank r
            np.cumsum(e, axis=1, out=table[:, 1:])  # integral term

            has_grid = T_eff >= 1
            invS_tot = np.where(ok, 1.0 / np.where(ok, S_total, 1.0), 0.0)
            c1 = np.where(has_grid, invG[:, 0], 0.0)   # Abel correction only with a nonempty sum
            coef_inf = invS_tot * (1.0 - c1)
            t1 = np.maximum(T_eff, 1)
            S_T = S_grid[np.arange(c), np.minimum(t1, K) - 1]
            invS_T = np.where(S_T > 0, 1.0 / np.where(S_T > 0, S_T, 1.0), 0.0)
            # -ipcw * xi at floor(Y), on ranks with I(Y_j >= u_{t1})
            table -= (ipcw * invS_T)[:, None] * (np.arange(K + 1) >= t1[:, None])
            table += coef_inf[:, None]
            table[~ok] = 0.0
            W = omega * table[:, rank_tr]
        else:
            W = np.zeros((c, cm.n))

        psi_a[sl] = ipcw[:, None] * ge_a[sl] + W @ cond.a
        psi_b[sl] = ipcw[:, None] * ge_b[sl] + W @ cond.b
    return psi_a, psi_b, stats


def eval_psi(obs: Observation, nuis: NuisanceFit, spec: MomentSpec) -> AffineMoment:
    """AIPCW moment for one observation, written out literally.

    ipcw * (g - xi(Y)) + xi(-inf) + sum_{u_t <= Y} dxi(u_t) / Ghat(u_t),
    with u_t the training fold's distinct event times, xi carried forward
    across empty weighted risk sets, and xi(Y) read at the largest u_t <= Y.
    """
    g = eval_g(obs, nuis, spec)
    cm = nuis.censor_model
    cond = nuis.cond_moment
    eps = cm.cfg.trunc_eps
    if obs.delta == 1 and cm.delta_s.min() == 1.0:
        # uncensored training fold: Ghat is identically 1 and the
        # augmentation telescopes away exactly
        return g

    tables = cm.tables(obs.z[None, :], [obs.d])
    G_train = np.maximum(np.exp(tables.logG_train[0]), eps)
    omega = tables.w[0] * cm.delta_s / G_train
    suffix = np.cumsum(omega[::-1])[::-1]
    S_total = suffix[0]

    Gy = float(np.maximum(np.exp(cm._eval_logG(tables, np.array([obs.y]))[0]), eps))
    ipcw = obs.delta / Gy

    K = cm.grid_vals.size
    if K == 0 or S_total <= 0:
        return AffineMoment(a=ipcw * g.a, b=ipcw * g.b)

    num_rev_a = np.cumsum((omega[:, None] * cond.a)[::-1], axis=0)[::-1]
    num_rev_b = np.cumsum((omega[:, None] * cond.b)[::-1], axis=0)[::-1]
    xi_inf_a = num_rev_a[0] / S_total
    xi_inf_b = num_rev_b[0] / S_total
    num_a = num_rev_a[cm.grid_first]
    num_b = num_rev_b[cm.grid_first]
    S_grid = suffix[cm.grid_first]

    xi_a = np.empty((K, spec.m))
    xi_b = np.empty((K, spec.m))
    prev_a, prev_b = xi_inf_a, xi_inf_b
    for t in range(K):
        if S_grid[t] > 0:
            prev_a = num_a[t] / S_grid[t]
            prev_b = num_b[t] / S_grid[t]
        xi_a[t] = prev_a
        xi_b[t] = prev_b

    G_grid = np.maximum(np.exp(tables.cumlog[0, cm.grid_first]), eps)
    T = int(np.searchsorted(cm.grid_vals, obs.y, side="right"))
    int_a = np.zeros(spec.m)
    int_b = np.zeros(spec.m)
    pa, pb = xi_inf_a, xi_inf_b
    for t in range(T):
        int_a = int_a + (xi_a[t] - pa) / G_grid[t]
        int_b = int_b + (xi_b[t] - pb) / G_grid[t]
        pa, pb = xi_a[t], xi_b[t]
    snap_a = xi_a[T - 1] if T >= 1 else xi_inf_a
    snap_b = xi_b[T - 1] if T >= 1 else xi_inf_b

    return AffineMoment(a=ipcw * (g.a - snap_a) + xi_inf_a + int_a,
                        b=ipcw * (g.b - snap_b) + xi_inf_b + int_b)


def build_moment_matrix(dataset: Dataset, fold_assignment, nuisances: dict,
                        spec: MomentSpec, chunk: int = 32) -> MomentMatrix:
    """Cross-fitted moment rows: row i is evaluated with the nuisance fit
    trained on the fold not containing i; rows stay in dataset order."""
    assign = np.asarray(fold_assignment)
    labels = np.unique(assign)
    if assign.shape != (dataset.n,) or len(labels) != 2:
        raise ValueError("fold_assignment must put every row in one of two folds")
    min_n = vk_width(dataset.p, max(spec.orders)) + 2
    A = np.empty((dataset.n, spec.m))
    B = np.empty((dataset.n, spec.m))
    stats = TransformStats()
    for label in labels:
        idx = np.flatnonzero(assign == label)
        if idx.size < min_n:
            raise IllPosedError(f"fold {label} has {idx.size} rows; need >= {min_n}")
        nuis = nuisances[label]
        overlap = np.intersect1d(nuis.training_ids, idx)
        if overlap.size:
            raise ValueError(f"fold {label}: nuisance fit was trained on evaluation rows")
        if nuis.fold.delta.sum() == 0:
            raise IllPosedError(f"training fold for {label} has no observed events")
        eval_fold = dataset.subset(idx)
        ge_a, ge_b = fold_g_values(eval_fold, nuis.zeta, nuis.partials, spec)
        pa, pb, st = aipcw_transform(eval_fold.z, eval_fold.d, eval_fold.y,
                                     eval_fold.delta, ge_a, ge_b,
                                     nuis.cond_moment, chunk=chunk)
        stats.merge(st)
        A[idx] = pa
        B[idx] = pb
    return MomentMatrix(A=A, B=B, spec=spec, fold_tags=assign.copy(), stats=stats)


def mean_and_cov(M: MomentMatrix, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of psi(beta) and the uncentered second-moment matrix."""
    psi = M.eval(beta)
    return psi.mean(axis=0), psi.T @ psi / M.n


def dump_moments(M: MomentMatrix, path) -> None:
    """Write (a, b) rows to CSV for external verification."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "fold",
                         *(f"a_{t + 1}" for t in range(M.m)),
                         *(f"b_{t + 1}" for t in range(M.m))])
        for i in range(M.n):
            writer.writerow([i, int(M.fold_tags[i]),
                             *(repr(float(v)) for v in M.A[i]),
                             *(repr(float(v)) for v in M.B[i])])

