"""Moment evaluation: the AIPCW transform psi of the uncensored interaction
moment g, with the discrete integral over training event times, and the
cross-fitted moment matrix stacked from it.

Every moment is affine in beta and is stored as an (intercept, slope) pair,
so downstream beta searches reuse one construction pass.

The batch transform rewrites psi as psi_i = ipcw_i * g_i + sum_j W_ij * g_j
over training rows j by telescoping the integral term over the training
event grid; the moment dimension enters only through two matrix products.
Ghat is constant on each censoring segment (the rows from one censored tie
group to the next), so an integral increment (1/G[t] - 1/G[t+1]) / S[t] is
nonzero only where the grid enters a new segment. With k the event segment
of an event row j and l = 1 if j is in its last event group,

    W_ij = w_ij * P_i[2k + l] for j < J0_i,   P_i[2k + l] = (F_i[k + l] + coef_inf_i) / G_i[k]
    W_ij = w_ij * Q_i[2k + l] for j >= J0_i,  Q_i[2k + l] = const_i / G_i[k]

and W_ij = 0 for censored j. F_i sums the increments below the row's last
used grid point T_eff_i - 1, whose first training row is J0_i (0 when
T_eff_i = 0); const_i adds the increment at T_eff_i - 1 and the
-ipcw * xi(Y) snap. S needs per-segment masses and one partial sum per row.
The discrete step function xi_hat jumps only at training event times
(censored rows carry zero inverse-probability mass), and psi reads it
left-of-jump at Y, which makes the zero-censoring identity psi == g exact
in floating point.

What is held when: `build_moment_matrix` allocates A and B once and fills
them fold by fold. A fold's g is written straight into its rows of A and B,
and `aipcw_transform` writes psi over those rows 32 at a time, with four
(32, n_train) buffers that live for one transform. The fold's nuisances
live from just before its g is computed to the end of its transform.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import IllPosedError
from .interactions import MomentSpec, vk_width
from .nuisance import CondMoment, fold_g_values

# A weighted risk-set mass S at or below this counts as an empty risk set.
# Above it, 1/S times two factors 1/trunc_eps stays finite for trunc_eps
# down to 1e-7; a subnormal S would make 1/S infinite.
_MASS_FLOOR = 1e-290

_CHUNK = 32  # evaluation rows per chunk of aipcw_transform


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

    def eval(self, beta: float) -> np.ndarray:
        return self.A + beta * self.B


def aipcw_transform(fold: Dataset, A, B, idx, cond: CondMoment) -> TransformStats:
    """Write psi over an evaluation fold's g values; return the clip and
    empty-risk-set counts.

    Rows idx of the float (n, m) arrays A and B hold the g values of the
    rows of fold, in fold order; a caller that needs g after the call passes
    copies. W is built from the censoring-segment tables of the module
    docstring.

    Rows go through _CHUNK = 32 at a time. A chunk's four (chunk, n_train)
    arrays (kernel weights, event weights, gather index and W) live in
    buffers allocated once per call, 2 MB at n_train = 2000; on the
    benchmark's 2000-row folds, 16 to 128 rows per chunk took the same time
    within noise. Freed after each chunk, the buffers' pages would go back
    to the operating system and every chunk would pay page faults for them
    again. The BLAS products W @ a and W @ b may round a row differently with
    the chunk's row count, so a fold's partial last chunk can differ in the
    last bits from what a full chunk would give its rows. W @ a and W @ b
    stay two products of width m: one on [a | b] rounds differently at some
    widths (m = 10 with one BLAS thread), which would move A and B.

    P and Q sit interleaved in one (chunk, C, 2) table, so the flat index of
    W_ij is 2 (class of j) + 2C i, the index of P[i, class of j], plus the
    flag j >= J0_i: two adds, one comparison and one gather per chunk. The
    clip count is kept only for rows with a clipped event segment; the live
    event count of such a row with zero kernel weights is a np.bincount of
    w > 0 over CensorModel.seg_index, which the chunk's tables share. It is
    built once per transform, and only if the training fold has a censored
    row: without one Ghat is 1, nothing is clipped, and the tables sum their
    event runs without it.
    """
    cm = cond.censor
    K, E, n = cm.grid_vals.size, cm.ev_seg.size, cm.n  # Dataset holds K >= 1 events
    eps = cm.cfg.trunc_eps
    stats = TransformStats()
    C = 2 * E + 1  # columns of P and of Q; the last is the censored rows' zero
    F_col = (np.arange(2 * E) + 1) // 2  # class 2k + l reads F[:, k + l]
    train_rows = np.arange(n)
    c_max = min(_CHUNK, fold.n)
    # flat index of P[i, class of j] in a chunk's PQ, 2 cls_j + 2C i; Q's is one more
    P_class, P_row = 2 * cm.cls_of, 2 * C * np.arange(c_max)
    seg_index = cm.seg_index(c_max) if cm.cens_starts.size else None
    # the chunk's (chunk, n_train) arrays, reused by every chunk; np.take
    # fills them with mode="wrap", as mode="raise" takes through a copy
    w_buf, event_buf, W_buf = (np.empty((c_max, n)) for _ in range(3))
    gather_buf = np.empty((c_max, n), dtype=np.intp)

    for start in range(0, fold.n, _CHUNK):
        sl = slice(start, start + _CHUNK)
        y_c, delta_c = fold.y[sl], fold.delta[sl].astype(float)
        c = len(y_c)
        t = cm.tables(fold.z[sl], fold.d[sl], seg_index, w_buf[:c])
        rows = np.arange(c)
        G_raw = np.exp(t.seglog)
        invG = 1.0 / np.maximum(G_raw[:, cm.ev_seg], eps)
        clipped = G_raw[:, cm.ev_seg] < eps
        invG2 = np.repeat(invG, 2, axis=1)
        Gy_raw = G_raw[rows, np.searchsorted(cm.cens_times, y_c, side="right")]
        stats.clip_count += int(((Gy_raw < eps) & (delta_c == 1)).sum())
        ipcw = delta_c / np.maximum(Gy_raw, eps)

        # S, the weighted event mass from a row on, at every run start
        suf = np.cumsum((t.mass * invG2)[:, ::-1], axis=1)[:, ::-1]
        S_total, S_last = suf[:, 0], suf[:, 1::2]
        ok = S_total > _MASS_FLOOR  # else W is 0: the IPCW term alone

        # S is nonincreasing along the grid, so the usable grid is cut short
        # only in rows whose last grid point holds at most _MASS_FLOOR
        last_valid = np.full(len(rows), K)
        cut = np.flatnonzero(S_last[:, -1] <= _MASS_FLOOR)
        if cut.size:
            seg = np.minimum(cm.cls_of // 2, E - 1)  # event segment of each event row
            omega = t.w[cut] * cm.delta_s * invG[cut][:, seg]
            S_grid = np.cumsum(omega[:, ::-1], axis=1)[:, ::-1][:, cm.grid_first]
            last_valid[cut] = (S_grid > _MASS_FLOOR).sum(axis=1)
        T = np.searchsorted(cm.grid_vals, y_c, side="right")
        T_eff = np.minimum(T, last_valid)
        stats.empty_risk_sets += int((T_eff < T).sum() + (~ok).sum())
        hit = np.flatnonzero(clipped.any(axis=1))  # other rows add 0 to the clip count
        if hit.size:  # a clipped event segment counts its live event rows and used grid points
            live_ev = np.tile(cm.ev_count, (hit.size, 1))
            zero = np.flatnonzero(t.w.min(axis=1)[hit] == 0.0)
            if zero.size:  # count per event run, then add the two runs of each segment
                live = np.bincount(seg_index[:zero.size].ravel(), weights=(t.w[hit[zero]] > 0).ravel(),
                                   minlength=zero.size * cm.n_sums)
                live = live.reshape(zero.size, cm.n_sums)[:, -2 * E:]
                live_ev[zero] = live[:, 0::2] + live[:, 1::2]
            below = np.clip(T_eff[hit, None], cm.grid_start, cm.bnd_grid + 1) - cm.grid_start
            stats.clip_count += int((clipped[hit] * (live_ev + below)).sum())

        # S at grid point T_eff - 1 (S_total when T_eff = 0): from the last
        # event group of its segment on, plus a partial sum up to there
        has_grid = T_eff >= 1
        k0 = cm.grid_ev[np.maximum(T_eff - 1, 0)]
        J0 = np.where(has_grid, cm.grid_first[np.maximum(T_eff - 1, 0)], 0)
        S_T = np.where(has_grid, S_last[rows, k0], S_total)
        mid = np.flatnonzero(has_grid & (J0 < cm.last_first[k0]))
        ends = np.column_stack([J0[mid], cm.last_first[k0[mid]]]) + n * np.arange(mid.size)[:, None]
        w_event = np.take(t.w, mid, axis=0, out=event_buf[:mid.size], mode="wrap")
        w_event *= cm.delta_s  # delta is 0 or 1: 0 on censored rows
        S_T[mid] += np.add.reduceat(w_event.ravel(), ends.ravel())[::2] * invG[mid, k0[mid]]
        live_T = has_grid | ok  # S_T > _MASS_FLOOR: T_eff <= last_valid, or S_T is S_total
        invS_T = np.where(live_T, 1.0 / np.where(live_T, S_T, 1.0), 0.0)
        invS_tot = np.where(ok, 1.0 / np.where(ok, S_total, 1.0), 0.0)
        # Abel correction only with a nonempty sum
        coef_inf = invS_tot * (1.0 - np.where(has_grid, invG[:, 0], 0.0))

        # F: boundary increments below T_eff - 1, divided only where used
        F = np.zeros((len(rows), E + 1))
        act = cm.bnd_grid[:-1] < (T_eff - 1)[:, None]
        F[:, 1:E][act] = (invG[:, :-1] - invG[:, 1:])[act] / S_last[:, :-1][act]
        np.cumsum(F, axis=1, out=F)
        head = np.where(has_grid, F[rows, k0] + invG[rows, k0] / np.where(has_grid, S_T, 1.0), 0.0)
        const = (head - ipcw * invS_T) + coef_inf

        PQ = np.zeros((len(rows), C, 2))  # P and Q interleaved per row
        PQ[:, :-1, 0] = invG2 * (F[:, F_col] + coef_inf[:, None])
        PQ[:, :-1, 1] = invG2 * const[:, None]
        gather = np.add(P_class, P_row[:c, None], out=gather_buf[:c])
        gather += train_rows >= J0[:, None]
        W = np.take(PQ, gather, out=W_buf[:c], mode="wrap")
        W *= t.w

        for out, train in ((A, cond.a), (B, cond.b)):
            psi = out[idx[sl]]
            psi *= ipcw[:, None]
            psi += W @ train
            out[idx[sl]] = psi
    return stats


def build_moment_matrix(dataset: Dataset, fold_assignment, nuisances,
                        spec: MomentSpec) -> MomentMatrix:
    """Cross-fitted moment rows: row i is evaluated with the nuisance fit
    trained on the fold not containing i; rows stay in dataset order.

    nuisances is called with each fold label just before the fold is
    evaluated, and returns the NuisanceFit that evaluates that fold; a fit
    whose training_ids include a row of the fold is refused. One fold's
    working set is held at a time: the fold's g goes straight into its rows
    of A and B, `aipcw_transform` writes psi over those rows, and the fold's
    nuisances are dropped before the next fold's are fitted."""
    assign = np.asarray(fold_assignment)
    labels = (assign.min(), assign.max()) if assign.size else ()
    if assign.shape != (dataset.n,) or labels[0] == labels[1] or not np.isin(assign, labels).all():
        raise ValueError("fold_assignment must put every row in one of two folds")
    min_n = vk_width(dataset.p, max(spec.orders)) + 2
    # one (2, n, m) block: glibc raises its mmap threshold to the largest
    # block it has unmapped and trims the heap only above twice that, so one
    # block keeps a fit's heap for the next fit where two halves did not (at
    # n = 4000, m = 45: under 300 in place of 3,300 page faults per fit)
    A, B = np.empty((2, dataset.n, spec.m))
    stats = TransformStats()
    for label in labels:
        idx = np.flatnonzero(assign == label)
        if idx.size < min_n:
            raise IllPosedError(f"fold {label} has {idx.size} rows; need >= {min_n}")
        nuis = nuisances(label)
        if np.isin(nuis.training_ids, idx).any():
            raise ValueError(f"fold {label}: nuisance fit was trained on evaluation rows")
        eval_fold = dataset.subset(idx)
        A[idx], B[idx] = fold_g_values(eval_fold, nuis.zeta, nuis.partials, spec)
        stats.merge(aipcw_transform(eval_fold, A, B, idx, nuis.cond_moment))
        del nuis, eval_fold  # else they stay alive while the next fold is fitted
    return MomentMatrix(A=A, B=B, spec=spec, fold_tags=assign.copy(), stats=stats)


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

