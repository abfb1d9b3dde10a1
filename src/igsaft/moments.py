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

What is held when: `build_moment_matrix` allocates A and B once per split,
and each fold writes its g straight into its rows of A and B;
`aipcw_transform` then writes psi over those rows 32 at a time, with four
(32, n_train) buffers that live for one transform. A fold's nuisance fit
lives from just before its g is computed to the end of its transform. On
Linux, with at least two CPUs in the process's affinity mask and outside a
worker process, a fit forks one worker process (`fold_worker`) that
evaluates the second fold of every split in order, into its own A and B
made once per fit, and sends each split's rows back through a pipe; the
caller evaluates each split's first fold and runs its GEL fits meanwhile,
with the worker about one split ahead. Memory is then per process: each
holds one fold's nuisance fit and chunk buffers beside its A and B, and
the worker also the pickled record it is sending. Each fold runs the same
code on the same rows either way, so A, B and the counts are bit-identical
to one fold after the other. A chunk of event rows evaluated on a training
fold without censored rows leaves its rows at g: there Ghat is 1, so W is
0 and psi = g exactly. It still builds its kernel weights, which its
empty-risk-set count needs, and writes nothing into the other three
buffers.
"""

from __future__ import annotations

import csv
import gc
import multiprocessing
import os
import pickle
import signal
import sys
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

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

# what os.fork warns (Python >= 3.12) in a process with more than one thread
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


@dataclass
class TransformStats:
    clip_count: int = 0
    empty_risk_sets: int = 0

    def merge(self, other: "TransformStats") -> None:
        self.clip_count += other.clip_count
        self.empty_risk_sets += other.empty_risk_sets


@dataclass(frozen=True)
class FoldFit:
    """What evaluating one fold leaves besides its rows of A and B."""

    stats: TransformStats
    bandwidth: tuple[float, ...]  # of the fold's censoring model
    ridge_fallback: bool          # some partialling fit needed a ridge


@dataclass(frozen=True)
class MomentMatrix:
    """Evaluated affine moments for every dataset row, in dataset order."""

    A: np.ndarray          # (n, m) intercepts
    B: np.ndarray          # (n, m) slopes
    spec: MomentSpec
    fold_tags: np.ndarray  # (n,) evaluation-fold label per row
    stats: TransformStats
    folds: tuple[FoldFit, ...] = ()  # per fold, in label order

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

    On such a training fold, a chunk whose evaluation rows are all events
    skips W: with Ghat = 1, ipcw is 1.0, F and coef_inf are 0 and const =
    head - ipcw * invS_T cancels to 0 exactly, so W is 0 and psi = g * 1 + 0
    is the g already in A and B. The chunk still calls `tables` and counts
    its empty risk sets, since a narrow kernel can leave a row's last grid
    points without mass even when nothing is censored. A chunk with a
    censored evaluation row, and every chunk on a training fold with a
    censored row, takes the full path.
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
    uncensored_train = not cm.cens_starts.size
    seg_index = None if uncensored_train else cm.seg_index(c_max)
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
        if uncensored_train and delta_c.all():
            continue  # Ghat is 1 and every ipcw 1.0, so W is 0 and psi is g

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


def _fan_out() -> bool:
    """Whether a fit's second folds run in a forked process: on Linux, with
    at least two CPUs in this process's affinity mask, and not inside a
    worker process, whose pool already spreads the work over the cores."""
    return (sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) >= 2
            and multiprocessing.parent_process() is None)


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in the fold worker."""


class _FoldWorker:
    """A forked process that evaluates the second fold of each fold
    assignment in turn and sends each outcome through a pipe as a
    length-prefixed pickled record, (ok, (FoldFit, rows of A, rows of B) or
    exception, traceback text). It stops after the first failing fold and
    leaves through os._exit, so that no cleanup of the parent's runs twice.
    A record larger than the pipe's buffer (64 kB on Linux; a record is
    720 kB at n = 2000, m = 45) blocks the worker until the caller reads it,
    so the worker runs at most one split ahead; smaller records may let it
    run further ahead."""

    def __init__(self, dataset: Dataset, assignments, fit, spec: MomentSpec):
        read, write = os.pipe()
        # A collection writes to every object it visits, so while the worker
        # lives it would copy each page of the caller's objects, in both
        # processes: a benchmark Monte Carlo replication whose heap held its
        # trace spans ran 14-17% slower than untraced on a 2-vCPU VM, and 4%
        # with them frozen. Objects the caller froze itself stay as they
        # are, since unfreezing would thaw them too.
        self._froze = gc.get_freeze_count() == 0
        if self._froze:
            gc.freeze()
        try:
            with warnings.catch_warnings():
                # os.fork warns in a process with threads (Python >= 3.12),
                # and numpy's OpenBLAS starts a thread pool at import. The
                # worker runs only the folds' numpy code, with the one BLAS
                # thread a fit pins, OpenBLAS shuts its pool down at fork,
                # and the worker leaves through os._exit: it takes no lock
                # that another thread may have held at the fork.
                warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            self._thaw()
            raise
        if self.pid == 0:
            os.close(read)
            A, B = np.empty((2, dataset.n, spec.m))  # reused by every split
            _run_and_exit((partial(_second_fold, dataset, assign, fit, spec, A, B)
                           for assign in assignments), write)
        os.close(write)
        self._pipe = os.fdopen(read, "rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def next_fold(self, label):
        """The next second fold's (FoldFit, rows of A, rows of B); raises its
        exception, or an error naming the exit status of a worker that sent
        no record for it."""
        head = self._pipe.read(8)
        size = int.from_bytes(head, "little")
        blob = self._pipe.read(size) if len(head) == 8 else b""
        if len(head) < 8 or len(blob) < size:
            code = self._reap()
            raise RuntimeError(f"the process evaluating fold {label} exited with "
                               f"status {code} before sending its result")
        ok, out, tb = pickle.loads(blob)  # bytes the worker of this fit wrote
        if not ok:
            raise out from _ChildTraceback(tb)
        return out

    def close(self):
        """Kill and reap the worker unless `next_fold` has reaped it."""
        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        pid, self.pid = self.pid, None
        status = os.waitpid(pid, 0)[1]
        self._thaw()
        return os.waitstatus_to_exitcode(status)

    def _thaw(self):
        if self._froze:
            gc.unfreeze()


def _run_and_exit(jobs, fd):
    """The worker's side of `_FoldWorker`: run the jobs in turn, write each
    outcome to fd, stop after the first that raises, exit."""
    code = 1
    try:
        with os.fdopen(fd, "wb") as fh:
            for job in jobs:
                try:
                    out = (True, job(), "")
                except BaseException as exc:  # the parent raises it
                    out = (False, exc, "".join(traceback.format_exception(exc)))
                try:
                    blob = pickle.dumps(out)
                    if not out[0]:
                        pickle.loads(blob)  # an exception may pickle but fail to unpickle
                except Exception:  # an exception that does not pickle goes by type and message
                    exc = out[1]
                    blob = pickle.dumps((False, RuntimeError(
                        f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"), out[2]))
                fh.write(len(blob).to_bytes(8, "little"))
                fh.write(blob)
                fh.flush()
                if not out[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def fold_worker(dataset: Dataset, assignments, fit, spec: MomentSpec):
    """Where `_fan_out` holds, a context manager holding one forked process
    that evaluates the second fold of each of assignments, an iterable of
    fold assignments consumed only in that process, for
    `build_moment_matrix` to read in the same order; it kills and reaps the
    process on exit. Elsewhere a context manager holding None."""
    return _FoldWorker(dataset, assignments, fit, spec) if _fan_out() else nullcontext()


def _fold_rows(dataset: Dataset, fold_assignment, spec: MomentSpec):
    """The two fold labels of a fold assignment and each fold's rows."""
    assign = np.asarray(fold_assignment)
    labels = (assign.min(), assign.max()) if assign.size else ()
    if assign.shape != (dataset.n,) or labels[0] == labels[1] or not np.isin(assign, labels).all():
        raise ValueError("fold_assignment must put every row in one of two folds")
    min_n = vk_width(dataset.p, max(spec.orders)) + 2
    rows = [np.flatnonzero(assign == label) for label in labels]
    for label, idx in zip(labels, rows):
        if idx.size < min_n:
            raise IllPosedError(f"fold {label} has {idx.size} rows; need >= {min_n}")
    return labels, rows


def _evaluate_fold(dataset: Dataset, idx, train, fit, spec: MomentSpec, A, B) -> FoldFit:
    """Fit the nuisance estimates on rows train, write the g of rows idx into
    A and B and psi over them; the fit is dropped on return."""
    nuis = fit(dataset.subset(train))
    eval_fold = dataset.subset(idx)
    A[idx], B[idx] = fold_g_values(eval_fold, nuis.zeta, nuis.partials, spec)
    stats = aipcw_transform(eval_fold, A, B, idx, nuis.cond_moment)
    return FoldFit(stats, tuple(float(h) for h in nuis.censor_model.bandwidth),
                   any(pf.ridge_fallback for pf in nuis.partials.values()))


def _second_fold(dataset: Dataset, fold_assignment, fit, spec: MomentSpec, A, B):
    """The fold worker's job: the second fold's FoldFit and rows of A and B."""
    rows = _fold_rows(dataset, fold_assignment, spec)[1]
    fold = _evaluate_fold(dataset, rows[1], rows[0], fit, spec, A, B)
    return fold, A[rows[1]], B[rows[1]]


def build_moment_matrix(dataset: Dataset, fold_assignment, fit,
                        spec: MomentSpec, worker=None) -> MomentMatrix:
    """Cross-fitted moment rows: row i is evaluated with the nuisance fit
    trained on the fold not containing i; rows stay in dataset order.

    fit maps a training Dataset to its NuisanceFit. Just before a fold is
    evaluated, it is called on the other fold's rows, in dataset order. A
    fold's g goes straight into its rows of A and B, `aipcw_transform` writes
    psi over those rows, and the fold's fit is dropped after its transform.
    The first fold runs here. The second runs after it, or, given the
    `fold_worker` of the fit, comes from the worker's next record, which
    that process evaluated while this one ran the first fold or the previous
    split's GEL fits. An error of the first fold wins over one of the
    second, as it does when the folds run in turn."""
    labels, rows = _fold_rows(dataset, fold_assignment, spec)
    # one heap block: glibc raises the size from which it maps a block on
    # its own to the largest block it has unmapped, and trims the heap only
    # above twice that, so one block keeps a fit's heap for the next fit
    # where two halves did not (at n = 4000, m = 45: under 300 in place of
    # 3,300 page faults per fit)
    A, B = np.empty((2, dataset.n, spec.m))
    first = _evaluate_fold(dataset, rows[0], rows[1], fit, spec, A, B)
    if worker is None:
        second = _evaluate_fold(dataset, rows[1], rows[0], fit, spec, A, B)
    else:
        second, A[rows[1]], B[rows[1]] = worker.next_fold(labels[1])
    stats = TransformStats()
    for fold in (first, second):
        stats.merge(fold.stats)
    return MomentMatrix(A=A, B=B, spec=spec, fold_tags=np.array(fold_assignment), stats=stats,
                        folds=(first, second))


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

