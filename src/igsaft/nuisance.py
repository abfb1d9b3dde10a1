"""Nuisance estimation: instrument means, partialling regressions, the
kernel-weighted local Kaplan-Meier censoring survival, and the training-fold
g values that the AIPCW transform averages over weighted risk sets.

All fitting happens on one fold; fitted objects are safe to evaluate
concurrently. They are immutable but for one cache: a CensorModel keeps the
flat index of its segment sums, built for the largest batch so far and
swapped in whole, so a concurrent call at worst builds it again. Training
arrays are kept internally in sorted-time order; tie groups are precomputed
so risk sets use I(Y_j >= Y_i) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, IllPosedError
from .interactions import MomentSpec, build_Vk, eval_centered_matrix, vk_width
from .spd import solve_spd

_LOG_TINY = -745.0  # below this exp() underflows to 0
CONDITIONINGS = ("auto", "full", "d_only", "marginal")


@dataclass(frozen=True)
class KernelConfig:
    """Kernel smoothing settings for the censoring model, which weighs
    training rows by a Gaussian product kernel.

    fixed_h          bandwidth on the standardized coordinates, > 0; None
                     uses Silverman's rule 1.06 n^(-1/(4 + dim))
    trunc_eps        lower clip of the censoring survival, in (0, 1)
    km_conditioning  coordinates the local Kaplan-Meier smooths over: 'auto'
                     resolves to 'd_only' when p > 5 and 'full' otherwise;
                     'marginal' drops conditioning entirely (every weight 1/n)
    """

    fixed_h: float | None = None
    trunc_eps: float = 0.01
    km_conditioning: str = "auto"

    def __post_init__(self):
        if self.fixed_h is not None and not self.fixed_h > 0:
            raise DomainError(f"fixed bandwidth must be > 0, got {self.fixed_h}")
        if not 0 < self.trunc_eps < 1:
            raise DomainError("trunc_eps must lie in (0, 1)")
        if self.km_conditioning not in CONDITIONINGS:
            raise DomainError(f"unknown km_conditioning {self.km_conditioning!r}")

    def resolve_conditioning(self, p: int) -> str:
        if self.km_conditioning == "auto":
            return "d_only" if p > 5 else "full"
        return self.km_conditioning


@dataclass(frozen=True)
class PartialFit:
    """Least-squares coefficients of Y and D on the order-k design V_k."""

    theta_y: np.ndarray
    theta_d: np.ndarray
    ridge_fallback: bool = False

    def __post_init__(self):
        if self.theta_y.shape != self.theta_d.shape:
            raise ValueError("theta_y and theta_d must have equal length")
        if not (np.isfinite(self.theta_y).all() and np.isfinite(self.theta_d).all()):
            raise ValueError("partialling coefficients must be finite")


def fit_partials(fold: Dataset, k: int) -> PartialFit:
    """Regress Y on V_k and D on V_k; deterministic given the fold."""
    V = build_Vk(fold.z, k)
    if V.shape[1] >= fold.n:
        raise IllPosedError(
            f"V_{k} width {V.shape[1]} >= fold size {fold.n}; cannot partial out")
    coefs, fb = solve_spd(V.T @ V, V.T @ np.column_stack([fold.y, fold.d]))
    return PartialFit(theta_y=coefs[:, 0], theta_d=coefs[:, 1], ridge_fallback=fb)


class _KernelWeigher:
    """Gaussian product kernel over standardized conditioning coordinates.

    Both bandwidth rules give every coordinate the same h, so the log-kernel
    -|t - x|^2 / 2h^2 is t'x / h^2 - |x|^2 / 2h^2 plus a per-row constant
    that normalization removes: one (c, dim + 1) x (dim + 1, n) product of
    [t / h, 1] with XhT, the coordinates over h stacked on a row of
    -|x|^2 / 2h^2. Without conditioning coordinates (dim 0), h is empty,
    the log-kernel is 0 and every weight is exactly 1/n.
    """

    def __init__(self, X: np.ndarray, cfg: KernelConfig):
        self.n, self.dim = X.shape
        self.mean = X.mean(axis=0)
        sd = X.std(axis=0)
        self.sd = np.where(sd > 0, sd, 1.0)
        # standardized coordinates have unit scale
        h = 1.06 * self.n ** (-1.0 / (4 + self.dim)) if cfg.fixed_h is None else cfg.fixed_h
        self.h = np.full(self.dim, float(h))
        Xh = (X - self.mean) / self.sd / self.h
        self.XhT = np.vstack([Xh.T, -0.5 * (Xh * Xh).sum(axis=1)])

    def weights(self, targets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Normalized weights (c, n); rows sum to 1. Written into out, a
        C-contiguous (c, n) float array, if given."""
        c = targets.shape[0]
        w = np.empty((c, self.n)) if out is None else out
        T = np.ones((c, self.dim + 1))
        T[:, :-1] = (targets - self.mean) / self.sd / self.h
        np.matmul(T, self.XhT, out=w)
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=1, keepdims=True)
        return w


def _conditioning_targets(z, d, mode: str) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if mode == "full":
        return np.column_stack([z, d])
    if mode == "d_only":
        return d[:, None]
    return np.zeros((d.shape[0], 0))


@dataclass
class KMTables:
    """Per-target arrays in sorted training order, produced by CensorModel.

    Ghat is constant on each censoring segment, so its log is kept once per
    segment; seglog[:, CensorModel.seg_of] expands it to every training row.
    On a fold with a censored row, mass comes from
    CensorModel.segment_sums(w), each run summed in row order; on a fold
    without one, from two slice sums of each row of w. A run without event
    rows is exactly 0 either way.
    """

    w: np.ndarray       # (c, n) kernel weights
    seglog: np.ndarray  # (c, S + 1) log Ghat on each censoring segment
    mass: np.ndarray    # (c, 2E) event weight of the two runs of each event segment


class CensorModel:
    """Local Kaplan-Meier estimate of the censoring survival G(y | z, d).

    Censored observations contribute product-limit factors; the at-risk sums
    use I(Y_j >= Y_i) with exact tie grouping. Ghat equals 1 below the
    smallest censored training time; the AIPCW transform clips it below at
    trunc_eps.
    """

    def __init__(self, fold: Dataset, cfg: KernelConfig):
        self.cfg = cfg
        self.order = np.argsort(fold.y, kind="stable")
        self.ys = fold.y[self.order]
        self.delta_s = fold.delta[self.order].astype(float)
        self.n = fold.n
        mode = cfg.resolve_conditioning(fold.p)
        self.conditioning = mode
        X = _conditioning_targets(fold.z, fold.d, mode)[self.order]
        self.weigher = _KernelWeigher(X, cfg)

        # tie groups over the sorted times
        starts = np.flatnonzero(np.diff(self.ys, prepend=-np.inf) != 0)

        # tie groups with a censored row, the only ones with a factor other
        # than 1: where each begins in sorted order
        cens = self.delta_s == 0.0
        self.cens_starts = starts[np.logical_or.reduceat(cens, starts)]
        self.cens_times = self.ys[self.cens_starts]
        # censoring segment s: the rows from the s-th censored group start to
        # the next (segment 0 may be empty); Ghat is constant on each
        self.seg_of = np.searchsorted(self.cens_starts, np.arange(self.n), side="right")

        # distinct event times; ties merge into one grid point
        self.grid_first = starts[~np.logical_and.reduceat(cens, starts)]
        self.grid_vals = self.ys[self.grid_first]

        # event segments (segments with an event), in order: grid_ev maps each
        # grid point to one, bnd_grid is the last grid point of each, and
        # last_first the first row of its last event group
        grid_seg = self.seg_of[self.grid_first]
        last = np.diff(grid_seg, append=np.inf) != 0
        self.grid_ev = np.cumsum(last) - last
        self.bnd_grid = np.flatnonzero(last)
        self.last_first = self.grid_first[last]
        self.ev_seg = grid_seg[last]
        self.grid_start = np.r_[0, self.bnd_grid + 1][:-1]
        # event rows by (event segment, last-group flag), the event runs;
        # censored rows are class 2E, whose coefficient is 0
        ev_rows = np.flatnonzero(~cens)
        ev_of = self.grid_ev[np.searchsorted(self.grid_first, ev_rows, side="right") - 1]
        self.cls_of = np.full(self.n, 2 * self.ev_seg.size)
        self.cls_of[ev_rows] = 2 * ev_of + (ev_rows >= self.last_first[ev_of])
        self.ev_count = np.bincount(ev_of, minlength=self.ev_seg.size)
        # the sum of S + 2E each row adds to: a censored row its censored tie
        # group (the group starting its segment), an event row its event run
        S = self.cens_starts.size
        self.seg_row = np.where(cens, self.seg_of - 1, S + self.cls_of)
        self.n_sums = S + 2 * self.ev_seg.size
        self._index = np.empty((0, self.n), dtype=np.intp)  # see segment_sums

    @property
    def bandwidth(self) -> np.ndarray:
        return self.weigher.h

    def segment_sums(self, w: np.ndarray) -> np.ndarray:
        """(c, S + 2E) sums of each row of the (c, n) array w over each
        censored tie group, then each event run, in row order: one
        np.bincount over the flat index seg_row[j] + (S + 2E) i of entry
        (i, j). The index is built for the largest batch so far and kept on
        the model, so batches of at most the first one's size build it once."""
        c = len(w)
        index = self._index
        if len(index) < c:
            index = self._index = self.seg_row + self.n_sums * np.arange(c)[:, None]
        return np.bincount(index[:c].ravel(), weights=w.ravel(),
                           minlength=c * self.n_sums).reshape(c, self.n_sums)

    def live_events(self, w: np.ndarray) -> np.ndarray:
        """(c, E) count of the event rows of each event segment with w > 0."""
        live = self.segment_sums(w > 0)[:, self.cens_starts.size:]
        return live[:, 0::2] + live[:, 1::2]

    def tables(self, z, d, w_out: np.ndarray | None = None) -> KMTables:
        """Compute weight and survival tables for a batch of c targets. The
        kernel weights are written into w_out, a C-contiguous (c, n) float
        array, if given, so that a caller going through many batches reuses
        one buffer.

        Tied censored observations are grouped: each tie group contributes a
        single product-limit factor 1 - (censored mass in group) / (at-risk
        mass), which reduces exactly to the unconditional Kaplan-Meier under
        equal weights. Only groups with a censored row have a factor other
        than 1, so log Ghat is one value per censoring segment (seglog; all
        zeros without censored rows). mass is the event weight of each event
        segment over two runs (before and from its last event group); a run
        without event rows sums to exactly 0. With a censored row, the
        censored mass of each group and mass come from `segment_sums`, which
        sums each group and run in row order, and the at-risk masses are a
        reduceat from each censored group start on.
        Without one, the fold is one event segment whose runs are the rows
        before and from last_first[0], and mass is those two slice sums of
        each row: a bincount would add every row into one of two bins, each
        add waiting for the one before.
        """
        targets = _conditioning_targets(z, d, self.conditioning)
        w = self.weigher.weights(targets, w_out)
        c, S = len(w), self.cens_starts.size
        if not S:
            split = self.last_first[0]
            mass = np.column_stack([w[:, :split].sum(axis=1), w[:, split:].sum(axis=1)])
            return KMTables(w=w, seglog=np.zeros((c, 1)), mass=mass)
        sums = self.segment_sums(w)  # (c, S + 2E): censored groups, then event runs
        seglog = np.zeros((c, S + 1))
        between = np.add.reduceat(w, self.cens_starts, axis=1)  # from the first start on
        risk_at_start = np.cumsum(between[:, ::-1], axis=1)[:, ::-1]
        frac = sums[:, :S] / np.maximum(risk_at_start, 1e-300)
        with np.errstate(divide="ignore"):
            logf_group = np.log1p(-np.minimum(frac, 1.0))
        np.cumsum(np.maximum(logf_group, _LOG_TINY), axis=1, out=seglog[:, 1:])
        return KMTables(w=w, seglog=seglog, mass=sums[:, S:])


class CondMoment:
    """Training-fold g values in sorted training order, the parts of
    E[g(beta) | T >= u, z, d] that the AIPCW transform averages over weighted
    risk sets: a, the intercepts, and b, the slopes, which share the weights.
    """

    def __init__(self, censor: CensorModel, g_a: np.ndarray, g_b: np.ndarray):
        if g_a.shape != g_b.shape or g_a.shape[0] != censor.n:
            raise ValueError("g arrays must be (n_fold, m)")
        self.censor = censor
        self.a = g_a[censor.order]
        self.b = g_b[censor.order]
        self.m = g_a.shape[1]


@dataclass
class NuisanceFit:
    """All nuisance estimates from one training fold."""

    zeta: np.ndarray
    partials: dict[int, PartialFit]
    censor_model: CensorModel
    cond_moment: CondMoment


def fold_g_values(fold: Dataset, zeta: np.ndarray, partials: dict[int, PartialFit],
                  spec: MomentSpec) -> tuple[np.ndarray, np.ndarray]:
    """Affine parts of g for every fold row and spec component.

    a = I_k(z; zeta) * (y - V_k theta_y), b = -I_k(z; zeta) * (d - V_k theta_d),
    using each component's own interaction order k.
    """
    Ic = eval_centered_matrix(fold.z, zeta, spec)
    a = np.empty((fold.n, spec.m))
    b = np.empty((fold.n, spec.m))
    for k in spec.orders:
        cols = [t for t, ix in enumerate(spec.indices) if ix.order == k]
        V = build_Vk(fold.z, k)
        ry = fold.y - V @ partials[k].theta_y
        rd = fold.d - V @ partials[k].theta_d
        a[:, cols] = Ic[:, cols] * ry[:, None]
        b[:, cols] = Ic[:, cols] * (-rd[:, None])
    return a, b


def fit_all(fold: Dataset, spec: MomentSpec, cfg: KernelConfig) -> NuisanceFit:
    """Fit every nuisance component on one fold."""
    min_n = vk_width(fold.p, max(spec.orders)) + 2
    if fold.n < min_n:
        raise IllPosedError(f"fold of size {fold.n} below minimum {min_n} for q={spec.q}")
    zeta = fold.z.mean(axis=0)
    partials = {k: fit_partials(fold, k) for k in spec.orders}
    censor = CensorModel(fold, cfg)
    g_a, g_b = fold_g_values(fold, zeta, partials, spec)
    cond = CondMoment(censor, g_a, g_b)
    return NuisanceFit(zeta=zeta, partials=partials, censor_model=censor, cond_moment=cond)
