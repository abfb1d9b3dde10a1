"""Nuisance estimation: instrument means, partialling regressions, the
kernel-weighted local Kaplan-Meier censoring survival, and the conditional
moment function evaluated on weighted risk sets.

All fitting happens on one fold; fitted objects are immutable and safe to
evaluate concurrently. Training arrays are kept internally in sorted-time
order; tie groups are precomputed so risk sets use I(Y_j >= Y_i) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .data import Dataset
from .errors import DomainError, IllPosedError
from .interactions import MomentSpec, build_Vk, eval_centered_matrix, vk_width

_LOG_TINY = -745.0  # below this exp() underflows to 0


@dataclass(frozen=True)
class KernelConfig:
    """Kernel smoothing settings for the censoring model.

    km_conditioning picks which coordinates the local Kaplan-Meier smooths
    over: 'auto' resolves to 'd_only' when p > 5 and 'full' otherwise;
    'marginal' drops conditioning entirely (uniform weights).
    """

    kernel: str = "gaussian"
    bandwidth_rule: str = "silverman"
    fixed_h: float | None = None
    trunc_eps: float = 0.01
    km_conditioning: str = "auto"

    def __post_init__(self):
        if self.kernel not in ("gaussian", "uniform", "epanechnikov"):
            raise DomainError(f"unknown kernel {self.kernel!r}")
        if self.bandwidth_rule not in ("silverman", "fixed"):
            raise DomainError(f"unknown bandwidth rule {self.bandwidth_rule!r}")
        if self.bandwidth_rule == "fixed" and not (self.fixed_h and self.fixed_h > 0):
            raise DomainError("fixed bandwidth rule requires fixed_h > 0")
        if not 0 < self.trunc_eps < 1:
            raise DomainError("trunc_eps must lie in (0, 1)")
        if self.km_conditioning not in ("auto", "full", "d_only", "marginal"):
            raise DomainError(f"unknown km_conditioning {self.km_conditioning!r}")

    def resolve_conditioning(self, p: int) -> str:
        if self.km_conditioning == "auto":
            return "d_only" if p > 5 else "full"
        return self.km_conditioning


@dataclass(frozen=True)
class PartialFit:
    """Least-squares coefficients of Y and D on the order-k design V_k."""

    k: int
    theta_y: np.ndarray
    theta_d: np.ndarray
    ridge_fallback: bool = False

    def __post_init__(self):
        if self.theta_y.shape != self.theta_d.shape:
            raise ValueError("theta_y and theta_d must have equal length")
        if not (np.isfinite(self.theta_y).all() and np.isfinite(self.theta_d).all()):
            raise ValueError("partialling coefficients must be finite")


def _solve_normal(XtX, Xty):
    """Cholesky solve with escalating ridge jitter; final fallback lstsq."""
    eig = np.linalg.eigvalsh(XtX)
    if eig[0] > 1e-12 * max(eig[-1], 1.0):
        try:
            c, low = linalg.cho_factor(XtX, check_finite=False)
            return linalg.cho_solve((c, low), Xty, check_finite=False), False
        except linalg.LinAlgError:
            pass
    jitter = 1e-8
    eye = np.eye(XtX.shape[0])
    for _ in range(4):
        try:
            c, low = linalg.cho_factor(XtX + jitter * eye, check_finite=False)
            return linalg.cho_solve((c, low), Xty, check_finite=False), True
        except linalg.LinAlgError:
            jitter *= 100
    sol, *_ = np.linalg.lstsq(XtX, Xty, rcond=None)
    return sol, True


def fit_partials(fold: Dataset, k: int) -> PartialFit:
    """Regress Y on V_k and D on V_k; deterministic given the fold."""
    V = build_Vk(fold.z, k)
    if V.shape[1] >= fold.n:
        raise IllPosedError(
            f"V_{k} width {V.shape[1]} >= fold size {fold.n}; cannot partial out")
    XtX = V.T @ V
    Xty = V.T @ np.column_stack([fold.y, fold.d])
    coefs, fb = _solve_normal(XtX, Xty)
    return PartialFit(k=k, theta_y=coefs[:, 0], theta_d=coefs[:, 1], ridge_fallback=fb)


class _KernelWeigher:
    """Product kernel over standardized conditioning coordinates."""

    def __init__(self, X: np.ndarray, cfg: KernelConfig):
        self.cfg = cfg
        self.n, self.dim = X.shape
        if self.dim:
            self.mean = X.mean(axis=0)
            sd = X.std(axis=0)
            self.sd = np.where(sd > 0, sd, 1.0)
            self.Xs = (X - self.mean) / self.sd
            if cfg.bandwidth_rule == "fixed":
                self.h = np.full(self.dim, float(cfg.fixed_h))
            else:
                # standardized coordinates have unit scale
                self.h = np.full(self.dim, 1.06 * self.n ** (-1.0 / (4 + self.dim)))
        else:
            self.Xs = np.zeros((self.n, 0))
            self.h = np.zeros(0)

    def _log_kernel(self, U: np.ndarray, widen: float) -> np.ndarray:
        # U: (c, n, dim) standardized differences already divided by h
        U = U / widen
        if self.cfg.kernel == "gaussian":
            return -0.5 * np.einsum("cnd,cnd->cn", U, U)
        if self.cfg.kernel == "uniform":
            inside = (np.abs(U) <= 1.0).all(axis=2)
            return np.where(inside, 0.0, -np.inf)
        vals = 1.0 - U * U
        ok = (vals > 0).all(axis=2)
        with np.errstate(invalid="ignore"):
            logs = np.where(ok[:, :, None], np.log(np.maximum(vals, 1e-300)), 0.0).sum(axis=2)
        return np.where(ok, logs, -np.inf)

    def weights(self, targets: np.ndarray) -> np.ndarray:
        """Normalized weights (c, n); rows sum to 1."""
        c = targets.shape[0]
        if self.dim == 0:
            return np.full((c, self.n), 1.0 / self.n)
        T = (targets - self.mean) / self.sd
        diff = (T[:, None, :] - self.Xs[None, :, :]) / self.h
        widen = 1.0
        for _ in range(6):
            logk = self._log_kernel(diff, widen)
            mx = logk.max(axis=1, keepdims=True)
            dead = ~np.isfinite(mx[:, 0])
            if not dead.any():
                w = np.exp(logk - mx)
                return w / w.sum(axis=1, keepdims=True)
            if widen >= 1.5 ** 5:
                break
            widen *= 1.5
        # rows with an empty window even after widening get uniform weights;
        # their max is -inf, so subtract it from live rows only
        mx[dead] = 0.0
        w = np.where(dead[:, None], 1.0, np.exp(logk - mx))
        return w / w.sum(axis=1, keepdims=True)


def _conditioning_targets(z, d, mode: str) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=float))
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if mode == "full":
        return np.column_stack([z, d])
    if mode == "d_only":
        return d[:, None]
    return np.zeros((d.shape[0], 0))


def kernel_weights(target, fold: Dataset, cfg: KernelConfig) -> np.ndarray:
    """Weights B over the fold for one target point (z, d), in fold order."""
    z, d = target
    mode = cfg.resolve_conditioning(fold.p)
    weigher = _KernelWeigher(_conditioning_targets(fold.z, fold.d, mode), cfg)
    return weigher.weights(_conditioning_targets(np.asarray(z)[None, :], [d], mode))[0]


@dataclass
class KMTables:
    """Per-target arrays in sorted training order, produced by CensorModel."""

    w: np.ndarray        # (c, n) kernel weights
    cumlog: np.ndarray   # (c, n) cumulative log product-limit factors by index
    logG_train: np.ndarray  # (c, n) log Ghat evaluated at each sorted training time


class CensorModel:
    """Local Kaplan-Meier estimate of the censoring survival G(y | z, d).

    Censored observations contribute product-limit factors; the at-risk sums
    use I(Y_j >= Y_i) with exact tie grouping. Evaluations are clipped below
    at trunc_eps and equal 1 below the smallest censored training time.
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
        first = np.zeros(self.n, dtype=np.int64)
        for j in range(1, self.n):
            first[j] = first[j - 1] if self.ys[j] == self.ys[j - 1] else j
        last = np.zeros(self.n, dtype=np.int64)
        last[-1] = self.n - 1
        for j in range(self.n - 2, -1, -1):
            last[j] = last[j + 1] if self.ys[j] == self.ys[j + 1] else j
        self.tie_first, self.tie_last = first, last
        self.group_starts = np.unique(first)
        self.cens_mask = (self.delta_s == 0.0).astype(float)

        # distinct event times; ties merge into one grid point
        seen = {}
        for j in np.flatnonzero(self.delta_s == 1.0):
            seen.setdefault(self.ys[j], j)
        self.grid_vals = np.array(sorted(seen))
        self.grid_first = np.array([first[seen[v]] for v in self.grid_vals], dtype=np.int64)
        self.grid_last = np.array([last[seen[v]] for v in self.grid_vals], dtype=np.int64)

    @property
    def bandwidth(self) -> np.ndarray:
        return self.weigher.h

    def tables(self, z, d) -> KMTables:
        """Compute weight and survival tables for a batch of targets.

        Tied censored observations are grouped: each tie group contributes a
        single product-limit factor 1 - (censored mass in group) / (at-risk
        mass), which reduces exactly to the unconditional Kaplan-Meier under
        uniform weights.
        """
        targets = _conditioning_targets(z, d, self.conditioning)
        w = self.weigher.weights(targets)
        suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
        risk_at_start = suffix[:, self.group_starts]
        cens_group = np.add.reduceat(w * self.cens_mask[None, :],
                                     self.group_starts, axis=1)
        frac = cens_group / np.maximum(risk_at_start, 1e-300)
        with np.errstate(divide="ignore"):
            logf_group = np.log1p(-np.minimum(frac, 1.0))
        logf_group = np.maximum(logf_group, _LOG_TINY)
        logf = np.zeros_like(w)
        logf[:, self.group_starts] = logf_group
        cumlog = np.cumsum(logf, axis=1)
        logG_train = cumlog[:, self.tie_last]
        return KMTables(w=w, cumlog=cumlog, logG_train=logG_train)

    def _eval_logG(self, tables: KMTables, yq: np.ndarray) -> np.ndarray:
        """log Ghat at query times, from the first table row."""
        pos = np.searchsorted(self.ys, yq, side="right") - 1
        out = np.zeros(pos.shape)
        hit = pos >= 0
        out[hit] = tables.cumlog[0, pos[hit]]
        return out

    def survival(self, yq, z, d) -> np.ndarray:
        """Ghat(y | z, d) for a vector of query times and one target point."""
        yq = np.atleast_1d(np.asarray(yq, dtype=float))
        t = self.tables(np.asarray(z)[None, :], [d])
        G = np.exp(self._eval_logG(t, yq))
        return np.maximum(G, self.cfg.trunc_eps)


class CondMoment:
    """Weighted risk-set estimate of E[g(beta) | T >= u, z, d].

    Evaluations are affine in beta: the intercept and slope parts of g are
    averaged with identical weights. When the weighted risk set at u is
    empty, the value at the largest u with a nonzero denominator is carried
    forward and a flag is raised.
    """

    def __init__(self, censor: CensorModel, g_a: np.ndarray, g_b: np.ndarray):
        if g_a.shape != g_b.shape or g_a.shape[0] != censor.n:
            raise ValueError("g arrays must be (n_fold, m)")
        self.censor = censor
        self.a = g_a[censor.order]
        self.b = g_b[censor.order]
        self.m = g_a.shape[1]
        self.empty_risk_sets = 0

    def _omega(self, tables: KMTables) -> np.ndarray:
        G = np.maximum(np.exp(tables.logG_train), self.censor.cfg.trunc_eps)
        return tables.w * self.censor.delta_s[None, :] / G

    def evaluate(self, u: float, z, d) -> tuple[np.ndarray, np.ndarray]:
        """xi_hat at a single (u, z, d); returns (a_part, b_part)."""
        t = self.censor.tables(np.asarray(z)[None, :], [d])
        omega = self._omega(t)[0]
        j0 = np.searchsorted(self.censor.ys, u, side="left")
        den = omega[j0:].sum()
        if den <= 0.0:
            # carry forward from the largest u with weighted mass
            self.empty_risk_sets += 1
            nz = np.flatnonzero(omega > 0)
            if nz.size == 0:
                return np.zeros(self.m), np.zeros(self.m)
            j0 = int(nz[-1])
            den = omega[j0:].sum()
        wa = omega[j0:] @ self.a[j0:]
        wb = omega[j0:] @ self.b[j0:]
        return wa / den, wb / den

    def at_minus_inf(self, z, d) -> tuple[np.ndarray, np.ndarray]:
        return self.evaluate(-np.inf, z, d)


@dataclass
class NuisanceFit:
    """All nuisance estimates from one training fold."""

    zeta: np.ndarray
    partials: dict[int, PartialFit]
    censor_model: CensorModel
    cond_moment: CondMoment
    training_ids: np.ndarray
    fold: Dataset
    g_a: np.ndarray  # training-fold g intercepts, fold order, (n_fold, m)
    g_b: np.ndarray

    @property
    def ridge_fallbacks(self) -> int:
        return sum(pf.ridge_fallback for pf in self.partials.values())


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


def fit_all(fold: Dataset, spec: MomentSpec, cfg: KernelConfig,
            training_ids=None) -> NuisanceFit:
    """Fit every nuisance component on one fold."""
    min_n = vk_width(fold.p, max(spec.orders)) + 2
    if fold.n < min_n:
        raise IllPosedError(f"fold of size {fold.n} below minimum {min_n} for q={spec.q}")
    zeta = fold.z.mean(axis=0)
    partials = {k: fit_partials(fold, k) for k in spec.orders}
    censor = CensorModel(fold, cfg)
    g_a, g_b = fold_g_values(fold, zeta, partials, spec)
    cond = CondMoment(censor, g_a, g_b)
    ids = np.arange(fold.n) if training_ids is None else np.asarray(training_ids)
    return NuisanceFit(zeta=zeta, partials=partials, censor_model=censor,
                       cond_moment=cond, training_ids=ids, fold=fold,
                       g_a=g_a, g_b=g_b)
