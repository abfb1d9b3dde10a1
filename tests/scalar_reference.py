"""Scalar reference paths that the tests hold the batch code to.

Each works on one observation or one target point and is written out
literally: the centered interaction vector, the uncensored moment g, its
AIPCW transform psi, the kernel weights over a fold, the local Kaplan-Meier
censoring survival and the conditional moment xi at one (u, z, d). No fit
runs them; the batch paths in igsaft must agree with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from igsaft.data import Dataset
from igsaft.errors import DomainError
from igsaft.interactions import MomentSpec, build_Vk
from igsaft.moments import _MASS_FLOOR, MomentMatrix
from igsaft.nuisance import (CensorModel, CondMoment, KernelConfig, KMTables, NuisanceFit,
                             _conditioning_targets, _KernelWeigher)


@dataclass(frozen=True)
class Observation:
    """One unit: instruments, exposure, observed log-time, event indicator."""

    z: np.ndarray
    d: float
    y: float
    delta: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        if not (np.all(np.isfinite(z)) and math.isfinite(self.d) and math.isfinite(self.y)):
            raise ValueError("observation contains non-finite values")


def observation(dataset: Dataset, i: int) -> Observation:
    return Observation(z=dataset.z[i].copy(), d=float(dataset.d[i]), y=float(dataset.y[i]),
                       delta=int(dataset.delta[i]))


@dataclass(frozen=True)
class AffineMoment:
    """psi(beta) = a + b * beta, exactly."""

    a: np.ndarray
    b: np.ndarray

    def __call__(self, beta: float) -> np.ndarray:
        return self.a + beta * self.b


def row(M: MomentMatrix, i: int) -> AffineMoment:
    return AffineMoment(M.A[i], M.B[i])


def mean_and_cov(M: MomentMatrix, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of psi(beta) and the uncentered second-moment matrix."""
    psi = M.eval(beta)
    return psi.mean(axis=0), psi.T @ psi / M.n


def eval_centered(z, zeta, spec: MomentSpec) -> np.ndarray:
    """Centered interaction vector: component t is prod_{j in subset_t} (z_j - zeta_j)."""
    z = np.asarray(z, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if z.shape != zeta.shape or z.shape != (spec.p,):
        raise DomainError(f"z and zeta must both have length p={spec.p}")
    zc = z - zeta
    out = np.empty(spec.m)
    for t, ix in enumerate(spec.indices):
        v = 1.0
        for j in ix.subset:
            v *= zc[j - 1]
        out[t] = v
    return out


def kernel_weights(target, fold: Dataset, cfg: KernelConfig) -> np.ndarray:
    """Weights B over the fold for one target point (z, d), in fold order."""
    z, d = target
    mode = cfg.resolve_conditioning(fold.p)
    weigher = _KernelWeigher(_conditioning_targets(fold.z, fold.d, mode), cfg)
    return weigher.weights(_conditioning_targets(np.asarray(z)[None, :], [d], mode))[0]


def cumlog(model: CensorModel, tables: KMTables) -> np.ndarray:
    """(c, n) log Ghat at each sorted training time."""
    return tables.seglog[:, model.seg_of]


def _eval_logG(model: CensorModel, tables: KMTables, yq: np.ndarray) -> np.ndarray:
    """log Ghat at query times, from the first table row."""
    pos = np.searchsorted(model.ys, yq, side="right") - 1
    out = np.zeros(pos.shape)
    hit = pos >= 0
    out[hit] = cumlog(model, tables)[0, pos[hit]]
    return out


def survival(model: CensorModel, yq, z, d) -> np.ndarray:
    """Ghat(y | z, d) for a vector of query times and one target point."""
    yq = np.atleast_1d(np.asarray(yq, dtype=float))
    t = model.tables(np.asarray(z)[None, :], [d], model.seg_index(1))
    G = np.exp(_eval_logG(model, t, yq))
    return np.maximum(G, model.cfg.trunc_eps)


def _omega(cond: CondMoment, tables: KMTables) -> np.ndarray:
    G = np.maximum(np.exp(cumlog(cond.censor, tables)), cond.censor.cfg.trunc_eps)
    return tables.w * cond.censor.delta_s[None, :] / G


def evaluate(cond: CondMoment, u: float, z, d) -> tuple[np.ndarray, np.ndarray]:
    """xi_hat at a single (u, z, d); returns (a_part, b_part).

    When the weighted risk set at u is empty, the value at the largest u
    with a nonzero denominator is carried forward.
    """
    t = cond.censor.tables(np.asarray(z)[None, :], [d], cond.censor.seg_index(1))
    omega = _omega(cond, t)[0]
    j0 = np.searchsorted(cond.censor.ys, u, side="left")
    den = omega[j0:].sum()
    if den <= 0.0:
        # carry forward from the largest u with weighted mass
        nz = np.flatnonzero(omega > 0)
        if nz.size == 0:
            return np.zeros(cond.m), np.zeros(cond.m)
        j0 = int(nz[-1])
        den = omega[j0:].sum()
    wa = omega[j0:] @ cond.a[j0:]
    wb = omega[j0:] @ cond.b[j0:]
    return wa / den, wb / den


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


def eval_psi(obs: Observation, nuis: NuisanceFit, spec: MomentSpec) -> AffineMoment:
    """AIPCW moment for one observation, written out literally.

    ipcw * (g - xi(Y)) + xi(-inf) + sum_{u_t <= Y} dxi(u_t) / Ghat(u_t),
    with u_t the training fold's distinct event times, xi carried forward
    across empty weighted risk sets (mass at most _MASS_FLOOR), and xi(Y)
    read at the largest u_t <= Y.
    """
    g = eval_g(obs, nuis, spec)
    cm = nuis.censor_model
    cond = nuis.cond_moment
    eps = cm.cfg.trunc_eps
    if obs.delta == 1 and cm.delta_s.min() == 1.0:
        # uncensored training fold: Ghat is identically 1 and the
        # augmentation telescopes away exactly
        return g

    tables = cm.tables(obs.z[None, :], [obs.d], cm.seg_index(1))
    G_train = np.maximum(np.exp(cumlog(cm, tables)[0]), eps)
    omega = tables.w[0] * cm.delta_s / G_train
    suffix = np.cumsum(omega[::-1])[::-1]
    S_total = suffix[0]

    Gy = float(np.maximum(np.exp(_eval_logG(cm, tables, np.array([obs.y]))[0]), eps))
    ipcw = obs.delta / Gy

    K = cm.grid_vals.size  # Dataset holds K >= 1 events
    if S_total <= _MASS_FLOOR:
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
        if S_grid[t] > _MASS_FLOOR:
            prev_a = num_a[t] / S_grid[t]
            prev_b = num_b[t] / S_grid[t]
        xi_a[t] = prev_a
        xi_b[t] = prev_b

    G_grid = np.maximum(np.exp(cumlog(cm, tables)[0, cm.grid_first]), eps)
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
