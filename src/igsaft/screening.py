"""Adaptive-lasso pre-selection of interaction terms on the exposure
regression D ~ [1, Z, centered interactions].

Ridge pilot coefficients set the adaptive weights (Zou 2006). The
unpenalized block [1, Z] is profiled out of the Gram system, the LARS-lasso
homotopy (Efron, Hastie, Johnstone & Tibshirani 2004) walks the exact
piecewise-linear path of the interaction coefficients, and BIC picks one of
50 penalties read off that path. Exact support recovery is not required
downstream, only that at least one informative interaction survives, so the
defaults favor determinism and speed over selection consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .data import Dataset
from .errors import DomainError, IllPosedError
from .interactions import MomentSpec, eval_centered_matrix

_TIE = 1e-12        # path events closer than this share of λ happen together
_DEPENDENT = 1e-7   # an instrument with less than this share of its norm
                    # outside the span of [1, earlier instruments] is dependent


@dataclass(frozen=True)
class ScreenResult:
    selected: MomentSpec
    pilot_coefs: np.ndarray          # over candidate interactions, spec order
    penalty: float
    path: tuple[tuple[float, int], ...]  # (lambda, support size), lambda descending

    def to_dict(self) -> dict:
        return {
            "selected": [list(ix.subset) for ix in self.selected.indices],
            "pilot_coefs": [float(v) for v in self.pilot_coefs],
            "penalty": self.penalty,
            "path": [[lam, size] for lam, size in self.path],
        }


def _lasso_path(S, r, w, lams):
    """Exact minimizers of (1/2) t'St - r't + lam * sum_j w_j |t_j| at each
    lam of the descending grid `lams`, one row per lam.

    In b = w t the problem is a plain lasso. Between events the solution is
    b_A = a - lam * beta on the active set A with signs s, where
    S_AA [a, beta] = [r_A, s_A], and the correlations r - S b are u + lam * v.
    An inactive coordinate enters where its correlation reaches +lam or -lam,
    with that sign; an active one leaves where its coefficient reaches zero,
    and in the next step may not re-enter at the bound it left from. Events
    within _TIE * lam of the next one happen together, so tied coordinates
    enter at once.
    """
    S = S / np.outer(w, w)
    r = r / w
    m = r.size
    out = np.zeros((lams.size, m))
    lam = float(np.max(np.abs(r)))
    sign = np.where(np.abs(r) >= lam * (1.0 - _TIE), np.sign(r), 0.0)
    left = np.zeros(m)  # sign each coordinate left the active set with, last event
    g = int(np.count_nonzero(lams >= lam))  # b = 0 at and above lam
    while g < lams.size:
        A = np.flatnonzero(sign)
        ab = np.linalg.solve(S[np.ix_(A, A)], np.column_stack([r[A], sign[A]]))
        a, beta = ab[:, 0], ab[:, 1]
        u = r - S[:, A] @ a
        v = S[:, A] @ beta
        free = sign == 0.0
        up = np.divide(u, 1.0 - v, out=np.full(m, -np.inf),
                       where=free & (v < 1.0) & (left != 1.0))
        down = np.divide(-u, 1.0 + v, out=np.full(m, -np.inf),
                         where=free & (v > -1.0) & (left != -1.0))
        event = np.maximum(up, down)
        shrinking = sign[A] * beta < 0.0
        event[A[shrinking]] = a[shrinking] / beta[shrinking]
        event[event >= lam * (1.0 - _TIE)] = -np.inf
        nxt = max(float(event.max()), 0.0)
        while g < lams.size and lams[g] >= nxt:
            out[g, A] = a - lams[g] * beta
            g += 1
        hit = event >= nxt - _TIE * lam
        left = np.where(hit, sign, 0.0)
        entering = hit & (left == 0.0)
        sign[entering] = np.where(up[entering] >= down[entering], 1.0, -1.0)
        sign[left != 0.0] = 0.0
        lam = nxt
    return out / w


def _check_instruments(xu: np.ndarray) -> None:
    """IllPosedError naming the first instrument that is, to rounding, a
    linear combination of the intercept and the instruments before it."""
    R = np.linalg.qr(xu, mode="r")
    dependent = np.abs(R.diagonal()) <= _DEPENDENT * np.linalg.norm(xu, axis=0)
    if dependent.any():
        j = int(np.argmax(dependent))
        raise IllPosedError(
            f"instrument column {j} (1-based) is a linear combination of the "
            "intercept and the instruments before it; screening needs "
            "linearly independent instruments")


def screen_interactions(dataset: Dataset, candidates: MomentSpec,
                        max_keep: int = 100) -> ScreenResult:
    """Select informative interactions; never returns an empty set."""
    if candidates.m < 1:
        raise DomainError("screening needs at least one candidate")
    n, p = dataset.n, dataset.p
    zeta = dataset.z.mean(axis=0)
    Ic = eval_centered_matrix(dataset.z, zeta, candidates)
    X = np.column_stack([np.ones(n), dataset.z, Ic])
    n_unpen = 1 + p
    _check_instruments(X[:, :n_unpen])
    d = dataset.d

    G = X.T @ X / n
    c = X.T @ d / n

    # ridge pilot; the intercept stays unpenalized
    pen = np.full(X.shape[1], 1e-4)
    pen[0] = 0.0
    pilot = linalg.solve(G + np.diag(pen), c, assume_a="pos")
    pilot_cand = pilot[n_unpen:]
    w_pen = 1.0 / (np.abs(pilot_cand) + 1e-8)

    # unpenalized baseline (D on [1, Z]) fixes the top of the path
    G_uu, G_up = G[:n_unpen, :n_unpen], G[:n_unpen, n_unpen:]
    base = linalg.solve(G_uu, c[:n_unpen], assume_a="pos")
    resid_corr = c[n_unpen:] - G[n_unpen:, :n_unpen] @ base
    lam_max = float(np.max(np.abs(resid_corr) / w_pen))
    if lam_max <= 0.0 or not np.isfinite(lam_max):
        lam_max = 1.0
    lams = np.geomspace(lam_max * 0.999, lam_max * 1e-3, 50)

    # [1, Z] profiled out: theta_U = base - M theta_P
    M = linalg.solve(G_uu, G_up, assume_a="pos")
    coefs = _lasso_path(G[n_unpen:, n_unpen:] - G_up.T @ M, resid_corr, w_pen, lams)
    thetas = np.hstack([base - coefs @ M.T, coefs])
    d2 = float(d @ d / n)
    rss = np.maximum(d2 - 2 * thetas @ c + np.einsum("ij,ij->i", thetas @ G, thetas), 1e-300)
    supports = np.count_nonzero(coefs, axis=1)
    bic = n * np.log(rss) + np.log(n) * (n_unpen + supports)
    best = int(np.argmin(bic))
    path = tuple((float(lam), int(s)) for lam, s in zip(lams, supports))
    lam_star = float(lams[best])

    coef_cand = coefs[best]
    nz = np.flatnonzero(coef_cand != 0.0)
    if nz.size > max_keep:
        keep = nz[np.argsort(-np.abs(coef_cand[nz]), kind="stable")[:max_keep]]
    else:
        keep = nz
    if keep.size == 0:
        k = min(max_keep, 10, candidates.m)
        keep = np.argsort(-np.abs(pilot_cand), kind="stable")[:k]

    keep = np.sort(keep)
    selected = MomentSpec(p=candidates.p, q=candidates.q,
                          indices=tuple(candidates.indices[int(t)] for t in keep))
    return ScreenResult(selected=selected, pilot_coefs=pilot_cand,
                        penalty=lam_star, path=path)
