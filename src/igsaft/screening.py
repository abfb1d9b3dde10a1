"""Adaptive-lasso pre-selection of interaction terms on the exposure
regression D ~ [1, Z, centered interactions].

Ridge pilot coefficients set the adaptive weights; a Gram-based coordinate
descent traces a 50-point penalty path and BIC picks the penalty. Exact
support recovery is not required downstream, only that at least one
informative interaction survives, so the defaults favor determinism and
speed over selection consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .data import Dataset
from .errors import DomainError
from .interactions import MomentSpec, eval_centered_matrix

_CD_TOL = 1e-10  # largest scaled coordinate step that ends a sweep loop
_CD_MAX_SWEEPS = 1000


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
    mc = candidates.m
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
    base = linalg.solve(G[:n_unpen, :n_unpen], c[:n_unpen], assume_a="pos")
    resid_corr = c[n_unpen:] - G[n_unpen:, :n_unpen] @ base
    lam_max = float(np.max(np.abs(resid_corr) / w_pen))
    if lam_max <= 0.0 or not np.isfinite(lam_max):
        lam_max = 1.0
    lams = np.geomspace(lam_max * 0.999, lam_max * 1e-3, 50)

    d2 = float(d @ d / n)
    theta = np.concatenate([base, np.zeros(mc)])
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
        k = min(max_keep, 10, mc)
        keep = np.argsort(-np.abs(pilot_cand), kind="stable")[:k]

    keep = np.sort(keep)
    selected = MomentSpec(p=candidates.p, q=candidates.q,
                          indices=tuple(candidates.indices[int(t)] for t in keep))
    return ScreenResult(selected=selected, pilot_coefs=pilot_cand,
                        penalty=lam_star, path=tuple(path))
