"""Generalized empirical likelihood: the rho family, the inner tilting
maximization, the outer one-dimensional beta search, and the two-component
variance assembly.

The inner problem max_lambda (1/n) sum rho(lambda' psi_i(beta)) is concave;
Newton steps with a domain-respecting backtracking line search solve it from
lambda = 0, so the attained value Q(beta) is always >= 0.

Standard errors follow the plug-in route: H_hat is the second derivative of
Q at beta_hat, D_hat the rho'-weighted mean moment derivative, and

    se^2 = V1_hat / n,   V1_hat = H_hat^{-2} D_hat' Omega_bar^{-1} D_hat,

which collapses to the classical GMM sandwich under strong moments and
carries the weak-moment inflation through the quadratic noise in D_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.stats import norm

from .errors import DomainError, EstimationError
from .moments import MomentMatrix

FAMILIES = ("el", "et", "cue")
_EL_GUARD = 1e-6
_GRID_POINTS = 41  # coarse grid of the outer beta search


def rho(v, family: str):
    """Value and first two derivatives of the tilting function."""
    v = np.asarray(v, dtype=float)
    if family == "el":
        if np.any(v >= 1.0 - 1e-10):
            raise DomainError("empirical likelihood requires lambda'psi < 1")
        om = 1.0 - v
        return np.log(om), -1.0 / om, -1.0 / om ** 2
    if family == "et":
        with np.errstate(over="ignore"):
            e = np.exp(v)
        return 1.0 - e, -e, -e
    if family == "cue":
        return -v - 0.5 * v * v, -1.0 - v, np.full_like(v, -1.0)
    raise DomainError(f"unknown GEL family {family!r}")


@dataclass
class GelFit:
    """Point estimate, tilting vector, objective and inference summaries."""

    family: str
    beta_hat: float
    lambda_hat: np.ndarray
    q_hat: float
    n: int
    m: int
    converged: bool
    h_hat: float = math.nan
    v_hat: float = math.nan
    se: float = math.nan
    ci: tuple[float, float] = (math.nan, math.nan)
    exp_scale: tuple[float, float] = (math.nan, math.nan)
    alpha: float = 0.05
    clip_count: int = 0
    boundary_warning: bool = False
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "beta_hat": self.beta_hat,
            "se": self.se,
            "ci": list(self.ci),
            "exp_beta": {"point": self.exp_scale[0], "se": self.exp_scale[1]},
            "q_hat": self.q_hat,
            "h_hat": self.h_hat,
            "v_hat": self.v_hat,
            "lambda_hat": [float(x) for x in self.lambda_hat],
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha,
            "converged": self.converged,
            "clip_count": self.clip_count,
            "boundary_warning": self.boundary_warning,
            "warnings": self.warnings,
        }


def _solve_spd(Hneg, g, jitter_scale):
    """Solve the (positive definite up to jitter) Newton system."""
    try:
        c, low = linalg.cho_factor(Hneg, check_finite=False)
        return linalg.cho_solve((c, low), g, check_finite=False)
    except linalg.LinAlgError:
        jit = jitter_scale * np.eye(Hneg.shape[0])
        for _ in range(3):
            try:
                c, low = linalg.cho_factor(Hneg + jit, check_finite=False)
                return linalg.cho_solve((c, low), g, check_finite=False)
            except linalg.LinAlgError:
                jit = jit * 1e4
        return np.linalg.lstsq(Hneg, g, rcond=None)[0]


def inner_lambda(M: MomentMatrix, beta: float, family: str,
                 lam0: np.ndarray | None = None, tol: float = 1e-9,
                 max_iter: int = 100):
    """Maximize the inner tilting problem at fixed beta.

    Returns (lambda, Q, converged). Newton with a backtracking line search
    that keeps every lambda'psi_i inside the rho domain and never accepts a
    decrease, starting from lambda = 0 (so Q >= 0 always).
    """
    u = M.eval(beta)
    n, m = u.shape
    lam = np.zeros(m) if lam0 is None else lam0.copy()
    if family == "el" and lam0 is not None and np.max(u @ lam) > 1.0 - _EL_GUARD:
        lam = np.zeros(m)

    v = u @ lam
    val, d1, d2 = rho(v, family)
    P = float(val.mean())
    if lam0 is not None and P < 0.0:
        lam = np.zeros(m)
        v = u @ lam
        val, d1, d2 = rho(v, family)
        P = float(val.mean())
    converged = False
    for _ in range(max_iter):
        grad = u.T @ d1 / n
        gnorm = float(np.linalg.norm(grad))
        if gnorm < tol:
            converged = True
            break
        Hneg = (u * (-d2)[:, None]).T @ u / n
        jitter = 1e-10 * max(np.trace(Hneg) / m, 1.0)
        step = _solve_spd(Hneg, grad, jitter)
        s = 1.0
        accepted = False
        for _ in range(60):
            cand = lam + s * step
            vc = u @ cand
            if family == "el" and np.max(vc) > 1.0 - _EL_GUARD:
                s *= 0.5
                continue
            valc, d1c, d2c = rho(vc, family)
            Pc = float(valc.mean())
            if Pc >= P:
                lam, v, P, d1, d2 = cand, vc, Pc, d1c, d2c
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
    return lam, P, converged


def _q_path(M: MomentMatrix, family: str):
    """Stateful Q(beta) evaluator with lambda warm starts."""
    state = {"lam": None}

    def q_of(beta: float):
        lam, Q, conv = inner_lambda(M, beta, family, lam0=state["lam"])
        state["lam"] = lam
        return Q, lam, conv

    return q_of


def _golden(q, lo, hi, tol=1e-8):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = q(x1)[0], q(x2)[0]
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = q(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = q(x2)[0]
    return (x1, f1) if f1 <= f2 else (x2, f2)


def minimize_beta(M: MomentMatrix, family: str, search=(-10.0, 10.0)) -> GelFit:
    """Coarse grid, golden-section refinement, then one Newton polish."""
    lo, hi = float(search[0]), float(search[1])
    if not lo < hi:
        raise DomainError("search interval must satisfy lo < hi")
    q_of = _q_path(M, family)
    grid = np.linspace(lo, hi, _GRID_POINTS)
    qs = np.full(_GRID_POINTS, np.inf)
    for i, b in enumerate(grid):
        try:
            qs[i] = q_of(float(b))[0]
        except (DomainError, FloatingPointError):
            qs[i] = np.inf
    if not np.isfinite(qs).any():
        raise EstimationError("GEL objective failed on the whole search grid")
    best = int(np.argmin(qs))
    blo = grid[max(best - 1, 0)]
    bhi = grid[min(best + 1, _GRID_POINTS - 1)]
    beta, qval = _golden(q_of, float(blo), float(bhi))

    # safeguarded Newton polish on finite-difference derivatives
    h = 1e-5 * max(1.0, abs(beta))
    qp, qm = q_of(beta + h)[0], q_of(beta - h)[0]
    d1 = (qp - qm) / (2 * h)
    d2 = (qp - 2 * qval + qm) / (h * h)
    if d2 > 0:
        cand = beta - d1 / d2
        if blo <= cand <= bhi:
            qc = q_of(cand)[0]
            if qc < qval:
                beta, qval = cand, qc

    lam, qval, conv = inner_lambda(M, beta, family)
    fit = GelFit(family=family, beta_hat=float(beta), lambda_hat=lam,
                 q_hat=float(qval), n=M.n, m=M.m, converged=conv,
                 clip_count=M.stats.clip_count)
    if min(beta - lo, hi - beta) < 1e-3:
        fit.boundary_warning = True
        fit.warnings.append(f"beta_hat {beta:.6f} within 1e-3 of the search boundary")
    return fit


def variance(M: MomentMatrix, fit: GelFit, alpha: float = 0.05) -> GelFit:
    """Fill in H_hat, V1_hat, se, CI and the exp-scale delta-method report."""
    fit.alpha = alpha
    if not fit.converged:
        fit.warnings.append("inner maximization did not converge; no variance computed")
        return fit
    beta = fit.beta_hat
    h = max(1e-4, 1e-4 * abs(beta))
    _, qp, cp = inner_lambda(M, beta + h, fit.family, lam0=fit.lambda_hat)
    _, qm, cm = inner_lambda(M, beta - h, fit.family, lam0=fit.lambda_hat)
    H = (qp - 2 * fit.q_hat + qm) / (h * h)
    fit.h_hat = float(H)
    if not (cp and cm) or H <= 0 or not math.isfinite(H):
        fit.converged = False
        fit.se = math.nan
        fit.warnings.append("non-identification: curvature of Q at beta_hat is not positive")
        return fit

    u = M.eval(beta)
    _, d1, _ = rho(u @ fit.lambda_hat, fit.family)
    D = (M.B * d1[:, None]).sum(axis=0) / d1.sum()
    Omega = u.T @ u / M.n
    jitter = 1e-10 * max(np.trace(Omega) / M.m, 1.0)
    x = _solve_spd(Omega, D, jitter)
    V1 = float(D @ x) / (H * H)
    fit.v_hat = V1
    fit.se = math.sqrt(V1 / M.n)
    z = norm.ppf(1.0 - alpha / 2.0)
    fit.ci = (beta - z * fit.se, beta + z * fit.se)
    fit.exp_scale = (math.exp(beta), math.exp(beta) * fit.se)
    return fit


def fit_gel(M: MomentMatrix, family: str, search=(-10.0, 10.0),
            alpha: float = 0.05) -> GelFit:
    """Convenience wrapper: outer minimization followed by inference."""
    if family not in FAMILIES:
        raise DomainError(f"unknown GEL family {family!r}")
    fit = minimize_beta(M, family, search=search)
    return variance(M, fit, alpha=alpha)
