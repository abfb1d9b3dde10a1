"""Generalized empirical likelihood: the rho family, the inner tilting
maximization, the outer one-dimensional beta search, and the two-component
variance assembly.

The inner problem max_lambda (1/n) sum rho(lambda' psi_i(beta)) is concave;
Newton steps with a domain-respecting backtracking line search solve it from
lambda = 0, so the attained value Q(beta) is always >= 0.

Since psi(beta) = A + beta B is affine, Q'(beta) follows from the envelope
theorem and Q''(beta) from the implicit-function theorem at the inner
maximizer (Newey & Smith 2004). The outer search takes the least Q on a
41-point grid, pruned by lower bounds: every inner iterate's value bounds
Q(beta) from below, so a grid solve stops once it exceeds the least Q found
so far. A safeguarded Newton search on the exact Q' then refines beta within
the two neighbouring grid cells.

Standard errors follow the plug-in route: H_hat is the exact second
derivative of Q at beta_hat (implicit-function theorem, no finite
differences), D_hat the rho'-weighted mean moment derivative, and

    se^2 = V1_hat / n,   V1_hat = H_hat^{-2} D_hat' Omega_bar^{-1} D_hat,

which collapses to the classical GMM sandwich under strong moments and
carries the weak-moment inflation through the quadratic noise in D_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cephes import ndtri
from .errors import DomainError, EstimationError
from .moments import MomentMatrix
from .spd import cholesky, solve_spd

FAMILIES = ("el", "et", "cue")
_EL_GUARD = 1e-6
_GRID_POINTS = 41  # coarse grid of the outer beta search
_NEWTON_TOL = 1e-9  # relative step that ends the outer Newton search
_NEWTON_MAX_ITER = 100
_INNER_TOL = 1e-9  # gradient norm that ends an inner solve, relative above a term scale of 1
_INNER_MAX_ITER = 100
_INNER_IDLE_STEPS = 3  # steps without progress in value or gradient that end an inner solve


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
            "boundary_warning": self.boundary_warning,
            "warnings": self.warnings,
        }


def inner_lambda(M: MomentMatrix, beta: float, family: str,
                 lam0: np.ndarray | None = None, cap: float = math.inf):
    """Maximize the inner tilting problem at fixed beta.

    Returns (lambda, Q, converged). Newton with a backtracking line search
    that keeps every lambda'psi_i inside the rho domain and never accepts a
    decrease, starting from lambda = 0 (so Q >= 0 always). The solve
    converges once the gradient norm is at most _INNER_TOL times the larger
    of 1 and |u|_F |rho'| / n, the scale of the gradient's terms (by
    Cauchy-Schwarz it bounds the norm of |u|'|rho'| / n, and it is linear
    in the moments). The rounding of the gradient and of P grows with that
    scale, so large moments no longer stall just above an absolute
    tolerance. Below a scale of 1 the tolerance stays absolute: where the EL
    problem has no finite maximum (0 outside the convex hull of the psi_i),
    the gradient and its scale both shrink as lambda grows, and only an
    absolute tolerance ends the solve before lambda'psi overflows.

    Such a solve is reported unconverged. For EL and ET rho' < 0, so at a
    finite maximizer with lambda != 0 the first-order condition
    mean(rho'(v_i) v_i) = lambda' grad = 0, with v_i = lambda'psi_i, needs
    v_i of both signs. An EL or ET solve that meets the tolerance with every
    v_i < 0 has only run out of gradient along a direction in which every
    term still rises. CUE is exempt: its rho' changes sign.

    The solve also stops, unconverged, after _INNER_IDLE_STEPS accepted
    steps in a row that neither raise the value nor bring the gradient norm
    below its least so far. Near the EL domain edge the gradient can stall
    above the tolerance, and further steps only repeat the same value; a
    single step that leaves the value unchanged is not enough, because the
    gradient often still falls below the tolerance a few steps later.

    Because no step decreases the objective, every iterate's value P_k is a
    lower bound on Q(beta). Once P_k exceeds `cap` the solve stops and
    returns that iterate unconverged: the outer grid search passes the least
    Q found so far, and a point whose lower bound already exceeds it cannot
    be the argmin.
    """
    u = M.eval(beta)
    n, m = u.shape
    lam = np.zeros(m) if lam0 is None else lam0.copy()
    v = u @ lam
    if family == "el" and lam0 is not None and np.max(v) > 1.0 - _EL_GUARD:
        lam = np.zeros(m)
        v = u @ lam
    val, d1, d2 = rho(v, family)
    P = float(val.mean())
    if lam0 is not None and P < 0.0:
        lam = np.zeros(m)
        v = u @ lam
        val, d1, d2 = rho(v, family)
        P = float(val.mean())
    converged = stalled = False
    least_gnorm, idle = math.inf, 0
    u_norm = float(np.linalg.norm(u))
    for _ in range(_INNER_MAX_ITER):
        grad = u.T @ d1 / n
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= _INNER_TOL * max(u_norm * float(np.linalg.norm(d1)) / n, 1.0):
            converged = family == "cue" or float(v.max()) >= 0.0
            break
        idle = idle + 1 if stalled and gnorm >= least_gnorm else 0
        least_gnorm = min(least_gnorm, gnorm)
        if P > cap or idle == _INNER_IDLE_STEPS:
            break
        Hneg = (u * (-d2)[:, None]).T @ u / n
        step = solve_spd(Hneg, grad)[0]
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
                stalled = Pc == P
                lam, v, P, d1, d2 = cand, vc, Pc, d1c, d2c
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
    return lam, P, converged


def q_derivatives(M: MomentMatrix, beta: float, lam: np.ndarray, family: str):
    """Exact Q'(beta), Q''(beta) and dlambda/dbeta at the inner maximizer lam.

    psi = A + beta B is affine in beta, so with v_i = lam'psi_i the envelope
    theorem gives Q' = mean(rho'(v_i) lam'B_i), and the implicit-function
    theorem gives dlambda/dbeta = (-H)^{-1} c and
    Q'' = mean(rho''(v_i) (lam'B_i)^2) + c'(-H)^{-1} c, with
    H = mean(rho''(v_i) psi_i psi_i') and c = (psi'(rho'' * B lam) + B'rho')/n.
    """
    u = M.eval(beta)
    bl = M.B @ lam
    _, d1, d2 = rho(u @ lam, family)
    n = M.n
    c = (u.T @ (d2 * bl) + M.B.T @ d1) / n
    Hneg = (u * (-d2)[:, None]).T @ u / n
    x = solve_spd(Hneg, c)[0]
    return float(d1 @ bl) / n, float(d2 @ (bl * bl)) / n + float(c @ x), x


def _cue_grid(M: MomentMatrix, grid: np.ndarray) -> np.ndarray:
    """Closed-form CUE objective 1/2 psibar' Omega(beta)^{-1} psibar on the
    grid, Omega uncentred; +inf where `spd.cholesky` finds Omega singular."""
    n = M.n
    abar, bbar = M.A.mean(axis=0), M.B.mean(axis=0)
    AA, AB, BB = M.A.T @ M.A / n, M.A.T @ M.B / n, M.B.T @ M.B / n
    AB = AB + AB.T
    out = np.full(grid.size, np.inf)
    for i, b in enumerate(grid):
        L = cholesky(AA + b * AB + (b * b) * BB)
        if L is not None:
            half = np.linalg.solve(L, abar + b * bbar)
            out[i] = 0.5 * half @ half
    return out


def _grid_argmin(M: MomentMatrix, family: str, grid: np.ndarray):
    """Index of the least Q on the grid and the inner maximizer there.

    The point where the closed-form CUE objective is least is solved first;
    the sweep from lo to hi then stops each warm-started solve as soon as its
    lower bound exceeds the least Q found so far (see inner_lambda's cap).
    The CUE objective only orders the work: the argmin is that of the
    family's own Q.
    """
    qs = np.full(grid.size, np.inf)
    lams = [None] * grid.size

    def solve(i, lam0, cap):
        # a stopped solve records its lower bound, which exceeds qs.min()
        try:
            lams[i], qs[i], _ = inner_lambda(M, float(grid[i]), family, lam0=lam0, cap=cap)
        except (DomainError, FloatingPointError):
            return lam0
        return lams[i]

    first = int(np.argmin(_cue_grid(M, grid)))
    lam = solve(first, None, math.inf)
    for i in range(grid.size):
        lam = lams[i] if i == first else solve(i, lam, float(qs.min()))
    if not np.isfinite(qs).any():
        raise EstimationError("GEL objective failed on the whole search grid")
    best = int(np.argmin(qs))
    return best, lams[best]


def minimize_beta(M: MomentMatrix, family: str, search=(-10.0, 10.0)) -> GelFit:
    """Grid argmin of Q, then safeguarded Newton on the exact Q' within the
    two neighbouring grid cells, bisecting on the sign of Q' whenever the
    Newton step leaves the bracket."""
    lo, hi = float(search[0]), float(search[1])
    if not lo < hi:
        raise DomainError("search interval must satisfy lo < hi")
    grid = np.linspace(lo, hi, _GRID_POINTS)
    best, lam = _grid_argmin(M, family, grid)
    blo = float(grid[max(best - 1, 0)])
    bhi = float(grid[min(best + 1, _GRID_POINTS - 1)])
    beta = float(grid[best])
    for _ in range(_NEWTON_MAX_ITER):
        d1, d2, dlam = q_derivatives(M, beta, lam, family)
        if d1 > 0:
            bhi = beta
        elif d1 < 0:
            blo = beta
        else:
            break
        cand = beta - d1 / d2 if d2 > 0 else math.nan
        if not blo <= cand <= bhi:
            cand = 0.5 * (blo + bhi)
        # first-order predictor of lambda keeps Q' consistent when the step
        # is too small for the warm-started inner solve to move lambda
        lam = lam + (cand - beta) * dlam
        done = abs(cand - beta) <= _NEWTON_TOL * max(1.0, abs(beta))
        beta = cand
        if done:
            break
        lam = inner_lambda(M, beta, family, lam0=lam)[0]

    lam, qval, conv = inner_lambda(M, beta, family, lam0=lam)
    fit = GelFit(family=family, beta_hat=float(beta), lambda_hat=lam,
                 q_hat=float(qval), n=M.n, m=M.m, converged=conv)
    if min(beta - lo, hi - beta) < 1e-3:
        fit.boundary_warning = True
        fit.warnings.append(f"beta_hat {beta:.6f} within 1e-3 of the search boundary")
    return fit


def _z_crit(alpha: float) -> float:
    """The 1 - alpha/2 standard normal quantile, ``scipy.stats.norm.ppf``'s
    value, from the port of Cephes ``ndtri`` (`cephes.ndtri`)."""
    return float(ndtri(1.0 - alpha / 2.0))


def wald_interval(beta: float, se: float, alpha: float):
    """The level 1 - alpha interval beta -/+ z se, with z from `_z_crit`, and
    the exp-scale delta-method report (e^beta, e^beta se); e^beta is inf
    where it overflows a double (beta > 709.78)."""
    z = _z_crit(alpha)
    try:
        e = math.exp(beta)
    except OverflowError:
        e = math.inf
    return (beta - z * se, beta + z * se), (e, e * se)


def variance(M: MomentMatrix, fit: GelFit, alpha: float = 0.05) -> GelFit:
    """Fill in H_hat, V1_hat, se, and the interval and exp-scale report of
    `wald_interval`."""
    fit.alpha = alpha
    if not fit.converged:
        fit.warnings.append("inner maximization did not converge; no variance computed")
        return fit
    beta = fit.beta_hat
    H = q_derivatives(M, beta, fit.lambda_hat, fit.family)[1]
    fit.h_hat = float(H)
    if H <= 0 or not math.isfinite(H):
        fit.converged = False
        fit.se = math.nan
        fit.warnings.append("non-identification: curvature of Q at beta_hat is not positive")
        return fit

    u = M.eval(beta)
    _, d1, _ = rho(u @ fit.lambda_hat, fit.family)
    D = (M.B * d1[:, None]).sum(axis=0) / d1.sum()
    x = solve_spd(u.T @ u / M.n, D)[0]
    V1 = float(D @ x) / (H * H)
    fit.v_hat = V1
    fit.se = math.sqrt(V1 / M.n)
    fit.ci, fit.exp_scale = wald_interval(beta, fit.se, alpha)
    return fit


def fit_gel(M: MomentMatrix, family: str, search=(-10.0, 10.0),
            alpha: float = 0.05) -> GelFit:
    """Convenience wrapper: outer minimization followed by inference."""
    if family not in FAMILIES:
        raise DomainError(f"unknown GEL family {family!r}")
    fit = minimize_beta(M, family, search=search)
    return variance(M, fit, alpha=alpha)
