"""Simulation designs, censoring calibration, the naive AFT benchmark, and
the Monte Carlo harness.

Randomness flows through counter-based Philox streams keyed by
(seed, stream, rep), with normal variates produced by inverse-CDF of the
uniform stream, so every dataset and summary is bit-reproducible across
platforms and across any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import linalg, special
from scipy.optimize import brentq

from .data import Dataset
from .errors import CalibrationError, DomainError
from .gel import FAMILIES

_PILOT_STREAM = 101
_REP_STREAM = 202
_SUPPORT_STREAM = 303

# (eps, nu) noise: mean zero, variances 0.4, covariance 0.2
_NOISE_COV = np.array([[0.4, 0.2], [0.2, 0.4]])
_NOISE_CHOL = np.linalg.cholesky(_NOISE_COV)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Named counter-based substream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


def std_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via inverse CDF of the uniform stream."""
    u = gen.random(shape)
    return special.ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


@dataclass(frozen=True)
class SimConfig:
    case: int
    n: int
    p: int = 10
    target_cr: float = 0.2
    c_weak: float = 4.0
    beta0: float = 1.0
    reps: int = 500
    seed: int = 0
    nonzero_frac: float = 0.4
    fix_support: bool = False

    def __post_init__(self):
        if self.case not in (1, 2, 3, 4):
            raise DomainError(f"case must be 1..4, got {self.case}")
        if self.n < 100:
            raise DomainError("n must be at least 100")
        if self.reps < 1:
            raise DomainError("reps must be at least 1")
        if not 0.0 <= self.target_cr < 1.0:
            raise DomainError("target_cr must lie in [0, 1)")

    @property
    def phi_d_scale(self) -> float:
        """Interaction coefficient magnitude c * n^(-1/4)."""
        return self.c_weak * self.n ** (-0.25)


@dataclass(frozen=True)
class TruthRecord:
    """Everything an oracle test needs about one simulated replication."""

    beta0: float
    theta: np.ndarray           # (p,)
    phi: np.ndarray             # (p,) direct effects / invalidity
    phi_pairs: np.ndarray       # (C(p,2),) interaction coefficients, pair order below
    pairs: tuple[tuple[int, int], ...]  # 1-based ordered pairs, lexicographic
    tau1: float                 # uniform censoring support (log scale); inf = no censoring
    tau2: float
    case: int
    n: int
    p: int

    @property
    def eps_given_nu_var(self) -> float:
        return _NOISE_COV[0, 0] - _NOISE_COV[0, 1] ** 2 / _NOISE_COV[1, 1]

    @property
    def eps_given_nu_slope(self) -> float:
        return _NOISE_COV[0, 1] / _NOISE_COV[1, 1]

    def exposure_mean(self, Z: np.ndarray) -> np.ndarray:
        """theta'Z plus the raw pairwise interaction part."""
        out = Z @ self.theta
        nz = np.flatnonzero(self.phi_pairs)
        for t in nz:
            j, k = self.pairs[t]
            out = out + self.phi_pairs[t] * Z[:, j - 1] * Z[:, k - 1]
        return out

    def censor_survival(self, u) -> np.ndarray:
        """True G(u) = P(C > u); C is uniform on [tau1, tau2]."""
        u = np.asarray(u, dtype=float)
        if math.isinf(self.tau1):
            return np.ones_like(u)
        out = (self.tau2 - u) / (self.tau2 - self.tau1)
        return np.clip(out, 0.0, 1.0)


def _draw_coefficients(cfg: SimConfig, gen: np.random.Generator):
    p = cfg.p
    if cfg.case == 1:
        theta = np.ones(p)
        phi = np.zeros(p)
        invalid = gen.permutation(p)[: round(0.3 * p)]
        phi[invalid] = 0.2
    elif cfg.case == 2:
        theta = np.ones(p)
        phi = np.zeros(p)
        invalid = gen.permutation(p)[: round(0.6 * p)]
        third = len(invalid) // 3
        phi[invalid[:third]] = 0.2
        phi[invalid[third:2 * third]] = 0.4
        phi[invalid[2 * third:]] = 0.6
    elif cfg.case == 3:
        theta = 1.0 + std_normal(gen, p)
        phi = 0.2 + math.sqrt(0.2) * std_normal(gen, p)
    else:
        theta = 1.0 + std_normal(gen, p)
        phi = np.zeros(p)
        invalid = gen.permutation(p)[: round(0.7 * p)]
        phi[invalid] = 0.5 * theta[invalid]

    pairs = tuple(combinations(range(1, p + 1), 2))
    n_pairs = len(pairs)
    phi_pairs = np.full(n_pairs, cfg.phi_d_scale)
    if p > 10:
        if cfg.fix_support:
            sgen = rng_stream(cfg.seed, _SUPPORT_STREAM)
        else:
            sgen = gen
        mask = np.zeros(n_pairs, dtype=bool)
        mask[sgen.permutation(n_pairs)[: round(cfg.nonzero_frac * n_pairs)]] = True
        phi_pairs = np.where(mask, phi_pairs, 0.0)
    return theta, phi, phi_pairs, pairs


def _draw_structural(cfg: SimConfig, gen, theta, phi, phi_pairs, pairs, n):
    Z = std_normal(gen, (n, cfg.p))
    noise = std_normal(gen, (n, 2)) @ _NOISE_CHOL.T
    eps, nu = noise[:, 0], noise[:, 1]
    inter = np.zeros(n)
    for t in np.flatnonzero(phi_pairs):
        j, k = pairs[t]
        inter += phi_pairs[t] * Z[:, j - 1] * Z[:, k - 1]
    D = Z @ theta + inter + nu
    T = cfg.beta0 * D + Z @ phi + eps
    return Z, D, T


def calibrate_censoring(cfg: SimConfig, pilot_sets: int = 25, pilot_n: int = 4000,
                        width_sd: float = 8.0) -> tuple[float, float]:
    """Pick the uniform censoring support: width width_sd*SD(T) from a pilot,
    then bisect the left endpoint until the pilot censoring rate hits the
    target within 0.005.

    The support must be wide enough that essentially no failure-time mass
    lies beyond tau2: events past the censoring horizon are never observed
    and no censoring adjustment can impute them at finite n.
    """
    if not 0.0 < cfg.target_cr < 1.0:
        raise DomainError("calibration needs target_cr in (0, 1)")
    ts = []
    for i in range(pilot_sets):
        gen = rng_stream(cfg.seed, _PILOT_STREAM, i)
        coeffs = _draw_coefficients(cfg, gen)
        _, _, T = _draw_structural(cfg, gen, *coeffs, pilot_n)
        ts.append(T)
    T = np.concatenate(ts)
    width = width_sd * float(T.std())
    ugen = rng_stream(cfg.seed, _PILOT_STREAM, 999_983)
    U = ugen.random(T.size)

    def cr(tau1):
        return float(np.mean(T > tau1 + width * U)) - cfg.target_cr

    lo = float(T.min()) - width - 1.0
    hi = float(T.max()) + 1.0
    if cr(lo) < 0 or cr(hi) > 0:
        raise CalibrationError("target censoring rate cannot be bracketed")
    tau1 = brentq(cr, lo, hi, xtol=1e-10)
    # brentq gives a sign change point of the step function; accept if within band
    if abs(cr(tau1)) > 0.005:
        raise CalibrationError(
            f"pilot censoring rate misses target by {abs(cr(tau1)):.4f} > 0.005")
    return float(tau1), float(tau1 + width)


def generate(cfg: SimConfig, rep: int, taus: tuple[float, float] | None = None
             ) -> tuple[Dataset, TruthRecord]:
    """One replication: coefficients and data drawn from the rep substream."""
    if taus is None:
        taus = (math.inf, math.inf) if cfg.target_cr == 0.0 else calibrate_censoring(cfg)
    tau1, tau2 = taus
    gen = rng_stream(cfg.seed, _REP_STREAM, rep)
    theta, phi, phi_pairs, pairs = _draw_coefficients(cfg, gen)
    Z, D, T = _draw_structural(cfg, gen, theta, phi, phi_pairs, pairs, cfg.n)
    if math.isinf(tau1):
        C = np.full(cfg.n, np.inf)
    else:
        C = tau1 + (tau2 - tau1) * gen.random(cfg.n)
    Y = np.minimum(T, C)
    delta = (T <= C).astype(int)
    truth = TruthRecord(beta0=cfg.beta0, theta=theta, phi=phi, phi_pairs=phi_pairs,
                        pairs=pairs, tau1=tau1, tau2=tau2, case=cfg.case,
                        n=cfg.n, p=cfg.p)
    return Dataset(Z, D, Y, delta), truth


def _aft_nll_grad(params, y, d, delta):
    """Censored-normal negative log-likelihood and its analytic gradient in
    (a, b, log sigma); censored rows contribute the upper-tail survival."""
    a, b, logs = params
    s = math.exp(logs)
    r = (y - a - b * d) / s
    unc = delta == 1
    rc, dc = r[~unc], d[~unc]
    # normal hazard phi(r)/Phi_bar(r), computed in log space for stability
    with np.errstate(over="ignore"):
        lam = np.exp(np.minimum(
            -0.5 * rc ** 2 - 0.5 * math.log(2 * math.pi) - special.log_ndtr(-rc), 700.0))
    with np.errstate(over="ignore", invalid="ignore"):
        nll = float(0.5 * (r[unc] ** 2).sum()
                    + unc.sum() * (logs + 0.5 * math.log(2 * math.pi))
                    - special.log_ndtr(-rc).sum())
        ga = -(r[unc].sum() + lam.sum()) / s
        gb = -((r[unc] * d[unc]).sum() + (lam * dc).sum()) / s
        gs = (1.0 - r[unc] ** 2).sum() - (lam * rc).sum()
    return nll, np.array([ga, gb, gs])


def aft_benchmark(dataset: Dataset, method: str = "direct") -> tuple[float, float]:
    """Benchmark fit of the observed log-time on the exposure alone.

    method='direct' regresses the observed Y on D by least squares, ignoring
    both the unmeasured confounder and the censoring indicator; this is the
    naive comparator whose bias the adjusted estimator is measured against.
    method='normal_mle' maximizes the censored normal log-likelihood instead
    (censored rows contribute the upper-tail survival). Both reduce exactly
    to the OLS slope when no row is censored. Returns (beta, SE).
    """
    y, d, delta = dataset.y, dataset.d, dataset.delta
    n = dataset.n
    X = np.column_stack([np.ones(n), d])
    if method == "direct" or delta.min() == 1:
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ coef
        s2 = float(resid @ resid) / n
        cov = s2 * np.linalg.inv(X.T @ X)
        return float(coef[1]), float(math.sqrt(cov[1, 1]))
    if method != "normal_mle":
        raise DomainError(f"unknown benchmark method {method!r}")

    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    params = np.array([coef[0], coef[1], math.log(max(resid.std(), 1e-6))])

    def nll_grad(p):
        return _aft_nll_grad(p, y, d, delta)

    nll, grad = nll_grad(params)
    ok = False
    for _ in range(200):
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-8 * max(1.0, abs(nll)):
            ok = True
            break
        H = _fd_hessian(nll_grad, params)
        # damp until the system is positive definite and the step descends
        mu = 0.0
        step = None
        for _ in range(60):
            try:
                c_low = linalg.cho_factor(H + mu * np.eye(3), check_finite=False)
                cand = -linalg.cho_solve(c_low, grad, check_finite=False)
                if cand @ grad < 0 and np.isfinite(cand).all():
                    step = cand
                    break
            except linalg.LinAlgError:
                pass
            mu = max(2.0 * mu, 1e-6 * max(np.abs(H).max(), 1.0))
        if step is None:
            step = -grad
        s = 1.0
        improved = False
        for _ in range(50):
            nc, gc = nll_grad(params + s * step)
            if math.isfinite(nc) and nc < nll:
                params, nll, grad = params + s * step, nc, gc
                improved = True
                break
            s *= 0.5
        if not improved:
            ok = gnorm < 1e-5 * max(1.0, abs(nll))
            break
    if not ok and np.linalg.norm(grad) > 1e-4 * max(1.0, abs(nll)):
        return math.nan, math.nan
    H = _fd_hessian(nll_grad, params)
    try:
        cov = linalg.inv(H)
        se = math.sqrt(max(cov[1, 1], 0.0))
    except linalg.LinAlgError:
        return math.nan, math.nan
    return float(params[1]), float(se)


def _fd_hessian(nll_grad, params, h=1e-5):
    k = len(params)
    H = np.empty((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = h * max(1.0, abs(params[j]))
        _, gp = nll_grad(params + e)
        _, gm = nll_grad(params - e)
        H[:, j] = (gp - gm) / (2 * e[j])
    return (H + H.T) / 2.0


@dataclass(frozen=True)
class McRow:
    estimator: str
    bias_pct: float
    sd: float | None
    mean_se: float
    coverage: float
    n_used: int
    n_excluded: int


@dataclass(frozen=True)
class McSummary:
    rows: tuple[McRow, ...]
    beta0: float

    def to_table(self) -> str:
        lines = ["Method,Bias,SD,SE,CP"]
        for r in self.rows:
            sd = "NA" if r.sd is None else f"{r.sd:.4f}"
            lines.append(f"{r.estimator.upper()},{r.bias_pct:.3f}%,{sd},"
                         f"{r.mean_se:.4f},{r.coverage:.3f}")
        return "\n".join(lines) + "\n"

    def row(self, estimator: str) -> McRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


MC_ESTIMATORS = (*FAMILIES, "aft")


def _mc_one_rep(args):
    sim_cfg, fit_cfg, estimators, rep, taus = args
    from .pipeline import fit_families  # local import keeps workers light

    dataset, truth = generate(sim_cfg, rep, taus=taus)
    out = {}
    gel_families = [e for e in estimators if e in FAMILIES]
    if gel_families:
        fits = fit_families(dataset, fit_cfg, gel_families)
        for fam, fit in fits.items():
            out[fam] = (fit.beta_hat, fit.se, fit.ci[0], fit.ci[1], fit.converged)
    if "aft" in estimators:
        b, se = aft_benchmark(dataset)
        if math.isnan(b):
            out["aft"] = (b, se, math.nan, math.nan, False)
        else:
            out["aft"] = (b, se, b - 1.959963984540054 * se,
                          b + 1.959963984540054 * se, True)
    return rep, out


def run_monte_carlo(sim_cfg: SimConfig, fit_cfg, estimators=("el",),
                    threads: int = 1) -> McSummary:
    """Replicate generate -> fit -> summarize; excluded replications are the
    non-converged ones, reported per estimator. Estimators are GEL families
    or 'aft', the naive censored-regression comparator."""
    estimators = list(estimators)
    for est in estimators:
        if est not in MC_ESTIMATORS:
            raise DomainError(f"unknown estimator {est!r}; choose from {', '.join(MC_ESTIMATORS)}")
    taus = (math.inf, math.inf) if sim_cfg.target_cr == 0.0 else calibrate_censoring(sim_cfg)
    jobs = [(sim_cfg, fit_cfg, estimators, rep, taus) for rep in range(sim_cfg.reps)]
    results = {}
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for rep, out in pool.map(_mc_one_rep, jobs, chunksize=1):
                results[rep] = out
    else:
        for job in jobs:
            rep, out = _mc_one_rep(job)
            results[rep] = out

    rows = []
    b0 = sim_cfg.beta0
    for est in estimators:
        recs = [results[r][est] for r in range(sim_cfg.reps)]
        good = [rec for rec in recs if rec[4] and math.isfinite(rec[0])]
        n_used = len(good)
        if n_used == 0:
            rows.append(McRow(est, math.nan, None, math.nan, math.nan, 0, len(recs)))
            continue
        betas = np.array([rec[0] for rec in good])
        ses = np.array([rec[1] for rec in good])
        cover = np.array([rec[2] <= b0 <= rec[3] for rec in good])
        sd = float(betas.std(ddof=1)) if n_used >= 2 else None
        rows.append(McRow(estimator=est,
                          bias_pct=float(100.0 * (betas.mean() - b0) / b0),
                          sd=sd, mean_se=float(ses.mean()),
                          coverage=float(cover.mean()),
                          n_used=n_used, n_excluded=len(recs) - n_used))
    return McSummary(rows=tuple(rows), beta0=b0)
