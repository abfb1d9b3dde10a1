"""Simulation designs, censoring calibration, the naive AFT benchmark, and
the Monte Carlo harness.

Randomness flows through counter-based Philox streams keyed by
(seed, stream, rep), with normal variates produced by inverse-CDF of the
uniform stream, so every dataset is bit-reproducible across platforms and
across any worker count. Every fit runs with one BLAS thread
(`blas.one_blas_thread`), so a summary does not depend on the worker count
or on the caller's BLAS thread count either.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cephes import ndtri
from .data import Dataset
from .errors import CalibrationError, DomainError
from .gel import FAMILIES, wald_interval

_PILOT_STREAM = 101
_REP_STREAM = 202
_SUPPORT_STREAM = 303

# censoring calibration: pilot draws, and the support's width in pilot SDs of T
_PILOT_SETS = 25
_PILOT_N = 4000
_WIDTH_SD = 8.0

# (eps, nu) noise: mean zero, variances 0.4, covariance 0.2
_NOISE_COV = np.array([[0.4, 0.2], [0.2, 0.4]])
_NOISE_CHOL = np.linalg.cholesky(_NOISE_COV)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Named counter-based substream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


def std_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via inverse CDF of the uniform stream, through the
    port of Cephes ``ndtri`` (`cephes.ndtri`), which returns
    ``scipy.special.ndtri``'s doubles without importing scipy."""
    u = gen.random(shape)
    return ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


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
        if not 0.0 <= self.nonzero_frac <= 1.0:
            raise DomainError("nonzero_frac must lie in [0, 1]")

    @property
    def phi_d_scale(self) -> float:
        """Interaction coefficient magnitude c * n^(-1/4)."""
        return self.c_weak * self.n ** (-0.25)


@dataclass(frozen=True)
class TruthRecord:
    """The true parameters behind one simulated replication."""

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


def calibrate_censoring(cfg: SimConfig) -> tuple[float, float]:
    """Pick the uniform censoring support: width _WIDTH_SD * SD(T) from a pilot,
    then find the left endpoint by Brent's method until the pilot censoring
    rate hits the target within 0.005.

    The width rule is a heuristic. Failure times past tau2 are never
    observed as events, and no censoring adjustment can impute them at
    finite n, so the support should leave little failure-time mass beyond
    tau2. Eight pilot SDs do not always do that: T is right-skewed, and on
    the p = 10 designs at 40% censoring 0.14-0.34% of it lies past tau2
    (ROADMAP item 1).
    """
    if not 0.0 < cfg.target_cr < 1.0:
        raise DomainError("calibration needs target_cr in (0, 1)")
    ts = []
    for i in range(_PILOT_SETS):
        gen = rng_stream(cfg.seed, _PILOT_STREAM, i)
        coeffs = _draw_coefficients(cfg, gen)
        _, _, T = _draw_structural(cfg, gen, *coeffs, _PILOT_N)
        ts.append(T)
    T = np.concatenate(ts)
    width = _WIDTH_SD * float(T.std())
    ugen = rng_stream(cfg.seed, _PILOT_STREAM, 999_983)
    # the pilot draws sit in no reference cycle, so they are freed when this
    # call returns, without a collector pass
    args = (T, ugen.random(T.size), width, cfg.target_cr)
    lo = float(T.min()) - width - 1.0
    hi = float(T.max()) + 1.0
    if _pilot_gap(lo, *args) < 0 or _pilot_gap(hi, *args) > 0:
        raise CalibrationError("target censoring rate cannot be bracketed")
    tau1 = _brentq(_pilot_gap, lo, hi, args, xtol=1e-10)
    # Brent's method gives a sign change point of the step function; accept
    # if within band
    gap = abs(_pilot_gap(tau1, *args))
    if gap > 0.005:
        raise CalibrationError(f"pilot censoring rate misses target by {gap:.4f} > 0.005")
    return float(tau1), float(tau1 + width)


def _pilot_gap(tau1, T, U, width, target):
    """Share of pilot times T censored by tau1 + width * U, minus the target."""
    return float(np.mean(T > tau1 + width * U)) - target


_BRENT_RTOL = 4 * math.ulp(1.0)  # scipy's default rtol, 4 * machine epsilon
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float, args: tuple, xtol: float) -> float:
    """A root of f(x, *args) in [xa, xb] by Brent's method (Brent 1973,
    Algorithms for Minimization Without Derivatives, ch. 4).

    A line-for-line port of scipy 1.17.1's optimize/Zeros/brentq.c with
    brentq's default rtol and iteration cap, so it returns the same double as
    scipy.optimize.brentq. The pilot gap is a step function whose zero is a
    flat segment; another root finder would land elsewhere on it and move
    every censored simulated time. f(xa) and f(xb) of the same sign, a
    non-finite value of f, or no convergence raise CalibrationError. A
    divisor can be zero only where a quotient or product underflows, which
    the pilot gap's values, multiples of 1/N apart, rule out; there C would
    bisect and Python raises ZeroDivisionError.
    """

    def fval(x):
        fx = f(x, *args)
        if not math.isfinite(fx):
            raise CalibrationError(f"pilot censoring gap is {fx} at tau1 = {x}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = fval(xpre)
    fcur = fval(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise CalibrationError("f(xa) and f(xb) must have different signs")
    for _ in range(_BRENT_MAXITER):
        # nonzero finite values, so (f < 0) is the C code's signbit(f)
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre)
            if 3 * abs(sbis) - delta < bound:  # the C macro MIN(a, b)
                bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fval(xcur)
    raise CalibrationError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")


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


def aft_benchmark(dataset: Dataset) -> tuple[float, float]:
    """Naive AFT benchmark: the least-squares slope of the observed log-time
    Y on the exposure D alone, and its homoskedastic SE.

    It ignores both the unmeasured confounder and the censoring indicator
    (a censored row enters with its censoring time), so it is the comparator
    whose bias the adjusted estimator is measured against in the Monte Carlo.
    Returns (beta, SE).
    """
    y, d = dataset.y, dataset.d
    n = dataset.n
    X = np.column_stack([np.ones(n), d])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    s2 = float(resid @ resid) / n
    cov = s2 * np.linalg.inv(X.T @ X)
    return float(coef[1]), float(math.sqrt(cov[1, 1]))


@dataclass(frozen=True)
class McRow:
    """One estimator's summary; bias_pct is None where beta0 = 0 (a null
    design, run to check size), and sd is None below two used replications,
    as neither is defined there."""

    estimator: str
    bias_pct: float | None
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
            bias = "NA" if r.bias_pct is None else f"{r.bias_pct:.3f}%"
            sd = "NA" if r.sd is None else f"{r.sd:.4f}"
            lines.append(f"{r.estimator.upper()},{bias},{sd},"
                         f"{r.mean_se:.4f},{r.coverage:.3f}")
        return "\n".join(lines) + "\n"


MC_ESTIMATORS = (*FAMILIES, "aft")


def _mc_one_rep(args):
    sim_cfg, fit_cfg, estimators, rep, taus = args
    # imported here, as pipeline imports this module, and looked up at each
    # call, so that a wrapper set on pipeline.fit_families (a traced span) runs
    from .pipeline import fit_families

    dataset, _ = generate(sim_cfg, rep, taus=taus)
    out = {}
    gel_families = [e for e in estimators if e in FAMILIES]
    if gel_families:
        fits = fit_families(dataset, fit_cfg, gel_families)
        for fam, fit in fits.items():
            out[fam] = (fit.beta_hat, fit.se, fit.ci[0], fit.ci[1], fit.converged)
    if "aft" in estimators:
        b, se = aft_benchmark(dataset)
        out["aft"] = (b, se, *wald_interval(b, se, fit_cfg.alpha)[0], True)
    return rep, out


def run_monte_carlo(sim_cfg: SimConfig, fit_cfg, estimators=("el",),
                    threads: int = 1) -> McSummary:
    """Replicate generate -> fit -> summarize; excluded replications are the
    non-converged ones, reported per estimator. Estimators are GEL families
    or 'aft', the naive least-squares comparator.

    Each fit uses one BLAS thread. More cores are used through worker
    processes: `threads` > 1 runs the replications in that many processes,
    and the summary equals the one from `threads=1`."""
    if threads < 1:
        raise DomainError("threads must be at least 1")
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
        bias_pct = float(100.0 * (betas.mean() - b0) / b0) if b0 != 0.0 else None
        rows.append(McRow(estimator=est, bias_pct=bias_pct,
                          sd=sd, mean_se=float(ses.mean()),
                          coverage=float(cover.mean()),
                          n_used=n_used, n_excluded=len(recs) - n_used))
    return McSummary(rows=tuple(rows), beta0=b0)
