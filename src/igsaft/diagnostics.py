"""Model diagnosis: the heteroskedasticity-robust relevance test for the
interaction block of the exposure regression, from a QR factorization of its
design [1, Z, interactions] by row blocks that also checks its rank, and the
overidentification test based on the scaled GEL objective. One row-block
reader of the design, `_design_blocks`, serves screening, the relevance test
and the Monte Carlo rank check, which hold no n x k array.

Both p-values are chi-square upper tails with integer degrees of freedom,
which have a closed form (`_chi2_sf`); they agree with ``scipy.stats.chi2.sf``
within about 1e-13 relative, without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, EstimationError, IllPosedError
from .gel import GelFit
from .interactions import MomentSpec, eval_centered_matrix
from .spd import solve_spd

_DEPENDENT = 1e-7  # share of a design column's norm; see check_rank
_BLOCK = 512       # rows of the exposure design held at a time


def _chi2_sf(stat: float, df: int) -> float:
    """Upper tail P(chi-square(df) > stat) for integer df >= 1, as
    ``chi2.sf(stat, df)``: 1.0 at stat <= 0, 0.0 at inf, NaN at NaN.

    With h = stat/2 the tail is a finite sum (Abramowitz & Stegun 1964, sec.
    26.4): e^-h h^a / Gamma(a + 1) over a = 0, 1, ..., df/2 - 1 for even df,
    and erfc(sqrt h) plus the same terms over a = 1/2, 3/2, ..., df/2 - 1 for
    odd df. The terms are summed in log space, scaled by the largest, so that
    e^-h may underflow while the sum is still a double. The error is a few
    ulps of the exponent a log h - h: below 3e-13 relative against scipy's
    ``chdtrc`` up to df 100 wherever the tail exceeds 1e-300.
    """
    if math.isnan(stat):
        return math.nan
    if stat <= 0.0:
        return 1.0
    if stat == math.inf:
        return 0.0
    h = stat / 2.0
    half = df % 2 / 2.0
    tail = math.erfc(math.sqrt(h)) if half else 0.0
    log_h = math.log(h)
    logs = [a * log_h - h - math.lgamma(a + 1.0) for a in (half + k for k in range(df // 2))]
    if not logs:
        return tail
    top = max(logs)
    return tail + math.exp(top + math.log(math.fsum(math.exp(v - top) for v in logs)))


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: tuple[int, int] | int
    p_value: float
    kind: str

    def to_dict(self) -> dict:
        df = list(self.df) if isinstance(self.df, tuple) else self.df
        return {"statistic": self.statistic, "df": df,
                "p_value": self.p_value, "kind": self.kind}


def _design_blocks(dataset: Dataset, spec: MomentSpec):
    """The exposure design [1, Z, interactions of spec centered at the mean
    of Z] in blocks of _BLOCK rows, with the exposure's matching rows; one
    block is held at a time. The one producer of the design's rows."""
    zeta = dataset.z.mean(axis=0)
    for start in range(0, dataset.n, _BLOCK):
        z, d = dataset.z[start:start + _BLOCK], dataset.d[start:start + _BLOCK]
        yield np.column_stack([np.ones(len(z)), z, eval_centered_matrix(z, zeta, spec)]), d


def factor_exposure(dataset: Dataset, spec: MomentSpec, lead: int | None = None):
    """(R, X'X, X'D) of the exposure design X = [1, Z, interactions] from one
    pass over its row blocks, R being that of the `lead` leading columns of X
    (all by default). R is factored as in TSQR (Demmel, Grigori, Hoemmen &
    Langou 2012): R of [R; X_b] is the R of the rows seen so far, so no n x k
    design and no Q are formed. R is that of the reduced QR up to the signs
    of its rows."""
    k = 1 + dataset.p + spec.m
    lead = k if lead is None else lead
    R, xtx, xtd = np.zeros((0, lead)), np.zeros((k, k)), np.zeros(k)
    for X, d in _design_blocks(dataset, spec):
        R = np.linalg.qr(np.vstack([R, X[:, :lead]]), mode="r")
        xtx += X.T @ X
        xtd += X.T @ d
    return R, xtx, xtd


def check_rank(R: np.ndarray, xtx: np.ndarray, spec: MomentSpec | None = None) -> None:
    """IllPosedError naming the first column of an exposure design, [1, Z] or
    [1, Z, interactions of spec], with at most _DEPENDENT of its norm
    (|R_jj|) outside the span of the columns before it. R is that of the
    design's reduced QR, and xtx the Gram matrix X'X of a design that begins
    with its columns; their norms are the square roots of its diagonal."""
    norms = np.sqrt(xtx.diagonal()[:R.shape[1]])
    # with fewer rows than columns, the columns past the last row are dependent
    diag = np.zeros(norms.size)
    diag[:min(R.shape)] = np.abs(R.diagonal())
    dependent = diag <= _DEPENDENT * norms
    if dependent.any():
        j = int(np.argmax(dependent))
        p = norms.size - 1 - (spec.m if spec else 0)
        column = (f"instrument column {j} (1-based)" if j <= p
                  else f"interaction {spec.indices[j - 1 - p].subset}")
        raise IllPosedError(f"{column} is a linear combination of the intercept and the "
                            "columns before it; the exposure regression needs linearly "
                            "independent columns")


def relevance_f_test(dataset: Dataset, spec: MomentSpec) -> TestResult:
    """Robust Wald test that every interaction coefficient in the exposure
    regression is zero; the statistic is referred to chi-square(m), an
    asymptotic reference that is not exact at any finite n.

    The covariance is HC3 (MacKinnon & White 1985): each squared residual is
    divided by (1 - h_ii)^2, undoing the shrinkage of residual variance at
    high leverage h_ii. HC0 omits that factor and understates the variance.
    On a null design with p = 4 and m = 6 it rejected at 5% in 23.5% of 400
    datasets at n = 100 and 11.75% at n = 200, where HC3 rejected 6.25% and
    6.5%; Long & Ervin (2000) recommend HC3 below n = 250.

    The regression of D on [1, Z, interactions] has k = 1 + p + m columns, and
    the test needs n > 2k rows; below that it raises ``IllPosedError``. At
    n <= 2k the mean leverage k/n is at least 1/2 and the usual high-leverage
    cutoff 2k/n (Belsley, Kuh & Welsch 1980) is at least 1, so the
    covariance rests on residuals that carry little of the error variance.

    With X = QR, c = Q'D = R^-T X'D and M = Q' diag(e2) Q, the interaction
    block has coefficients R_22^-1 c_2 and covariance R_22^-1 M_22 R_22^-T, so
    the statistic is c_2' M_22^-1 c_2; the leverages are h_ii = |Q_i|^2. The
    design is read in two passes of row blocks and never held whole: the
    first gives R, X'X and X'D (`factor_exposure`), the second
    each block's rows of Q = X R^-1, its leverages and residuals, and its
    share of M_22. The statistic is invariant to the signs of R's rows and
    agrees with the one from one QR of the whole design within about 1e-14
    relative (tests/test_diagnostics.py)."""
    n, p, m = dataset.n, dataset.p, spec.m
    min_rows = 2 * (1 + p + m)
    if n <= min_rows:
        raise IllPosedError(f"need n > 2(1 + p + m) = {min_rows} rows for the robust "
                            f"covariance (mean leverage below 1/2), got n = {n}")
    R, xtx, xtd = factor_exposure(dataset, spec)
    check_rank(R, xtx, spec)
    R_inv = np.linalg.inv(R)
    c = R_inv.T @ xtd
    M22 = np.zeros((m, m))
    for X, d in _design_blocks(dataset, spec):
        Q = X @ R_inv
        e = d - Q @ c
        lever = np.einsum("ij,ij->i", Q, Q)
        e2 = e ** 2 / np.maximum(1.0 - lever, 1e-8) ** 2
        Q2 = Q[:, 1 + p:]
        M22 += (Q2 * e2[:, None]).T @ Q2
    c2 = c[1 + p:]
    stat = float(c2 @ solve_spd(M22, c2)[0])
    return TestResult(statistic=stat, df=(m, n - R.shape[1]),
                      p_value=_chi2_sf(stat, m), kind="relevance_F")


def overid_test(fit: GelFit, n: int, m: int) -> TestResult:
    """J-style test: 2n Q_hat(beta_hat) against chi-square(m - 1)."""
    if m < 2:
        raise DomainError("overidentification test undefined for m = 1 (just identified)")
    if not fit.converged:
        raise EstimationError("overidentification test requires a converged fit")
    stat = 2.0 * n * fit.q_hat
    return TestResult(statistic=float(stat), df=m - 1,
                      p_value=_chi2_sf(stat, m - 1), kind="overidentification")
