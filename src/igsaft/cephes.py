"""The standard normal quantile, a port of ``ndtri`` from S. L. Moshier's
Cephes Math Library (ndtri.c), the code behind ``scipy.special.ndtri``.

Coefficients, Horner order and branch points (exp(-2), and x = 8, that is
exp(-32)) are Cephes', each operation a correctly rounded numpy ufunc as C
evaluates it without fused multiply-adds, so the port returns scipy's doubles
bit for bit. `simulate.std_normal` draws every simulated normal through it,
and any other rounding would move every simulated dataset.

Of the two libm calls, ``sqrt`` is correctly rounded in numpy as in C, but
``log`` cannot be numpy's float64 ``np.log``: that loop is numpy's own SIMD
log, which differs from the C library's by an ulp in some arguments. numpy's complex log calls C99 ``clog``, whose real part at a
positive real argument outside [0.5, 2] is the C library's ``log`` itself
(glibc math/s_clog_template.c: log(hypot(x, 0)), unscaled for x >= DBL_MIN).
The tail branch takes logs only of y <= exp(-2) and of x >= 2.
"""

from __future__ import annotations

import numpy as np

_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)

# |y - 0.5| <= 3/8: y + y y^2 P0(y^2) / Q0(y^2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = 1 / sqrt(-2 log y) with sqrt(-2 log y) in [2, 8): exp(-32) < y <= exp(-2)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# sqrt(-2 log y) in [8, 64): exp(-2048) < y <= exp(-32)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Cephes ``polevl`` by Horner's rule from the leading coefficient, or with
    monic=True ``p1evl``, whose leading coefficient 1 is left out of coef."""
    out = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's log of positive x outside [0.5, 2]; see the module docstring."""
    return np.log(x.astype(complex)).real


def ndtri(u) -> np.ndarray:
    """x with Phi(x) = u, elementwise, equal to ``scipy.special.ndtri(u)``:
    -inf at 0, inf at 1 and NaN outside [0, 1]."""
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() > 0.0 and u.max() < 1.0):
        out = np.where(u == 0.0, -np.inf, np.where(u == 1.0, np.inf, np.nan))
        inside = (u > 0.0) & (u < 1.0)
        out[inside] = ndtri(u[inside])
        return out
    y = u.reshape(-1)
    flip = y > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - y, y)
    # the central branch on every element; the tail's are overwritten below
    ym = y - 0.5
    y2 = ym * ym
    x = _polevl(y2, _P0)
    x *= y2
    x /= _polevl(y2, _Q0, monic=True)
    x *= ym
    x += ym
    x *= _S2PI
    tail = np.flatnonzero(y <= _EXP_M2)
    t = np.sqrt(-2.0 * _log(y[tail]))
    t0 = t - _log(t) / t
    z = 1.0 / t
    t1 = z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True)
    far = np.flatnonzero(t >= 8.0)
    if far.size:
        zf = z[far]
        t1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, monic=True)
    t = t0 - t1
    x[tail] = np.where(flip[tail], t, -t)
    return x.reshape(u.shape)
