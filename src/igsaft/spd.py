"""One solve, in numpy.linalg only, for the small symmetric positive-definite
systems of the package: partialling, the GEL Newton steps and Omega_hat, the
relevance test and screening.

A Cholesky pivot L_jj^2 of at most _PIVOT A_jj counts as a failure: it is
the share of column j outside the span of the columns before it, and
Cholesky of an exactly singular Gram matrix can succeed with a pivot of
rounding size. A failed matrix is ridged by _RIDGES times its mean
diagonal, smallest first; lstsq is the last resort.
"""

from __future__ import annotations

import numpy as np

_PIVOT = 1e-12  # an m x m Gram pivot's rounding is about m * 1e-16 of its diagonal
_RIDGES = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


def cholesky(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of A, or None where it fails (see above)."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return L if np.all(L.diagonal() ** 2 > _PIVOT * A.diagonal()) else None


def solve_spd(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """(x, ridged): the solution of A x = b, b a vector or a matrix, and
    whether A had to be ridged or, past the last ridge, solved by lstsq.
    The factor only tests A: numpy has no triangular solve, and one LU solve
    of A costs less than two of the factor."""
    if cholesky(A) is not None:
        return np.linalg.solve(A, b), False
    step = np.trace(A) / len(A) * np.eye(len(A))
    for ridge in _RIDGES:
        ridged = A + ridge * step
        if cholesky(ridged) is not None:
            return np.linalg.solve(ridged, b), True
    return np.linalg.lstsq(A, b, rcond=None)[0], True
