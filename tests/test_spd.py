"""The package's one positive-definite solve: a Cholesky check, one ridge
schedule scaled to the matrix, and lstsq as the last resort."""

import numpy as np

from igsaft.gel import _GRID_POINTS, _cue_grid
from igsaft.interactions import MomentSpec
from igsaft.moments import MomentMatrix, TransformStats
from igsaft.spd import cholesky, solve_spd


def test_well_conditioned_system_matches_numpy_solve():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 12))
    A = X.T @ X / 300
    for b in (rng.normal(size=12), rng.normal(size=(12, 3))):
        x, ridged = solve_spd(A, b)
        ref = np.linalg.solve(A, b)
        assert not ridged
        assert np.all(np.abs(x - ref) <= 1e-12 * np.abs(ref))


def test_rank_deficient_gram_is_ridged_to_a_finite_solution():
    # a duplicated column: Cholesky of the exactly singular Gram matrix can
    # still succeed, with a pivot of rounding size, and solve to noise
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 6))
    X[:, 4] = X[:, 1]
    A = X.T @ X
    b = X.T @ rng.normal(size=100)
    assert cholesky(A) is None
    x, ridged = solve_spd(A, b)
    assert ridged
    assert np.all(np.isfinite(x))
    # the ridge is small: the solution still solves the consistent system
    assert np.abs(A @ x - b).max() <= 1e-6 * np.abs(b).max()
    # and splits the duplicated column's weight evenly, as the least-norm
    # solution does, up to rounding that the 1e-10 ridge amplifies to about
    # 1e-6 of |x|
    assert abs(x[4] - x[1]) <= 1e-5 * np.abs(x).max()


def test_zero_matrix_falls_back_to_lstsq():
    x, ridged = solve_spd(np.zeros((3, 3)), np.ones(3))
    assert ridged
    assert np.all(x == 0.0)


def test_cue_grid_is_infinite_where_omega_is_not_positive_definite():
    # psi(beta) = A + beta B has two equal columns at beta0 = 0.5, a grid
    # point, so Omega(beta0) is singular; everywhere else it is definite
    rng = np.random.default_rng(2)
    n, beta0 = 200, 0.5
    A, B = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    A[:, 2] = A[:, 0] - beta0 * (B[:, 2] - B[:, 0])
    M = MomentMatrix(A=A, B=B, spec=MomentSpec.from_subsets(4, 2, [(1, 2), (1, 3), (1, 4)]),
                     fold_tags=np.zeros(n, dtype=int), stats=TransformStats())
    grid = np.linspace(-10.0, 10.0, _GRID_POINTS)
    q = _cue_grid(M, grid)
    singular = grid == beta0
    assert singular.sum() == 1
    assert np.isinf(q[singular]).all() and np.isfinite(q[~singular]).all()
    for b, got in zip(grid[~singular], q[~singular]):
        psi = M.eval(float(b))
        psibar, omega = psi.mean(axis=0), psi.T @ psi / n
        assert abs(got - 0.5 * psibar @ np.linalg.solve(omega, psibar)) <= 1e-10 * got
