"""The port of Cephes ndtri returns scipy.special.ndtri's doubles bit for bit:
on the draws std_normal makes, at its clip ends and on both sides of every
branch point, and at the ends of its domain."""

import math

import numpy as np
from scipy import special

from igsaft.cephes import ndtri
from igsaft.simulate import rng_stream, std_normal

E2 = math.exp(-2.0)
E32 = math.exp(-32.0)


def test_std_normal_draws_equal_scipy_ndtri():
    # 1.2 M draws, as many as one censoring calibration makes
    for key in range(3):
        got = std_normal(rng_stream(7, 555, key), (40_000, 10))
        u = rng_stream(7, 555, key).random((40_000, 10))
        np.testing.assert_array_equal(got, special.ndtri(np.clip(u, 1e-16, 1.0 - 1e-16)))


def test_clip_ends_and_branch_points_equal_scipy_ndtri():
    points = [1e-16, 1.0 - 1e-16, 0.5]
    for b in (E2, 1.0 - E2, E32):
        points += [np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)]
    # the tail's two approximations split at t = sqrt(-2 log y) = 8, which
    # rounding puts some ulps above exp(-32): both sides of it too
    y = E32
    while math.sqrt(-2.0 * math.log(y)) >= 8.0:
        y = np.nextafter(y, 1.0)
    points += [np.nextafter(y, 0.0), y]
    u = np.array(points)
    np.testing.assert_array_equal(ndtri(u), special.ndtri(u))


def test_domain_ends_and_shapes():
    u = np.array([[0.0, 1.0], [-0.5, np.nan], [5e-324, np.nextafter(1.0, 0.0)]])
    np.testing.assert_array_equal(ndtri(u), special.ndtri(u))
    assert ndtri(0.975).shape == () and float(ndtri(0.975)) == float(special.ndtri(0.975))
    assert ndtri(np.empty((0, 3))).shape == (0, 3)
