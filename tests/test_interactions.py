from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igsaft.errors import DomainError
from igsaft.interactions import (InteractionIndex, MomentSpec, build_Vk, enumerate_subsets,
                                 eval_centered_matrix, vk_width)
from scalar_reference import eval_centered


def subsets(p, k):
    return [ix.subset for ix in enumerate_subsets(p, k)]


def test_enumerate_three_choose_two():
    assert subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_three_choose_three():
    assert subsets(3, 3) == [(1, 2, 3)]


def test_enumerate_first_order():
    assert subsets(4, 1) == [(1,), (2,), (3,), (4,)]


@pytest.mark.parametrize("p,k", [(3, 0), (3, 4), (0, 1)])
def test_enumerate_domain_errors(p, k):
    with pytest.raises(DomainError):
        enumerate_subsets(p, k)


@pytest.mark.parametrize("p,q,expected", [(3, 3, 4), (10, 2, 45), (20, 2, 190)])
def test_interaction_count(p, q, expected):
    assert MomentSpec.full(p, q).m == expected


@pytest.mark.parametrize("p,q", [(5, 1), (5, 6)])
def test_interaction_count_domain(p, q):
    with pytest.raises(DomainError):
        MomentSpec.full(p, q)


def test_centered_at_own_mean_is_zero():
    spec = MomentSpec.full(4, 3)
    z = np.array([0.3, -1.2, 2.0, 0.7])
    assert np.all(eval_centered(z, z, spec) == 0.0)


def test_centering_at_zero_gives_raw_products():
    spec = MomentSpec.full(3, 2)
    z = np.array([2.0, 3.0, 5.0])
    out = eval_centered(z, np.zeros(3), spec)
    np.testing.assert_allclose(out, [6.0, 10.0, 15.0])


def test_two_instrument_direct_product():
    spec = MomentSpec.full(2, 2)
    out = eval_centered(np.array([3.0, 5.0]), np.array([1.0, 2.0]), spec)
    np.testing.assert_allclose(out, [6.0])


def test_all_ones_vector():
    spec = MomentSpec.full(5, 3)
    out = eval_centered(np.ones(5), np.zeros(5), spec)
    np.testing.assert_array_equal(out, np.ones(spec.m))


def test_centered_sample_mean_shrinks():
    # five-sigma band for the Monte Carlo mean of centered products
    rng = np.random.default_rng(123)
    n = 10 ** 5
    Z = rng.standard_normal((n, 4))
    spec = MomentSpec.full(4, 2)
    mean = eval_centered_matrix(Z, np.zeros(4), spec).mean(axis=0)
    assert np.all(np.abs(mean) < 5.0 / np.sqrt(n))


def test_vk_columns_k2():
    Z = np.array([[2.0, 3.0]])
    V = build_Vk(Z, 2)
    np.testing.assert_array_equal(V, [[1.0, 2.0, 3.0]])


def test_vk_width_k3_p3():
    Z = np.random.default_rng(0).normal(size=(7, 3))
    assert build_Vk(Z, 3).shape == (7, 7)  # 1 + 3 + 3
    assert vk_width(3, 3) == 7


def test_vk_order_matches_enumeration():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(5, 4))
    V = build_Vk(Z, 3)
    np.testing.assert_array_equal(V[:, 0], np.ones(5))
    np.testing.assert_array_equal(V[:, 1:5], Z)
    pair_cols = [Z[:, a - 1] * Z[:, b - 1] for a, b in subsets(4, 2)]
    np.testing.assert_array_equal(V[:, 5:], np.column_stack(pair_cols))
    # k = 4 over more than one block of rows: each column equals np.prod of
    # its subset's columns bit for bit
    Z = rng.normal(size=(1100, 5))
    cols = [np.prod(Z[:, [j - 1 for j in s]], axis=1) for order in (1, 2, 3)
            for s in subsets(5, order)]
    V = build_Vk(Z, 4)
    assert V.shape == (1100, 1 + len(cols))
    assert (V[:, 0] == 1.0).all() and (V[:, 1:] == np.column_stack(cols)).all()


def test_vk_deterministic():
    Z = np.random.default_rng(2).normal(size=(20, 5))
    assert build_Vk(Z, 3).tobytes() == build_Vk(Z, 3).tobytes()


def test_spec_full_counts_and_order():
    spec = MomentSpec.full(5, 3)
    assert spec.m == 20  # C(5, 2) + C(5, 3)
    orders = [ix.order for ix in spec.indices]
    assert orders == sorted(orders)
    for k in (2, 3):
        block = [ix.subset for ix in spec.indices if ix.order == k]
        assert block == sorted(block)


def test_spec_rejects_bad_indices():
    with pytest.raises(DomainError):
        MomentSpec.from_subsets(3, 2, [(1, 1)])
    with pytest.raises(DomainError):
        MomentSpec.from_subsets(3, 2, [(1, 4)])
    with pytest.raises(DomainError):
        InteractionIndex((2, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7).flatmap(lambda p: st.tuples(st.just(p), st.integers(2, p))))
def test_spec_property_counts(pq):
    p, q = pq
    spec = MomentSpec.full(p, q)
    assert spec.m == sum(comb(p, k) for k in range(2, q + 1))
    z = np.linspace(-1.0, 1.0, p)
    assert eval_centered(z, np.zeros(p), spec).shape == (spec.m,)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_matrix_matches_rowwise(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 6))
    q = int(rng.integers(2, p + 1))
    spec = MomentSpec.full(p, q)
    Z = rng.normal(size=(4, p))
    zeta = rng.normal(size=p)
    mat = eval_centered_matrix(Z, zeta, spec)
    for i in range(4):
        np.testing.assert_allclose(mat[i], eval_centered(Z[i], zeta, spec), rtol=0, atol=0)


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_equals_the_per_column_product(q):
    # one product per order over gathered column blocks, in row blocks,
    # against np.prod of each subset's columns; 1300 rows span three blocks
    rng = np.random.default_rng(q)
    Z = rng.normal(size=(1300, 6)) * rng.lognormal(size=(1300, 6))
    zeta = rng.normal(size=6)
    spec = MomentSpec.from_subsets(6, q, [ix.subset for ix in MomentSpec.full(6, q).indices][::2])
    zc = Z - zeta
    loop = np.column_stack([np.prod(zc[:, [j - 1 for j in ix.subset]], axis=1)
                            for ix in spec.indices])
    assert spec.orders == tuple(range(2, q + 1))
    assert (eval_centered_matrix(Z, zeta, spec) == loop).all()
