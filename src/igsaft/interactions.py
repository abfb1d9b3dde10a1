"""Interaction instruments: subset enumeration, centered products, and the
partialling designs used to orthogonalize outcome and exposure."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import DomainError

_ROWS = 512  # rows per block of eval_centered_matrix


@dataclass(frozen=True, order=True)
class InteractionIndex:
    """A sorted subset of instrument positions (1-based)."""

    subset: tuple[int, ...]

    def __post_init__(self):
        s = tuple(int(j) for j in self.subset)
        object.__setattr__(self, "subset", s)
        if not s or any(b <= a for a, b in zip(s, s[1:])) or s[0] < 1:
            raise DomainError(f"indices must be strictly increasing and >= 1, got {s}")

    @property
    def order(self) -> int:
        return len(self.subset)


def enumerate_subsets(p: int, k: int) -> list[InteractionIndex]:
    """All C(p, k) size-k subsets of {1..p} in lexicographic order."""
    if not 1 <= k <= p:
        raise DomainError(f"order k={k} outside 1..p={p}")
    return [InteractionIndex(s) for s in combinations(range(1, p + 1), k)]


@dataclass(frozen=True)
class MomentSpec:
    """An ordered collection of interaction index sets defining the moment
    vector. Canonical order: orders ascending, lexicographic within order."""

    p: int
    q: int
    indices: tuple[InteractionIndex, ...]

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if not idx:
            raise DomainError("MomentSpec needs at least one index set")
        if not 2 <= self.q <= self.p:
            raise DomainError(f"need 2 <= q <= p, got q={self.q}, p={self.p}")
        prev = None
        for ix in idx:
            if ix.subset[-1] > self.p or ix.order > self.q:
                raise DomainError(f"index {ix.subset} outside p={self.p}, q={self.q}")
            if prev is not None and (ix.order, ix.subset) <= (prev.order, prev.subset):
                raise DomainError("indices must be in canonical order without repeats")
            prev = ix

    @property
    def m(self) -> int:
        return len(self.indices)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(sorted({ix.order for ix in self.indices}))

    @classmethod
    def full(cls, p: int, q: int) -> "MomentSpec":
        """Unscreened spec with all orders 2..q; m = r(p, q)."""
        if not 2 <= q <= p:
            raise DomainError(f"need 2 <= q <= p, got q={q}, p={p}")
        idx = []
        for k in range(2, q + 1):
            idx.extend(enumerate_subsets(p, k))
        return cls(p=p, q=q, indices=tuple(idx))

    @classmethod
    def from_subsets(cls, p: int, q: int, subsets) -> "MomentSpec":
        """Build a (possibly screened) spec; subsets are re-sorted into
        canonical order."""
        idx = sorted((InteractionIndex(tuple(s)) for s in subsets),
                     key=lambda ix: (ix.order, ix.subset))
        return cls(p=p, q=q, indices=tuple(idx))


def eval_centered_matrix(Z, zeta, spec: MomentSpec) -> np.ndarray:
    """Centered interaction vectors for an (n, p) instrument matrix; returns
    (n, m), component t of row i being prod_{j in subset_t} (Z_ij - zeta_j).

    The components of one order are one contiguous block of the canonical
    order, computed together: the product of k gathers of centered columns,
    taken left to right as np.prod does, so each value equals np.prod of its
    subset's columns bit for bit. Rows go through in blocks of _ROWS, so that
    the gathers stay small and in cache."""
    zc = np.asarray(Z, dtype=float) - np.asarray(zeta, dtype=float)[None, :]
    out = np.empty((zc.shape[0], spec.m))
    blocks, start = [], 0
    for k in spec.orders:
        cols = np.array([ix.subset for ix in spec.indices if ix.order == k]).T - 1
        blocks.append((slice(start, start + cols.shape[1]), cols))
        start += cols.shape[1]
    for lo in range(0, zc.shape[0], _ROWS):
        zb = zc[lo:lo + _ROWS]
        for sl, cols in blocks:
            prod = out[lo:lo + _ROWS, sl]
            prod[...] = zb[:, cols[0]]
            for c in cols[1:]:
                prod *= zb[:, c]
    return out


def vk_width(p: int, k: int) -> int:
    """Column count of the order-k partialling design."""
    return 1 + sum(comb(p, j) for j in range(1, k))


def build_Vk(Z, k: int) -> np.ndarray:
    """Partialling design: intercept plus all uncentered interactions of
    orders 1..k-1, columns in canonical enumerate_subsets order; the
    interactions come from `eval_centered_matrix` at zeta = 0."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    n, p = Z.shape
    if not 2 <= k <= p:
        raise DomainError(f"order k={k} outside 2..p={p}")
    lower = MomentSpec(p=p, q=k, indices=tuple(
        ix for order in range(1, k) for ix in enumerate_subsets(p, order)))
    return np.column_stack([np.ones(n), eval_centered_matrix(Z, np.zeros(p), lower)])
