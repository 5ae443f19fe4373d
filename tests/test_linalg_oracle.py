"""The active-submatrix Howell and Smith eliminations against the originals.

``linalg_oracle`` keeps the row-by-row ``howell`` and ``smith_kernel``
that ``stab23.linalg`` replaced.  Every output must agree exactly: the
Howell rows, pivot columns and pivot valuations, and the Smith kernel
rows and divisor list, which depend on the pivot order.
"""

import numpy as np
import pytest

import linalg_oracle as oracle
from stab23 import linalg

MODULI = range(2, 9)


def assert_same_howell(rows, m):
    new, old = linalg.howell(rows, m), oracle.howell(rows, m)
    assert new.rows.dtype == old.rows.dtype
    assert new.rows.shape == old.rows.shape
    assert np.array_equal(new.rows, old.rows)
    assert new.pivot_cols == old.pivot_cols
    assert new.pivot_vals == old.pivot_vals


def assert_same_smith(A, m):
    (ker, divs), (ker_old, divs_old) = linalg.smith_kernel(A, m), oracle.smith_kernel(A, m)
    assert ker.dtype == ker_old.dtype
    assert ker.shape == ker_old.shape
    assert np.array_equal(ker, ker_old)
    assert divs == divs_old


def assert_same(A, m):
    assert_same_howell(A, m)
    assert_same_smith(A, m)


def random_matrix(rng, shape, m):
    """Entries of mixed valuation, with many zeros and many ties."""
    M = 3**m
    kind = rng.integers(4)
    if kind == 0:
        return rng.integers(0, M, size=shape)
    if kind == 1:
        units = rng.integers(-2, 3, size=shape)
        return units * 3 ** rng.integers(0, m + 1, size=shape) % M
    if kind == 2:
        return rng.choice([0, 0, 0, 1, 2, 3, 9, M - 1, M - 3], size=shape)
    # low rank: products force valuations to repeat across rows
    k = int(rng.integers(1, 3))
    return rng.integers(0, 9, size=(shape[0], k)) @ rng.integers(0, 9, size=(k, shape[1])) % M


def signed_permutation(rng, n):
    P = np.zeros((n, n), dtype=np.int64)
    P[rng.permutation(n), np.arange(n)] = rng.choice([-1, 1], size=n)
    return P


@pytest.mark.parametrize("m", MODULI)
def test_random_matrices_match_oracle(m):
    rng = np.random.default_rng(20 + m)
    for _ in range(60):
        shape = tuple(int(x) for x in rng.integers(1, 9, size=2))
        assert_same(random_matrix(rng, shape, m), m)


@pytest.mark.parametrize("m", MODULI)
def test_edge_shapes_match_oracle(m):
    rng = np.random.default_rng(40 + m)
    for shape in [(0, 0), (0, 4), (4, 0), (1, 1), (3, 5), (5, 3)]:
        assert_same(np.zeros(shape, dtype=np.int64), m)
    for n in (1, 2, 7):
        for shape in [(1, n), (n, 1)]:
            for _ in range(5):
                assert_same(random_matrix(rng, shape, m), m)
    assert_same([], m)
    assert_same([3, 0, 6], m)


@pytest.mark.parametrize("m", MODULI)
def test_signed_permutation_minus_identity_matches_oracle(m):
    # the stacked op - 1 matrices that fixed_basis hands to smith_kernel
    rng = np.random.default_rng(60 + m)
    for _ in range(6):
        n = int(rng.integers(2, 25))
        I = np.eye(n, dtype=np.int64)
        ops = [signed_permutation(rng, n) for _ in range(int(rng.integers(1, 3)))]
        stacked = np.vstack([op - I for op in ops])
        assert_same(stacked, m)
        ker = linalg.fixed_basis(ops, m)
        assert np.array_equal(ker, oracle.smith_kernel(stacked, m)[0])


def test_large_modulus_beyond_the_valuation_table():
    # m = 19 splits each valuation over two table lookups
    rng = np.random.default_rng(5)
    M = 3**19
    for shape in [(1, 6), (3, 2), (2, 3)]:
        for _ in range(10):
            A = rng.integers(0, M, size=shape) * 3 ** rng.integers(0, 15, size=shape) % M
            assert_same(A, 19)
