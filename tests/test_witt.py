import itertools

import pytest
from hypothesis import given, settings, strategies as st

from stab23 import witt
from stab23.errors import NonUnitError, PrecisionMismatch

N = 8
M = 3**N


def all_residues():
    return [(r0, r1) for r0 in range(3) for r1 in range(3)]


coords = st.integers(min_value=0, max_value=M - 1)


def w(c0, c1, n=N):
    return witt.WittElement(c0, c1, n)


@given(coords, coords)
def test_additive_identity_and_inverse(c0, c1):
    x = w(c0, c1)
    assert x + witt.zero(N) == x
    assert (x + (-x)).is_zero()


@settings(max_examples=60)
@given(coords, coords, coords, coords, coords, coords)
def test_ring_axioms(a0, a1, b0, b1, c0, c1):
    x, y, z = w(a0, a1), w(b0, b1), w(c0, c1)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


def test_omega_has_order_eight():
    om = witt.omega(N)
    assert om**8 == witt.one(N)
    assert om**4 == -witt.one(N)
    assert om * om**7 == witt.one(N)


def test_teichmuller_fixed_points():
    # oracle: x -> x^9 iteration must land on a literal fixed point
    for r0, r1 in all_residues():
        t = witt.teichmuller(r0, r1, N)
        assert t**9 == t
        assert (t.c0 % 3, t.c1 % 3) == (r0, r1)


def test_teichmuller_is_multiplicative_on_all_81_pairs():
    # DERIVED oracle: brute force over all pairs of residues of F9
    for (a0, a1), (b0, b1) in itertools.product(all_residues(), repeat=2):
        ta = witt.teichmuller(a0, a1, N)
        tb = witt.teichmuller(b0, b1, N)
        prod = ta * tb
        assert prod == witt.teichmuller(prod.c0 % 3, prod.c1 % 3, N)


def test_teichmuller_of_one_and_zero():
    assert witt.teichmuller(1, 0, N) == witt.one(N)
    assert witt.teichmuller(0, 0, N).is_zero()


def test_frobenius_is_order_two_automorphism():
    om = witt.omega(N)
    assert om.frobenius().frobenius() == om
    assert witt.from_int(3, N).frobenius() == witt.from_int(3, N)


def test_frobenius_commutes_with_teichmuller():
    # DERIVED oracle: frobenius(teich(r)) == teich(r^3)
    om = witt.omega(N)
    cubed = om * om * om
    assert om.frobenius() == witt.teichmuller(cubed.c0 % 3, cubed.c1 % 3, N)
    assert om.frobenius() == om**3


@settings(max_examples=40)
@given(coords, coords, coords, coords)
def test_frobenius_distributes(a0, a1, b0, b1):
    x, y = w(a0, a1), w(b0, b1)
    assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()


def test_inv_examples():
    assert witt.one(N).inv() == witt.one(N)
    two = witt.from_int(2, N)
    assert two.inv() * two == witt.one(N)
    om = witt.omega(N)
    assert om.inv() == om**7


def test_inv_rejects_non_units():
    with pytest.raises(NonUnitError):
        witt.from_int(3, N).inv()


def test_precision_mismatch_is_an_error():
    with pytest.raises(PrecisionMismatch):
        w(1, 0, 4) + w(1, 0, 5)


def test_sqrt_principal():
    for x in (1, 4, 7, 1 + 3 * 17, 1 + 9 * 5):
        y = witt.sqrt_principal(x, N)
        assert (y * y - x) % M == 0
        assert y % 3 == 1
