import pytest
from hypothesis import given, settings, strategies as st

from stab23 import stabilizer as stab
from stab23 import witt
from stab23.errors import NonUnitError

N = 8
M = 3**N

coords = st.integers(min_value=0, max_value=M - 1)


def rand_witt(c0, c1):
    return witt.WittElement(c0, c1, N)


unit_witt = st.tuples(coords, coords).filter(lambda t: (t[0] % 3, t[1] % 3) != (0, 0))


@st.composite
def units(draw):
    a = draw(st.tuples(coords, coords).filter(lambda t: t[0] % 3 != 0))
    b = draw(st.tuples(coords, coords))
    e = draw(st.integers(min_value=0, max_value=1))
    return stab.StabilizerElement(rand_witt(*a), rand_witt(*b), e)


def test_s_squared_is_three():
    S = stab.S_element(N)
    assert S * S == stab.central(3, N)


@settings(max_examples=30)
@given(unit_witt)
def test_s_commutation_rule(aw):
    # S * a = phi(a) * S for Witt units a
    a = stab.from_witt(rand_witt(*aw))
    S = stab.S_element(N)
    lhs = S * a
    rhs = stab.from_witt(rand_witt(*aw).frobenius()) * S
    assert lhs == rhs


def test_all_g2_relations_pass():
    checks = stab.g2_relations_check(N)
    assert all(checks.values()), checks


def test_subgroup_orders_by_closure():
    for name, order in stab.SUBGROUP_ORDERS.items():
        assert len(stab.named_subgroup(name, N)) == order, name


def test_closure_cap_raises():
    from stab23.errors import ClosureBoundExceeded

    g = stab.StabilizerElement(
        witt.from_int(1, N), witt.from_int(3, N), 0
    )  # infinite order at this precision budget
    with pytest.raises(ClosureBoundExceeded):
        stab.subgroup_closure([g], cap=20)


def test_reduced_det_examples():
    om = stab.omega_element(N)
    assert stab.reduced_det(om) == (-1, 1)
    s = stab.s_element(N)
    assert stab.reduced_det(s) == (1, 1)


@settings(max_examples=25)
@given(coords.filter(lambda n: n % 3 != 0))
def test_reduced_det_central_squares(n):
    g = stab.central(n, N)
    assert g.det() == (n * n) % M


@settings(max_examples=25)
@given(units(), units())
def test_det_is_multiplicative(g, h):
    assert (g * h).det() == (g.det() * h.det()) % M


@settings(max_examples=25)
@given(units())
def test_group_inverse(g):
    assert g * g.inv() == stab.identity(N)
    assert g.inv() * g == stab.identity(N)


def test_every_named_subgroup_sits_in_g2_1():
    for name in stab.SUBGROUP_ORDERS:
        for g in stab.named_subgroup(name, N):
            assert stab.reduced_det(g)[1] == 1, (name, g)


def test_normalize_to_s21():
    g = stab.StabilizerElement(witt.WittElement(4, 3, N), witt.WittElement(2, 5, N), 0)
    h = stab.normalize_to_s21(g)
    assert stab.reduced_det(h)[1] == 1
    assert h.a.c0 % 3 == 1
