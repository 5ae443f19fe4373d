from hypothesis import assume, given, settings, strategies as st

from model_oracle import w_coordinate_matrix
from stab23 import witt
from stab23.polys import (
    LocPoly,
    WPoly,
    embed_2_to_3,
    monomials_of_degree,
    sigma3_rho,
    substitute_x3,
)

N = 5


@st.composite
def small_polys(draw, nvars=2, max_deg=3, precision=N):
    coeff = st.integers(min_value=0, max_value=3**precision - 1)
    terms = draw(st.integers(min_value=0, max_value=4))
    coeffs = {}
    for _ in range(terms):
        mono = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
        coeffs[mono] = witt.WittElement(draw(coeff), draw(coeff), precision)
    return WPoly(nvars, precision, coeffs)


# 2-variable numerators at precisions 4..8, and denominator exponents
numerators = st.integers(4, 8).flatmap(lambda p: small_polys(precision=p))
exponents = st.integers(0, 3)


@settings(max_examples=30)
@given(small_polys(), small_polys(), small_polys())
def test_wpoly_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


def test_w_coordinate_matrix_columns_are_the_images_of_1_and_w():
    src, dst = monomials_of_degree(2, 1), monomials_of_degree(2, 2)
    f = WPoly(2, N, {(1, 0): witt.WittElement(2, 3, N), (0, 1): witt.one(N)})
    A = w_coordinate_matrix(src, dst, lambda m, c: WPoly(2, N, {m: c}) * f, N)
    assert A.shape == (2 * len(dst), 2 * len(src))
    for i, m in enumerate(src):
        for k, c in enumerate((witt.one(N), witt.WittElement(0, 1, N))):
            col = A[:, 2 * i + k]
            got = {d: witt.WittElement(int(col[2 * j]), int(col[2 * j + 1]), N) for j, d in enumerate(dst)}
            assert WPoly(2, N, got) == WPoly(2, N, {m: c}) * f


def test_monomials_of_degree_count():
    # C(d + nvars - 1, nvars - 1)
    assert len(monomials_of_degree(3, 3)) == 10
    assert len(monomials_of_degree(2, 7)) == 8
    assert monomials_of_degree(2, 0) == [(0, 0)]


def test_substitute_x3():
    x3 = WPoly.variable(2, 3, N)
    img = substitute_x3(x3)
    expect = -(WPoly.variable(0, 2, N) + WPoly.variable(1, 2, N))
    assert img == expect
    # substitution is a ring map
    f = WPoly.variable(0, 3, N) * x3 + x3 * x3
    g = substitute_x3(f)
    x1, x2 = WPoly.variable(0, 2, N), WPoly.variable(1, 2, N)
    m = -(x1 + x2)
    assert g == x1 * m + m * m


def test_loc_poly_arithmetic():
    one = WPoly.constant(witt.one(N), 2)
    s3 = sigma3_rho(N)
    delta = LocPoly(one, 1)
    assert LocPoly(s3, 1) == LocPoly(one, 0)
    assert delta * LocPoly(s3 * s3, 0) == LocPoly(s3, 0)
    assert delta + LocPoly(-one, 1) == LocPoly(WPoly(2, N), 0)
    assert delta + delta != delta


@settings(max_examples=40)
@given(numerators, exponents, exponents)
def test_loc_poly_equal_over_a_common_denominator(f, r, k):
    # f / sigma3^r and f sigma3^k / sigma3^(r + k) are one fraction
    s3 = sigma3_rho(f.precision)
    assert LocPoly(f * s3**k, r + k) == LocPoly(f, r)
    assert LocPoly(f, r) == LocPoly(f * s3**k, r + k)


@settings(max_examples=40)
@given(numerators, exponents)
def test_loc_poly_denominator_separates_nonzero_fractions(f, r):
    assume(not f.is_zero())
    assert LocPoly(f, r) != LocPoly(f, r + 1)
    assert LocPoly(f, r + 1) != LocPoly(f, r)


@given(st.integers(4, 8), exponents, exponents)
def test_loc_poly_zero_over_any_denominator(precision, r, s):
    assert LocPoly(WPoly(2, precision), r) == LocPoly(WPoly(2, precision), s)


def test_loc_poly_equality_across_representatives():
    one = WPoly.constant(witt.one(N), 2)
    s3 = sigma3_rho(N)
    assert LocPoly(s3, 1) == LocPoly(s3 * s3, 2)
    assert LocPoly(one, 0) != LocPoly(s3, 0)


def _tame(i, j):
    """u1^i u^j on the tame model: a 2-variable WPoly with a signed j."""
    return WPoly(2, N, {(i, j): witt.one(N)})


def test_laurent_wpoly_ring():
    u, u1, v1 = _tame(0, 1), _tame(1, 0), _tame(1, -2)
    assert u1 * u * u == _tame(1, 2)
    assert v1 * _tame(0, 2) == u1
    assert _tame(0, -8) * _tame(0, 8) == WPoly.constant(witt.one(N), 2)
    assert (v1 + v1 - v1) == v1
    assert (u - u).is_zero()


def test_render_writes_every_exponent_but_one():
    assert _tame(1, -2).render(["u1", "u"]) == "(1+0w)*u1*u^-2"
    assert _tame(0, -1).render(["u1", "u"]) == "(1+0w)*u^-1"
    assert _tame(3, 1).render(["u1", "u"]) == "(1+0w)*u1^3*u"


def test_render_smoke():
    f = WPoly(2, N, {(1, 0): witt.one(N)})
    assert "x1" in f.render()
