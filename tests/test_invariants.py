import pytest

import model_oracle as oracle
from stab23 import invariants as inv
from stab23 import stabilizer as stab
from stab23 import witt
from stab23.errors import PrecisionUnstable
from stab23.polys import LocPoly, WPoly, sigma3_rho, substitute_x3

N = 8


def test_action_pinning_passes():
    checks = inv.verify_action_pinning(N)
    assert all(checks.values())


def test_epsilon_square_exact_integer_identity():
    out = inv.verify_epsilon_square()
    assert out["full_identity"] and out["sigma1_zero_image"]


def test_epsilon_square_bounds_fit_the_precision():
    # the l1 norms bound every integer coefficient of the two differences,
    # so vanishing mod 3^EPS_PRECISION is vanishing over Z
    prec = inv.EPS_PRECISION
    M = 3**prec

    def signed(c):
        assert c.c1 == 0
        return c.c0 if c.c0 <= M // 2 else c.c0 - M

    def l1(p):
        return sum(abs(signed(c)) for c in p.coeffs.values())

    def l1_after_substitution(p):
        # x3 -> -x1-x2 sends c*x1^a x2^b x3^e to at most |c|*2^e in l1
        return sum(abs(signed(c)) * 2 ** m[2] for m, c in p.coeffs.items())

    s1, s2, s3 = (l1(inv.sigma(i, prec)) for i in (1, 2, 3))
    eps = l1(inv.epsilon(prec))
    full = eps**2 + 27 * s3**2 + 4 * s2**3 + 4 * s3 * s1**3 + 18 * s1 * s2 * s3 + s1**2 * s2**2
    eps_r, s2_r, s3_r = (
        l1_after_substitution(p) for p in (inv.epsilon(prec), inv.sigma(2, prec), inv.sigma(3, prec))
    )
    reduced = eps_r**2 + 27 * s3_r**2 + 4 * s2_r**3
    assert (full, reduced) == (522, 804)
    assert max(full, reduced) < 3**prec


def test_epsilon_specialization_trivial():
    # x1=1, x2=x3=0 kills both sides
    eps = inv.epsilon(N)
    val = witt.zero(N)
    for (e1, e2, e3), c in eps.coeffs.items():
        if e2 == 0 and e3 == 0:
            val = val + c
    assert val.is_zero()


def test_s_fixes_epsilon_and_sigmas():
    eps = inv.epsilon(N)
    assert inv.apply_gen("s", eps) == eps
    for i in (1, 2, 3):
        si = inv.sigma(i, N)
        assert inv.apply_gen("s", si) == si


def test_g24_words_and_lookup():
    words = inv.g24_words(N)
    assert len(words) == 24
    assert inv.word_of(stab.s_element(N)) == (1, 0, 0)
    assert inv.word_of(stab.t_element(N)) == (0, 1, 0)
    assert inv.word_of(stab.psi_element(N)) == (0, 0, 1)


def test_group_words_sizes():
    for name, size in [("C3", 3), ("C6", 6), ("C12", 12), ("G12", 12), ("Q8", 8), ("G24", 24)]:
        assert len(inv.group_words(name, N)) == size, name


def test_action_is_homomorphism_on_samples():
    # (g*h)(f) == g(h(f)) for the stabilizer-derived word arithmetic
    import random

    rng = random.Random(5)
    s, t, psi = stab.s_element(N), stab.t_element(N), stab.psi_element(N)
    f = inv.sigma(2, N) * inv.sigma(1, N) + inv.epsilon(N)
    for _ in range(10):
        w1 = tuple(rng.randrange(m) for m in (3, 4, 2))
        w2 = tuple(rng.randrange(m) for m in (3, 4, 2))
        g1 = (s ** w1[0]) * (t ** w1[1]) * (psi ** w1[2])
        g2 = (s ** w2[0]) * (t ** w2[1]) * (psi ** w2[2])
        w12 = inv.word_of(g1 * g2)
        assert inv.act_word(w12, f) == inv.act_word(w1, inv.act_word(w2, f))


def test_modular_quantities_identities():
    q = inv.modular_quantities(N)
    c4cube = q.c4 * q.c4 * q.c4
    lhs = q.c6 * q.c6 - c4cube
    assert lhs == q.Delta.scale(witt.from_int(27, N))
    assert q.sqrt_neg_Delta * q.sqrt_neg_Delta == -q.Delta


def test_modular_quantities_invariance():
    assert inv.g24_invariance_of_modular_quantities(N)


def test_delta_powers():
    # Delta = (w^2/4) * delta^4 as localized elements
    q = inv.modular_quantities(N)
    om = witt.omega(N)
    quarter = witt.from_int(4, N).inv()
    d = q.delta
    assert (d * d * d * d).scale(om**2 * quarter) == q.Delta


def test_norm_product_semi_invariance():
    Np = inv.norm_product(N)
    for w in inv.group_words("G12", N):
        assert inv.act_word(w, Np) == Np
    assert inv.act_word((0, 0, 1), Np) == -Np
    # the product is a unit multiple of sigma3^4
    s3 = inv.sigma(3, N)
    assert Np in (s3**4, -(s3**4))


def test_invariant_rank_cubics_sf():
    # DERIVED oracle: Burnside orbit count (10 + 2)/3 = 4
    b = inv.invariant_basis("C3", -6, ring="SF", precision=N)
    assert b.rank_over == "W"
    assert b.rank == inv.burnside_c3_rank_sf(3) == 4


def test_invariant_basis_rows_give_fixed_polynomials():
    # the rows are kept; only the requested ones become polynomials
    b = inv.invariant_basis("C3", -12, ring="SF", precision=6)
    polys = b.polynomials()
    assert len(polys) == b.rows.shape[0] == 2 * b.rank
    assert b.polynomials(4) == polys[:4]
    assert all(not p.is_zero() and inv.apply_gen("s", p) == p for p in polys)


def wpoly_generator_matrix(kind, precision, gen, t, r):
    """The generator matrix column by column: ``apply_gen`` on one-term
    polynomials in Witt arithmetic, then the twist of the numerators."""
    basis, nvars = inv.model_basis(kind, t, r), inv.MODEL_NVARS[kind]
    twist = witt.omega(precision) ** (-inv.SIGMA3_EXP[gen] * r)

    def image(mono, scalar):
        return inv.apply_gen(gen, WPoly(nvars, precision, {mono: scalar})).scale(twist)

    return oracle.w_coordinate_matrix(basis, basis, image, precision)


@pytest.mark.parametrize("precision", [4, 6, 8, 10])
@pytest.mark.parametrize("kind", ["SF", "Srho", "SrhoLoc"])
def test_model_matrix_matches_the_wpoly_action(kind, precision):
    # kron(B, Omega) against the action on polynomials, on every
    # generator: S(F) and S(rho) in degrees 0..-48, the localized model
    # in degrees -24..28 over sigma3^r for r = denominator(t) and r + 1;
    # and S(rho) in degree -140, where the binomial C(70, 35) of x3^70
    # is past int64
    if kind == "SrhoLoc":
        keys = [(t, r) for t in range(-24, 29)
                for r in (inv.denominator(kind, t), inv.denominator(kind, t) + 1)]
    else:
        keys = [(t, 0) for t in range(0, -49, -2)] + ([(-140, 0)] if kind == "Srho" else [])
    for gen in ("s", "t", "t2", "psi"):
        for t, r in keys:
            got = inv.model_matrix(kind, precision, gen, t, r)
            want = wpoly_generator_matrix(kind, precision, gen, t, r)
            assert got.dtype == want.dtype and got.shape == want.shape, (gen, t, r)
            assert (got == want).all(), (gen, t, r)


@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("kind", ["SF", "Srho", "SrhoLoc"])
def test_model_matrix_two_digits_up_reduces_to_the_matrix_at_n(kind, N):
    # every generator matrix at precision N + 2, read mod 3^N, is the one
    # built at N, dtype included: S(F) and S(rho) in degrees 0..-48, the
    # localized model in degrees -48..48 over sigma3^r, r = denominator(t)
    ts = range(-48, 49, 2) if kind == "SrhoLoc" else range(-48, 1, 2)
    for gen in inv.GEN_ACTION:
        for t in ts:
            r = inv.denominator(kind, t)
            got = inv.model_matrix(kind, N + 2, gen, t, r) % 3**N
            want = inv.model_matrix(kind, N, gen, t, r)
            assert got.dtype == want.dtype and got.shape == want.shape, (gen, t)
            assert (got == want).all(), (gen, t)


@pytest.mark.parametrize("deg", range(0, 26, 2))
def test_burnside_oracle_matches_kernel_sf(deg):
    b = inv.invariant_basis("C3", -deg, ring="SF", precision=6)
    assert b.rank == inv.burnside_c3_rank_sf(deg // 2)


@pytest.mark.parametrize("abs_t", range(0, 50, 2))
def test_srho_c3_hilbert_series(abs_t):
    b = inv.invariant_basis("C3", -abs_t, ring="Srho", precision=6)
    assert b.rank == inv.hilbert_srho_c3(abs_t), abs_t


def test_degree_zero_invariants_every_subgroup():
    # constants: W for the W-linear groups, Z3 when psi (Frobenius) is present
    for name in inv.GROUP_GENS:
        b = inv.invariant_basis(name, 0, ring="Srho", precision=4)
        assert b.rank == 1, name


def _tame(i, j, coeff=None):
    """coeff * u1^i u^j on the tame model, a 2-variable WPoly."""
    return WPoly(2, N, {(i, j): coeff or witt.one(N)})


def test_act_tame_examples():
    om_el = stab.omega_element(N)
    om = witt.omega(N)
    u = _tame(0, 1)
    assert oracle.act_tame(om_el, u) == _tame(0, 1, om)
    # v1 = u1 u^-2 is fixed by omega
    v1 = _tame(1, -2)
    assert oracle.act_tame(om_el, v1) == v1
    # phi fixes u and cubes omega
    phi = stab.phi_element(N)
    assert oracle.act_tame(phi, u) == u
    om_u = _tame(0, 1, om)
    assert oracle.act_tame(phi, om_u) == _tame(0, 1, om**3)


def test_act_tame_rejects_wild_elements():
    with pytest.raises(ValueError):
        oracle.act_tame(stab.s_element(N), _tame(0, 1))


def test_q8_fixes_omega_squared_u_fourth():
    om = witt.omega(N)
    gen = _tame(0, 4, om**2)
    t_el = stab.t_element(N)
    psi_el = stab.psi_element(N)
    assert oracle.act_tame(t_el, gen) == gen
    assert oracle.act_tame(psi_el, gen) == gen
    # but omega itself moves it (it only lies in the order-8 fixed ring)
    assert oracle.act_tame(stab.omega_element(N), gen) != gen


@pytest.mark.parametrize("precision", [5, 7])
@pytest.mark.parametrize("group", ["SD16", "Q8"])
def test_tame_ops_match_the_wpoly_action(group, precision):
    # the block diagonal of scalar matrices against act_tame on one-term
    # polynomials, the generators found by search over the 16 products
    for j in range(-30, 31):
        got, want = inv._tame_ops(group, j, precision), oracle.tame_ops(group, j, precision)
        assert len(got) == len(want) == 2
        for A, B in zip(got, want):
            assert A.dtype == B.dtype and A.shape == B.shape, (j, A.shape)
            assert (A == B).all(), j


def test_tame_gen_action_names_the_generators():
    # (a, e) of each generator is omega^a phi^e in the stabilizer group
    om, phi = stab.omega_element(N), stab.phi_element(N)
    for group, elements in oracle.TAME_GENERATORS.items():
        for (a, e), element in zip(inv.TAME_GEN_ACTION[group], elements, strict=True):
            assert (om**a) * (phi**e) == element(N), (group, a, e)
    assert inv.groups_for_ring("tame") == ("SD16", "Q8")


def test_product_matrix_matches_the_wpoly_product():
    # multiplication by the numerators of c4 (over sigma3^2) and c6 (over
    # sigma3^3), from each degree-t piece of the localized model to its
    # target piece, as in multiplication_kills
    q = inv.modular_quantities(4)
    for f, t_shift in ((q.c4, 8), (q.c6, 12)):
        for t in range(-24, 25, 2):
            r = inv.denominator("SrhoLoc", t)
            src = inv.model_basis("SrhoLoc", t, r)
            tgt = inv.model_basis("SrhoLoc", t + t_shift, r + f.r)
            got, want = inv.product_matrix(src, tgt, f.num), oracle.product_matrix(src, tgt, f.num)
            assert got.dtype == want.dtype and got.shape == want.shape, (t_shift, t)
            assert (got == want).all(), (t_shift, t)


@pytest.mark.parametrize("t", range(-24, 25, 2))
def test_tame_fixed_rings_match_predicted_spans(t):
    for group in ("SD16", "Q8"):
        got = inv.tame_fixed_rank(group, t)
        assert got == inv.predicted_tame_rank(group, t), (group, t)


def test_loc_poly_canonicalization():
    # sigma3^2 / sigma3^3 is the fraction 1 / sigma3, and not 1
    s3 = sigma3_rho(N)
    one = WPoly.constant(witt.one(N), 2)
    assert LocPoly(s3 * s3, 3) == LocPoly(one, 1)
    assert LocPoly(s3 * s3, 3) != LocPoly(one, 0)


@pytest.mark.parametrize("precision", range(4, 9))
def test_c4_c6_identity_with_operands_over_other_denominators(precision):
    q = inv.modular_quantities(precision)
    s3 = sigma3_rho(precision)
    c4 = LocPoly(q.c4.num * s3, q.c4.r + 1)
    Delta = LocPoly(q.Delta.num * s3**2, q.Delta.r + 2)
    twenty_seven = witt.from_int(27, precision)
    lhs = q.c6 * q.c6 - c4 * q.c4 * c4
    assert lhs == Delta.scale(twenty_seven) == q.Delta.scale(twenty_seven)
    assert q.c6 * q.c6 != c4 * q.c4 * c4


@pytest.mark.parametrize("t", [-12, -6, 0, 6, 12])
def test_localized_fixed_rank_matches_window_hilbert(t):
    from stab23.cohomology import fixed_rank

    got = fixed_rank("C3", "SrhoLoc", t)
    assert got == 2 * inv.hilbert_srho_c3(6 * inv.denominator("SrhoLoc", t) - t)


def test_tame_fixed_rank_rechecks_at_higher_precision(monkeypatch):
    seen = []
    real = inv.linalg.fixed_basis

    def spy(ops, m):
        seen.append((m, max(int(op.max()) for op in ops)))
        return real(ops, m)

    monkeypatch.setattr(inv.linalg, "fixed_basis", spy)
    assert inv.tame_fixed_rank("SD16", -8) == 3
    # the second run rebuilds the operators at N+2, not only the modulus
    (m1, top1), (m2, top2) = seen
    assert (m1, m2) == (5, 7)
    assert top1 < 3**5 <= top2 < 3**7


def test_tame_fixed_rank_refuses_an_unstable_rank(monkeypatch):
    real = inv.linalg.fixed_basis
    monkeypatch.setattr(
        inv.linalg, "fixed_basis", lambda ops, m: real(ops, m)[: 1 if m > 5 else None]
    )
    with pytest.raises(PrecisionUnstable, match="at N\\+2"):
        inv.tame_fixed_rank("SD16", -8)
