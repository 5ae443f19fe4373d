"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is exact (these are identities over Z/3^N, Z, or F3).
Where a criterion shares a check with a CLI suite it calls the same
library verdict and requires it to be True (not None); the two
property-based criteria (7, 8) also print the observed data alongside.
"""

import random
from fractions import Fraction

import pytest

from stab23 import charts
from stab23 import cohomology as coh
from stab23 import invariants as inv
from stab23 import minres
from stab23 import quotients
from stab23 import resolution as res
from stab23 import stabilizer as stab
from stab23 import witt

N = 8
M = 3**N


def _verdict(num, title, ok):
    print(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {title}"


# -- 1: group relations ------------------------------------------------------------

def test_criterion_1_group_relations():
    # the relations and the orders of G12, G24, SD16, Q8 and C3
    ok = stab.verify_relations(N)[1] is True
    rng = random.Random(1)
    S = stab.S_element(N)
    for _ in range(25):
        a = witt.WittElement(rng.randrange(M), rng.randrange(M), N)
        if not a.is_unit():
            continue
        ok = ok and S * stab.from_witt(a) == stab.from_witt(a.frobenius()) * S
    # every named subgroup embeds in the level-1 quotient
    ok = ok and quotients.verify_quotient(1, N)[1] is True
    _verdict(1, "group relations and subgroup orders", ok)


# -- 2: reduced determinant ---------------------------------------------------------

def test_criterion_2_reduced_determinant():
    # every element of every named subgroup has principal determinant 1
    ok = all(stab.verify_subgroup(name, N)[1] is True for name in stab.SUBGROUP_ORDERS)
    om = stab.omega_element(N)
    ok = ok and om.det() == M - 1 and stab.reduced_det(om) == (-1, 1)
    rng = random.Random(2)
    for _ in range(25):
        a = rng.randrange(1, M)
        if a % 3 == 0:
            continue
        ok = ok and stab.central(a, N).det() == (a * a) % M
    _verdict(2, "reduced determinant splitting", ok)


# -- 3: polynomial identities -------------------------------------------------------

def test_criterion_3_polynomial_identities():
    out = inv.verify_epsilon_square()
    ok = out["full_identity"] and out["sigma1_zero_image"]
    quantities = inv.modular_quantities(N)
    c4, c6, Delta = quantities.c4, quantities.c6, quantities.Delta
    ok = ok and (c6 * c6 - c4 * c4 * c4) == Delta.scale(witt.from_int(27, N))
    ok = ok and quantities.sqrt_neg_Delta * quantities.sqrt_neg_Delta == -Delta
    ok = ok and inv.g24_invariance_of_modular_quantities(N)
    Np = inv.norm_product(N)
    for w in inv.group_words("G12", N):
        ok = ok and inv.act_word(w, Np) == Np
    ok = ok and inv.act_word((0, 0, 1), Np) == -Np
    _verdict(3, "exact polynomial identities", ok)


# -- 4: invariant Hilbert series ------------------------------------------------------

def test_criterion_4_invariant_hilbert_series():
    # Hilbert series on S(rho), the Burnside-count oracle on the
    # three-variable model, and the predicted spans of the tame rings
    ok = inv.verify_invariants("Srho", "C3", 48)[1] is True
    ok = ok and inv.verify_invariants("SF", "C3", 24)[1] is True
    for group in ("SD16", "Q8"):
        ok = ok and inv.verify_invariants("tame", group, 24)[1] is True
    _verdict(4, "invariant ring Hilbert series", ok)


# -- 5: cohomology tables --------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.usefixtures("drop_sf_caches")
def test_criterion_5_cohomology_tables():
    ok = True
    for t in range(0, -49, -2):
        ok = ok and coh.h_dim("C3", "SF", 1, t) == 0
    # s = 0: the transfer cokernel; s >= 1: the CLI's pattern verdict
    for t in range(-12, 13, 2):
        ok = ok and coh.transfer_cokernel_dim("SrhoLoc", t) == coh.pattern_dim("C3", 0, t)
    ok = ok and coh.verify_pattern("C3", 8, -12, 12)[1] is True
    for g in ("C6", "C12", "G12", "G24"):
        period = 12 if g in ("C6", "C12") else 24
        ok = ok and coh.verify_pattern(g, 8, -period, period)[1] is True
    # module structure: c4 and c6 act trivially on alpha and beta
    om = witt.omega(4)
    half = witt.from_int(2, 4).inv()
    c4n = inv.sigma(2, 4, nvars=2).scale(-(om**2))
    c6n = inv.epsilon(4, nvars=2).scale(om**3 * half)
    for (s, t) in [(1, 4), (2, 12)]:
        ok = ok and coh.multiplication_kills(s, t, c4n, 2, 8)
        ok = ok and coh.multiplication_kills(s, t, c6n, 3, 12)
    _verdict(5, "cohomology tables and transfer cokernels", ok)


# -- 6: spectral sequence ---------------------------------------------------------------

def test_criterion_6_spectral_sequence():
    # the generator list over two periodicity blocks, and the tower's
    # vanishing inputs, as the chart suites decide them
    einf, ok = charts.verify_chart("G24", (-2, 118))
    ok = ok is True and charts.d5_d9_are_the_only_pages(einf)
    ok = ok and charts.verify_tower((-4, 30))[1] is True
    for g in ("C3", "C6", "C12", "G12", "G24"):
        ch = charts.e_infinity(g, (22, 30), s_max=16)
        ok = ok and charts.homotopy_table(ch, [25])[25].vanishes
    for g in ("SD16", "Q8"):
        ch = charts.e_infinity(g, (-1, 30))
        tab = charts.homotopy_table(ch, [1, 25])
        ok = ok and tab[1].vanishes and tab[25].vanishes
    for g in ("C6", "C12", "G12", "G24", "SD16", "Q8"):
        ch = charts.e_infinity(g, (22, 30), s_max=16)
        ok = ok and charts.homotopy_table(ch, [26])[26].vanishes
    tab27 = charts.homotopy_table(charts.e_infinity("G24", (24, 30), s_max=16), [27])
    ok = ok and tab27[27].zero_line_rank == 0 and tab27[27].classes == [(1, "D*a", 1)]
    for g, period in charts.PERIODS.items():
        rep = charts.periodicity_check(g)
        ok = ok and rep["ok"] and rep["period"] == period
    _verdict(6, "spectral sequence E-infinity and vanishing", ok)


# -- 7: resolution at finite level --------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_resolution():
    # transitions 5/2 -> 2 -> 3/2 at m=1: the interior homology must be
    # pro-trivial (die within the tested tower); per-step verdicts reported
    tower, ok_tower = res.verify_tower([Fraction(5, 2), Fraction(2), Fraction(3, 2)], 1, N)
    print(f"  transition steps: {tower['transitions']['step_zero']}")
    print(f"  composite 5/2 -> 3/2: {tower['transitions']['composite_zero']}")
    _, ok_mod2 = res.verify_tower([Fraction(2)], 2, N)
    _verdict(7, "finite-level resolution protocol", ok_tower is True and ok_mod2 is True)


# -- 8: cohomology of the finite 3-quotients ------------------------------------------------

@pytest.mark.slow
def test_criterion_8_sylow_cohomology():
    # colimit monotonicity: stable-image ranks never decrease with the
    # level and never exceed the detected limit dimensions
    report, ok = minres.verify_inflation([Fraction(1), Fraction(3, 2), Fraction(2)], 4, N)
    stabilization = report["stabilization"]
    # H^0 and H^1 must have reached their targets already at desk scale
    ok = ok is True and all(stabilization[n] != "beyond tested range" for n in ("0", "1"))
    print(f"  raw dims: {report['raw_dims']}")
    print(f"  stable image ranks into P(2): {report['through_image_ranks']}")
    print(f"  target {report['target']}; observed stabilization levels: {stabilization}")
    _verdict(8, "finite 3-quotient cohomology monotonicity", ok)
