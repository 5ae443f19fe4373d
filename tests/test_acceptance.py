"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is exact (these are identities over Z/3^N, Z, or F3).
Where a criterion shares a check with a CLI suite it calls the same
library verdict and requires it to be True (not None); the two
property-based criteria (7, 8) also print the observed data alongside.
"""

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


def _verdict(num, title, ok):
    print(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {title}"


# -- 1: group relations ------------------------------------------------------------

def test_criterion_1_group_relations():
    # the relations, S a = phi(a) S on fixed units, the orders of G12,
    # G24, SD16, Q8 and C3, and every named subgroup in the level-1 quotient
    ok = stab.verify_relations(N)[1] is True
    ok = ok and quotients.verify_quotient(1, N)[1] is True
    _verdict(1, "group relations and subgroup orders", ok)


# -- 2: reduced determinant ---------------------------------------------------------

def test_criterion_2_reduced_determinant():
    # every element of every named subgroup has principal determinant 1;
    # det omega = -1 and det(central a) = a^2 are asserted by verify_relations
    ok = all(stab.verify_subgroup(name, N)[1] is True for name in stab.SUBGROUP_ORDERS)
    ok = ok and stab.verify_relations(N)[1] is True
    _verdict(2, "reduced determinant splitting", ok)


# -- 3: polynomial identities -------------------------------------------------------

def test_criterion_3_polynomial_identities():
    # eps^2 over Z, c6^2 - c4^3 = 27 Delta, ((-Delta)^(1/2))^2 = -Delta, the
    # G24 characters and the norm product, asserted by the localized suite
    # at N = witt.DEFAULT_PRECISION
    assert witt.DEFAULT_PRECISION == N
    ok = inv.verify_invariants("SrhoLoc", "C3", 12)[1] is True
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
def test_criterion_5_cohomology_tables(drop_sf_caches):
    # H^1(C3, S(F)) vanishes.  No suite computes S(F) cohomology, and a
    # suite home would need a new CLI option (cohomology --ring SF), so
    # this sweep is the one check loop kept here
    ok = True
    for t in range(0, -49, -2):
        ok = ok and coh.h_dim("C3", "SF", 1, t) == 0
        drop_sf_caches()
    # the pattern verdicts; the s = 2 row of the C3 run is the transfer
    # cokernel, and that run asserts that c4 and c6 kill alpha and beta
    ok = ok and coh.verify_pattern("C3", 8, -12, 12)[1] is True
    for g in ("C6", "C12", "G12", "G24"):
        period = 12 if g in ("C6", "C12") else 24
        ok = ok and coh.verify_pattern(g, 8, -period, period)[1] is True
    _verdict(5, "cohomology tables and transfer cokernels", ok)


# -- 6: spectral sequence ---------------------------------------------------------------

def test_criterion_6_spectral_sequence():
    # the generator list over two periodicity blocks; each chart run asserts
    # pi_25 = 0, pi_26 = 0 where -1 is in the group, pi_1 = 0 for the tame
    # groups and, on two periods, the periodicity; the tower run requires
    # pi_27 of E^hG24 to be the one class D*a
    ok = charts.verify_chart("G24", (-2, 118))[1] is True
    ok = ok and charts.verify_tower((-4, 30))[1] is True
    # two periods from stem -1, reaching stems 25 and 26 for Q8 as well
    for g, period in charts.PERIODS.items():
        want = None if g in charts.TAME else True
        ok = ok and charts.verify_chart(g, (-1, max(2 * period + 2, 27)))[1] is want
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
