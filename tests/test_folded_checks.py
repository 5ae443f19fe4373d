"""Each check that a suite asserts on the way fires on a broken ingredient:
the library call raises CheckFailed, and the CLI run exits 1 with the
check's message."""

import dataclasses
from fractions import Fraction

import pytest
from click.testing import CliRunner

from stab23 import charts
from stab23 import cohomology as coh
from stab23 import invariants as inv
from stab23 import quotients as q
from stab23 import stabilizer as stab
from stab23 import witt
from stab23.cli import main
from stab23.errors import CheckFailed
from stab23.polys import LocPoly, WPoly


def _cli(tmp_path, args):
    return CliRunner().invoke(main, ["--out", str(tmp_path)] + args, catch_exceptions=False)


@pytest.fixture()
def fresh_cells():
    """Empty the cohomology caches before and after: a broken ingredient
    must neither be hidden by cells computed earlier nor leak into later tests."""
    coh.invariant_cell.cache_clear()
    coh._C3_CELLS.clear()
    coh._SUBQUOTIENTS.clear()
    yield
    coh.invariant_cell.cache_clear()
    coh._C3_CELLS.clear()
    coh._SUBQUOTIENTS.clear()


# -- group verify-relations: the unit identities --------------------------------------

def test_relations_assert_the_unit_identities(tmp_path, monkeypatch):
    # a product without the Frobenius twist breaks S a = phi(a) S
    def untwisted(self, other):
        three = witt.from_int(3, self.precision)
        return (self.a * other.a + three * self.b * other.b, self.a * other.b + self.b * other.a)

    with monkeypatch.context() as mp:
        mp.setattr(stab.StabilizerElement, "_unit_mul", untwisted)
        with pytest.raises(CheckFailed, match="phi\\(a\\) S"):
            stab.verify_relations(8)
    # a torsion part read off the wrong residue
    monkeypatch.setattr(stab, "reduced_det", lambda g: (1, 1))
    r = _cli(tmp_path, ["group", "verify-relations"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: det omega" in r.output


# -- group quotient: the enumerated order ----------------------------------------------

def test_finite_quotient_asserts_its_order(tmp_path, monkeypatch):
    real = q.full_quotient_order
    monkeypatch.setattr(q, "full_quotient_order", lambda level: 3 * real(level))
    with pytest.raises(CheckFailed, match="has 432 elements, not 1296"):
        q.finite_quotient(Fraction(3, 2))
    r = _cli(tmp_path, ["group", "quotient", "--level", "1"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: G(1) has 144 elements, not 432" in r.output


# -- invariants --ring SrhoLoc: the identities of the modular quantities ---------------

def test_localized_invariants_assert_the_characters(tmp_path, monkeypatch):
    # psi acting on delta by one more power of omega than it does
    delta = inv.modular_quantities().delta
    real = inv.act_loc

    def wrong(word, f):
        out = real(word, f)
        return out.scale(witt.omega(f.precision)) if word == (0, 0, 1) and f == delta else out

    monkeypatch.setattr(inv, "act_loc", wrong)
    with pytest.raises(CheckFailed, match="psi\\(delta\\)"):
        inv.verify_invariants("SrhoLoc", "C3", 0)
    r = _cli(tmp_path, ["invariants", "--ring", "SrhoLoc", "--group", "G24", "--max-degree", "6"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: psi(delta) != w^5 delta" in r.output


def test_localized_invariants_assert_the_epsilon_square(tmp_path, monkeypatch):
    # an extra x1^3 term in the antisymmetric cubic breaks eps^2 = disc
    real = inv.epsilon

    def wrong(precision, nvars=3):
        x1 = WPoly.variable(0, nvars, precision)
        return real(precision, nvars) + x1 * x1 * x1

    monkeypatch.setattr(inv, "epsilon", wrong)
    with pytest.raises(CheckFailed, match="epsilon\\^2 identity failed"):
        inv.verify_epsilon_square()
    r = _cli(tmp_path, ["invariants", "--ring", "SrhoLoc", "--group", "G24", "--max-degree", "6"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: epsilon^2 identity failed" in r.output


@pytest.mark.parametrize("wrong, message", [
    # one factor too many: t scales sigma3 by w^6
    (lambda Np, n: Np * inv.sigma(3, n), "moved under G12"),
    # a W-multiple: psi is Frobenius-semilinear, so w Np goes to -w^3 Np
    (lambda Np, n: Np.scale(witt.omega(n)), "psi\\(norm product\\)"),
], ids=["extra-factor", "w-multiple"])
def test_localized_invariants_assert_the_norm_product(monkeypatch, wrong, message):
    real = inv.norm_product
    monkeypatch.setattr(inv, "norm_product", lambda n: wrong(real(n), n))
    with pytest.raises(CheckFailed, match=message):
        inv.verify_invariants("SrhoLoc", "C3", 0)


# -- cohomology: tr o res = 3 in c3_degree, c4 and c6 on alpha and beta ----------------

@pytest.mark.usefixtures("fresh_cells")
def test_c3_degree_asserts_transfer_after_restriction(tmp_path, monkeypatch):
    # the first basis vector of each saturated kernel moved off the fixed line
    real = coh.saturated_kernel_reduced

    def skewed(A_hi, m_work, m_report):
        ker = real(A_hi, m_work, m_report).copy()
        if ker.shape[0]:
            ker[0, 0] = (ker[0, 0] + 1) % 3**m_report
        return ker

    monkeypatch.setattr(coh, "saturated_kernel_reduced", skewed)
    with pytest.raises(CheckFailed, match="transfer after restriction is not 3"):
        coh.c3_degree("SrhoLoc", 0, coh.PRECISION, coh.denominator("SrhoLoc", 0))
    # degree 6 has degree 0's generator matrix; the failure names the degree asked for
    with pytest.raises(CheckFailed, match="fixed line of SrhoLoc_6$"):
        coh.c3_degree("SrhoLoc", 6, coh.PRECISION, coh.denominator("SrhoLoc", 6))
    r = _cli(tmp_path, ["cohomology", "--group", "C3", "--smax", "1", "--tmin", "0", "--tmax", "0"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: transfer after restriction is not 3 on the fixed line of SrhoLoc_0" in r.output


@pytest.mark.usefixtures("fresh_cells")
def test_c3_pattern_asserts_that_c4_and_c6_kill_alpha_and_beta(tmp_path, monkeypatch):
    # delta^2 has the degree of c6 but acts as an isomorphism on alpha
    real = coh.modular_quantities
    delta2 = LocPoly(WPoly.constant(witt.one(coh.PRECISION), 2), 2)
    monkeypatch.setattr(coh, "modular_quantities", lambda n: dataclasses.replace(real(n), c6=delta2))
    with pytest.raises(CheckFailed, match="c6 does not act trivially on H\\^1"):
        coh.verify_pattern("C3", 2, -12, 12)
    # a window without the alpha and beta cells does not read them
    assert coh.verify_pattern("C3", 2, -12, 2)[1] is True
    r = _cli(tmp_path, ["cohomology", "--group", "C3", "--smax", "2", "--tmin", "12", "--tmax", "12"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: c6 does not act trivially on H^2(C3, A_12)" in r.output


def test_cohomology_asserts_that_every_cell_is_elementary(tmp_path, monkeypatch):
    # a Z/9 factor in every cell: the report would call it elementary
    real = coh.invariant_cell
    monkeypatch.setattr(coh, "invariant_cell",
                        lambda *key: dataclasses.replace(real(*key), invariants=[2]))
    with pytest.raises(CheckFailed, match="H\\^1\\(C3, SrhoLoc_4\\) is not elementary"):
        coh.h_dim("C3", "SrhoLoc", 1, 4)
    r = _cli(tmp_path, ["cohomology", "--group", "G24", "--smax", "2", "--tmin", "0", "--tmax", "4"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: H^1(G24, SrhoLoc_0) is not elementary" in r.output


# -- chart: periodicity and vanishing stems; chart --tower: pi_27 ----------------------

def test_chart_asserts_its_period(tmp_path, monkeypatch):
    # d9 on a third of the delta-powers it should leave the chart from
    monkeypatch.setattr(charts, "_d9_kills", lambda c: c.eps == 1 and c.k % 9 == 2)
    with pytest.raises(CheckFailed, match="E-infinity of C6 is not 36-periodic"):
        charts.verify_chart("C6", (-1, 74))
    r = _cli(tmp_path, ["chart", "--group", "C3", "--stems=-1..38"])
    assert r.exit_code == 1, r.output
    assert "assertion failed: E-infinity of C3 is not 18-periodic" in r.output


def test_chart_asserts_the_vanishing_stems(monkeypatch):
    # a 0-line in every degree
    monkeypatch.setattr(charts, "zero_line_rank", lambda group, t: 1)
    with pytest.raises(CheckFailed, match="pi_25 of the G24 chart"):
        charts.verify_chart("G24", (20, 30))
    with pytest.raises(CheckFailed, match="pi_1 of the Q8 chart"):
        charts.verify_chart("Q8", (-1, 5))
    # windows without a vanishing stem are not read there
    assert charts.verify_chart("Q8", (2, 20))[1] is None


def test_tower_requires_the_one_class_d_alpha(tmp_path, monkeypatch):
    # one class in stem 27 is not enough: it must be D*a in filtration 1
    monkeypatch.setitem(charts.UNIT_NAME, "G24", "U")
    assert charts.verify_tower((-4, 30))[1] is False
    r = _cli(tmp_path, ["chart", "--tower", "--stems=-4..30"])
    assert r.exit_code == 1, r.output
    assert "FAILED: chart-tower" in r.output
