import numpy as np
import pytest

import linalg_oracle as oracle
from stab23 import cohomology as coh
from stab23 import invariants as inv
from stab23 import witt
from stab23.errors import PrecisionMismatch


LOC = "SrhoLoc"


def _transfer_cokernel_dim(kind, t):
    """dim_F3 of coker(tr : M_t -> M_t^{C3}): the even C3 cell."""
    return coh.c3_degree(kind, t, coh.PRECISION, coh.denominator(kind, t)).even.dim_f3


def _pattern_dim_unlocalized(kind, s, t):
    """Oracle: F9[b, d] over S(F), F9[a, b, d]/(a^2) over S(rho); d-powers >= 0."""
    count = 0
    for eps in (0,) if kind == "SF" else (0, 1):
        j2, rem = s - eps, -(t + 2 * eps)
        if j2 >= 0 and j2 % 2 == 0 and rem >= 0 and rem % 6 == 0:
            count += 1
    return 2 * count


@pytest.mark.usefixtures("drop_sf_caches")
def test_h1_c3_sf_vanishes():
    for t in range(0, -25, -2):
        assert coh.h_dim("C3", "SF", 1, t) == 0, t
        assert coh.h_dim("C3", "SF", 3, t) == 0, t


@pytest.mark.usefixtures("drop_sf_caches")
def test_sf_transfer_cokernel_is_f9_b_d():
    # F9[b, d] pattern: rank 2 over F3 at (2k, -6j)
    for s in (0, 2, 4):
        for t in range(0, -25, -2):
            got = _transfer_cokernel_dim("SF", t) if s == 0 else coh.h_dim("C3", "SF", s, t)
            assert got == _pattern_dim_unlocalized("SF", max(s, 2), t), (s, t)


@pytest.mark.usefixtures("drop_sf_caches")
def test_h0_c3_sf_degree_zero():
    # constants: W is free of rank 2 over Z3
    assert coh.fixed_rank("C3", "SF", 0) == 2


def test_localized_c3_matches_pattern():
    for s in range(1, 5):
        for t in range(-26, 27, 2):
            assert coh.h_dim("C3", LOC, s, t) == coh.pattern_dim("C3", s, t), (s, t)


def test_localized_transfer_cokernel():
    # s = 0 line of the pattern: the F9 delta-power lines
    for t in range(-26, 27, 2):
        assert _transfer_cokernel_dim(LOC, t) == coh.pattern_dim("C3", 0, t), t


def test_specific_bidegrees():
    assert coh.h_dim("C3", LOC, 1, -2) == 2      # the class a
    assert coh.h_dim("C3", LOC, 1, -8) == 2      # a*d
    assert coh.h_dim("C3", LOC, 1, 0) == 0
    assert coh.h_dim("C3", LOC, 1, 4) == 2       # alpha line over F9
    assert coh.h_dim("C3", LOC, 2, 12) == 2      # beta line over F9


def test_truncation_stability():
    # one more power of sigma3 in the denominator leaves the cell unchanged
    for (s, t) in [(1, 4), (2, 12), (1, -2), (2, 0)]:
        r = coh.denominator(LOC, t)
        cells = [coh.c3_degree(LOC, t, coh.PRECISION, rr).cell(s) for rr in (r, r + 1)]
        assert cells[0].dim_f3 == cells[1].dim_f3, (s, t)


def test_cells_are_elementary():
    for t in (-6, 0, 4, 12):
        deg = coh.c3_degree(LOC, t, coh.PRECISION, coh.denominator(LOC, t))
        for cell in (deg.odd, deg.even):
            assert all(e == 1 for e in cell.invariants)


def test_cached_arrays_are_read_only():
    t = 12
    r = coh.denominator(LOC, t)
    deg = coh.c3_degree(LOC, t, coh.PRECISION, r)
    cell = coh.invariant_cell("G24", LOC, 2, t, coh.PRECISION)
    for a in (inv.gen_matrix(LOC, 6, "s", t, r), deg.fixed.K, deg.odd.K, deg.odd.I,
              deg.even.I, cell.K):
        assert a.size
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1


def _cell_arrays(deg):
    return [a for cell in (deg.fixed, deg.odd, deg.even) for a in (cell.K, cell.I, cell.HI.rows)]


def test_degrees_with_one_generator_matrix_share_their_cells(drop_sf_caches):
    # s acts on the degree-0 and degree-6 pieces by the same matrix
    N = coh.PRECISION
    S0, S6 = (inv.gen_matrix(LOC, N + coh.SAT_SLACK, "s", t, r) for t, r in ((0, 2), (6, 3)))
    assert np.array_equal(S0, S6) and S0.dtype == S6.dtype
    drop_sf_caches()
    alone = coh.c3_degree(LOC, 6, N, 3)
    drop_sf_caches()
    deg = coh.c3_degree(LOC, 0, N, 2)
    assert coh.c3_degree(LOC, 6, N, 3) is deg
    assert len(coh._C3_CELLS) == 1
    for a, b in zip(_cell_arrays(deg), _cell_arrays(alone), strict=True):
        assert np.array_equal(a, b)
    assert [c.invariants for c in (deg.fixed, deg.odd, deg.even)] == [
        c.invariants for c in (alone.fixed, alone.odd, alone.even)
    ]


def test_cells_at_n_and_n_plus_2_are_separate_entries(drop_sf_caches):
    drop_sf_caches()
    r = coh.denominator(LOC, 0)
    low, high = (coh.c3_degree(LOC, 0, m, r) for m in (coh.PRECISION, coh.PRECISION + 2))
    assert len(coh._C3_CELLS) == 2
    assert low is not high
    assert low.fixed.invariants == [coh.PRECISION] * low.fixed.dim_f3
    assert high.fixed.invariants == [coh.PRECISION + 2] * high.fixed.dim_f3


def test_cold_g24_pattern_runs_two_smith_forms_per_distinct_generator_matrix(
    drop_sf_caches, monkeypatch
):
    # the saturated kernels of s - 1 and of the norm, once per (S, m)
    from stab23 import linalg

    drop_sf_caches()
    calls = []
    real = linalg.smith_kernel

    def counted(A, m):
        calls.append(m)
        return real(A, m)

    monkeypatch.setattr(linalg, "smith_kernel", counted)
    _, ok = coh.verify_pattern("G24", 8, -24, 24)
    assert ok
    pairs = set()
    for m in (coh.PRECISION, coh.PRECISION + 2):
        for t in range(-24, 25, 2):
            r = coh.denominator(LOC, t)
            if inv.model_basis(LOC, t, r):
                S = inv.gen_matrix(LOC, m + coh.SAT_SLACK, "s", t, r)
                pairs.add((S.tobytes(), S.shape, S.dtype.str, m))
    assert len(calls) == 2 * len(pairs)


def test_cold_g24_pattern_eliminates_each_subquotient_once(drop_sf_caches, monkeypatch):
    # every cell of the window is elementary, so no layer is eliminated, and
    # a fixed subquotient met again is read from the memo
    from stab23 import linalg

    drop_sf_caches()
    seen, layers = [], []
    real = linalg.quotient_invariants

    def recorded(K, I, m, HK=None, HI=None):
        seen.append(tuple(a.tobytes() for a in (K, I)) + (K.shape, I.shape, m))
        return real(K, I, m, HK, HI)

    monkeypatch.setattr(linalg, "quotient_invariants", recorded)
    monkeypatch.setattr(linalg, "span_log_size", lambda rows, m: layers.append(m))
    _, ok = coh.verify_pattern("G24", 8, -24, 24)
    assert ok
    assert seen and len(seen) == len(set(seen))
    assert layers == []


@pytest.mark.parametrize("group", ["C6", "C12", "G12", "G24"])
@pytest.mark.parametrize("m", [coh.PRECISION, coh.PRECISION + 2])
def test_fixed_subquotient_matches_the_kernel_route(group, m):
    # the fixed y off one Howell form against the kernel of the operator
    # blocks beside -I^T: the same span, and so the same invariant factors
    from stab23 import linalg

    compared = 0
    for t in range(-24, 25, 2):
        r = coh.denominator(LOC, t)
        for s in range(1, 5):
            cell = coh.c3_degree(LOC, t, m, r).cell(s)
            if not cell.dim_f3:
                continue
            ops = coh._ops_for(group, LOC, s, t, m, r)
            new = coh._fixed_subquotient(cell, ops, m)
            old = oracle.fixed_subquotient_span(cell.K, cell.I, ops, m)
            H, H_old = linalg.howell(new.K, m), linalg.howell(old, m)
            assert np.array_equal(H.rows, H_old.rows), (group, s, t)
            assert (H.pivot_cols, H.pivot_vals) == (H_old.pivot_cols, H_old.pivot_vals)
            assert new.invariants == linalg.quotient_invariants(old, cell.I, m, HI=cell.HI)
            compared += 1
    assert compared


@pytest.mark.parametrize("group", ["C6", "C12", "G12", "G24"])
def test_variant_tables_match_patterns(group):
    for s in range(1, 5):
        for t in range(-14, 29, 2):
            assert coh.h_dim(group, LOC, s, t) == coh.pattern_dim(group, s, t), (group, s, t)


def test_g24_alpha_beta_cells():
    assert coh.h_dim("G24", LOC, 1, 4) == 1        # alpha
    assert coh.h_dim("G24", LOC, 2, 12) == 1       # beta
    assert coh.h_dim("G24", LOC, 1, 28) == 1       # Delta*alpha
    assert coh.h_dim("G24", LOC, 5, 4) == 1        # period-4 reduction


def test_fixed_rank_two_routes_agree():
    for group in ("C3", "C6", "G24"):
        for t in (-6, 0, 8, 12, 24):
            coh.fixed_rank(group, LOC, t)


def test_unstable_rank_and_two_route_mismatch_are_refused(monkeypatch):
    from stab23.errors import PrecisionUnstable

    real = coh.invariant_cell.__wrapped__

    def fake(group, kind, s, t, m):
        cell = real(group, kind, s, t, m)
        if m > coh.PRECISION:  # one class more at N+2
            return coh.Cell(cell.K, cell.I, cell.HI, cell.invariants + [1])
        return coh.Cell(cell.K[:0], cell.I, cell.HI, cell.invariants)  # no fixed vectors

    monkeypatch.setattr(coh, "invariant_cell", fake)
    with pytest.raises(PrecisionUnstable, match="two-route"):
        coh.fixed_rank("G24", LOC, 24)
    with pytest.raises(PrecisionUnstable, match="at N\\+2"):
        coh.h_dim("G24", LOC, 2, 12)


def test_transfer_after_restriction_is_multiplication_by_3():
    # c3_degree asserts it; this is the same identity at the reporting precision
    m, M = coh.PRECISION, 3**coh.PRECISION
    for t in (0, -6, 12):
        r = coh.denominator(LOC, t)
        fixed = coh.c3_degree(LOC, t, m, r).fixed.K
        assert fixed.shape[0] > 0, t
        S = inv.gen_matrix(LOC, m, "s", t, r).astype(np.int64)
        norm = (np.eye(len(S), dtype=np.int64) + S + S @ S) % M
        assert not ((fixed @ norm.T - 3 * fixed) % M).any(), t


def test_c4_c6_kill_alpha_and_beta():
    om = witt.omega(4)
    half = witt.from_int(2, 4).inv()
    c4_num = inv.sigma(2, 4, nvars=2).scale(-(om**2))
    c6_num = inv.epsilon(4, nvars=2).scale(om**3 * half)
    for (s, t) in [(1, 4), (2, 12)]:  # alpha and beta lines
        assert coh.multiplication_kills(s, t, c4_num, 2, 8), (s, t, "c4")
        assert coh.multiplication_kills(s, t, c6_num, 3, 12), (s, t, "c6")


def test_multiplier_at_another_precision_is_refused():
    # the product matrix is read mod 3^PRECISION, so a multiplier known
    # only mod 9 would be taken as exact
    for precision in (2, 8):
        with pytest.raises(PrecisionMismatch):
            coh.multiplication_kills(1, 4, inv.sigma(3, precision, nvars=2), 0, -6)


def test_delta_multiplication_is_iso_on_positive_filtration():
    # d-periodicity: multiplication by sigma3 shifts (s, t) -> (s, t - 6)
    one2 = inv.sigma(3, 4, nvars=2)
    # sigma3 * (class at (1, 4)) must NOT die: dims match at (1, -2)
    assert not coh.multiplication_kills(1, 4, one2, 0, -6)


def test_restriction_chain_dims_are_compatible():
    # invariants of larger groups embed: dims shrink along C3 < C6 < C12
    for s in (1, 2):
        for t in range(-8, 17, 2):
            d3, d6, d12 = (coh.h_dim(g, LOC, s, t) for g in ("C3", "C6", "C12"))
            assert d12 <= d6 <= d3, (s, t)


def test_c3_action_commutes_with_sigma_multiplication():
    from stab23.invariants import apply_gen, sigma
    from stab23.polys import WPoly

    f = WPoly(2, 4, {(2, 1): witt.omega(4), (0, 1): witt.from_int(7, 4)})
    for i in (2, 3):
        si = sigma(i, 4, nvars=2)
        assert apply_gen("s", si * f) == si * apply_gen("s", f)


def test_precision_unstable_is_detected():
    # a fabricated module would be needed to trip this; instead check the
    # saturation slack guard directly
    from stab23.errors import PrecisionUnstable

    A = np.array([[27]], dtype=np.int64)  # divisor 3^3 exceeds slack 2
    with pytest.raises(PrecisionUnstable):
        coh.saturated_kernel_reduced(A, 4, 2)
