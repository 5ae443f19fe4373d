import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stab23 import linalg


def brute_span(rows, m):
    """Every Z/3^m-combination of the rows, as a set of tuples."""
    M = 3**m
    rows = [np.asarray(r, dtype=np.int64) % M for r in rows]
    out = set()
    for coeffs in itertools.product(range(M), repeat=len(rows)):
        v = np.zeros(len(rows[0]), dtype=np.int64)
        for c, r in zip(coeffs, rows):
            v = (v + c * r) % M
        out.add(tuple(int(x) for x in v))
    return out


small_entries = st.integers(min_value=0, max_value=26)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_howell_preserves_span(rows, m):
    H = linalg.howell(rows, m)
    assert brute_span(rows, m) == brute_span(list(H.rows) or [[0, 0, 0]], m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(small_entries, min_size=3, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_membership_matches_brute_force(rows, vec, m):
    H = linalg.howell(rows, m)
    expected = tuple(int(x) % 3**m for x in vec) in brute_span(rows, m)
    assert linalg.span_contains(H, vec, m) == expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=2, max_size=3),
    st.integers(min_value=1, max_value=2),
)
def test_kernel_matches_brute_force(rows, m):
    M = 3**m
    A = np.array(rows, dtype=np.int64) % M
    ker = linalg.kernel(A, m)
    brute = {
        x
        for x in itertools.product(range(M), repeat=A.shape[1])
        if not (A @ np.array(x, dtype=np.int64) % M).any()
    }
    got = brute_span(list(ker) or [[0] * A.shape[1]], m)
    assert got == brute


def test_howell_is_idempotent_and_deterministic():
    rows = [[3, 6, 1, 0], [0, 3, 3, 3], [1, 1, 1, 1]]
    H1 = linalg.howell(rows, 2)
    H2 = linalg.howell(H1.rows, 2)
    assert np.array_equal(H1.rows, H2.rows)
    H3 = linalg.howell(rows, 2)
    assert np.array_equal(H1.rows, H3.rows)


def test_solve_round_trips():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.integers(0, 3, size=(4, 3)).astype(np.int64)
        x = rng.integers(0, 3, size=3).astype(np.int64)
        b = (A @ x) % 3
        got = linalg.solve(A, b)
        assert got is not None
        assert not ((A @ got - b) % 3).any()


def test_solve_detects_inconsistency():
    A = np.array([[1, 2], [2, 1]], dtype=np.int64)  # rank 1 over F3
    assert linalg.solve(A, np.array([1, 0])) is None
    assert linalg.solve(A, np.array([1, 2])) is not None


def test_quotient_invariants_simple():
    # R^2 / span{(3,0)} over Z/9 is Z/3 + Z/9
    K = np.eye(2, dtype=np.int64)
    I = np.array([[3, 0]], dtype=np.int64)
    assert linalg.quotient_invariants(K, I, 2) == [1, 2]
    # full quotient by itself is trivial
    assert linalg.quotient_invariants(K, K, 2) == []
    # K/0
    assert linalg.quotient_invariants(K, np.zeros((0, 2), dtype=np.int64), 2) == [2, 2]


def full_layer_invariants(K, I, m):
    """Invariant factor exponents of span(K)/span(I) from every layer
    n[j] = log3 |3^j K + I|, j = 0..m, each one eliminated."""
    M = 3**m
    n = [linalg.span_log_size(np.vstack([3**j * K % M, I]), m) for j in range(m + 1)]
    gt = [n[j] - (n[j + 1] if j < m else 0) for j in range(m + 1)]
    return sorted(e for e in range(1, m + 1) for _ in range(gt[e - 1] - (gt[e] if e < m else 0)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quotient_invariants_matches_the_full_count(m):
    # n[0] is read off the containment check's Howell form of K and n[m]
    # off the Howell form of I when it is given; the layer counts must
    # agree with eliminating K together with I
    rng = np.random.default_rng(m)
    M = 3**m
    for _ in range(5):
        K = rng.integers(0, M, size=(4, 6))
        I = (rng.integers(0, M, size=(3, 4)) * 3 ** rng.integers(0, m + 1, size=(3, 1))) @ K % M
        want = full_layer_invariants(K, I, m)
        assert linalg.quotient_invariants(K, I, m) == want
        assert linalg.quotient_invariants(K, I, m, HI=linalg.howell(I, m)) == want
        assert linalg.quotient_invariants(K, I, m, linalg.howell(K, m), linalg.image(I.T, m)) == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_quotient_invariants_stopping_early_matches_every_layer(data):
    # I = C K with each row of C scaled by 3^e, 0 <= e <= m, so the
    # quotients have factors Z/3^e of every exponent up to m
    m = data.draw(st.integers(min_value=2, max_value=6))
    M = 3**m
    ncols = data.draw(st.integers(min_value=1, max_value=5))
    k = data.draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=0, max_value=M - 1)

    def matrix(rows, cols):
        return np.array(data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)),
                        dtype=np.int64).reshape(rows, cols)

    K = matrix(k, ncols)
    nI = data.draw(st.integers(min_value=0, max_value=4))
    e = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=m), min_size=nI, max_size=nI)),
                 dtype=np.int64)
    I = (matrix(nI, k) * 3 ** e[:, None]) @ K % M
    want = full_layer_invariants(K, I, m)
    assert linalg.quotient_invariants(K, I, m) == want
    assert linalg.quotient_invariants(K, I, m, HI=linalg.howell(I, m)) == want


def test_quotient_invariants_stops_at_the_first_layer_equal_to_span_i(monkeypatch):
    m = 6
    K = np.eye(5, dtype=np.int64)
    calls = []
    real = linalg.span_log_size
    monkeypatch.setattr(linalg, "span_log_size", lambda rows, m: calls.append(rows) or real(rows, m))
    # an elementary quotient: 3K + I is already I, so with HI given the
    # one middle layer eliminated is j = 1
    I = np.vstack([3 * K[:2], K[2:]])
    assert linalg.quotient_invariants(K, I, m, HI=linalg.howell(I, m)) == [1, 1]
    assert len(calls) == 1
    # a Z/3^6 factor: no middle layer equals I, so all five are eliminated
    calls.clear()
    assert linalg.quotient_invariants(K, K[1:], m, HI=linalg.howell(K[1:], m)) == [6]
    assert len(calls) == m - 1


def test_quotient_invariants_rejects_non_submodule():
    K = np.array([[3, 0]], dtype=np.int64)
    I = np.array([[1, 0]], dtype=np.int64)
    with pytest.raises(ValueError):
        linalg.quotient_invariants(K, I, 2)


def test_smith_kernel_saturates():
    # multiplication by 3 on Z/3^m has honest (Z_3) kernel zero
    A = np.array([[3]], dtype=np.int64)
    ker, divs = linalg.smith_kernel(A, 4)
    assert ker.shape[0] == 0
    assert divs == [1]
    # plain kernel would have seen 3^{m-1}
    plain = linalg.kernel(A, 4)
    assert plain.shape[0] == 1


def test_smith_kernel_cyclic_norm():
    # norm of C3 acting on Z3[C3]: kernel is the rank-2 augmentation-zero lattice
    J = np.ones((3, 3), dtype=np.int64)
    ker, _ = linalg.smith_kernel(J, 4)
    H = linalg.howell(ker, 4)
    assert H.log3_size(4) == 2 * 4  # free of rank 2
    S = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
    im = linalg.image(S - np.eye(3, dtype=np.int64), 4)
    # H^1(C3, Z3[C3]) = 0: saturated kernel equals the image of s-1
    assert linalg.span_contains(H, im.rows, 4)
    assert linalg.span_contains(im, ker, 4)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=3, max_size=3),
    st.integers(min_value=1, max_value=2),
)
def test_smith_kernel_contains_plain_integer_kernel(rows, m):
    # every saturated-kernel row really kills the matrix
    M = 3**m
    A = np.array(rows, dtype=np.int64) % M
    ker, _ = linalg.smith_kernel(A, m)
    for r in ker:
        assert not ((A @ r) % M).any()


def test_free_rank():
    rows = np.array([[1, 0, 0], [0, 3, 0]], dtype=np.int64)
    assert linalg.free_rank(rows, 2) == 1
    assert linalg.free_rank(np.eye(3, dtype=np.int64), 2) == 3


def test_valuations_table_and_split_lookup():
    X = np.array([0, 1, 3, 9, 18, 54, 80], dtype=np.int64)
    assert linalg.valuations(X, 4).tolist() == [5, 0, 1, 2, 2, 3, 0]
    # beyond the table size the low and high base-3 digits are looked up apart
    Y = np.array([0, 3**11, 2 * 3**10, 5, 3**9], dtype=np.int64)
    assert linalg.valuations(Y, 12).tolist() == [13, 11, 10, 0, 9]


def test_solve_matrix_right_hand_side():
    rng = np.random.default_rng(11)
    A = rng.integers(0, 3, size=(5, 4))
    B = (A @ rng.integers(0, 3, size=(4, 3))) % 3
    X = linalg.solve(A, B)
    assert np.array_equal(X, np.column_stack([linalg.solve(A, b) for b in B.T]))
    assert not ((A @ X - B) % 3).any()
    # one column without a solution makes the whole solve None
    A[1] = 0
    B = np.column_stack([A @ np.arange(4) % 3, np.eye(5, dtype=np.int64)[1]])
    assert linalg.solve(A, B[:, 0]) is not None
    assert linalg.solve(A, B[:, 1]) is None
    assert linalg.solve(A, B) is None


def test_int64_bound_is_enforced():
    # n * 3^(2m) < 2^63 holds for n = 6, m = 19 and fails for n = 7
    linalg.smith_kernel(np.ones((1, 6), dtype=np.int64), 19)
    A = np.ones((1, 7), dtype=np.int64)
    empty = linalg.HowellForm(np.zeros((0, 7), dtype=np.int64), [], [])
    for call in (
        lambda: linalg.howell(A, 19),
        lambda: linalg.smith_kernel(A, 19),
        lambda: linalg.reduce_mod_span(empty, A[0], 19),
    ):
        with pytest.raises(ValueError, match=r"n = 7 columns, m = 19"):
            call()


def m1_span_case():
    """A 1500-pivot RREF of 3000 columns and a 2000 x 3000 int8 matrix whose
    first 1000 rows lie outside its span and the last 1000 inside."""
    rng = np.random.default_rng(24)
    H = linalg.howell(rng.integers(0, 3, size=(1500, 3000), dtype=np.int8), 1, np.int8)
    assert len(H.pivot_cols) == 1500
    X = rng.integers(0, 3, size=(2000, 3000), dtype=np.int8)
    X[1000:] = linalg.matmul_mod(rng.integers(0, 3, size=(1000, 1500)), H.rows, 1, np.int8)
    return H, X


def traced_peak(call):
    """(result, peak bytes that tracemalloc sees allocated during the call)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak


def test_reduce_mod_span_at_m1_stays_below_two_int64_copies():
    # the pivot loop runs in int8, the result stays in it and the products
    # run in float32, so there is no room for an int64 or float64 copy of
    # the input
    H, X = m1_span_case()
    r, peak = traced_peak(lambda: linalg.reduce_mod_span(H, X, 1))
    assert peak < 2 * 8 * X.size, f"peak {peak / 1e6:.1f} MB"
    assert r.dtype == np.int8
    space = linalg.F3Space(3000)
    space.add(H.rows)
    assert np.array_equal(r, space.reduce(X))
    assert r[:1000].any(axis=1).all() and not r[1000:].any()


def test_span_contains_at_m1_stays_below_one_int64_copy():
    # span_contains reads reduce_mod_span's working-type remainders, and
    # the final product runs a block of rows at a time
    H, X = m1_span_case()
    for rows, inside in ((X, False), (X[1000:], True), (X[:1], False)):
        got, peak = traced_peak(lambda: linalg.span_contains(H, rows, 1))
        assert got is inside
        assert peak < 8 * X.size, f"peak {peak / 1e6:.1f} MB"


def test_f3_float64_bound_is_enforced():
    # the engine's float64 arithmetic is exact while 4 * ncols + 2 < 2^51;
    # the check runs before any basis is allocated
    linalg.F3Space(2**49 - 1)
    for call in (
        lambda: linalg.F3Space(2**49),
        lambda: linalg.rref_f3(np.zeros((0, 2**49), dtype=np.int8)),
    ):
        with pytest.raises(ValueError, match=r"4 \* ncols \+ 2 < 2\^51 fails for ncols = 562949953421312"):
            call()
