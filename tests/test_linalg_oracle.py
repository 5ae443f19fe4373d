"""The eliminations of ``stab23.linalg`` against the loops they replaced.

``linalg_oracle`` keeps the row-by-row ``howell`` and ``smith_kernel``
and the column-loop ``rref_f3`` that ``stab23.linalg`` replaced.  Every
output must agree exactly: the Howell rows, pivot columns and pivot
valuations, the Smith kernel rows and divisor list, which depend on the
pivot order, and the F3 echelon rows and pivots of the blocked engine.
"""

import numpy as np
import pytest

import linalg_oracle as oracle
from stab23 import invariants, linalg, witt

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


# -- smith_kernel's independent blocks against the one global loop ---------------

# m = 19 admits at most 6 columns (the int64 bound), so its sums stay that narrow
SMITH_MODULI = [*MODULI, 19]


def block_diagonal(blocks, zero_rows=0, zero_cols=0):
    """The block-diagonal sum of ``blocks``, with zero rows and columns
    added at the end."""
    b = sum(B.shape[0] for B in blocks) + zero_rows
    a = sum(B.shape[1] for B in blocks) + zero_cols
    A = np.zeros((b, a), dtype=np.int64)
    i = j = 0
    for B in blocks:
        A[i : i + B.shape[0], j : j + B.shape[1]] = B
        i, j = i + B.shape[0], j + B.shape[1]
    return A


def direct_sum(rng, blocks, zero_rows=0, zero_cols=0):
    """``block_diagonal`` with its rows and columns shuffled."""
    A = block_diagonal(blocks, zero_rows, zero_cols)
    return A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]


def random_shapes(rng, m, count):
    """Block shapes of up to 6 x 6, at most 6 columns in all at m = 19."""
    if m == 19:
        return [(int(rng.integers(1, 4)), 1 + (j < 2)) for j in range(min(count, 4))]
    return [tuple(int(x) for x in rng.integers(1, 7, size=2)) for _ in range(count)]


@pytest.mark.parametrize("m", SMITH_MODULI)
def test_smith_on_shuffled_direct_sums_matches_oracle(m):
    rng = np.random.default_rng(140 + m)
    for _ in range(12):
        shapes = random_shapes(rng, m, int(rng.integers(2, 9)))
        blocks = [random_matrix(rng, s, m) for s in shapes]
        zero_cols = 0 if m == 19 else int(rng.integers(0, 3))
        assert_same_smith(direct_sum(rng, blocks, int(rng.integers(0, 3)), zero_cols), m)


@pytest.mark.parametrize("m", SMITH_MODULI)
def test_smith_on_many_blocks_of_one_shape_matches_oracle(m):
    # blocks of one shape run as one stack: their pivots fall at different
    # places and they finish after different numbers of steps
    rng = np.random.default_rng(160 + m)
    shapes = [(2, 2), (1, 3), (3, 1)] if m == 19 else [(3, 4), (4, 3), (5, 5), (2, 6)]
    for shape in shapes:
        count = 6 // shape[1] if m == 19 else 25
        for _ in range(3):
            blocks = [random_matrix(rng, shape, m) for _ in range(count)]
            assert_same_smith(direct_sum(rng, blocks), m)
        # every pivot a unit, and the identity and the anti-identity side by side
        if m != 19:
            n = min(shape)
            units = [rng.integers(1, 3, size=(n, n)) * np.eye(n, dtype=np.int64)[p]
                     for p in (np.arange(n), np.arange(n)[::-1]) for _ in range(5)]
            assert_same_smith(direct_sum(rng, units, 2, 2), m)


@pytest.mark.parametrize("m", SMITH_MODULI)
def test_smith_on_zero_rows_and_isolated_zero_columns_matches_oracle(m):
    rng = np.random.default_rng(180 + m)
    rows, width = (6, 6) if m == 19 else (7, 12)
    for nonzero in range(0, width + 1, 3 if m == 19 else 4):
        A = np.zeros((rows, width), dtype=np.int64)
        A[2, :nonzero] = random_matrix(rng, (1, nonzero), m)
        A[5, :nonzero] = 3 * random_matrix(rng, (1, nonzero), m) % 3**m
        assert_same_smith(A[rng.permutation(rows)][:, rng.permutation(width)], m)
        assert_same_smith(A.T.copy(), m)


@pytest.mark.parametrize("m", SMITH_MODULI)
def test_smith_on_one_dense_block_matches_oracle(m):
    rng = np.random.default_rng(200 + m)
    M = 3**m
    for shape in ([(3, 6), (6, 6), (6, 2)] if m == 19 else [(9, 9), (14, 11), (5, 20), (40, 40)]):
        # entries of every valuation but never zero: one block
        A = rng.integers(1, 3, size=shape) * 3 ** rng.integers(0, m, size=shape) % M
        ((rows, cols),) = list(linalg._blocks(linalg._as_matrix(A, m)))
        assert np.array_equal(rows, np.arange(shape[0])[None])
        assert np.array_equal(cols, np.arange(shape[1])[None])
        assert_same_smith(A, m)


def test_blocks_recover_a_shuffled_direct_sum():
    # blocks with no zero entry, shuffled: _blocks returns the rows and
    # columns of each, ascending, one stack per shape, and nothing for the
    # zero rows and columns
    rng = np.random.default_rng(220)
    shapes = [(2, 3), (1, 1), (2, 3), (4, 2), (1, 1), (2, 3)]
    A0 = block_diagonal([rng.integers(1, 9, size=s) for s in shapes], 3, 2)
    pr, pc = rng.permutation(A0.shape[0]), rng.permutation(A0.shape[1])
    A = A0[pr][:, pc]
    want, i, j = set(), 0, 0
    for r, c in shapes:
        rows = np.flatnonzero((pr >= i) & (pr < i + r))
        cols = np.flatnonzero((pc >= j) & (pc < j + c))
        want.add((tuple(rows), tuple(cols)))
        i, j = i + r, j + c
    got, stacks = set(), []
    for rows, cols in linalg._blocks(A):
        stacks.append((rows.shape[1], cols.shape[1]))
        got |= {(tuple(r), tuple(c)) for r, c in zip(rows, cols)}
    assert got == want
    assert sorted(stacks) == [(1, 1), (2, 3), (4, 2)]
    assert list(linalg._blocks(np.zeros((4, 5), dtype=np.int64))) == []


def omega_matrix(m, e, semilinear):
    """Omega of the model matrices: the 2 x 2 matrix of c -> w^e phi(c)."""
    return invariants._scalar_matrix(witt.omega(m) ** e, semilinear)


@pytest.mark.parametrize("m", SMITH_MODULI)
def test_smith_on_kron_signed_permutations_with_omega_matches_oracle(m):
    # the stacked kron(P, Omega) - I that fixed_basis hands to smith_kernel,
    # for one and for two operators: each orbit of the signed permutations
    # gives one block
    rng = np.random.default_rng(240 + m)
    for n in ([1, 2, 3] if m == 19 else [3, 10, 40]):
        for nops in (1, 2):
            for _ in range(3):
                ops = [np.kron(signed_permutation(rng, n),
                               omega_matrix(m, int(rng.integers(0, 8)), bool(rng.integers(2))))
                       for _ in range(nops)]
                I = np.eye(2 * n, dtype=np.int64)
                stacked = np.vstack([op - I for op in ops])
                assert_same_smith(stacked, m)
                assert np.array_equal(linalg.fixed_basis(ops, m), oracle.smith_kernel(stacked, m)[0])


@pytest.mark.parametrize("m", SMITH_MODULI)
def test_oracle_divisor_lists_are_non_decreasing(m):
    # smith_kernel merges the blocks' divisor lists by sorting, which is the
    # global loop's order only because that order is non-decreasing
    rng = np.random.default_rng(260 + m)
    for _ in range(30):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 7 if m == 19 else 9)))
        divs = oracle.smith_kernel(random_matrix(rng, shape, m), m)[1]
        assert divs == sorted(divs)
    blocks = [random_matrix(rng, s, m) for s in random_shapes(rng, m, 6)]
    divs = oracle.smith_kernel(direct_sum(rng, blocks), m)[1]
    assert divs == sorted(divs)


# -- the blocked F3 engine against the column loop ------------------------------

BLOCK = linalg._F3_BLOCK


def assert_same_rref(A):
    (R, piv), (R_old, piv_old) = linalg.rref_f3(A), oracle.rref_f3(A)
    assert R.dtype == R_old.dtype
    assert R.shape == R_old.shape
    assert np.array_equal(R, R_old)
    assert piv == piv_old
    assert all(type(c) is int for c in piv)
    assert_same_howell(A, 1)


def low_rank(rng, rows, cols, rank):
    """A rows x cols integer matrix of rank at most ``rank`` over F3."""
    return rng.integers(-4, 5, size=(rows, rank)) @ rng.integers(-4, 5, size=(rank, cols))


def test_rref_tall_and_rank_deficient_match_oracle():
    rng = np.random.default_rng(80)
    for rows, cols, rank in [(500, 12, 12), (400, 40, 7), (590, 90, 60), (300, 30, 1),
                             (250, 200, 150), (40, 300, 25)]:
        assert_same_rref(low_rank(rng, rows, cols, rank))
    for _ in range(20):
        rows, cols = (int(x) for x in rng.integers(1, 150, size=2))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        assert_same_rref(low_rank(rng, rows, cols, rank))


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                                  2 * BLOCK + 1])
def test_rref_row_counts_around_the_block_size_match_oracle(rows):
    rng = np.random.default_rng(rows)
    for cols, rank in [(BLOCK + 20, BLOCK + 20), (60, 60), (200, rows // 3 + 1)]:
        assert_same_rref(low_rank(rng, rows, cols, rank))
    # full rank with the pivots of the later blocks left of the earlier ones
    A = np.zeros((rows, rows + 5), dtype=np.int64)
    A[np.arange(rows), rows - 1 - np.arange(rows)] = rng.choice([1, 2], size=rows)
    A[:, rows:] = rng.integers(0, 3, size=(rows, 5))
    assert_same_rref(A)


def test_rref_edge_shapes_match_oracle():
    rng = np.random.default_rng(81)
    for shape in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (7, 3), (BLOCK + 1, 4)]:
        assert_same_rref(np.zeros(shape, dtype=np.int64))
    for n in (1, 2, 9, 300):
        for shape in [(1, n), (n, 1)]:
            for _ in range(3):
                assert_same_rref(rng.integers(-3, 4, size=shape))


def test_rref_negative_int64_entries_match_oracle():
    rng = np.random.default_rng(82)
    info = np.iinfo(np.int64)
    for rows, cols in [(50, 30), (BLOCK + 3, 40), (10, 200)]:
        A = rng.integers(info.min, 0, size=(rows, cols), dtype=np.int64)
        assert_same_rref(A)
        A[rng.integers(rows), :] = info.min
        A[:, rng.integers(cols)] = info.max
        assert_same_rref(A)
        assert_same_rref(-low_rank(rng, rows, cols, 5))


def assert_same_block_rref(W):
    # the recursive block RREF directly, on a float32 and a float64 block
    # read mod 3; it returns rows of its input's dtype
    R_old, piv_old = oracle.rref_f3(W)
    for dtype in (np.float32, np.float64):
        R, piv = linalg._rref_block((np.asarray(W) % 3).astype(dtype))
        assert R.dtype == dtype
        assert np.array_equal(R.astype(np.int64), R_old)
        assert piv == piv_old
        assert all(type(c) is int for c in piv)
    assert_same_rref(W)


@pytest.mark.parametrize("rows", [15, 16, 17, 31, 32, 33])
def test_recursive_block_rref_matches_oracle(rows):
    rng = np.random.default_rng(100 + rows)
    h = rows // 2
    for cols in (5, rows, rows + 40):
        assert_same_block_rref(rng.integers(0, 3, size=(rows, cols)))
        # rank-deficient halves
        assert_same_block_rref(np.vstack([low_rank(rng, h, cols, 2), low_rank(rng, rows - h, cols, 3)]))
        # a bottom half in the span of the top one clears to zero
        top = low_rank(rng, h, cols, min(4, cols))
        assert_same_block_rref(np.vstack([top, rng.integers(0, 3, size=(rows - h, h)) @ top]))
        # a zero top half, and zero rows scattered through both halves
        assert_same_block_rref(np.vstack([np.zeros((h, cols), dtype=np.int64),
                                          low_rank(rng, rows - h, cols, 3)]))
        A = rng.integers(0, 3, size=(rows, cols))
        A[rng.choice(rows, size=rows // 3, replace=False)] = 0
        assert_same_block_rref(A)
    # the bottom half's pivots lie left of the top half's
    A = np.zeros((rows, rows + 3), dtype=np.int64)
    A[np.arange(rows), rows - 1 - np.arange(rows)] = rng.choice([1, 2], size=rows)
    A[:, rows:] = rng.integers(0, 3, size=(rows, 3))
    assert_same_block_rref(A)


def test_f3space_fed_in_chunks_matches_oracle():
    rng = np.random.default_rng(83)
    # an anti-diagonal block: one add spanning three engine blocks finds
    # its pivots right to left
    n = 2 * BLOCK + 40
    anti = np.zeros((n, n), dtype=np.int64)
    anti[np.arange(n), n - 1 - np.arange(n)] = 2
    cases = [(low_rank(rng, 590, 80, 50), None), (low_rank(rng, 300, 150, 149), None),
             (low_rank(rng, 200, 40, 40), None), (low_rank(rng, 120, 60, 3), None),
             (anti, [10, n - 10, n - 5, n - 1])]
    for A, cuts in cases:
        rows, cols = A.shape
        if cuts is None:
            cuts = np.sort(rng.choice(np.arange(1, rows), size=4, replace=False))
        space = linalg.F3Space(cols)
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, rows]):
            before = space.dim
            added = space.add(A[lo:hi])
            R_old, piv_old = oracle.rref_f3(A[:hi])
            assert added == len(piv_old) - before
            # the basis stays reduced, and the rows one call adds follow
            # their pivot columns
            assert np.array_equal(space.rows[:, space.pivots], np.eye(space.dim, dtype=np.int64))
            assert space.pivots[before:] == sorted(space.pivots[before:])
            order = np.argsort(space.pivots)
            assert np.array_equal(space.rows[order], R_old)
            assert sorted(space.pivots) == piv_old
        assert space.rows.dtype == np.int8
        # remainders are zero on the span and agree with the old one-vector reduction
        H = oracle.howell(A, 1)
        probe = np.vstack([A[:20], rng.integers(-5, 6, size=(20, cols))])
        got = space.reduce(probe)
        assert got.dtype == np.int64
        assert not got[:20].any()
        for v, r in zip(probe, got):
            assert np.array_equal(r, oracle.reduce_mod_span(H, v, 1))


def assert_space_matches_oracle(space, A, probe):
    """``space`` holds span(A): a reduced basis equal to the column loop's
    RREF, and the one-vector reduction's remainders on ``probe``."""
    R_old, piv_old = oracle.rref_f3(A)
    rows = space.rows
    assert rows.dtype == np.int8 and space._buf.dtype == space.dtype
    assert space.dim == len(piv_old) and sorted(space.pivots) == piv_old
    assert np.array_equal(rows[:, space.pivots], np.eye(space.dim, dtype=np.int64))
    assert np.array_equal(rows[np.argsort(space.pivots)], R_old)
    H = linalg.HowellForm(R_old, piv_old, [0] * len(piv_old))
    got = space.reduce(probe)
    assert got.dtype == np.int64
    assert np.array_equal(space.reduce(probe, dtype=np.int8), got)
    for v, r in zip(probe, got):
        assert np.array_equal(r, oracle.reduce_mod_span(H, v, 1))


def kills(A, K):
    """A @ K^T == 0 mod 3, upcast first: int8 @ int8 wraps without an error."""
    return not ((A.astype(np.int64) % 3) @ K.T.astype(np.int64) % 3).any()


def extreme_inputs(rng, rows, cols):
    """int8 entries down to -128 and int64 entries at both ends of the range."""
    i8, i64 = np.iinfo(np.int8), np.iinfo(np.int64)
    A8 = rng.integers(i8.min, i8.max + 1, size=(rows, cols), dtype=np.int8)
    A8[0], A8[:, -1], A8[-1, : cols // 2] = i8.min, i8.min, i8.max
    # rank at most 7 over F3, with entries of absolute value at most 112
    low8 = low_rank(rng, rows, cols, 7).astype(np.int8)
    A64 = rng.choice(np.array([i64.min, i64.min + 1, -2, -1, 0, 1, i64.max - 1, i64.max]),
                     size=(rows, cols))
    return A8, low8, A64


def test_f3space_on_int8_and_int64_extremes_matches_oracle():
    rng = np.random.default_rng(84)
    for rows, cols in [(50, 30), (2 * BLOCK + 7, 60), (BLOCK + 1, 300)]:
        for A in extreme_inputs(rng, rows, cols):
            space = linalg.F3Space(cols)
            assert space.dtype == np.float32
            space.add(A)
            assert_space_matches_oracle(space, A, np.vstack([A[:5], -A[-5:]]))
            assert_same_rref(A)
            # the kernel as int8 rows is the int64 one, and A kills it
            (K, free), (K8, free8) = linalg.kernel_f3(A), linalg.kernel_f3(A, np.int8)
            assert K8.dtype == np.int8 and np.array_equal(K8, K) and np.array_equal(free8, free)
            assert K.shape == (cols - space.dim, cols)
            assert np.array_equal(free, np.setdiff1d(np.arange(cols), space.pivots))
            assert np.array_equal(K[:, free], np.eye(free.size, dtype=np.int64))
            assert kills(A, K)


def test_f3_dtype_switches_at_the_float32_bound(monkeypatch):
    # 4 * ncols + 2 < 2^24 holds for ncols = 2^22 - 1 and fails for 2^22;
    # beyond it the float64 bound of _check_exact_f3 still applies
    assert linalg._f3_dtype(2**22 - 1) is np.float32
    assert linalg._f3_dtype(2**22) is np.float64
    assert linalg.F3Space(2**22 - 1).dtype is np.float32
    assert linalg.F3Space(2**22).dtype is np.float64
    rng = np.random.default_rng(86)
    cols = 2 * BLOCK + 10
    inputs = [low_rank(rng, 3 * BLOCK + 5, cols, BLOCK + 30), *extreme_inputs(rng, BLOCK + 9, cols)]
    # the bound moved to this width: the same inputs on both sides of it
    for bound, dtype in [(4 * cols + 2, np.float64), (4 * cols + 3, np.float32)]:
        monkeypatch.setattr(linalg, "_F32_BOUND", bound)
        assert linalg._f3_dtype(cols) is dtype
        for A in inputs:
            space = linalg.F3Space(cols)
            assert space.dtype is dtype
            for lo in range(0, A.shape[0], 100):
                space.add(A[lo : lo + 100])
            assert_space_matches_oracle(space, A, A[::7])
            assert_same_rref(A)
            X = linalg.kernel_f3(A, np.int8)[0]
            assert np.array_equal(X, linalg.kernel_f3(A)[0]) and kills(A, X)


def test_f3space_multi_block_adds_match_oracle():
    # several adds of several blocks each: pivots only in a later block,
    # all-zero blocks, blocks inside the old span, and blocks that become
    # dependent only on rows an earlier block of the same add found.  A
    # missed back-clear of the old rows, or a free-column part left from
    # an earlier add, shows in the basis or in the remainders.
    rng = np.random.default_rng(87)
    cols = 3 * BLOCK
    zero = np.zeros((BLOCK, cols), dtype=np.int64)
    first = low_rank(rng, BLOCK + 20, cols, 60)
    fresh = low_rank(rng, BLOCK, cols, 50)
    late = low_rank(rng, BLOCK - 3, cols, 40)
    adds = [
        first,
        # zero, then the old span, then pivots (left of and among the old
        # ones) only in the third block, whose rows the fourth repeats
        np.vstack([zero, rng.integers(0, 3, size=(BLOCK, first.shape[0])) @ first,
                   fresh, rng.integers(-2, 3, size=(BLOCK, BLOCK)) @ fresh
                   + rng.integers(-2, 3, size=(BLOCK, first.shape[0])) @ first]),
        zero[:5],
        np.vstack([late, zero, rng.integers(0, 3, size=(BLOCK + 7, late.shape[0])) @ late]).astype(np.int8),
        rng.integers(0, 3, size=(2 * BLOCK + 1, cols)).astype(np.int8),
    ]
    space = linalg.F3Space(cols)
    seen = np.zeros((0, cols), dtype=np.int64)
    probe = np.vstack([first[:4], fresh[:4], late[:4], rng.integers(0, 3, size=(8, cols))])
    for A in adds:
        before = space.dim
        seen = np.vstack([seen, A])
        added = space.add(A)
        assert added == space.dim - before == len(oracle.rref_f3(seen)[1]) - before
        assert space.pivots[before:] == sorted(space.pivots[before:])
        assert_space_matches_oracle(space, seen, probe)


def test_solve_over_f3_on_int8_matches_the_int64_input():
    rng = np.random.default_rng(88)
    for rows, cols, rank in [(40, 30, 12), (BLOCK + 9, 2 * BLOCK, 70), (5, 300, 5)]:
        A = (low_rank(rng, rows, cols, rank) % 3 - 1).astype(np.int8)  # entries -1, 0, 1
        B = A.astype(np.int64) @ rng.integers(-1, 2, size=(cols, 4))
        for a in (A, A.astype(np.int64)):
            X = linalg.solve(a, B)
            assert X.dtype == np.int64 and not ((A.astype(np.int64) @ X - B) % 3).any()
        # a right-hand side outside the column span makes the solve None
        out = B[:, 0] + np.eye(rows, dtype=np.int64)[0]
        rank_a = len(oracle.rref_f3(A)[1])
        inconsistent = len(oracle.rref_f3(np.column_stack([A, out]))[1]) > rank_a
        assert (linalg.solve(A, out) is None) == inconsistent
        assert (linalg.solve(A, np.column_stack([B, out])) is None) == inconsistent


def assert_seeded_like_fresh(seeded, fresh, probe, later):
    """A space built by ``F3Space.reduced`` against one ``add`` fed: the same
    pivots, rows and remainders, and then the same results of each later
    ``add``."""
    for B in [None, *later]:
        if B is not None:
            assert seeded.add(B) == fresh.add(B)
        assert seeded.pivots == fresh.pivots and all(type(c) is int for c in seeded.pivots)
        assert seeded.dtype == fresh.dtype and seeded._buf.dtype == fresh.dtype
        assert np.array_equal(seeded.rows, fresh.rows)
        assert np.array_equal(seeded.reduce(probe), fresh.reduce(probe))


def test_f3space_from_a_reduced_basis_matches_a_fresh_space():
    rng = np.random.default_rng(89)
    for rows, cols, rank in [(40, 30, 12), (2 * BLOCK + 9, 2 * BLOCK, BLOCK + 20), (5, 300, 5), (9, 9, 9)]:
        A = low_rank(rng, rows, cols, rank)
        probe = np.vstack([A[:5], rng.integers(-5, 6, size=(10, cols))])
        later = [low_rank(rng, BLOCK + 3, cols, 7), A[:3], rng.integers(-2, 3, size=(2 * BLOCK + 1, cols))]
        # the RREF, as int64 and as int8 and shifted by -3: one add of it
        # keeps its rows and its sorted pivots
        R, _ = oracle.rref_f3(A)
        for basis in (R, R.astype(np.int8), R - 3):
            fresh = linalg.F3Space(cols)
            fresh.add(basis)
            assert_seeded_like_fresh(linalg.F3Space.reduced(basis), fresh, probe, later)
        # the rows of a space grown by several adds, in their insertion order
        fresh = linalg.F3Space(cols)
        for part in np.array_split(A, 3):
            fresh.add(part)
        seeded = linalg.F3Space.reduced(fresh.rows)
        assert_seeded_like_fresh(seeded, fresh, probe, later)
    # no rows: the zero space of any width, none included
    for n in (0, 7):
        assert_seeded_like_fresh(linalg.F3Space.reduced(np.zeros((0, n), dtype=np.int8)), linalg.F3Space(n),
                                 rng.integers(0, 3, size=(3, n)), [rng.integers(0, 3, size=(4, n))])


def test_f3space_from_a_basis_not_reduced_raises():
    R, _ = oracle.rref_f3(low_rank(np.random.default_rng(91), 30, 20, 6))
    assert R.shape[0] == 6
    assert linalg.F3Space.reduced(R).dim == 6
    leads = [int(np.flatnonzero(r)[0]) for r in R]
    scaled = R.copy()
    scaled[2] = 2 * scaled[2] % 3                 # a leading 2
    mixed = R.copy()
    mixed[0] = (mixed[0] + mixed[3]) % 3          # a nonzero on another row's leading column
    zero = R.copy()
    zero[4] = 0                                   # a zero row
    twice = np.vstack([R, R[1]])                  # two rows led by one column
    below = R.copy()
    below[5, leads[1]] = 1                        # a nonzero left of the row's own lead
    for bad in (scaled, mixed, zero, twice, below):
        with pytest.raises(ValueError):
            linalg.F3Space.reduced(bad)


def assert_f3_kernel_and_image(A):
    """``kernel_and_image(A, 1)`` against the RREF of [A^T | I] that it
    replaced, cut at the bar, and its kernel, from A with its columns
    reversed, against the RREF of ``kernel_f3``'s basis."""
    b, a = A.shape
    K, I = linalg.kernel_and_image(A, 1)
    R, piv = oracle.rref_f3(np.hstack([A.T.astype(np.int64) % 3, np.eye(a, dtype=np.int64)]))
    n = sum(c < b for c in piv)
    assert K.rows.dtype == I.rows.dtype == np.int64
    assert np.array_equal(I.rows, R[:n, :b].reshape(n, b))
    assert np.array_equal(K.rows, R[n:, b:].reshape(len(piv) - n, a))
    assert I.pivot_cols == piv[:n] and K.pivot_cols == [c - b for c in piv[n:]]
    assert I.pivot_vals == [0] * n and K.pivot_vals == [0] * (len(piv) - n)
    assert all(type(c) is int for c in K.pivot_cols + I.pivot_cols)
    H = linalg.howell(linalg.kernel_f3(A)[0], 1)
    assert np.array_equal(K.rows, H.rows.reshape(K.rows.shape)) and K.pivot_cols == H.pivot_cols
    K8, I8 = linalg.kernel_and_image(A, 1, np.int8)
    assert K8.rows.dtype == I8.rows.dtype == np.int8 and K8.rows.flags.c_contiguous
    assert np.array_equal(K8.rows, K.rows) and np.array_equal(I8.rows, I.rows)
    assert kills(A, K.rows)


def test_f3_kernel_and_image_match_the_rref_of_the_bordered_matrix():
    rng = np.random.default_rng(92)
    for shape in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (7, 3)]:
        assert_f3_kernel_and_image(np.zeros(shape, dtype=np.int64))
    for n in (1, 2, 9, 300):
        for shape in [(1, n), (n, 1)]:
            assert_f3_kernel_and_image(rng.integers(-3, 4, size=shape))
            assert_f3_kernel_and_image(np.zeros(shape, dtype=np.int8))
    # rank-deficient, int8 and negative int64, around one and two blocks
    # of rows and of columns
    for w in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1):
        for b, a in [(40, w), (w, 40)]:
            for A in extreme_inputs(rng, b, a):
                assert_f3_kernel_and_image(A)
            assert_f3_kernel_and_image(-low_rank(rng, b, a, 9))
        assert_f3_kernel_and_image(low_rank(rng, w, w, w // 2).astype(np.int8) if w < 200 else low_rank(rng, w, w, 60))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_batched_reduce_mod_span_matches_oracle(m):
    rng = np.random.default_rng(90 + m)
    M = 3**m
    for rows, cols in [(5, 8), (30, 40), (1, 3)]:
        H = linalg.howell(random_matrix(rng, (rows, cols), m), m)
        in_span = rng.integers(0, M, size=(rows, H.rows.shape[0])) @ H.rows
        V = np.vstack([rng.integers(-M, M, size=(rows, cols)), in_span])
        got = linalg.reduce_mod_span(H, V, m)
        assert got.shape == V.shape and got.dtype == linalg.residue_dtypes(m)[1]
        for v, r in zip(V, got):
            want = oracle.reduce_mod_span(H, v, m)
            assert np.array_equal(linalg.reduce_mod_span(H, v, m), want)
            assert np.array_equal(r, want)
        assert linalg.span_contains(H, V, m) == (not got.any())
        assert [linalg.span_contains(H, v, m) for v in V] == list(~got.any(axis=1))


# -- the blocked Z/3^m engine against the unblocked loops ------------------------

PANEL = linalg._ZM_PANEL
BLOCKED_MODULI = [2, 3, 4, 6, 8]
# around the first two panel boundaries and past later ones
WIDTHS = [PANEL - 1, PANEL, PANEL + 1, 2 * PANEL - 1, 2 * PANEL, 2 * PANEL + 1, 3 * PANEL + 1, 4 * PANEL + 1]
ROWS = PANEL + 37  # more rows than the panel width


def assert_same_blocked(A, m):
    new, old = linalg.howell(A, m), oracle.howell_unblocked(A, m)
    assert new.rows.dtype == old.rows.dtype
    assert np.array_equal(new.rows, old.rows)
    assert new.pivot_cols == old.pivot_cols
    assert new.pivot_vals == old.pivot_vals
    return new


def repicked_rows(rows, ncols, m, starts):
    """Rows (3, 1) at each start column: the row is a pivot of valuation 1,
    and its saturation 3^(m-1) (3, 1) = (0, 3^(m-1)) is picked again at the
    next column."""
    A = np.zeros((rows, ncols), dtype=np.int64)
    for i, c in enumerate(starts):
        A[i, c : c + 2] = (3, 1)
    return A


@pytest.mark.parametrize("ncols", WIDTHS)
@pytest.mark.parametrize("m", BLOCKED_MODULI)
def test_blocked_howell_matches_the_unblocked_loop(m, ncols):
    rng = np.random.default_rng(1000 * m + ncols)
    M = 3**m
    for _ in range(3):
        assert_same_blocked(random_matrix(rng, (ROWS, ncols), m), m)
    if ncols == 2 * PANEL:
        # fewer rows than columns, against the row-by-row loop too
        assert_same_howell(random_matrix(rng, (PANEL, ncols), m), m)
    # rank-deficient, with pivots of every valuation
    k = int(rng.integers(5, 40))
    low = rng.integers(0, M, size=(ROWS, k)) @ rng.integers(0, M, size=(k, ncols))
    assert_same_blocked(low * 3 ** rng.integers(0, m, size=(1, ncols)) % M, m)
    # an all-zero panel between live ones
    A = random_matrix(rng, (ROWS, ncols), m)
    A[:, PANEL : 2 * PANEL] = 0
    assert_same_blocked(A, m)
    # a row picked again after saturation, inside a panel and across the
    # panel boundaries, under random rows that leave those columns alone
    starts = [c for c in (3, PANEL - 1, PANEL + 10, 2 * PANEL - 1, 2 * PANEL + 7) if c + 1 < ncols]
    A = repicked_rows(ROWS, ncols, m, starts)
    A[len(starts) :, -5:] = rng.integers(0, M, size=(ROWS - len(starts), 5))
    H = assert_same_blocked(A, m)
    for c in starts:
        assert H.pivot_cols[H.pivot_cols.index(c) + 1] == c + 1


def narrow_inputs(rng, m):
    """Inputs of one panel, at most PANEL columns (6 at m = 19, the int64
    bound): random, non-unit pivots only, rows whose saturation is
    picked again, zero rows and columns, and [A^T | I]."""
    M = 3**m
    w = 6 if m == 19 else 23
    yield random_matrix(rng, (w + 5, w), m)
    # every entry a multiple of 3: no pivot is a unit
    yield 3 * random_matrix(rng, (w + 2, w), m) % M
    yield 3 ** rng.integers(1, m, size=(w, w)) * rng.integers(1, 3, size=(w, w)) % M
    # (3, 1) at a column is a pivot of valuation 1, and its saturation
    # (0, 3^(m-1)) is picked again at the next column
    yield repicked_rows(4, w, m, [0, 2, w - 2])
    A = random_matrix(rng, (w + 3, w), m)
    A[1::3] = 0
    A[:, 1::2] = 0
    yield A
    yield np.zeros((3, w), dtype=np.int64)
    b, a = (2, 4) if m == 19 else (9, 14)
    A = random_matrix(rng, (b, a), m)
    yield np.hstack([A.T % M, np.eye(a, dtype=np.int64)])


@pytest.mark.parametrize("m", [*MODULI, 19])
def test_one_pass_narrow_howell_matches_the_row_by_row_loop(m):
    rng = np.random.default_rng(700 + m)
    for A in narrow_inputs(rng, m):
        assert A.shape[1] <= PANEL
        assert_same_howell(A, m)


@pytest.mark.parametrize("m", [2, 3])
def test_blocked_howell_on_stacked_signed_permutations(m):
    # the boundaries of the resolution are sums of signed permutations of
    # 486 columns; stack two of them, and two op - 1 blocks
    rng = np.random.default_rng(300 + m)
    n = 486
    P = [signed_permutation(rng, n) for _ in range(3)]
    I = np.eye(n, dtype=np.int64)
    assert_same_blocked(np.vstack([P[0], P[1]]), m)
    assert_same_blocked(np.vstack([P[0] - I, P[1] - I]), m)
    assert_same_blocked((P[0] + P[1] - P[2])[: n // 2], m)


@pytest.mark.parametrize("m", [1] + BLOCKED_MODULI)
def test_blocked_reduce_mod_span_matches_the_unblocked_loop(m):
    # rows wider than PANEL run in panels of PANEL pivots: more than two
    # panels in the first two cases, one or two in the others.  At m = 1
    # the Howell form is an RREF
    rng = np.random.default_rng(400 + m)
    M = 3**m
    for rows, cols, blocked in [(2 * PANEL + 40, 2 * PANEL + 60, True), (4 * PANEL + 3, 4 * PANEL + 10, True),
                                (PANEL, 6 * PANEL, False), (PANEL + 9, 2 * PANEL - 8, False)]:
        A = random_matrix(rng, (rows, cols), m) + np.eye(rows, cols, dtype=np.int64)
        H = linalg.howell(A, m)
        assert (H.rows.shape[0] > 2 * PANEL) == blocked
        in_span = rng.integers(0, M, size=(10, H.rows.shape[0])) @ H.rows
        V = np.vstack([rng.integers(-M, M, size=(10, cols)), in_span])
        want = oracle.reduce_mod_span_unblocked(H, V, m)
        assert np.array_equal(linalg.reduce_mod_span(H, V, m), want)
        assert np.array_equal(linalg.reduce_mod_span(H, V[3], m), want[3])
        assert want[:10].any() and not want[10:].any()


@pytest.mark.parametrize("m", [1, 2, 4])
def test_reduce_mod_span_over_several_row_blocks_matches_the_unblocked_loop(m):
    # more hit rows than one final product takes: each block of _ZM_ROWS
    # rows gets its own product, the last one partial
    rng = np.random.default_rng(450 + m)
    M = 3**m
    rows, cols = 2 * PANEL + 20, 2 * PANEL + 40
    H = linalg.howell(random_matrix(rng, (rows, cols), m) + np.eye(rows, cols, dtype=np.int64), m)
    n = linalg._ZM_ROWS + 40
    in_span = rng.integers(0, M, size=(n, H.rows.shape[0])) @ H.rows
    V = np.vstack([rng.integers(-M, M, size=(n, cols)), in_span])[rng.permutation(2 * n)]
    want = oracle.reduce_mod_span_unblocked(H, V, m)
    assert np.array_equal(linalg.reduce_mod_span(H, V, m), want)
    assert want.any(axis=1).sum() > linalg._ZM_ROWS


@pytest.mark.parametrize("panel", [1, 3, 7])
@pytest.mark.parametrize("m", [*BLOCKED_MODULI, 19])
def test_narrow_panels_match_the_unblocked_loops(monkeypatch, m, panel):
    # panels of 1, 3 and 7 columns: every input crosses many panel
    # boundaries, so each trailing product runs and the pivots of later
    # panels reduce the rows of earlier ones (at m = 19, 6 columns at most)
    monkeypatch.setattr(linalg, "_ZM_PANEL", panel)
    rng = np.random.default_rng(900 + 10 * m + panel)
    M = 3**m
    ncols = 6 if m == 19 else 5 * panel + 4
    for rows in (ncols + 3, ncols // 2 + 1):
        A = rng.integers(-2, 3, size=(rows, ncols)) * 3 ** rng.integers(0, m + 1, size=(rows, ncols)) % M
        A[:, panel : 2 * panel] = 0
        H = assert_same_blocked(A, m)
        C = rng.integers(0, M, size=(4, H.rows.shape[0]))
        in_span = (C.astype(object).dot(H.rows.astype(object)) % M).astype(np.int64)
        V = np.vstack([rng.integers(0, M, size=(6, ncols)), in_span])
        want = oracle.reduce_mod_span_unblocked(H, V, m)
        assert np.array_equal(linalg.reduce_mod_span(H, V, m), want)
        assert not want[6:].any()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_and_image_read_off_one_howell_form(m):
    rng = np.random.default_rng(500 + m)
    M = 3**m
    for b, a in [(3, 5), (40, 30), (2 * PANEL, PANEL + 3), (90, 200), (0, 4), (4, 0)]:
        A = random_matrix(rng, (b, a), m) if a and b else np.zeros((b, a), dtype=np.int64)
        K, I = linalg.kernel_and_image(A, m)
        H = linalg.image(A, m)
        assert np.array_equal(I.rows, H.rows)
        assert (I.pivot_cols, I.pivot_vals) == (H.pivot_cols, H.pivot_vals)
        if m > 1:
            assert np.array_equal(K.rows, linalg.kernel(A, m))
        if m > 1 and a and b:
            aug = oracle.howell_unblocked(np.hstack([A.T % M, np.eye(a, dtype=np.int64)]), m)
            want = [row[b:] for row in aug.rows if not row[:b].any()]
            assert np.array_equal(K.rows, np.array(want, dtype=np.int64).reshape(len(want), a))
            assert np.array_equal(I.rows, oracle.howell_unblocked(A.T, m).rows)
        # the kernel rows are their own Howell form, and A kills them
        if K.rows.shape[0]:
            again = linalg.howell(K.rows, m)
            assert np.array_equal(again.rows, K.rows)
            assert (again.pivot_cols, again.pivot_vals) == (K.pivot_cols, K.pivot_vals)
            assert not linalg.matmul_mod(A, K.rows.T, m).any()
        assert K.log3_size(m) + I.log3_size(m) == m * a


@pytest.mark.parametrize("m", [2, 3, 8, 16])
def test_matmul_mod_is_the_exact_product(m):
    # the float64 branch up to k (3^m - 1)^2 < 2^53, int64 beyond; at m = 16
    # the branch changes between k = 4 and k = 5
    rng = np.random.default_rng(600 + m)
    M = 3**m
    for k in (1, 4, 5, 37, 300):
        if k * 9**m >= 2**63:
            continue
        A = rng.integers(-2 * M, 2 * M, size=(7, k))
        B = rng.integers(0, M, size=(k, 9))
        want = (A.astype(object) % M).dot(B.astype(object)) % M
        got = linalg.matmul_mod(A, B, m)
        assert got.dtype == np.int64
        assert np.array_equal(got, want.astype(np.int64))
        assert np.array_equal(linalg.matmul_mod(A, B[:, 0], m), got[:, 0])


def test_matmul_mod_and_the_engine_at_m_19():
    # the int64 bound admits inner dimensions up to 6 at m = 19; the float64
    # branch admits none, and no input there is wider than one panel
    from stab23.errors import ExactnessBoundExceeded

    rng = np.random.default_rng(19)
    M = 3**19
    A = rng.integers(0, M, size=(3, 6))
    B = rng.integers(0, M, size=(6, 4))
    want = A.astype(object).dot(B.astype(object)) % M
    assert np.array_equal(linalg.matmul_mod(A, B, 19), want.astype(np.int64))
    with pytest.raises(ExactnessBoundExceeded):
        linalg.matmul_mod(rng.integers(0, M, size=(2, 7)), rng.integers(0, M, size=(7, 2)), 19)
    for shape in [(5, 6), (8, 3), (2, 6)]:
        A = rng.integers(0, M, size=shape) * 3 ** rng.integers(0, 15, size=shape) % M
        H = assert_same_blocked(A, 19)
        V = rng.integers(0, M, size=(4, shape[1]))
        assert np.array_equal(linalg.reduce_mod_span(H, V, 19), oracle.reduce_mod_span_unblocked(H, V, 19))
    with pytest.raises(ExactnessBoundExceeded):
        linalg.howell(np.ones((2, 2 * PANEL + 1), dtype=np.int64), 19)


# -- the dtype rule: narrow working types against the int64 oracle ----------------

DTYPE_MODULI = [1, 2, 3, 4, 5]


def test_residue_dtypes_are_the_narrowest_exact_types():
    # storage holds 3^m - 1 and working holds (3^m - 1)^2 + 3^m, each in the
    # narrowest signed type, up to the m at which _check_exact refuses
    # every width
    ints = [np.int8, np.int16, np.int32, np.int64]
    for m in range(1, 20):
        M = 3**m
        store, work = linalg.residue_dtypes(m)
        for t, bound in ((store, M - 1), (work, (M - 1) ** 2 + M)):
            assert np.iinfo(t).max >= bound
            k = ints.index(t)
            assert k == 0 or np.iinfo(ints[k - 1]).max < bound
    table = {1: (np.int8, np.int8), 2: (np.int8, np.int8), 3: (np.int8, np.int16),
             4: (np.int8, np.int16), 5: (np.int16, np.int32), 9: (np.int16, np.int32),
             10: (np.int32, np.int64), 19: (np.int32, np.int64), 20: (np.int64, np.int64)}
    for m, want in table.items():
        assert linalg.residue_dtypes(m) == want


def forced_working(monkeypatch, work):
    """Run the engine with working type ``work`` in place of the rule's."""
    rule = linalg.residue_dtypes
    monkeypatch.setattr(linalg, "residue_dtypes", lambda m: (rule(m)[0], work))


def extreme_zm_inputs(rng, m):
    """Matrices dense in 3^m - 1, the residue whose products are largest,
    and in its 3-multiples, so that a working type too narrow wraps."""
    M = 3**m
    top = M - 1
    inputs = [
        np.full((5, 7), top, dtype=np.int64),
        rng.choice([0, top, top, top - 1, 1, 3 ** (m - 1)], size=(PANEL + 9, 2 * PANEL + 20)),
        rng.choice([top, M - 3, 2], size=(40, 30)),
    ]
    low = rng.integers(0, M, size=(50, 4)) @ rng.integers(0, M, size=(4, 60)) % M
    inputs.append(np.where(low % 2 == 0, top, low))
    return inputs


def oracle_howell(A, m):
    return oracle.howell(A, 1) if m == 1 else oracle.howell_unblocked(A, m)


def oracle_quotient_invariants(K, I, m):
    """The exponents from the log-sizes of every layer 3^j K + I, each from
    the oracle's Howell form."""
    M = 3**m
    n = [oracle_howell(np.vstack([3**j * K % M, I]), m).log3_size(m) for j in range(m + 1)]
    gt = [n[j] - (n[j + 1] if j < m else 0) for j in range(m + 1)]
    return sorted(e for e in range(1, m + 1) for _ in range(gt[e - 1] - (gt[e] if e < m else 0)))


# each modulus with the rule's working type (None) and with every type of
# int16, int32 and int64 that is at least as wide, forced in its place
WORKING = [
    (m, work) for m in DTYPE_MODULI for work in (None, np.int16, np.int32, np.int64)
    if work is None or np.iinfo(work).max >= (3**m - 1) ** 2 + 3**m
]


@pytest.mark.parametrize(
    "m, work", WORKING, ids=[f"{m}-{w.__name__ if w else 'rule'}" for m, w in WORKING]
)
def test_engine_in_each_working_type_matches_the_int64_oracle(monkeypatch, m, work):
    # the rule's type, and every wider one forced in its place, give the
    # int64 oracle's Howell forms, kernels, remainders and invariants on
    # inputs full of 3^m - 1; the results are int64 unless asked otherwise
    M = 3**m
    if work is not None:
        forced_working(monkeypatch, work)
    rng = np.random.default_rng(700 + m)
    for A in extreme_zm_inputs(rng, m):
        for rows in (A, A.astype(linalg.residue_dtypes(m)[0])):
            H, want = linalg.howell(rows, m), oracle_howell(A, m)
            assert H.rows.dtype == np.int64 and np.array_equal(H.rows, want.rows)
            assert (H.pivot_cols, H.pivot_vals) == (want.pivot_cols, want.pivot_vals)
        K, I = linalg.kernel_and_image(A, m)
        b, a = A.shape
        aug = oracle_howell(np.hstack([A.T % M, np.eye(a, dtype=np.int64)]), m)
        ker = [row[b:] for row in aug.rows if not row[:b].any()]
        assert K.rows.dtype == I.rows.dtype == np.int64
        assert np.array_equal(K.rows, np.array(ker, dtype=np.int64).reshape(len(ker), a))
        assert np.array_equal(I.rows, oracle_howell(A.T, m).rows)
        narrow = linalg.kernel_and_image(A, m, linalg.residue_dtypes(m)[0])[0].rows
        assert narrow.dtype == linalg.residue_dtypes(m)[0] and np.array_equal(narrow, K.rows)
        in_span = rng.integers(0, M, size=(3, H.rows.shape[0])) @ H.rows
        V = np.vstack([rng.choice([0, M - 1, M - 2], size=(6, a)), in_span])
        got = linalg.reduce_mod_span(H, V, m)
        for v, r in zip(V, got):
            assert np.array_equal(r, oracle.reduce_mod_span(want, v, m))
        assert not got[6:].any()
        C = rng.choice([M - 1, 1, 3], size=(4, b)) * 3 ** rng.integers(0, m + 1, size=(4, 1))
        assert linalg.quotient_invariants(A, C @ A % M, m) == oracle_quotient_invariants(A, C @ A % M, m)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_matmul_mod_switches_float32_to_float64_at_its_bound(monkeypatch, m):
    # with the bound moved to k (3^m - 1)^2 the same products run in
    # float64 and one above it in float32; both are the exact product,
    # on entries 3^m - 1 that make the partial sums as large as they get
    rng = np.random.default_rng(800 + m)
    M = 3**m
    k = 23
    A = np.where(rng.random((9, k)) < 0.7, M - 1, rng.integers(-M, M, size=(9, k)))
    B = np.where(rng.random((k, 11)) < 0.7, M - 1, rng.integers(0, M, size=(k, 11)))
    want = (A.astype(object) % M).dot(B.astype(object) % M) % M
    for bound, ptype in [(k * (M - 1) ** 2, np.float64), (k * (M - 1) ** 2 + 1, np.float32)]:
        monkeypatch.setattr(linalg, "_F32_BOUND", bound)
        assert linalg._product_dtype(k, m) is ptype
        for a, b in ((A, B), (A % M, (B % M).astype(linalg.residue_dtypes(m)[0]))):
            got = linalg.matmul_mod(a, b, m)
            assert got.dtype == np.int64 and np.array_equal(got, want.astype(np.int64))
            narrow = linalg.matmul_mod(a, b, m, linalg.residue_dtypes(m)[0])
            assert narrow.dtype == linalg.residue_dtypes(m)[0] and np.array_equal(narrow, got)
    monkeypatch.undo()
    # unpatched, the switch sits at the bound itself
    bound = (2**24 - 1) // (M - 1) ** 2
    assert linalg._product_dtype(bound, m) is np.float32
    assert linalg._product_dtype(bound + 1, m) is np.float64
