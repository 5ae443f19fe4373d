"""The elimination loops of ``stab23.linalg`` as first written.

``howell`` and ``smith_kernel`` below are the row-by-row versions that
``stab23.linalg`` replaced with active-submatrix elimination over Z/3^m
(and ``smith_kernel`` then with one batched loop over the independent
blocks of its input).
``rref_f3`` and ``reduce_mod_span`` are the column loop over F3 and the
one-vector reduction that the blocked F3 engine (``linalg.F3Space``)
replaced.  ``module_closure_f3`` is the closure under a group that
``minres`` and ``resolution`` ran before they took the plain span of the
(g - 1) blocks.  ``howell_unblocked`` (m >= 2) and
``reduce_mod_span_unblocked`` (every m) are the loops of the
active-submatrix engine, as they ran on the whole matrix before
``stab23.linalg`` split them into panels.
``chi_idempotent`` and ``verify_chi_summand_dense`` are the dense n x n
chi idempotent on Q8-cosets and the check that ran on it before
``stab23.resolution`` checked the right-translation table against
(1 - sigma)/2.  ``boundary_on_pairs_two_sided`` is the pair boundary
(g_p - g_sigma(p)) . c from two action tables, before
``stab23.resolution`` read it as 2 g_p . c off one.
``fixed_subquotient_span`` is the span of a fixed subquotient of a
cohomology cell as ``stab23.cohomology`` computed it before it read the
fixed y off one Howell form without the relation columns: through the
kernel of the operator blocks beside -I^T.  Tests compare old and new
for exact equality (of the spans' Howell forms, for the last).  They are
a test oracle only.
"""

from __future__ import annotations

import numpy as np

from stab23.linalg import (
    F3Space,
    HowellForm,
    _as_matrix,
    _check_exact,
    free_rank,
    image,
    kernel,
    matmul_mod,
    modulus,
    signed_permute,
    span_log_size,
    valuations,
)


def rref_f3(A: np.ndarray) -> tuple:
    """Row-reduced echelon form over F3, fully vectorized.

    Returns (rows, pivot_cols); rows are the nonzero reduced rows.
    """
    W = (np.asarray(A, dtype=np.int64) % 3).astype(np.int8)
    nrows, ncols = W.shape
    r = 0
    pivots = []
    for col in range(ncols):
        if r >= nrows:
            break
        sub = W[r:, col]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            W[[r, i]] = W[[i, r]]
        if W[r, col] == 2:
            W[r] = (2 * W[r]) % 3
        colvals = W[:, col].copy()
        colvals[r] = 0
        mask = colvals != 0
        if mask.any():
            W[mask] = (W[mask] + np.outer((3 - colvals[mask]) % 3, W[r])) % 3
        pivots.append(col)
        r += 1
    return W[:r].astype(np.int64), pivots



def module_closure_f3(blocks, gens, ncols: int) -> F3Space:
    """The F3-span of the rows of ``blocks`` closed under ``gens``.

    Each generator is a signed column permutation ``(perm, sign)`` as in
    ``signed_permute``.  Only the rows each round adds are moved again.
    """
    space = F3Space(ncols)
    for B in blocks:
        space.add(B)
    frontier = space.rows
    while frontier.size:
        fresh = []
        for perm, sign in gens:
            before = space.dim
            if space.add(signed_permute(frontier, perm, sign)):
                fresh.append(space.rows[before:])
        frontier = np.vstack(fresh) if fresh else frontier[:0]
    return space


def reduce_mod_span(H: HowellForm, vec, m: int) -> np.ndarray:
    """Canonical remainder of ``vec`` under the Howell basis ``H``."""
    M = modulus(m)
    r = np.asarray(vec, dtype=np.int64).copy()
    _check_exact(r.size, m)
    r %= M
    if m == 1:
        if H.rows.size:
            coeffs = r[np.asarray(H.pivot_cols, dtype=np.int64)]
            r = (r - coeffs @ H.rows) % 3
        return r
    for (col, v, row) in zip(H.pivot_cols, H.pivot_vals, H.rows):
        q = int(r[col]) // 3**v
        if q:
            r = (r - q * row) % M
    return r



def val3(x: int, m: int) -> int:
    """3-adic valuation of x mod 3^m, capped at m (val3(0) == m)."""
    x = int(x) % (3**m)
    if x == 0:
        return m
    v = 0
    while x % 3 == 0:
        x //= 3
        v += 1
    return v



def _leading(row: np.ndarray) -> int:
    nz = np.nonzero(row)[0]
    return int(nz[0]) if nz.size else -1



def howell(rows, m: int) -> HowellForm:
    """Howell normal form of the row span of ``rows`` over Z/3^m.

    The returned rows satisfy the Howell property: every span element
    whose first j coordinates vanish is a combination of the returned
    rows whose pivots lie beyond column j.
    """
    M = modulus(m)
    A = _as_matrix(rows, m)
    if A.size == 0:
        return HowellForm(A.reshape(0, A.shape[1] if A.ndim == 2 else 0), [], [])
    if m == 1:
        R, pivots = rref_f3(A)
        return HowellForm(R, pivots, [0] * len(pivots))
    ncols = A.shape[1]
    buckets: dict = {}

    def push(row):
        lead = _leading(row)
        if lead >= 0:
            buckets.setdefault(lead, []).append(row)

    for r in A:
        push(r.copy())
    placed = []  # (col, val, row)
    for col in range(ncols):
        bucket = buckets.pop(col, None)
        if not bucket:
            continue
        vals = [val3(r[col], m) for r in bucket]
        k = int(np.argmin(vals))
        v = vals[k]
        p = bucket.pop(k)
        u = int(p[col]) // 3**v
        p = (p * pow(u, -1, M)) % M
        for r in bucket:
            q = int(r[col]) // 3**v  # exact: v is minimal in the bucket
            push((r - q * p) % M)
        if v > 0:
            push((3 ** (m - v) * p) % M)
        placed.append((col, v, p))
    # reduce entries above each pivot to their canonical range [0, 3^v)
    for i, (col, v, p) in enumerate(placed):
        for j in range(i):
            q = int(placed[j][2][col]) // 3**v
            if q:
                placed[j] = (placed[j][0], placed[j][1], (placed[j][2] - q * p) % M)
    if not placed:
        return HowellForm(np.zeros((0, ncols), dtype=np.int64), [], [])
    return HowellForm(
        np.array([p for _, _, p in placed], dtype=np.int64),
        [c for c, _, _ in placed],
        [v for _, v, _ in placed],
    )



def smith_kernel(A, m: int):
    """Saturated kernel of an integer matrix known modulo 3^m.

    Diagonalizes A with unimodular row and column operations.  Divisor
    valuations v < m are exact for any lift of A; the returned rows span
    the reduction mod 3^m of the Z_3-kernel of any lift, assuming no
    true divisor valuation lies in [m, infinity).  Callers re-run at a
    higher precision to certify that assumption.

    Returns (kernel_rows, divisor_vals).
    """
    M = modulus(m)
    A = _as_matrix(A, m)
    b, a = A.shape
    W = A.copy()
    C = np.eye(a, dtype=np.int64)
    used_rows: list = []
    used_cols: list = []
    divisors = []
    while True:
        mask = np.ones_like(W, dtype=bool)
        if used_rows:
            mask[used_rows, :] = False
        if used_cols:
            mask[:, used_cols] = False
        sub = np.where(mask, W, 0)
        if not sub.any():
            break
        # pivot with minimal valuation in the remaining submatrix
        flat = sub.ravel()
        nz = np.nonzero(flat)[0]
        vals = np.array([val3(int(flat[i]), m) for i in nz])
        pos = nz[int(np.argmin(vals))]
        i, j = divmod(int(pos), a)
        v = val3(int(W[i, j]), m)
        u = int(W[i, j]) // 3**v
        W[i, :] = (W[i, :] * pow(u, -1, M)) % M
        # clear row i by column operations (tracked in C)
        q = W[i, :] // 3**v
        q[j] = 0
        if q.any():
            W = (W - np.outer(W[:, j], q)) % M
            C = (C - np.outer(C[:, j], q)) % M
        # clear column j by row operations (untracked)
        p = W[:, j] // 3**v
        p[i] = 0
        if p.any():
            W = (W - np.outer(p, W[i, :])) % M
        used_rows.append(i)
        used_cols.append(j)
        divisors.append(v)
    zero_cols = [j for j in range(a) if not W[:, j].any()]
    if not zero_cols:
        return np.zeros((0, a), dtype=np.int64), divisors
    ker = C[:, zero_cols].T % M
    return ker, divisors


def howell_unblocked(rows, m: int) -> HowellForm:
    """The m >= 2 column loop of ``linalg.howell`` before its panels: the
    whole matrix is one panel, and the above-pivot pass is one loop."""
    assert m >= 2
    M = modulus(m)
    A = _as_matrix(rows, m)
    if A.size == 0:
        return HowellForm(A.reshape(0, A.shape[1] if A.ndim == 2 else 0), [], [])
    ncols = A.shape[1]
    # A holds the pending rows; every pending row vanishes left of ``col``
    # and a spent row is zero, so the rows led by ``col`` are its nonzeros
    piv_cols, piv_vals, piv_rows = [], [], []
    for col in range(ncols):
        idx = A[:, col].nonzero()[0]
        if not idx.size:
            continue
        vals = valuations(A[idx, col], m)
        k = int(vals.argmin())
        v = int(vals[k])
        r = idx[k]
        p = A[r] * pow(int(A[r, col]) // 3**v, -1, M) % M
        # clear the column in every row that meets it; row r itself goes
        # to zero and then holds 3^(m-v) p, which is zero when v == 0
        q = (A[idx, col] // 3**v)[:, None]  # exact: v is minimal in the column
        s = p.nonzero()[0]
        idx = idx[:, None]
        A[idx, s] = (A[idx, s] - q * p[s]) % M
        A[r] = 3 ** (m - v) * p % M
        piv_cols.append(col)
        piv_vals.append(v)
        piv_rows.append(p)
    if not piv_rows:
        return HowellForm(np.zeros((0, ncols), dtype=np.int64), [], [])
    R = np.array(piv_rows, dtype=np.int64)
    # reduce entries above each pivot to their canonical range [0, 3^v)
    for i, (col, v) in enumerate(zip(piv_cols, piv_vals)):
        q = R[:i, col] // 3**v
        t = q.nonzero()[0]
        if t.size:
            s = R[i].nonzero()[0]
            R[t[:, None], s] = (R[t[:, None], s] - q[t, None] * R[i, s]) % M
    return HowellForm(R, piv_cols, piv_vals)


def reduce_mod_span_unblocked(H: HowellForm, vec, m: int) -> np.ndarray:
    """The pivot loop of ``linalg.reduce_mod_span`` before its panels, at
    every m: at m = 1 ``H`` is an RREF, every valuation 0."""
    M = modulus(m)
    r = np.asarray(vec, dtype=np.int64) % M
    _check_exact(r.shape[-1], m)
    for (col, v, row) in zip(H.pivot_cols, H.pivot_vals, H.rows):
        q = r[..., col] // 3**v
        if q.any():
            r = (r - q[..., None] * row) % M
    return r


def chi_idempotent(ld) -> np.ndarray:
    """e_chi = (1/16) sum eps(alpha) * (right translation by alpha) on the
    Q8-cosets of a ``resolution.LevelData``, as a dense n x n matrix."""
    cos = ld.chi.cosets
    right = cos.coset_id[ld.fq.mul_table(cos.reps, ld.fq.subgroup_image("SD16"))]
    n = right.shape[0]
    E = np.zeros((n, n), dtype=np.int64)
    np.add.at(E, (right, np.arange(n)[:, None]), ld.sd16_sign)
    return (pow(16, -1, ld.M) * (E % ld.M)) % ld.M


def boundary_on_pairs_two_sided(ld, c, space: str) -> np.ndarray:
    """The pair boundary of a ``resolution.LevelData`` by its definition:
    pair p maps to (g_p - g_sigma(p)) . c, with g_p and g_sigma(p) the
    representatives of the coset leading pair p and of its partner, as
    int64 residues."""
    x = ld.chi.pair_rep
    reps = ld.chi.cosets.reps
    c = np.asarray(c, dtype=np.int64) % ld.M
    at_x = signed_permute(c, *ld.actions(reps[x], space))
    at_y = signed_permute(c, *ld.actions(reps[ld.chi.sigma[x]], space))
    return ((at_x - at_y) % ld.M).T


def verify_chi_summand_dense(ld) -> dict:
    """Idempotency, rank |G|/16 and the chi + tau decomposition, computed
    on the dense idempotent by Howell forms over Z/3^m."""
    M, m = ld.M, ld.m
    E = chi_idempotent(ld)
    n = E.shape[0]
    idem = np.array_equal(matmul_mod(E, E, m), E)
    chi_rows = image(E, m).rows
    rank = free_rank(chi_rows, m)
    tau_rows = image((np.eye(n, dtype=np.int64) - E) % M, m).rows
    full = span_log_size(np.vstack([chi_rows, tau_rows]), m) == m * n
    expected = ld.fq.order // 16
    return {
        "idempotent": idem,
        "rank": int(rank),
        "rank_expected": expected,
        "chi_plus_tau_full": bool(full),
        "ok": idem and rank == expected and full,
    }


def fixed_subquotient_span(K: np.ndarray, I: np.ndarray, ops: list, m: int) -> np.ndarray:
    """The rows [y K; I] spanning the fixed part of span(K)/span(I) under
    ``ops``: y runs over the kernel of the blocks [(op - 1) K^T | -I^T in
    the op's z-columns], one row block per op, cut to its y-columns."""
    M = modulus(m)
    r, n = K.shape
    ni = I.shape[0]
    blocks = []
    for pos, op in enumerate(ops):
        row = np.zeros((n, r + len(ops) * ni), dtype=np.int64)
        row[:, :r] = (matmul_mod(op, K.T, m) - K.T) % M
        if ni:
            j = r + pos * ni
            row[:, j : j + ni] = (-I.T) % M
        blocks.append(row)
    ker = kernel(np.vstack(blocks) % M, m)
    y_span = ker[:, :r] if ker.size else np.zeros((0, r), dtype=np.int64)
    L = matmul_mod(y_span, K, m) if y_span.size else np.zeros((0, n), dtype=np.int64)
    return np.vstack([L, I]) if I.size else L
