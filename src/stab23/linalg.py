"""Exact linear algebra over the chain rings Z/3^m.

Z/3^m is not a field, so kernels and images are computed through the
Howell normal form (the canonical span form valid over chain rings) and
a Smith-style diagonalization.  Conventions: vectors are 1-d int64
arrays, a linear map R^a -> R^b is a matrix of shape (b, a) acting by
``A @ x``, and "span" always means the row span of a 2-d array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def modulus(m: int) -> int:
    return 3**m


def _check_exact(n: int, m: int) -> None:
    """Refuse sizes at which int64 arithmetic could wrap.

    Entries stay in [0, 3^m) and a product sums at most n terms, so the
    routines here are exact while n * 3^(2m) < 2^63.
    """
    if n * 9**m >= 2**63:
        raise ValueError(
            f"int64 bound n * 3^(2m) < 2^63 fails for n = {n} columns, m = {m}"
        )


_VAL_TABLE_MAX_M = 10


@lru_cache(maxsize=None)
def _val_table(m: int) -> np.ndarray:
    """3-adic valuations of 0 .. 3^m - 1, with 0 mapped to m + 1."""
    T = np.zeros(3**m, dtype=np.int64)
    for v in range(1, m):
        T[:: 3**v] = v
    T[0] = m + 1
    T.flags.writeable = False
    return T


def valuations(X: np.ndarray, m: int) -> np.ndarray:
    """Entrywise 3-adic valuations of X, entries in [0, 3^m); 0 maps to m + 1."""
    if m <= _VAL_TABLE_MAX_M:
        return _val_table(m)[X]
    # split off the low 3^k digits so the tables stay small for large m
    k = _VAL_TABLE_MAX_M
    low = _val_table(k)[X % 3**k]
    return np.where(low <= k, low, k + valuations(X // 3**k, m - k))


def _as_matrix(rows, m: int) -> np.ndarray:
    A = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    _check_exact(A.shape[-1], m)
    if A.size == 0:
        return A.reshape(0, A.shape[1] if A.ndim == 2 else 0)
    return A % modulus(m)


@dataclass
class HowellForm:
    rows: np.ndarray       # canonical basis of the row span, no zero rows
    pivot_cols: list
    pivot_vals: list       # 3-adic valuation of each pivot entry

    @property
    def nrows(self) -> int:
        return self.rows.shape[0]

    def log3_size(self, m: int) -> int:
        """log_3 of the number of elements of the span."""
        return sum(m - v for v in self.pivot_vals)


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


def kernel_f3(A) -> np.ndarray:
    """Kernel basis over F3 via RREF (field fast path)."""
    A = _as_matrix(A, 1)
    b, a = A.shape
    if a == 0:
        return np.zeros((0, 0), dtype=np.int64)
    R, pivots = rref_f3(A)
    pivot_set = set(pivots)
    free = [j for j in range(a) if j not in pivot_set]
    out = np.zeros((len(free), a), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    if pivots and free:
        out[:, pivots] = (-R[:, free].T) % 3
    return out


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


def in_span(H: HowellForm, vec, m: int) -> bool:
    return not reduce_mod_span(H, vec, m).any()


def span_contains(H: HowellForm, rows, m: int) -> bool:
    A = _as_matrix(rows, m)
    return all(in_span(H, r, m) for r in A)


class F3Space:
    """Incrementally grown row space over F3 with matmul-based reduction.

    A float64 mirror of the basis feeds BLAS; entries stay tiny, so the
    products are exact.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self._rows_f = np.zeros((0, ncols), dtype=np.float64)
        self.pivots: list = []

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def reduce(self, B: np.ndarray) -> np.ndarray:
        B = np.atleast_2d(B) % 3
        if self.dim and B.size:
            coeffs = B[:, self.pivots].astype(np.float64)
            prod = (coeffs @ self._rows_f).astype(np.int64)
            B = (B - prod) % 3
        return B

    def add(self, B: np.ndarray) -> int:
        """Insert the rows of B; returns how many new dimensions appeared."""
        B = self.reduce(B)
        R, pivots = rref_f3(B)
        if not pivots:
            return 0
        if self.dim:
            # keep proper RREF: clear the new pivot columns in the old rows
            coeffs = self.rows[:, pivots].astype(np.float64)
            self.rows = (self.rows - (coeffs @ R.astype(np.float64)).astype(np.int64)) % 3
        self.rows = np.vstack([self.rows, R])
        self._rows_f = self.rows.astype(np.float64)
        self.pivots.extend(pivots)
        return len(pivots)

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()


def kernel(A, m: int) -> np.ndarray:
    """Rows spanning {x : A @ x == 0 mod 3^m}."""
    M = modulus(m)
    A = _as_matrix(A, m)
    b, a = A.shape
    if a == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if m == 1:
        return kernel_f3(A)
    aug = np.hstack([A.T % M, np.eye(a, dtype=np.int64)])
    H = howell(aug, m)
    out = [row[b:] for row in H.rows if not row[:b].any()]
    if not out:
        return np.zeros((0, a), dtype=np.int64)
    return np.array(out, dtype=np.int64)


def image(A, m: int) -> HowellForm:
    """Howell basis of {A @ x} (the column span of A)."""
    A = _as_matrix(A, m)
    return howell(A.T, m)


def solve(A, b, m: int):
    """One x with A @ x == b mod 3^m, or None."""
    M = modulus(m)
    A = _as_matrix(A, m)
    nb, na = A.shape
    aug = np.hstack([A.T % M, np.eye(na, dtype=np.int64)])
    H = howell(aug, m)
    r = np.asarray(b, dtype=np.int64).copy() % M
    x = np.zeros(na, dtype=np.int64)
    for (col, v, row) in zip(H.pivot_cols, H.pivot_vals, H.rows):
        if col >= nb:
            break
        q = int(r[col]) // 3**v
        if q:
            r = (r - q * row[:nb]) % M
            x = (x + q * row[nb:]) % M
    if r.any():
        return None
    return x


def span_log_size(rows, m: int) -> int:
    return howell(rows, m).log3_size(m)


def quotient_invariants(K_rows, I_rows, m: int) -> list:
    """Invariant factor exponents of span(K)/span(I), I a submodule of K.

    Returns a sorted list of exponents e, one per cyclic factor Z/3^e.
    """
    M = modulus(m)
    K = _as_matrix(K_rows, m)
    I = _as_matrix(I_rows, m)
    if K.size == 0:
        return []
    if I.size == 0:
        I = np.zeros((0, K.shape[1]), dtype=np.int64)
    # sanity: I must sit inside K
    HK = howell(K, m)
    for r in I:
        if not in_span(HK, r, m):
            raise ValueError("quotient_invariants: I is not contained in K")
    n = [0] * (m + 2)
    for j in range(m + 1):
        rows = np.vstack([(3**j * K) % M, I]) if I.size else (3**j * K) % M
        n[j] = span_log_size(rows, m)
    counts_gt = [n[j] - n[j + 1] for j in range(m + 1)]  # factors with exponent > j
    exps = []
    for e in range(1, m + 1):
        c = counts_gt[e - 1] - (counts_gt[e] if e <= m - 1 else 0)
        exps.extend([e] * c)
    return sorted(exps)


def smith_kernel(A, m: int):
    """Saturated kernel of an integer matrix known modulo 3^m.

    Diagonalizes A with unimodular row and column operations.  Divisor
    valuations v < m are exact for any lift of A; the returned rows span
    the reduction mod 3^m of the Z_3-kernel of any lift, assuming no
    true divisor valuation lies in [m, infinity).  Callers re-run at a
    higher precision to certify that assumption.

    Each pivot is an entry of least valuation in the active block (the
    rows and columns not yet used), the first one in row-major order.
    Only the active block is searched, and only the rows and columns a
    pivot meets are updated.

    Returns (kernel_rows, divisor_vals).
    """
    M = modulus(m)
    W = _as_matrix(A, m)
    b, a = W.shape
    C = np.eye(a, dtype=np.int64)
    # valuations of W on the active block; zero reads m + 1, and a used
    # row or column reads m + 2, so argmin scans in row-major order
    V = valuations(W, m)
    divisors = []
    while V.size:
        i, j = divmod(int(V.argmin()), a)
        v = int(V[i, j])
        if v > m:  # the active block is zero
            break
        W[i] = W[i] * pow(int(W[i, j]) // 3**v, -1, M) % M
        # clear row i by column operations (tracked in C)
        q = W[i] // 3**v
        q[j] = 0
        qc = q.nonzero()[0]
        if qc.size:
            q = q[qc]
            rr = W[:, j].nonzero()[0][:, None]
            W[rr, qc] = (W[rr, qc] - W[rr, j] * q) % M
            V[rr, qc] = valuations(W[rr, qc], m)
            rr = C[:, j].nonzero()[0][:, None]
            C[rr, qc] = (C[rr, qc] - C[rr, j] * q) % M
        # clear column j by row operations (untracked); row i is now
        # 3^v e_j, so only column j changes, and it is retired below
        p = W[:, j] // 3**v
        p[i] = 0
        pr = p.nonzero()[0][:, None]
        if pr.size:
            ci = W[i].nonzero()[0]
            W[pr, ci] = (W[pr, ci] - p[pr] * W[i, ci]) % M
        V[i] = m + 2
        V[:, j] = m + 2
        divisors.append(v)
    zero_cols = (~W.any(axis=0)).nonzero()[0]
    if not zero_cols.size:
        return np.zeros((0, a), dtype=np.int64), divisors
    ker = C[:, zero_cols].T % M
    return ker, divisors


def fixed_basis(ops, m: int):
    """Saturated simultaneous kernel of (op - 1) over all given operators."""
    if not ops:
        raise ValueError("fixed_basis needs at least one operator")
    n = ops[0].shape[0]
    stacked = np.vstack([(op - np.eye(n, dtype=np.int64)) for op in ops])
    ker, _ = smith_kernel(stacked, m)
    return ker


def free_rank(rows, m: int) -> int:
    """Number of Z/3^m-free summands of the span of ``rows``."""
    M = modulus(m)
    A = _as_matrix(rows, m)
    if A.size == 0:
        return 0
    return span_log_size((3 ** (m - 1) * A) % M, m)
