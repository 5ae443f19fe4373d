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

from .errors import ExactnessBoundExceeded


def modulus(m: int) -> int:
    return 3**m


def _check_exact(n: int, m: int) -> None:
    """Refuse sizes at which int64 arithmetic could wrap.

    Entries stay in [0, 3^m) and a product sums at most n terms, so the
    routines here are exact while n * 3^(2m) < 2^63.
    """
    if n * 9**m >= 2**63:
        raise ExactnessBoundExceeded(
            f"int64 bound n * 3^(2m) < 2^63 fails for n = {n} columns, m = {m}"
        )


# rows per block of the F3 engine, and per leaf of its recursive RREF
_F3_BLOCK = 128
_F3_LEAF = 16


def _check_exact_f3(ncols: int) -> None:
    """Refuse widths at which the F3 engine's float64 arithmetic could round.

    The products multiply entries in {0, 1, 2} and sum at most ncols
    terms, so they are exact integers while 4 * ncols < 2^53.  An entry
    minus such a product lies within 4 * ncols + 2 of zero, and ``_mod3``
    reduces it exactly below 2^51, which is the bound enforced.
    """
    if 4 * ncols + 2 >= 2**51:
        raise ExactnessBoundExceeded(f"float64 bound 4 * ncols + 2 < 2^51 fails for ncols = {ncols}")


# columns per panel of the Z/3^m engine, and the width (or pivot count)
# at or below which its loop runs unblocked, as the engine's leaf
_ZM_PANEL = 64
_ZM_LEAF = 128

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
    """Reduced row echelon form over F3 of an integer matrix, read mod 3.

    Returns (rows, pivot_cols): the nonzero reduced rows, in the order of
    their pivot columns, which is how one ``F3Space.add`` leaves them.
    """
    A = np.atleast_2d(np.asarray(A))
    space = F3Space(A.shape[1])
    space.add(A)
    return space.rows, space.pivots


def kernel_f3(A) -> np.ndarray:
    """Kernel basis over F3 via RREF (field fast path)."""
    a = np.atleast_2d(np.asarray(A)).shape[1]
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

    At m >= 2, inputs wider than ``_ZM_LEAF`` columns are eliminated in
    panels of ``_ZM_PANEL`` columns (the blocked scheme of FFLAS-FFPACK,
    Dumas, Giorgi and Pernet): the column loop runs on the panel's
    columns only and records its row operations as T = I + Z S^T, S
    selecting the rows it picked, so one ``matmul_mod`` updates the
    trailing columns and gives the pivot rows there.  The Howell form is
    canonical, so the output is the unblocked loop's.
    """
    if m == 1:
        R, pivots = rref_f3(rows)
        return HowellForm(R, pivots, [0] * len(pivots))
    M = modulus(m)
    A = _as_matrix(rows, m)
    if A.size == 0:
        return HowellForm(A.reshape(0, A.shape[1] if A.ndim == 2 else 0), [], [])
    ncols = A.shape[1]
    width = ncols if ncols <= _ZM_LEAF else _ZM_PANEL
    piv_cols, piv_vals, blocks, panels = [], [], [], []
    for c0 in range(0, ncols, width):
        c1 = min(c0 + width, ncols)
        trail = c1 < ncols
        if trail:
            # only the rows that meet the panel take part in its loop
            live = A[:, c0:c1].any(axis=1).nonzero()[0]
            cols, vals, P, Z, Y, S = _howell_panel(A[live, c0:c1], m, True)
        else:
            cols, vals, P, Z, Y, S = _howell_panel(A[:, c0:], m, False)
        if not cols:
            continue
        R = np.pad(P, ((0, 0), (c0, ncols - c1))) if c0 or trail else P
        if trail:
            # A <- T A and the pivot rows, on the trailing columns S meets
            touched = Z.any(axis=1)
            hit = live[touched][:, None]
            B = A[live[S], c1:]
            nz = B.any(axis=0).nonzero()[0]
            upd = matmul_mod(np.vstack([Z[touched], Y]), B[:, nz], m)
            nz += c1
            A[hit, nz] = (A[hit, nz] + upd[: hit.size]) % M
            R[:, nz] = upd[hit.size :]
        piv_cols += [c0 + j for j in cols]
        piv_vals += vals
        blocks.append(R)
        panels.append((c0, c1, len(cols)))
    if not piv_cols:
        return HowellForm(np.zeros((0, ncols), dtype=np.int64), [], [])
    R = np.vstack(blocks) if len(blocks) > 1 else blocks[0]
    _reduce_above(R, panels, piv_cols, piv_vals, m)
    return HowellForm(R, piv_cols, piv_vals)


def _reduce_above(R: np.ndarray, panels: list, piv_cols: list, piv_vals: list, m: int) -> None:
    """Reduce the entries above each pivot of R to [0, 3^v), in place, a
    panel (c0, c1, number of pivots) at a time: its loop runs on the
    panel's columns, and one product with the panel's rows clears the
    rest.  Those rows are read on the trailing columns, which neither
    this loop nor an earlier panel's changes."""
    M = modulus(m)
    ncols = R.shape[1]
    i0 = 0
    for c0, c1, k in panels:
        i1 = i0 + k
        B = R[i0:i1]
        Q = np.zeros((i1, i1 - i0), dtype=np.int64) if c1 < ncols else None
        for i in range(i0, i1):
            col, v = piv_cols[i], piv_vals[i]
            q = R[:i, col] // 3**v
            t = q.nonzero()[0]
            if t.size:
                s = R[i, c0:c1].nonzero()[0] + c0
                R[t[:, None], s] = (R[t[:, None], s] - q[t, None] * R[i, s]) % M
                if Q is not None:
                    Q[t, i - i0] = q[t]
        if Q is not None and Q.any():
            nz = c1 + B[:, c1:].any(axis=0).nonzero()[0]
            hit = Q.any(axis=1).nonzero()[0][:, None]
            R[hit, nz] = (R[hit, nz] - matmul_mod(Q[hit[:, 0]], B[:, nz], m)) % M
        i0 = i1


def _howell_panel(A: np.ndarray, m: int, track: bool) -> tuple:
    """The column loop of ``howell`` on the pending rows ``A`` of one panel.
    Every pending row vanishes left of the current column and a spent row
    is zero, so the rows led by a column are its nonzeros.

    Returns (cols, vals, P, Z, Y, S): the pivot columns and valuations and
    the pivot rows on the panel.  With ``track`` the loop runs on [A | I],
    so the identity block records its row operations T = I + Z S^T: the
    rows become A + Z A[S] and the pivot rows Y A[S].  Without it, A
    itself is eliminated in place.
    """
    M = modulus(m)
    n, w = A.shape
    if track:
        A = np.hstack([A, np.eye(n, dtype=np.int64)])
    cols, vals, prows, picked = [], [], [], {}
    for col in range(w):
        idx = A[:, col].nonzero()[0]
        if not idx.size:
            continue
        vj = valuations(A[idx, col], m)
        k = int(vj.argmin())
        v = int(vj[k])
        r = idx[k]
        p = A[r] * pow(int(A[r, col]) // 3**v, -1, M) % M
        # clear the column in every row that meets it; row r itself goes
        # to zero and then holds 3^(m-v) p, which is zero when v == 0
        q = (A[idx, col] // 3**v)[:, None]  # exact: v is minimal in the column
        s = p.nonzero()[0]
        idx = idx[:, None]
        A[idx, s] = (A[idx, s] - q * p[s]) % M
        A[r] = 3 ** (m - v) * p % M
        cols.append(col)
        vals.append(v)
        prows.append(p)
        if track:
            picked[int(r)] = None
    P = np.array(prows, dtype=np.int64).reshape(len(prows), A.shape[1])
    if not track:
        return cols, vals, P, None, None, None
    S = list(picked)
    Z = A[:, w:][:, S]
    Z[S, np.arange(len(S))] -= 1
    return cols, vals, P[:, :w], Z % M, P[:, w:][:, S], S


def matmul_mod(A, B, m: int) -> np.ndarray:
    """A @ B mod 3^m as int64, exactly; entries are read mod 3^m.

    With k the inner dimension, the product runs on float64 BLAS while
    k (3^m - 1)^2 < 2^53, where every partial sum is an exact integer,
    and otherwise on int64 under ``_check_exact``.
    """
    M = modulus(m)
    A = np.asarray(A) % M
    B = np.asarray(B) % M
    k = A.shape[-1]
    if k * (M - 1) ** 2 < 2**53:
        return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % M
    _check_exact(k, m)
    return (A.astype(np.int64) @ B.astype(np.int64)) % M


def reduce_mod_span(H: HowellForm, vec, m: int) -> np.ndarray:
    """Canonical remainder under the Howell basis ``H`` of a vector, or of
    every row of a matrix at once.

    At m >= 2 with more than ``_ZM_LEAF`` columns and pivots, the pivot
    loop runs on each panel's pivot columns and one ``matmul_mod`` with
    the panel's rows clears the rest.
    """
    M = modulus(m)
    r = np.asarray(vec, dtype=np.int64) % M
    _check_exact(r.shape[-1], m)
    if m == 1:
        # one float64 BLAS product, exact as in the F3 engine
        _check_exact_f3(r.shape[-1])
        if H.rows.size:
            q = r[..., H.pivot_cols].astype(np.float64) @ H.rows.astype(np.float64)
            r = (r - q.astype(np.int64)) % 3
        return r
    npiv = len(H.pivot_cols)
    if npiv <= _ZM_LEAF or r.shape[-1] <= _ZM_LEAF:
        for (col, v, row) in zip(H.pivot_cols, H.pivot_vals, H.rows):
            q = r[..., col] // 3**v
            if q.any():
                r = (r - q[..., None] * row) % M
        return r
    R = r.reshape(-1, r.shape[-1])
    for i0 in range(0, npiv, _ZM_PANEL):
        rows, cols = H.rows[i0 : i0 + _ZM_PANEL], H.pivot_cols[i0 : i0 + _ZM_PANEL]
        X, P = R[:, cols], rows[:, cols]
        Q = np.zeros_like(X)
        for j, v in enumerate(H.pivot_vals[i0 : i0 + _ZM_PANEL]):
            q = X[:, j] // 3**v
            t = q.nonzero()[0]
            if t.size:
                Q[t, j] = q[t]
                X[t, j:] = (X[t, j:] - q[t, None] * P[j, j:]) % M
        hit = Q.any(axis=1)
        R[hit] = (R[hit] - matmul_mod(Q[hit], rows, m)) % M
    return R.reshape(r.shape)


def in_span(H: HowellForm, vec, m: int) -> bool:
    return not reduce_mod_span(H, vec, m).any()


def outside_span(H: HowellForm, rows, m: int) -> np.ndarray:
    """Mask of the rows of ``rows`` that are not in the span of ``H``."""
    return reduce_mod_span(H, np.atleast_2d(rows), m).any(axis=1)


def span_contains(H: HowellForm, rows, m: int) -> bool:
    return not outside_span(H, rows, m).any()


class F3Space:
    """Row space over F3 grown block by block; the one F3 elimination engine.

    The basis is kept in reduced row echelon form: ``rows[:, pivots]`` is
    the identity.  Rows arrive in blocks of ``_F3_BLOCK``.  Each block is
    read mod 3 on its own, cleared against the basis by one float64
    product, and only its surviving rows enter the recursive block RREF
    (``_rref_block``).  A second product then clears the new pivot
    columns from the old rows (the FFLAS/FFPACK scheme of Dumas, Giorgi
    and Pernet).  ``rows`` is the basis in insertion order: the rows one
    ``add`` contributes are appended in pivot-column order.
    """

    def __init__(self, ncols: int):
        _check_exact_f3(ncols)
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list = []
        # float64 copy of the basis for BLAS, with room for more rows
        self._buf = np.zeros((0, ncols), dtype=np.float64)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _clear(self, block: np.ndarray) -> np.ndarray:
        """One block read mod 3 and cleared against the basis, as float64."""
        Bf = np.remainder(block, 3).astype(np.float64)
        if self.pivots:
            Bf -= Bf[:, self.pivots] @ self._buf[: self.dim]
            _mod3(Bf)
        return Bf

    def reduce(self, B: np.ndarray, dtype=np.int64) -> np.ndarray:
        """Remainders mod 3 of the rows of B under the basis, as ``dtype``."""
        B = np.atleast_2d(B)
        out = np.empty(B.shape, dtype=dtype)
        for i in range(0, B.shape[0], _F3_BLOCK):
            out[i : i + _F3_BLOCK] = self._clear(B[i : i + _F3_BLOCK])
        return out

    def add(self, B: np.ndarray) -> int:
        """Insert the rows of B; returns how many new dimensions appeared."""
        B = np.atleast_2d(B)
        start = self.dim
        # reserve room for every row B could add; untouched rows cost no memory
        room = start + min(B.shape[0], self.ncols - start)
        if room > self._buf.shape[0]:
            buf = np.empty((room, self.ncols))
            buf[:start] = self._buf[:start]
            self._buf = buf
        for i in range(0, B.shape[0], _F3_BLOCK):
            Bf = self._clear(B[i : i + _F3_BLOCK])
            live = Bf.any(axis=1)
            if not live.any():
                continue
            Rf, new = _rref_block(Bf[live])
            # keep the basis reduced: clear the new pivot columns in old
            # rows, a block of rows at a time
            old = self._buf[: self.dim]
            C = old[:, new]
            hit = C.any(axis=1).nonzero()[0]
            for j in range(0, hit.size, _F3_BLOCK):
                h = hit[j : j + _F3_BLOCK]
                old[h] = _mod3(old[h] - C[h] @ Rf)
            self._buf[self.dim : self.dim + len(new)] = Rf
            self.pivots.extend(new)
        if self.dim == start:
            return 0
        basis = self._buf[: self.dim]
        order = start + np.argsort(self.pivots[start:], kind="stable")
        basis[start:] = basis[order]
        self.pivots[start:] = [self.pivots[j] for j in order]
        self.rows = basis.astype(np.int64)
        return self.dim - start


def signed_permute(rows, perm, sign=None) -> np.ndarray:
    """Rows moved by the signed column permutation e_j -> sign[j] e_{perm[j]}.

    ``out[..., perm[j]] = sign[j] * rows[..., j]``; ``sign`` None means all
    signs are +1.  ``perm`` and ``sign`` may carry leading axes, one
    permutation per row of the result, and broadcast against ``rows``.
    """
    vals = np.asarray(rows) if sign is None else np.asarray(rows) * sign
    shape = np.broadcast_shapes(vals.shape, np.shape(perm))
    out = np.empty(shape, dtype=vals.dtype)
    np.put_along_axis(
        out, np.broadcast_to(perm, shape), np.broadcast_to(vals, shape), axis=-1
    )
    return out


def augmentation_span(V: np.ndarray, acts) -> F3Space:
    """I.span(V) mod 3 for a submodule span(V) and I the augmentation ideal
    of the group generated by the signed permutations ``acts`` (tuples of
    ``signed_permute`` arguments): the span of the blocks (g - 1)V, which
    is already closed, since gh - 1 = (g - 1)h + (h - 1)."""
    space = F3Space(V.shape[1])
    for act in acts:
        space.add(signed_permute(V, *act) - V)
    return space


def _mod3(X: np.ndarray) -> np.ndarray:
    """X mod 3 in place, for a float64 array of integers of absolute value
    below 2^51.

    Division by 3 is correctly rounded, so floor(X / 3) is exact there;
    np.remainder on floats gives the same values about eight times slower.
    """
    q = X / 3
    np.floor(q, out=q)
    q *= 3
    X -= q
    return X


def _rref_block(W: np.ndarray) -> tuple:
    """RREF of a float64 block with entries in {0, 1, 2}; returns (rows, pivot_cols).

    Above ``_F3_LEAF`` rows: reduce the top half, clear the bottom half by
    one product with it and reduce what survives, then clear the bottom's
    pivot columns from the top by a second product.  RREF is canonical, so
    this is the column loop's result; ``_check_exact_f3`` covers the products.
    """
    if W.shape[0] <= _F3_LEAF:
        R, pivots = _rref_leaf(W.astype(np.int8))
        return R.astype(np.float64), pivots
    T, top = _rref_block(W[: W.shape[0] // 2])
    B = W[W.shape[0] // 2 :].copy()
    if top:
        _mod3(np.subtract(B, B[:, top] @ T, out=B))
    live = B.any(axis=1)
    if not live.any():
        return T, top
    S, bottom = _rref_block(B[live])
    _mod3(np.subtract(T, T[:, bottom] @ S, out=T))
    pivots = top + bottom
    order = np.argsort(pivots, kind="stable")
    return np.vstack([T, S])[order], [pivots[i] for i in order]


def _rref_leaf(W: np.ndarray) -> tuple:
    """RREF of a small int8 block with entries in {0, 1, 2}, in place.

    Each step takes the first column that is nonzero below the rows
    already placed, swaps its first nonzero row up, scales it to 1 and
    clears the column in every other row.  Returns (rows, pivot_cols).
    """
    nrows = W.shape[0]
    r = col = 0
    pivots = []
    while r < nrows:
        live = W[r:, col:].any(axis=0)
        if not live.any():
            break
        col += int(live.argmax())
        i = r + int(W[r:, col].nonzero()[0][0])
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
        col += 1
    return W[:r], pivots


def kernel(A, m: int) -> np.ndarray:
    """Rows spanning {x : A @ x == 0 mod 3^m}."""
    if m == 1:
        return kernel_f3(A)
    return kernel_and_image(A, m)[0].rows


def kernel_and_image(A, m: int) -> tuple:
    """Howell forms (of ker A, of the image of A), read off one Howell form
    of [A^T | I]: its rows with pivots left of the bar, cut to that side,
    are ``howell(A^T)``, and its rows right of the bar are the kernel, in
    their own Howell form."""
    A = _as_matrix(A, m)
    b, a = A.shape
    H = howell(np.hstack([A.T, np.eye(a, dtype=np.int64)]), m)
    n = sum(c < b for c in H.pivot_cols)
    ker = HowellForm(
        np.ascontiguousarray(H.rows[n:, b:]), [c - b for c in H.pivot_cols[n:]], H.pivot_vals[n:]
    )
    img = HowellForm(np.ascontiguousarray(H.rows[:n, :b]), H.pivot_cols[:n], H.pivot_vals[:n])
    return ker, img


def image(A, m: int) -> HowellForm:
    """Howell basis of {A @ x} (the column span of A)."""
    A = _as_matrix(A, m)
    return howell(A.T, m)


def solve(A, b, m: int):
    """One x with A @ x == b mod 3^m, or None.

    A 2-d ``b`` is solved column by column: x has one column per column
    of b, and the result is None if any column has no solution.
    """
    M = modulus(m)
    A = _as_matrix(A, m)
    nb, na = A.shape
    aug = np.hstack([A.T % M, np.eye(na, dtype=np.int64)])
    H = howell(aug, m)
    b = np.asarray(b, dtype=np.int64)
    r = (b[:, None] if b.ndim == 1 else b) % M
    x = np.zeros((na, r.shape[1]), dtype=np.int64)
    for (col, v, row) in zip(H.pivot_cols, H.pivot_vals, H.rows):
        if col >= nb:
            break
        q = r[col] // 3**v
        if q.any():
            r = (r - np.outer(row[:nb], q)) % M
            x = (x + np.outer(row[nb:], q)) % M
    if r.any():
        return None
    return x[:, 0] if b.ndim == 1 else x


def span_log_size(rows, m: int) -> int:
    return howell(rows, m).log3_size(m)


def quotient_invariants(K_rows, I_rows, m: int, HK=None, HI=None) -> list:
    """Invariant factor exponents of span(K)/span(I), I a submodule of K.

    ``HK`` and ``HI``, the Howell forms of K and of I, are computed unless
    given.  Returns a sorted list of exponents e, one per cyclic factor Z/3^e.
    """
    M = modulus(m)
    K = _as_matrix(K_rows, m)
    I = _as_matrix(I_rows, m)
    if K.size == 0:
        return []
    if I.size == 0:
        I = np.zeros((0, K.shape[1]), dtype=np.int64)
    # sanity: I must sit inside K, so span(K + I) = span(K)
    HK = howell(K, m) if HK is None else HK
    if not span_contains(HK, I, m):
        raise ValueError("quotient_invariants: I is not contained in K")
    n = [0] * (m + 2)
    n[0] = HK.log3_size(m)
    for j in range(1, m):
        rows = np.vstack([(3**j * K) % M, I]) if I.size else (3**j * K) % M
        n[j] = span_log_size(rows, m)
    # 3^m K = 0, so the last layer is span(I)
    n[m] = span_log_size(I, m) if HI is None else HI.log3_size(m)
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
