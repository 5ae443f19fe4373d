"""Exact linear algebra over the chain rings Z/3^m.

Z/3^m is not a field, so kernels and images are computed through the
Howell normal form (the canonical span form valid over chain rings) and
a Smith-style diagonalization.  Conventions: vectors are 1-d integer
arrays, a linear map R^a -> R^b is a matrix of shape (b, a) acting by
``A @ x``, and "span" always means the row span of a 2-d array.

Inputs may have any integer type and are read mod 3^m.  Results are
int64 unless a ``dtype`` argument asks for a narrower type, which must
hold 3^m - 1.  Inside, the Z/3^m elimination runs in the working type of
``residue_dtypes`` (int8 or int16 at the moduli of the resolution), and
products run in float32, float64 or int64 by ``_product_dtype``: each is
the narrowest type that a bound checked in code proves exact.
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
    minus such a product lies within 4 * ncols + 2 of zero, and ``_float_mod``
    reduces it exactly below 2^51, which is the bound enforced.
    """
    if 4 * ncols + 2 >= 2**51:
        raise ExactnessBoundExceeded(f"float64 bound 4 * ncols + 2 < 2^51 fails for ncols = {ncols}")


# The float32 bound of the F3 engine and of ``matmul_mod``: below it the
# partial sums of every product are integers under 2^24, exact in
# float32, and ``_float_mod`` reduces them exactly.
_F32_BOUND = 2**24
_F64_BOUND = 2**53


def _f3_dtype(ncols: int):
    """The F3 engine's float type for ``ncols`` columns: float32 while
    4 * ncols + 2 < 2^24, float64 under ``_check_exact_f3`` beyond."""
    _check_exact_f3(ncols)
    return np.float32 if 4 * ncols + 2 < _F32_BOUND else np.float64


# the signed integer types, narrowest first
_INT_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _narrowest_int(bound: int):
    """The narrowest signed integer type that holds ``bound``, or None."""
    return next((t for t in _INT_TYPES if bound <= np.iinfo(t).max), None)


@lru_cache(maxsize=None)
def residue_dtypes(m: int) -> tuple:
    """(storage, working) integer types of the Z/3^m engine.

    Residues lie in [0, 3^m) and are stored in the narrowest type that
    holds 3^m - 1, which then holds 3^m too: int8 for m <= 4, int16 for
    m <= 9, int32 for m <= 19.  One elimination step computes x - q * y or
    u * y with q, u, x and y residues, or 3^k * y with k <= m, so every
    value stays within (3^m - 1)^2 + 3^m of zero: the working type is the
    narrowest that holds that, int8 for m <= 2, int16 for m <= 4 and int32
    for m <= 9, and int64 beyond, where ``_check_exact`` bounds the
    products instead.  The bounds are the ones tested here, so no choice
    of m can pick a type that wraps.
    """
    M = modulus(m)
    store = _narrowest_int(M - 1) or np.int64
    work = _narrowest_int((M - 1) ** 2 + M) or np.int64
    return store, work


def _residues(X, m: int) -> np.ndarray:
    """X mod 3^m as a new array: in X's type when it is a signed integer
    type at least as wide as the storage type, else in the storage type,
    or in int64 for an input that is not a signed integer array."""
    X = np.asarray(X)
    if X.dtype.kind != "i":
        X = X.astype(np.int64)
    store = residue_dtypes(m)[0]
    wide = X.dtype if X.dtype.itemsize >= np.dtype(store).itemsize else store
    return np.remainder(X, modulus(m), dtype=wide)


# columns per panel of the Z/3^m engine, and the width (or pivot count)
# at or below which its loop runs unblocked, as the engine's leaf
_ZM_PANEL = 64
_ZM_LEAF = 128
# rows per product when ``reduce_mod_span`` clears the free columns
_ZM_ROWS = 512

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
    # index with intp: numpy would convert a narrower index on every lookup
    X = X.astype(np.intp, copy=False)
    if m <= _VAL_TABLE_MAX_M:
        return _val_table(m)[X]
    # split off the low 3^k digits so the tables stay small for large m
    k = _VAL_TABLE_MAX_M
    low = _val_table(k)[X % 3**k]
    return np.where(low <= k, low, k + valuations(X // 3**k, m - k))


def _as_matrix(rows, m: int, dtype=np.int64) -> np.ndarray:
    """``rows`` as a new 2-d ``dtype`` array of residues mod 3^m; ``dtype``
    must hold 3^m - 1."""
    A = np.atleast_2d(np.asarray(rows))
    _check_exact(A.shape[-1], m)
    if A.size == 0:
        return np.zeros((0, A.shape[1] if A.ndim == 2 else 0), dtype=dtype)
    return _residues(A, m).astype(dtype, copy=False)


@dataclass
class HowellForm:
    rows: np.ndarray       # canonical basis of the row span, no zero rows
    pivot_cols: list
    pivot_vals: list       # 3-adic valuation of each pivot entry

    def log3_size(self, m: int) -> int:
        """log_3 of the number of elements of the span."""
        return sum(m - v for v in self.pivot_vals)


def rref_f3(A: np.ndarray, dtype=np.int64) -> tuple:
    """Reduced row echelon form over F3 of an integer matrix, read mod 3.

    Returns (rows, pivot_cols): the nonzero reduced rows as ``dtype``, in
    the order of their pivot columns, which is how one ``F3Space.add``
    leaves them.
    """
    A = np.atleast_2d(np.asarray(A))
    space = F3Space(A.shape[1])
    space.add(A)
    return space._buf[: space.dim].astype(dtype), space.pivots


def kernel_f3(A, dtype=np.int64) -> tuple:
    """Kernel basis over F3 via RREF (field fast path): (rows, free), one
    ``dtype`` row per free column of the RREF of A, the rows being the
    identity on the columns ``free`` and read off the basis elsewhere."""
    A = np.atleast_2d(np.asarray(A))
    a = A.shape[1]
    if a == 0:
        return np.zeros((0, 0), dtype=dtype), np.zeros(0, dtype=np.intp)
    space = F3Space(a)
    space.add(A)
    piv, free, F = space._free_part()
    out = np.zeros((free.size, a), dtype=dtype)
    out[np.arange(free.size), free] = 1
    out[:, piv] = _float_mod(-F.T, 3)
    return out, free


def howell(rows, m: int, dtype=np.int64) -> HowellForm:
    """Howell normal form of the row span of ``rows`` over Z/3^m, its rows
    as ``dtype`` (which must hold 3^m - 1).

    The returned rows satisfy the Howell property: every span element
    whose first j coordinates vanish is a combination of the returned
    rows whose pivots lie beyond column j.

    At m >= 2, inputs wider than ``_ZM_LEAF`` columns are eliminated in
    panels of ``_ZM_PANEL`` columns (the blocked scheme of FFLAS-FFPACK,
    Dumas, Giorgi and Pernet): the column loop runs on the panel's
    columns only and records its row operations as T = I + Z S^T, S
    selecting the rows it picked, so one ``matmul_mod`` updates the
    trailing columns and gives the pivot rows there.  The Howell form is
    canonical, so the output is the unblocked loop's.  The loop runs in the
    working type of ``residue_dtypes``.
    """
    if m == 1:
        R, pivots = rref_f3(rows, dtype)
        return HowellForm(R, pivots, [0] * len(pivots))
    M = modulus(m)
    A = _as_matrix(rows, m, residue_dtypes(m)[1])
    if A.size == 0:
        return HowellForm(A.astype(dtype), [], [])
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
            upd = matmul_mod(np.vstack([Z[touched], Y]), B[:, nz], m, A.dtype)
            nz += c1
            A[hit, nz] = (A[hit, nz] + upd[: hit.size]) % M
            R[:, nz] = upd[hit.size :]
        piv_cols += [c0 + j for j in cols]
        piv_vals += vals
        blocks.append(R)
        panels.append((c0, c1, len(cols)))
    if not piv_cols:
        return HowellForm(np.zeros((0, ncols), dtype=dtype), [], [])
    R = np.vstack(blocks) if len(blocks) > 1 else blocks[0]
    _reduce_panels(R, R, panels, piv_cols, piv_vals, m, above=True)
    return HowellForm(R.astype(dtype, copy=False), piv_cols, piv_vals)


def _reduce_panels(X, P, panels: list, piv_cols: list, piv_vals: list, m: int, above=False) -> list:
    """Reduce the rows of X by the Howell rows P in place, a panel (c0, c1,
    number of pivots) at a time: ``_pivot_loop`` on the panel's columns,
    then one product with the panel's rows on the trailing columns, where
    nothing has changed those rows.  With ``above``, X starts with P and a
    pivot reduces only the rows above its own.  Returns each panel's Q."""
    M = modulus(m)
    Qs, i0 = [], 0
    for c0, c1, k in panels:
        i1 = i0 + k
        B, Y = P[i0:i1], X[:i1] if above else X
        W = B[:, c0:c1]
        cols = [c - c0 for c in piv_cols[i0:i1]]
        ends = W.shape[1] - (W[:, ::-1] != 0).argmax(axis=1)   # past each row's last nonzero
        Q = _pivot_loop(Y[:, c0:c1], W, cols, piv_vals[i0:i1], m, i0 if above else None, ends)
        nz = c1 + B[:, c1:].any(axis=0).nonzero()[0]
        if nz.size and Q.any():
            hit = Q.any(axis=1).nonzero()[0][:, None]
            Y[hit, nz] = (Y[hit, nz] - matmul_mod(Q[hit[:, 0]], B[:, nz], m, X.dtype)) % M
        Qs.append(Q)
        i0 = i1
    return Qs


def _pivot_loop(X: np.ndarray, P: np.ndarray, cols, vals, m: int, first=None, ends=None) -> np.ndarray:
    """The one loop that subtracts Howell pivot rows, in place: for j = 0,
    1, ... it takes q = x[cols[j]] // 3^vals[j] times P[j] off each row x
    of X (with ``first``, of each row above row first + j).  P[j] vanishes
    left of cols[j], as a Howell row left of its pivot, and from ends[j]
    on.  Returns the quotients Q in X's type, which must hold
    (3^m - 1)^2 + 3^m."""
    M = modulus(m)
    Q = np.zeros((X.shape[0], len(cols)), dtype=X.dtype)
    for j, (col, v) in enumerate(zip(cols, vals)):
        e = None if ends is None else ends[j]
        k = len(X) if first is None else first + j
        q = np.floor_divide(X[:k, col], 3**v, out=Q[:k, j])
        t = q.nonzero()[0]
        if t.size:
            # a view: the rows from the first to the last that q meets, and
            # the columns from the pivot to the end of its row
            a, b = t[0], t[-1] + 1
            Y = X[a:b, col:e]
            Y -= q[a:b, None] * P[j, col:e]
            Y %= M
    return Q


def _howell_panel(A: np.ndarray, m: int, track: bool) -> tuple:
    """The column loop of ``howell`` on the pending rows ``A`` of one panel,
    in A's (working) type.  Every pending row vanishes left of the current
    column and a spent row is zero, so the rows led by a column are its
    nonzeros.

    Returns (cols, vals, P, Z, Y, S): the pivot columns and valuations and
    the pivot rows on the panel.  With ``track`` the loop runs on [A | I],
    so the identity block records its row operations T = I + Z S^T: the
    rows become A + Z A[S] and the pivot rows Y A[S].  Without it, A
    itself is eliminated in place.
    """
    M = modulus(m)
    n, w = A.shape
    if track:
        A = np.hstack([A, np.eye(n, dtype=A.dtype)])
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
    P = np.array(prows, dtype=A.dtype).reshape(len(prows), A.shape[1])
    if not track:
        return cols, vals, P, None, None, None
    S = list(picked)
    Z = A[:, w:][:, S]
    Z[S, np.arange(len(S))] -= 1
    return cols, vals, P[:, :w], Z % M, P[:, w:][:, S], S


def _product_dtype(k: int, m: int):
    """The type ``matmul_mod`` multiplies in at inner dimension k: float32
    while k (3^m - 1)^2 < 2^24 and float64 while it is below 2^53, where
    every partial sum is an exact integer, and int64 under ``_check_exact``
    beyond."""
    bound = k * (modulus(m) - 1) ** 2
    if bound < _F32_BOUND:
        return np.float32
    if bound < _F64_BOUND:
        return np.float64
    _check_exact(k, m)
    return np.int64


def matmul_mod(A, B, m: int, dtype=np.int64) -> np.ndarray:
    """A @ B mod 3^m as ``dtype`` (which must hold 3^m - 1), exactly;
    entries are read mod 3^m, and the product runs in ``_product_dtype``."""
    M = modulus(m)
    A, B = _residues(A, m), _residues(B, m)
    ptype = _product_dtype(A.shape[-1], m)
    P = A.astype(ptype) @ B.astype(ptype)
    if ptype is np.int64:
        P %= M
    else:
        _float_mod(P, M)
    return P.astype(dtype, copy=False)


def reduce_mod_span(H: HowellForm, vec, m: int) -> np.ndarray:
    """Canonical remainder under the Howell basis ``H`` of a vector, or of
    every row of a matrix at once, in the working type of ``residue_dtypes``.

    ``_pivot_loop`` reduces whole rows of up to ``_ZM_LEAF`` columns.  Wider
    rows give every quotient on their pivot columns alone, in panels of
    ``_ZM_PANEL`` pivots as in ``howell``; then ``matmul_mod`` clears the
    other columns, ``_ZM_ROWS`` rows at a time, so that its float copies
    stay small beside the rows.  At m = 1 ``H`` is an RREF, a Howell form
    with every valuation 0.
    """
    M = modulus(m)
    X = _as_matrix(vec, m, residue_dtypes(m)[1])
    cols, npiv = H.pivot_cols, len(H.pivot_cols)
    if X.shape[1] <= _ZM_LEAF:
        _pivot_loop(X, H.rows.astype(X.dtype), cols, H.pivot_vals, m)
    elif npiv:
        Xp, Pp = X[:, cols], H.rows[:, cols].astype(X.dtype)
        panels = [(i, min(i + _ZM_PANEL, npiv), min(_ZM_PANEL, npiv - i)) for i in range(0, npiv, _ZM_PANEL)]
        Q = np.hstack(_reduce_panels(Xp, Pp, panels, range(npiv), H.pivot_vals, m))
        X[:, cols] = Xp
        hit = Q.any(axis=1).nonzero()[0][:, None]
        free = _complement(cols, X.shape[1])
        F = H.rows[:, free]
        for j in range(0, len(hit), _ZM_ROWS):
            h = hit[j : j + _ZM_ROWS]
            X[h, free] = (X[h, free] - matmul_mod(Q[h[:, 0]], F, m, X.dtype)) % M
    return X.reshape(np.shape(vec))


def span_contains(H: HowellForm, rows, m: int) -> bool:
    """True when every row of ``rows`` (one vector or a matrix) lies in the
    span of ``H``."""
    return not reduce_mod_span(H, rows, m).any()


class F3Space:
    """Row space over F3 grown block by block; the one F3 elimination engine.

    The basis is kept in reduced row echelon form: ``rows[:, pivots]`` is
    the identity.  It is stored as float32 while 4 * ncols + 2 < 2^24
    (``_f3_dtype``; float64 beyond), and ``rows`` is its int64 copy, built
    when read.  Rows arrive in blocks of ``_F3_BLOCK``, in any integer
    dtype, and each is read mod 3 on its own.  Within one ``add`` a block
    is cleared by one product against the old basis, on its free columns
    only (cached between calls), and by one against the rows this ``add``
    has found so far; its surviving rows enter the recursive block RREF
    (``_rref_block``), and a product clears their pivots from the rows
    found before them.  The old rows are back-cleared once, at the end of
    the ``add`` (the FFLAS-FFPACK scheme of Dumas, Giorgi and Pernet).
    ``rows`` is the basis in insertion order: the rows one ``add``
    contributes are appended in pivot-column order.
    """

    def __init__(self, ncols: int):
        self.dtype = _f3_dtype(ncols)
        self.ncols = ncols
        self.pivots: list = []
        # the basis for BLAS, with room for more rows
        self._buf = np.zeros((0, ncols), dtype=self.dtype)
        self._rows = None      # int64 copy of the basis, once read
        self._free = None      # (pivots, free columns, basis on them)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = self._buf[: self.dim].astype(np.int64)
        return self._rows

    def _free_part(self) -> tuple:
        """(pivot columns, free columns, the basis on the free columns)."""
        if self._free is None:
            piv = np.array(self.pivots, dtype=np.intp)
            free = _complement(piv, self.ncols)
            self._free = (piv, free, self._buf[: self.dim][:, free])
        return self._free

    def _clear(self, block: np.ndarray) -> np.ndarray:
        """One block read mod 3 and cleared against the basis, as ``dtype``.
        The basis is the identity on its pivot columns, so the block is
        zero there and the product runs over the free columns only."""
        if block.dtype.kind in "iu" and block.dtype.itemsize <= 2:
            # exact in either float type, and reduced faster there
            X = _float_mod(block.astype(self.dtype), 3)
        else:
            X = np.remainder(block, 3).astype(self.dtype)
        piv, free, F = self._free_part()
        if piv.size:
            P = X[:, piv]
            X[:, piv] = 0
            X[:, free] = _float_mod(X[:, free] - P @ F, 3)
        return X

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
            buf = np.empty((room, self.ncols), dtype=self.dtype)
            buf[:start] = self._buf[:start]
            self._buf = buf
        self._free_part()      # the old basis, fixed for this add
        for i in range(0, B.shape[0], _F3_BLOCK):
            X = self._clear(B[i : i + _F3_BLOCK])
            # the new rows are zero on the old pivots and reduced among
            # themselves, so clearing X on theirs keeps it zero there
            new, N = self.pivots[start:], self._buf[start : self.dim]
            if new:
                _float_mod(np.subtract(X, X[:, new] @ N, out=X), 3)
            live = X.any(axis=1)
            if not live.any():
                continue
            S, piv = _rref_block(X[live])
            _clear_columns(N, piv, S)
            self._buf[self.dim : self.dim + len(piv)] = S
            self.pivots.extend(piv)
        if self.dim == start:
            return 0
        new, N = self.pivots[start:], self._buf[start : self.dim]
        _clear_columns(self._buf[:start], new, N)
        order = np.argsort(new, kind="stable")
        N[:] = N[order]
        self.pivots[start:] = [new[j] for j in order]
        self._rows = self._free = None
        return self.dim - start


def _complement(cols, n: int) -> np.ndarray:
    """The indices 0 .. n - 1 not in ``cols``, ascending."""
    keep = np.ones(n, dtype=bool)
    keep[cols] = False
    return keep.nonzero()[0]


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


def _float_mod(X: np.ndarray, M: int) -> np.ndarray:
    """X mod M in place, for a float array of integers of absolute value
    below 2^24 (float32) or 2^53 (float64).

    There fl(X / M) is off by less than 1/M, so its floor is exact, and so
    are the product and the difference that follow; np.remainder on floats
    gives the same values about eight times slower.
    """
    q = X / M
    np.floor(q, out=q)
    q *= M
    X -= q
    return X


def _clear_columns(R: np.ndarray, cols: list, S: np.ndarray) -> None:
    """R <- R - R[:, cols] @ S mod 3 in place, for S zero on the pivot
    columns of R's rows and the identity on ``cols``; only the rows that
    meet ``cols`` change, a block of rows at a time."""
    C = R[:, cols]
    hit = C.any(axis=1).nonzero()[0]
    for j in range(0, hit.size, _F3_BLOCK):
        h = hit[j : j + _F3_BLOCK]
        R[h] = _float_mod(R[h] - C[h] @ S, 3)


def _rref_block(W: np.ndarray) -> tuple:
    """RREF of a float block with entries in {0, 1, 2}; returns (rows of
    its dtype, pivot_cols).

    Above ``_F3_LEAF`` rows: reduce the top half, clear the bottom half by
    one product with it and reduce what survives, then clear the bottom's
    pivot columns from the top by a second product.  RREF is canonical, so
    this is the column loop's result; ``_check_exact_f3`` covers the products.
    """
    if W.shape[0] <= _F3_LEAF:
        R, pivots = _rref_leaf(W.astype(np.int8))
        return R.astype(W.dtype), pivots
    T, top = _rref_block(W[: W.shape[0] // 2])
    B = W[W.shape[0] // 2 :].copy()
    if top:
        _float_mod(np.subtract(B, B[:, top] @ T, out=B), 3)
    live = B.any(axis=1)
    if not live.any():
        return T, top
    S, bottom = _rref_block(B[live])
    _float_mod(np.subtract(T, T[:, bottom] @ S, out=T), 3)
    pivots = top + bottom
    order = np.argsort(pivots, kind="stable")
    return np.vstack([T, S])[order], [pivots[i] for i in order]


# x mod 3 for the int8 values 0 <= x <= 6 that one step of the leaf makes
_MOD3_SMALL = np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.int8)


def _rref_leaf(W: np.ndarray) -> tuple:
    """RREF of a small int8 block with entries in {0, 1, 2}, in place.

    Each step takes the first column that is nonzero below the rows
    already placed, swaps its first nonzero row up, scales it to 1 and
    clears the column in every other row.  The pivot row is zero left of
    its column, so a step touches only the columns from there on, and
    reduces mod 3 by table lookup.  Returns (rows, pivot_cols).
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
        T = W[:, col:]
        if T[r, 0] == 2:
            T[r] = _MOD3_SMALL[2 * T[r]]
        c = T[:, 0].copy()
        c[r] = 0
        rows = c.nonzero()[0]
        if rows.size:
            T[rows] = _MOD3_SMALL[T[rows] + (3 - c[rows, None]) * T[r]]
        pivots.append(col)
        r += 1
        col += 1
    return W[:r], pivots


def kernel(A, m: int, dtype=np.int64) -> np.ndarray:
    """``dtype`` rows spanning {x : A @ x == 0 mod 3^m}."""
    if m == 1:
        return kernel_f3(A, dtype)[0]
    return kernel_and_image(A, m, dtype)[0].rows


def kernel_and_image(A, m: int, dtype=np.int64) -> tuple:
    """Howell forms (of ker A, of the image of A), rows as ``dtype``, read
    off one Howell form of [A^T | I], built in the working type of
    ``residue_dtypes``: its rows with pivots left of the bar, cut to that
    side, are ``howell(A^T)``, and its rows right of the bar are the
    kernel, in their own Howell form."""
    work = residue_dtypes(m)[1]
    A = np.atleast_2d(np.asarray(A))
    b, a = A.shape
    X = np.zeros((a, b + a), dtype=work)
    if A.size:
        X[:, :b] = _as_matrix(A, m, work).T
    X[np.arange(a), b + np.arange(a)] = 1
    H = howell(X, m, work)
    n = sum(c < b for c in H.pivot_cols)
    ker = HowellForm(H.rows[n:, b:].astype(dtype), [c - b for c in H.pivot_cols[n:]], H.pivot_vals[n:])
    img = HowellForm(H.rows[:n, :b].astype(dtype), H.pivot_cols[:n], H.pivot_vals[:n])
    return ker, img


def image(A, m: int, dtype=np.int64) -> HowellForm:
    """Howell basis of {A @ x} (the column span of A), rows as ``dtype``."""
    return howell(np.atleast_2d(np.asarray(A)).T, m, dtype)


def solve(A, b):
    """One x with A @ x == b over F3, or None.

    A 2-d ``b`` is solved column by column: x has one column per column
    of b, and the result is None if any column has no solution.  With
    [A | b] in reduced echelon form and every pivot in A's columns, x is
    the b-part of the pivot rows, placed at their pivot columns; a pivot
    in b's columns is a row 0 = nonzero.
    """
    b = np.asarray(b, dtype=np.int64)
    B = b[:, None] if b.ndim == 1 else b
    A = np.atleast_2d(np.asarray(A))
    nb, na = A.shape
    AB = np.empty((nb, na + B.shape[1]), dtype=np.int8)
    AB[:, :na] = A % 3
    AB[:, na:] = B % 3
    space = F3Space(AB.shape[1])
    space.add(AB)
    if space.pivots and max(space.pivots) >= na:
        return None
    X = np.zeros((na, B.shape[1]), dtype=np.int64)
    X[space.pivots] = space._buf[: space.dim, na:]
    return X[:, 0] if b.ndim == 1 else X


def span_log_size(rows, m: int) -> int:
    return howell(rows, m).log3_size(m)


def quotient_invariants(K_rows, I_rows, m: int, HK=None, HI=None) -> list:
    """Invariant factor exponents of span(K)/span(I), I a submodule of K.

    ``HK`` and ``HI``, the Howell forms of K and of I, are computed unless
    given.  Returns a sorted list of exponents e, one per cyclic factor Z/3^e.
    The layers 3^j K + I are eliminated for j = 1, 2, ... only until one
    equals span(I) in size, so an elementary quotient costs one.
    """
    M = modulus(m)
    K = _as_matrix(K_rows, m, residue_dtypes(m)[1])
    if K.size == 0:
        return []
    I = _as_matrix(I_rows, m, K.dtype).reshape(-1, K.shape[1])
    # sanity: I must sit inside K, so span(K + I) = span(K)
    HK = howell(K, m) if HK is None else HK
    if not span_contains(HK, I, m):
        raise ValueError("quotient_invariants: I is not contained in K")
    # n[j] = log3 |3^j K + I|.  3^m K = 0, so the last layer is span(I); I
    # lies in every layer, so once one reaches it the later ones equal it
    n = [HK.log3_size(m)] + [span_log_size(I, m) if HI is None else HI.log3_size(m)] * m
    for j in range(1, m):
        n[j] = span_log_size(np.vstack([(3**j * K) % M, I]), m)
        if n[j] == n[m]:
            break
    # n[e - 1] - n[e] factors have exponent > e - 1, and n[e] - n[e + 1] exponent > e
    exps = []
    for e in range(1, m + 1):
        exps += [e] * (n[e - 1] - n[e] - (n[e] - n[e + 1] if e < m else 0))
    return exps


def smith_kernel(A, m: int):
    """Saturated kernel of an integer matrix known modulo 3^m.

    Diagonalizes A with unimodular row and column operations.  Divisor
    valuations v < m are exact for any lift of A; the returned rows span
    the reduction mod 3^m of the Z_3-kernel of any lift, assuming no
    true divisor valuation lies in [m, infinity).  Callers re-run at a
    higher precision to certify that assumption.

    Each pivot is an entry of least valuation in the active block (the
    rows and columns not yet used), the first one in row-major order.
    A splits into independent blocks (``_blocks``), and the elimination
    runs on them apart, every block of one shape at once
    (``_smith_stack``).  That gives the pivots of one global loop:
    operations never mix blocks, and the global rule restricted to a
    block is the block's own.  The divisor list is non-decreasing, since
    clearing by a pivot of valuation v leaves every entry of valuation at
    least v, so the blocks' lists merge by sorting.  Once the active block
    is zero, the columns never picked are the zero columns of the
    diagonalized A: their column transforms are the kernel.

    Returns (kernel_rows, divisor_vals).
    """
    W = _as_matrix(A, m)
    a = W.shape[1]
    C = np.eye(a, dtype=np.int64)
    picked = np.zeros(a, dtype=bool)
    divisors = []
    for rows, cols in _blocks(W):
        Cb, piv, vals = _smith_stack(W[rows[:, :, None], cols[:, None, :]], m)
        C[cols[:, :, None], cols[:, None, :]] = Cb
        picked[cols[piv]] = True
        divisors += vals
    return C[:, ~picked].T, sorted(divisors)


def _blocks(W: np.ndarray):
    """The independent blocks of W, by shape: for each shape (r, c), the
    (k, r) rows and (k, c) columns of its k blocks, each ascending.  A
    block is a connected component of the nonzero pattern, rows joined to
    the columns they meet; zero rows and columns lie in none.

    The components come from label propagation with pointer jumping, the
    rows and columns being the nodes: each edge lowers the labels of the
    nodes that its ends' labels name to the smaller of the two, and then
    every node takes its label's label, until every edge joins equal
    labels.  A label is always a node of its own component, so then it is
    constant on each component and differs between them.
    """
    b, a = W.shape
    er, ec = W.nonzero()
    if not er.size:
        return
    ec += b
    L = np.arange(b + a)
    while True:
        lr, lc = L[er], L[ec]
        if (lr == lc).all():
            break
        lo = np.minimum(lr, lc)
        np.minimum.at(L, lr, lo)
        np.minimum.at(L, lc, lo)
        L = L[L]
    # the nodes sorted by the shape of their component, then by component:
    # each component's rows, then its columns, ascending, and the
    # components of one shape side by side; a zero row or column is a
    # component of shape (1, 0) or (0, 1)
    nr = np.bincount(L[:b], minlength=b + a)
    nc = np.bincount(L[b:], minlength=b + a)
    shape = (nr * (a + 1) + nc)[L]
    order = np.argsort(shape * (b + a) + L, kind="stable")
    shape = shape[order]
    cuts = [0, *(np.flatnonzero(shape[1:] != shape[:-1]) + 1).tolist(), b + a]
    for s, e in zip(cuts, cuts[1:]):
        r, c = divmod(int(shape[s]), a + 1)
        if r and c:
            S = order[s:e].reshape(-1, r + c)
            yield S[:, :r], S[:, r:] - b


def _unit_inverses(u: np.ndarray, m: int) -> np.ndarray:
    """u^-1 mod 3^m for an int64 array of units u in [0, 3^m).

    Newton's iteration x <- x (2 - u x) squares 1 - u x, so each step
    doubles the number of correct 3-adic digits.  It starts from the
    inverses mod 3^k, k = min(m, 10), read off a cached table that the
    same iteration computes on 0 .. 3^k - 1, starting from u itself, the
    inverse mod 3.
    """
    k = min(m, _VAL_TABLE_MAX_M)
    return _newton_inverses(u, _inverse_table(k)[u % 3**k], k, m)


def _newton_inverses(u: np.ndarray, x: np.ndarray, digits: int, m: int) -> np.ndarray:
    """Newton's iteration for u^-1 mod 3^m from x, correct to ``digits`` digits."""
    M = modulus(m)
    while digits < m:
        x = x * (2 - u * x % M) % M
        digits *= 2
    return x


@lru_cache(maxsize=None)
def _inverse_table(k: int) -> np.ndarray:
    """u^-1 mod 3^k at each unit u of 0 .. 3^k - 1 (junk at the others)."""
    u = np.arange(3**k)
    T = _newton_inverses(u, u, 1, k)
    T.flags.writeable = False
    return T


def _smith_stack(W: np.ndarray, m: int) -> tuple:
    """The elimination of ``smith_kernel`` on k blocks of one shape at
    once: W is their (k, r, c) stack of residues, and step s takes the
    s-th pivot of every block that has one left.

    Each block's column operations are tracked in C, stacked under W as
    Y = [W; C], so one update clears the pivot row in both.  A pivot of
    valuation v at (i, j) clears its row by q = (W[i] u^-1 mod 3^m) / 3^v,
    u the unit part of W[i, j]; then q[j] = 1, so column j goes to zero
    too.  The row operations that would clear that column change nothing
    else, so they are left out, and the row and column, now zero, are
    retired.  A finished block is zero, so its q is zero and its pivot
    is not recorded.  Only the rows and columns that some pivot of the
    step meets are updated.  Returns (C, picked, divisors): the (k, c, c)
    column transforms, the (k, c) mask of the pivot columns, and the
    pivot valuations.
    """
    M = modulus(m)
    k, r, c = W.shape
    K = np.arange(k)
    Y = np.zeros((k, r + c, c), dtype=np.int64)
    Y[:, :r] = W
    Y[:, r + np.arange(c), np.arange(c)] = 1
    # valuations of W; zero, and so every retired row and column, reads m + 1
    V = valuations(W, m)
    flatV = V.reshape(k, -1)
    vs, js = [], []
    for _ in range(min(r, c)):
        flat = flatV.argmin(axis=1)
        v = flatV[K, flat]
        if v.min() > m:
            break
        i, j = np.divmod(flat, c)
        vs.append(v)
        js.append(j)
        p = 3**v
        row = Y[K, i]
        q = row * _unit_inverses(row[K, j] // p, m)[:, None] % M // p[:, None]
        hit = q.any(axis=0).nonzero()[0]
        Yj = Y[K, :, j]
        rr = Yj.any(axis=0).nonzero()[0]
        Z = (Y[:, rr[:, None], hit] - Yj[:, rr, None] * q[:, None, hit]) % M
        Y[:, rr[:, None], hit] = Z
        w = rr.searchsorted(r)
        V[:, rr[:w, None], hit] = valuations(Z[:, :w], m)
    vs, js = np.array(vs), np.array(js)
    live = vs <= m
    picked = np.zeros((k, c), dtype=bool)
    picked[live.nonzero()[1], js[live]] = True
    return Y[:, r:], picked, vs[live].tolist()


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
