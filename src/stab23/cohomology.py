"""Group cohomology of the graded models.

H*(C3, M) is computed degreewise from the 2-periodic resolution of the
cyclic group: H^0 is the fixed module, odd cohomology is
ker(norm)/im(s-1) and positive even cohomology is ker(s-1)/im(norm).
Kernels are saturated (Smith form), so the tables report the cohomology
of the integral module rather than of its mod-3^N reduction; every rank
is re-checked at precision N+2.

The normalizer action on H^s(C3, -) uses the standard chain maps of the
periodic resolution: an element g with g^-1 s g = s^k acts on H^{2i} by
k^i times the coefficient action and on H^{2i+1} by k^i times the
coefficient action composed with 1 + s + ... + s^{k-1}.  Cohomology of
the larger groups is the simultaneous invariant part, the group order
prime to 3 being invertible mod 3; C3 is the group with no normalizer
operators.

The engine is memoized, so every suite of a process shares its results,
and their arrays are read-only.  The generator matrices
(``invariants.gen_matrix``) and the invariant cells (``invariant_cell``)
are keyed on their parameters.  The C3 cells of one degree
(``c3_degree``) depend only on the matrix S of s at the working
precision m + SAT_SLACK and on m, so they are keyed on the value of S
(its bytes, shape and dtype) and on m: degrees on which s acts by the
same matrix share one computation.  A result at N is never read at
N + 2, because m is in the key: the bytes of S alone can coincide at two
precisions (a matrix of 0s and 1s), and the cells at N are reduced
mod 3^N.  Each cell carries the Howell form of its relations, which
later eliminations take instead of recomputing it.  The invariant
factors of a fixed subquotient (``_fixed_subquotient``) are keyed the
same way, on the value of its generators and relations and on m, so
degrees that reach one subquotient share its elimination; that memo
holds lists of exponents, no arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import CheckFailed, PrecisionMismatch, PrecisionUnstable
from .invariants import (
    GROUP_GENS, denominator, gen_matrix, model_basis, modular_quantities, product_matrix
)
from .polys import WPoly

# reporting precision N of every table; ranks are re-checked at N + 2
PRECISION = 4

# conjugation exponents: g^-1 s g = s^k
CONJ_EXP = {"s": 1, "t": 2, "t2": 1, "psi": 1}

# the groups containing C3 = <s>, and the generators of each beyond s
VARIANT_OPS = {g: gens[1:] for g, gens in GROUP_GENS.items() if gens[0] == "s"}


def _read_only(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


# -- C3 cells -----------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One subquotient K/I of a graded piece, with its invariant factors."""

    K: np.ndarray
    I: np.ndarray
    HI: linalg.HowellForm    # Howell form of the relations I
    invariants: list

    @property
    def dim_f3(self) -> int:
        return len(self.invariants)


def _norm_matrix(S: np.ndarray, m: int) -> np.ndarray:
    M = 3**m
    n = S.shape[0]
    return (np.eye(n, dtype=np.int64) + S + linalg.matmul_mod(S, S, m)) % M


SAT_SLACK = 2


def saturated_kernel_reduced(A_hi: np.ndarray, m_work: int, m_report: int) -> np.ndarray:
    """Reduction mod 3^m_report of the integral kernel of a lift of A_hi.

    The kernel basis computed at the working precision is honest at the
    reporting precision as long as every resolved elementary divisor
    fits into the slack m_work - m_report.
    """
    ker, divs = linalg.smith_kernel(A_hi, m_work)
    if any(0 < v < m_work and v > m_work - m_report for v in divs):
        raise PrecisionUnstable(
            f"elementary divisor 3^{max(divs)} exceeds the saturation slack"
        )
    return ker % 3**m_report


@dataclass(frozen=True)
class C3Degree:
    """H*(C3, M_t) in one internal degree: fixed line plus the two parities."""

    fixed: Cell              # H^0: saturated basis of M_t^{C3} (free), no relations
    odd: Cell                # H^{2i+1}, any i >= 0
    even: Cell               # H^{2i+2}, any i >= 0; also coker(tr) at s=0

    def cell(self, s: int) -> Cell:
        if s == 0:
            return self.fixed
        return self.odd if s % 2 else self.even


# (bytes, shape and dtype of S at m + SAT_SLACK, m) -> C3Degree at m
_C3_CELLS = {}


def c3_degree(kind: str, t: int, m: int, r: int) -> C3Degree:
    """Cohomology cells at reporting precision m, from generator matrices
    at the working precision m + SAT_SLACK.  The norm (transfer after
    restriction) must be 3 on the fixed line, or CheckFailed is raised.

    The cells depend only on S, the matrix of s at m + SAT_SLACK, and on
    m, so every degree with the same S (and m) shares one computation."""
    if not model_basis(kind, t, r):
        z = np.zeros((0, 0), dtype=np.int64)
        _read_only(z)
        empty = Cell(z, z, linalg.HowellForm(z, [], []), [])
        return C3Degree(empty, empty, empty)
    S_hi = gen_matrix(kind, m + SAT_SLACK, "s", t, r)
    key = (S_hi.tobytes(), S_hi.shape, S_hi.dtype.str, m)
    if key not in _C3_CELLS:
        _C3_CELLS[key] = _c3_cells(S_hi, m, f"{kind}_{t}")
    return _C3_CELLS[key]


def _c3_cells(S_hi: np.ndarray, m: int, name: str) -> C3Degree:
    """The cells of ``c3_degree`` for s acting by S_hi; ``name`` is the
    degree that a failed transfer check names."""
    m_work = m + SAT_SLACK
    Mw, M = 3**m_work, 3**m
    n = S_hi.shape[0]
    eye = np.eye(n, dtype=np.int64)
    norm_hi = _norm_matrix(S_hi, m_work)
    fixed = saturated_kernel_reduced((S_hi - eye) % Mw, m_work, m)
    ker_norm = saturated_kernel_reduced(norm_hi, m_work, m)
    im_s1 = linalg.image((S_hi - eye) % M, m)
    im_norm = linalg.image(norm_hi % M, m)
    if ((linalg.matmul_mod(fixed, (norm_hi % M).T, m) - 3 * fixed) % M).any():
        raise CheckFailed(f"transfer after restriction is not 3 on the fixed line of {name}")
    no_rel = np.zeros((0, n), dtype=np.int64)
    _read_only(fixed, ker_norm, im_s1.rows, im_norm.rows, no_rel)
    return C3Degree(
        Cell(fixed, no_rel, linalg.HowellForm(no_rel, [], []), [m] * fixed.shape[0]),
        Cell(ker_norm, im_s1.rows, im_s1,
             linalg.quotient_invariants(ker_norm, im_s1.rows, m, HI=im_s1)),
        Cell(fixed, im_norm.rows, im_norm,
             linalg.quotient_invariants(fixed, im_norm.rows, m, HI=im_norm)),
    )


# -- normalizer operators on the cells ------------------------------------------

def _ops_for(group: str, kind: str, s: int, t: int, m: int, r: int) -> list:
    """Matrices of the quotient-group generators acting on H^s(C3, M_t)."""
    M = 3**m
    S = gen_matrix(kind, m, "s", t, r)
    eye = np.eye(S.shape[0], dtype=np.int64)
    ops = []
    for gen in VARIANT_OPS[group]:
        k = CONJ_EXP[gen]
        G = gen_matrix(kind, m, gen, t, r)
        if s % 2 == 1:
            i = (s - 1) // 2
            Q = eye if k == 1 else (eye + S) % M
            op = pow(k, i, M) * linalg.matmul_mod(G, Q, m) % M
        else:
            i = s // 2
            op = (pow(k, i, M) * G) % M
        ops.append(op)
    return ops


# (bytes, shape and dtype of L_all and of I, m) -> invariant factors of L_all/I
_SUBQUOTIENTS = {}


def _fixed_subquotient(cell: Cell, ops: list, m: int) -> Cell:
    """The fixed subquotient (K/I)^{ops} as a new Cell in the same ambient.

    It is span(L, I), L the y K with y . K(op - 1)^T in span(I) for every
    op.  Those y are read off one Howell form of the rows
    [K(op_1 - 1)^T ... K(op_g - 1)^T | I_r], r = rows of K, with the
    relation rows I under each op block: its rows with pivots among the
    last r columns, cut to them, are the Howell form of that y-module.
    The invariant factors are memoized on the value of (L_all, I) and m,
    so a subquotient met again in another degree is not eliminated again.
    """
    M = 3**m
    K, I = cell.K, cell.I
    r, n = K.shape
    g, ni = len(ops), I.shape[0]
    X = np.zeros((r + g * ni, g * n + r), dtype=np.int64)
    for pos, op in enumerate(ops):
        X[:r, pos * n : (pos + 1) * n] = (linalg.matmul_mod(K, op.T, m) - K) % M
        X[r + pos * ni : r + (pos + 1) * ni, pos * n : (pos + 1) * n] = I
    X[np.arange(r), g * n + np.arange(r)] = 1
    H = linalg.howell(X, m)
    y_span = H.rows[sum(c < g * n for c in H.pivot_cols) :, g * n :]
    L = linalg.matmul_mod(y_span, K, m)
    L_all = np.vstack([L, I]) if I.size else L
    _read_only(L_all)
    key = (L_all.tobytes(), L_all.shape, L_all.dtype.str, I.tobytes(), I.shape, I.dtype.str, m)
    if key not in _SUBQUOTIENTS:
        _SUBQUOTIENTS[key] = linalg.quotient_invariants(L_all, I, m, HI=cell.HI)
    return Cell(L_all, I, cell.HI, _SUBQUOTIENTS[key])


@lru_cache(maxsize=None)
def invariant_cell(group: str, kind: str, s: int, t: int, m: int) -> Cell:
    """H^s(F, M_t) at precision m for 0 <= s <= 4, as the subquotient of
    the C3 cell fixed by the normalizer operators of F."""
    r = denominator(kind, t)
    cell = c3_degree(kind, t, m, r).cell(s)
    if cell.dim_f3 == 0 or not VARIANT_OPS[group]:
        return cell
    return _fixed_subquotient(cell, _ops_for(group, kind, s, t, m, r), m)


def h_dim(group: str, kind: str, s: int, t: int) -> int:
    """dim_F3 H^s(F, M_t) for s >= 1, re-checked at N+2; s reduces mod 4
    (the operator period).  The cell must be elementary (every invariant
    factor Z/3) at both precisions, as the reports state, or CheckFailed
    is raised."""
    if s < 1:
        raise ValueError("use fixed_rank for the s = 0 line")
    s_red = (s - 1) % 4 + 1
    cells = [invariant_cell(group, kind, s_red, t, m) for m in (PRECISION, PRECISION + 2)]
    if any(e != 1 for cell in cells for e in cell.invariants):
        raise CheckFailed(f"H^{s}({group}, {kind}_{t}) is not elementary")
    d, d2 = (cell.dim_f3 for cell in cells)
    if d != d2:
        raise PrecisionUnstable(f"H^{s}({group}, {kind}_{t}) dim {d} -> {d2} at N+2")
    return d


def fixed_rank(group: str, kind: str, t: int) -> int:
    """Free rank of H^0(F, M_t), computed two independent ways: the
    saturated common kernel of all generators, and the invariants of the
    normalizer operators on the C3-fixed line."""
    r = denominator(kind, t)
    n = 2 * len(model_basis(kind, t, r))
    if not n:
        return 0
    work = PRECISION + SAT_SLACK
    eye = np.eye(n, dtype=np.int64)
    stacked = np.vstack([gen_matrix(kind, work, g, t, r) - eye for g in GROUP_GENS[group]])
    direct = saturated_kernel_reduced(stacked, work, PRECISION).shape[0]
    via_c3 = linalg.free_rank(invariant_cell(group, kind, 0, t, PRECISION).K, PRECISION)
    if via_c3 != direct:
        raise PrecisionUnstable(
            f"H^0 two-route mismatch for {group} at t={t}: {direct} vs {via_c3}"
        )
    return direct


# -- bidegree patterns ------------------------------------------------------------

GROUP_DELTA_STEP = {"C3": 1, "C6": 2, "C12": 2, "G12": 4, "G24": 4}
GROUP_LINE_DIM = {"C3": 2, "C6": 2, "C12": 1, "G12": 2, "G24": 1}


def pattern_dim(group: str, s: int, t: int) -> int:
    """dim_F3 at (s, t) of the localized positive-filtration pattern.

    Classes are alpha^eps * beta^j * delta^k with bidegrees
    alpha (1,4), beta (2,12), delta (0,6); k runs over multiples of the
    group's delta-step and each class is an F9- or F3-line.  At s = 0
    the pattern describes the cokernel of the transfer (delta-powers).
    """
    if s < 0:
        return 0
    step = GROUP_DELTA_STEP[group]
    line = GROUP_LINE_DIM[group]
    count = 0
    for eps in (0, 1):
        j2 = s - eps
        if j2 < 0 or j2 % 2:
            continue
        j = j2 // 2
        rem = t - 4 * eps - 12 * j
        if rem % 6:
            continue
        k = rem // 6
        if k % step == 0:
            count += 1
    return count * line


def verify_pattern(group: str, smax: int = 8, tmin: int = -24, tmax: int = 24) -> tuple:
    """H^s(F, M_t) of the localized model against ``pattern_dim`` for
    1 <= s <= smax and t = tmin, tmin + 2, ..., tmax: (report, ok).

    Every rank is re-checked at N+2.  The report lists the cells where the
    engine or the pattern is nonzero.  ok is None when no engine cell was
    compared: an empty window, or one holding only odd degrees, where the
    model vanishes.  For C3, c4 and c6 must act trivially on the alpha and
    beta cells inside the window, or CheckFailed is raised.
    """
    ok, cells = True, []
    for s in range(1, smax + 1):
        for t in range(tmin, tmax + 1, 2):
            got, want = h_dim(group, "SrhoLoc", s, t), pattern_dim(group, s, t)
            ok = ok and got == want
            if got or want:
                cells.append({"s": s, "t": t, "rank": got, "torsion": "elementary", "pattern": want})
    report = {
        "group": group,
        "window": {"smax": smax, "tmin": tmin, "tmax": tmax},
        "cells": cells,
        "named_classes": {
            "a": [1, -2], "b": [2, 0], "d": [0, -6],
            "alpha": [1, 4], "beta": [2, 12], "Delta": [0, 24], "delta": [0, 6],
        },
    }
    # every t has the parity of tmin, and odd degrees of the model vanish
    compared = smax >= 1 and tmin <= tmax and tmin % 2 == 0
    if group == "C3" and compared:
        _check_c4_c6_on_alpha_beta(smax, tmin, tmax)
    return report, ok if compared else None


# -- module structure: multiplication by invariant classes --------------------------

def multiplication_kills(s: int, t: int, mult_num: WPoly, mult_r: int, t_shift: int) -> bool:
    """True when multiplying H^s(C3, A_t) by mult_num/sigma3^mult_r lands in
    the transfer image (i.e. the product classes vanish in the cokernel),
    A the localized model.

    The multiplier must be C3-invariant with internal degree t_shift, and
    given at the precision ``PRECISION`` of the cells.
    """
    kind, m = "SrhoLoc", PRECISION
    r = denominator(kind, t)
    cell = c3_degree(kind, t, m, r).cell(s)
    if cell.dim_f3 == 0:
        return True
    x_deg = {sum(mm) for mm in mult_num.coeffs}
    if len(x_deg) != 1 or -2 * next(iter(x_deg)) + 6 * mult_r != t_shift:
        raise ValueError("multiplier degree does not match t_shift")
    if mult_num.precision != m:
        raise PrecisionMismatch(f"multiplier at precision {mult_num.precision}, cells at {m}")
    R = r + mult_r
    T = product_matrix(model_basis(kind, t, r), model_basis(kind, t + t_shift, R), mult_num)
    tgt_cell = c3_degree(kind, t + t_shift, m, R).cell(s)
    return linalg.span_contains(tgt_cell.HI, linalg.matmul_mod(cell.K, T.T, m), m)


def _check_c4_c6_on_alpha_beta(smax: int, tmin: int, tmax: int) -> None:
    """c4 and c6 act trivially on the alpha line (1, 4) and the beta line
    (2, 12), on those of the two cells inside the window; raises CheckFailed."""
    q = modular_quantities(PRECISION)
    for s, t in ((1, 4), (2, 12)):
        if s > smax or not tmin <= t <= tmax:
            continue
        for name, f, t_shift in (("c4", q.c4, 8), ("c6", q.c6, 12)):
            if not multiplication_kills(s, t, f.num, f.r, t_shift):
                raise CheckFailed(f"{name} does not act trivially on H^{s}(C3, A_{t})")
