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
prime to 3 being invertible mod 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, witt
from .errors import PrecisionUnstable
from .invariants import apply_gen
from .polys import WPoly, monomials_of_degree, w_coordinate_matrix

DEFAULT_COHO_PRECISION = 4

# conjugation exponents: g^-1 s g = s^k
CONJ_EXP = {"s": 1, "t": 2, "t2": 1, "psi": 1}

VARIANT_OPS = {
    "C3": (),
    "C6": ("t2",),
    "C12": ("psi",),
    "G12": ("t",),
    "G24": ("t", "psi"),
}


# -- graded module providers -------------------------------------------------

@dataclass(frozen=True)
class ModelPiece:
    basis: tuple          # monomial exponent tuples
    nvars: int
    precision: int
    r: int                # sigma3 denominator exponent
    twists: dict          # gen -> unit scalar multiplying the acted polynomial

    def dim(self) -> int:
        return 2 * len(self.basis)


class GradedModel:
    """S(F), S(rho), or S(rho) localized at sigma3 with fixed denominators."""

    def __init__(self, kind: str, precision: int):
        if kind not in ("SF", "Srho", "SrhoLoc"):
            raise ValueError(kind)
        self.kind = kind
        self.precision = precision

    def denominator(self, t: int) -> int:
        """Default truncation exponent; one unit of slack past stabilization."""
        if self.kind != "SrhoLoc":
            return 0
        return max(0, math.ceil((t + 2) / 6) + 1)

    def piece(self, t: int, r: int | None = None) -> ModelPiece | None:
        """The degree-t graded piece, or None when it vanishes."""
        if t % 2:
            return None
        pr = self.precision
        om = witt.omega(pr)
        one = witt.one(pr)
        if self.kind == "SrhoLoc":
            if r is None:
                r = self.denominator(t)
            d = (6 * r - t) // 2
            if d < 0:
                return None
            twists = {
                "s": one,
                "t": (om**6).inv() ** r,
                "t2": witt.from_int(-1, pr) ** r,
                "psi": (om**3).inv() ** r,
            }
            return ModelPiece(tuple(monomials_of_degree(2, d)), 2, pr, r, twists)
        d = -t // 2
        if d < 0:
            return None
        nvars = 3 if self.kind == "SF" else 2
        return ModelPiece(
            tuple(monomials_of_degree(nvars, d)),
            nvars,
            pr,
            0,
            {g: one for g in ("s", "t", "t2", "psi")},
        )

    @lru_cache(maxsize=None)
    def gen_matrix(self, gen: str, t: int, r: int | None = None) -> np.ndarray:
        """Z/3^N matrix of one generator on the degree-t piece."""
        piece = self.piece(t, r)
        tw = piece.twists[gen]

        def image(mono, scalar):
            return apply_gen(gen, WPoly(piece.nvars, self.precision, {mono: scalar})).scale(tw)

        return w_coordinate_matrix(piece.basis, piece.basis, image, self.precision)


# -- C3 cells -----------------------------------------------------------------

@dataclass
class Cell:
    """One subquotient K/I of a graded piece, with its invariant factors."""

    K: np.ndarray
    I: np.ndarray
    invariants: list

    @property
    def dim_f3(self) -> int:
        return len(self.invariants)

    @property
    def elementary(self) -> bool:
        return all(e == 1 for e in self.invariants)


def _empty_cell() -> Cell:
    z = np.zeros((0, 0), dtype=np.int64)
    return Cell(z, z, [])


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


@dataclass
class C3Degree:
    """H*(C3, M_t) in one internal degree: fixed line plus the two parities."""

    t: int
    fixed: np.ndarray        # saturated basis of M_t^{C3} (free)
    odd: Cell                # H^{2i+1}, any i >= 0
    even: Cell               # H^{2i+2}, any i >= 0; also coker(tr) at s=0

    def h_dim(self, s: int) -> int:
        if s == 0:
            return self.fixed.shape[0]
        return (self.odd if s % 2 else self.even).dim_f3


def c3_degree(
    model_hi: GradedModel, t: int, m: int, r: int | None = None
) -> C3Degree:
    """Cohomology cells at reporting precision m; model_hi carries slack."""
    if model_hi.precision < m + SAT_SLACK:
        raise ValueError("model precision must exceed reporting precision by the slack")
    piece = model_hi.piece(t, r)
    if piece is None or not piece.basis:
        return C3Degree(t, np.zeros((0, 0), dtype=np.int64), _empty_cell(), _empty_cell())
    m_work = model_hi.precision
    Mw, M = 3**m_work, 3**m
    S_hi = model_hi.gen_matrix("s", t, r) % Mw
    n = S_hi.shape[0]
    eye = np.eye(n, dtype=np.int64)
    norm_hi = _norm_matrix(S_hi, m_work)
    fixed = saturated_kernel_reduced((S_hi - eye) % Mw, m_work, m)
    ker_norm = saturated_kernel_reduced(norm_hi, m_work, m)
    im_s1 = linalg.image((S_hi - eye) % M, m).rows
    im_norm = linalg.image(norm_hi % M, m).rows
    odd = Cell(ker_norm, im_s1, linalg.quotient_invariants(ker_norm, im_s1, m))
    even = Cell(fixed, im_norm, linalg.quotient_invariants(fixed, im_norm, m))
    return C3Degree(t, fixed, odd, even)


class C3Table:
    """Degreewise H*(C3, M) with precision-stability rechecks."""

    def __init__(self, kind: str, m: int = DEFAULT_COHO_PRECISION):
        self.kind = kind
        self.m = m
        # reporting-precision models for operator membership arithmetic,
        # working-precision models (slack 2) for saturated kernels
        self.model = GradedModel(kind, m)
        self.model_work = GradedModel(kind, m + SAT_SLACK)
        self.model_hi = GradedModel(kind, m + 2)
        self.model_hi_work = GradedModel(kind, m + 2 + SAT_SLACK)
        self._cache: dict = {}
        self._cache_hi: dict = {}

    def degree(self, t: int, hi: bool = False) -> C3Degree:
        cache = self._cache_hi if hi else self._cache
        if t not in cache:
            cache[t] = c3_degree(
                self.model_hi_work if hi else self.model_work,
                t,
                self.m + 2 if hi else self.m,
            )
        return cache[t]

    def h_dim(self, s: int, t: int, check_stability: bool = True) -> int:
        d = self.degree(t).h_dim(s)
        if check_stability:
            d2 = self.degree(t, hi=True).h_dim(s)
            if d != d2:
                raise PrecisionUnstable(
                    f"H^{s}(C3, {self.kind}_{t}) rank {d} -> {d2} at N+2"
                )
        return d

    def h_dim_truncation_stable(self, s: int, t: int) -> bool:
        """Recompute one cell with denominator bumped by one."""
        if self.kind != "SrhoLoc":
            return True
        r = self.model.denominator(t)
        d1 = self.degree(t).h_dim(s)
        d2 = c3_degree(self.model_work, t, self.m, r + 1).h_dim(s)
        return d1 == d2


# -- normalizer operators on the cells ------------------------------------------

def _ops_for(model: GradedModel, group: str, s: int, t: int, m: int, r=None) -> list:
    """Matrices of the quotient-group generators acting on H^s(C3, M_t)."""
    M = 3**m
    piece = model.piece(t, r)
    n = 2 * len(piece.basis)
    eye = np.eye(n, dtype=np.int64)
    S = model.gen_matrix("s", t, r) % M
    ops = []
    for gen in VARIANT_OPS[group]:
        k = CONJ_EXP[gen]
        G = model.gen_matrix(gen, t, r) % M
        if s % 2 == 1:
            i = (s - 1) // 2
            Q = eye if k == 1 else (eye + S) % M
            op = pow(k, i, M) * linalg.matmul_mod(G, Q, m) % M
        else:
            i = s // 2
            op = (pow(k, i, M) * G) % M
        ops.append(op)
    return ops


def invariant_cell(cell: Cell, ops: list, m: int) -> Cell:
    """The fixed subquotient (K/I)^{ops} as a new Cell in the same ambient."""
    M = 3**m
    K, I = cell.K, cell.I
    r = K.shape[0]
    if r == 0 or not ops:
        return Cell(K, I, cell.invariants)
    n = K.shape[1]
    ni = I.shape[0]
    blocks = []
    for pos, op in enumerate(ops):
        T = (linalg.matmul_mod(op, K.T, m) - K.T) % M  # (op - 1) on the K-basis, columns = y
        row = np.zeros((n, r + len(ops) * ni), dtype=np.int64)
        row[:, :r] = T
        if ni:
            j = r + pos * ni
            row[:, j : j + ni] = (-I.T) % M
        blocks.append(row)
    big = np.vstack(blocks) % M
    ker = linalg.kernel(big, m)
    y_span = ker[:, :r] if ker.size else np.zeros((0, r), dtype=np.int64)
    L = linalg.matmul_mod(y_span, K, m) if y_span.size else np.zeros((0, n), dtype=np.int64)
    L_all = np.vstack([L, I]) if I.size else L
    return Cell(L_all, I, linalg.quotient_invariants(L_all, I, m))


class VariantTable:
    """H*(F, M) for F one of C3, C6, C12, G12, G24, as C3-cell invariants."""

    def __init__(self, group: str, kind: str = "SrhoLoc", m: int = DEFAULT_COHO_PRECISION):
        self.group = group
        self.kind = kind
        self.m = m
        self.base = C3Table(kind, m)
        self._cells: dict = {}

    def _cell(self, s: int, t: int, hi: bool = False) -> Cell:
        key = (s, t, hi)
        if key in self._cells:
            return self._cells[key]
        mm = self.m + 2 if hi else self.m
        model = self.base.model_hi if hi else self.base.model
        deg = self.base.degree(t, hi=hi)
        base_cell = deg.odd if s % 2 else deg.even
        piece = model.piece(t)
        if piece is None or not piece.basis or base_cell.dim_f3 == 0:
            out = base_cell
        else:
            out = invariant_cell(base_cell, _ops_for(model, self.group, s, t, mm), mm)
        self._cells[key] = out
        return out

    def h_dim(self, s: int, t: int, check_stability: bool = True) -> int:
        """dim_F3 H^s(F, M_t) for s >= 1; s reduces mod 4 (operator period)."""
        if s < 1:
            raise ValueError("use fixed_rank for the s = 0 line")
        s_red = (s - 1) % 4 + 1
        d = self._cell(s_red, t).dim_f3
        if check_stability:
            d2 = self._cell(s_red, t, hi=True).dim_f3
            if d != d2:
                raise PrecisionUnstable(
                    f"H^{s}({self.group}, M_{t}) dim {d} -> {d2} at N+2"
                )
        return d

    def fixed_rank(self, t: int, cross_check: bool = True) -> int:
        """Free rank of H^0(F, M_t), computed two independent ways."""
        m, M = self.m, 3**self.m
        model = self.base.model
        piece = model.piece(t)
        if piece is None or not piece.basis:
            return 0
        gens = ("s",) + VARIANT_OPS[self.group]
        work = self.base.model_work
        mats_hi = [work.gen_matrix(g, t) for g in gens]
        n_hi = mats_hi[0].shape[0]
        stacked = np.vstack([(A - np.eye(n_hi, dtype=np.int64)) for A in mats_hi])
        direct = saturated_kernel_reduced(stacked, work.precision, m).shape[0]
        if cross_check:
            deg = self.base.degree(t)
            K = deg.fixed
            if K.shape[0] == 0:
                via_c3 = 0
            else:
                ops = _ops_for(model, self.group, 0, t, m)
                if not ops:
                    via_c3 = K.shape[0]
                else:
                    empty_I = np.zeros((0, K.shape[1]), dtype=np.int64)
                    cell = invariant_cell(Cell(K, empty_I, []), ops, m)
                    via_c3 = linalg.free_rank(cell.K, m)
            if via_c3 != direct:
                raise PrecisionUnstable(
                    f"H^0 two-route mismatch for {self.group} at t={t}: "
                    f"{direct} vs {via_c3}"
                )
        return direct


# -- transfer -------------------------------------------------------------------

def transfer_cokernel_dim(table: C3Table, t: int) -> int:
    """dim_F3 of coker(tr : M_t -> M_t^{C3}); equals the even cell."""
    return table.degree(t).even.dim_f3


def transfer_times_restriction_is_3(table: C3Table, t: int) -> bool:
    """tr(res(x)) = 3x for fixed vectors x."""
    m = table.m
    M = 3**m
    deg = table.degree(t)
    if deg.fixed.shape[0] == 0:
        return True
    S = table.model.gen_matrix("s", t) % M
    norm = _norm_matrix(S, m)
    for v in deg.fixed:
        if ((norm @ v - 3 * v) % M).any():
            return False
    return True


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


def pattern_dim_unlocalized(kind: str, s: int, t: int) -> int:
    """F9[b,d] over S(F), F9[a,b,d]/(a^2) over S(rho); d-powers >= 0."""
    count = 0
    eps_range = (0,) if kind == "SF" else (0, 1)
    for eps in eps_range:
        j2 = s - eps
        if j2 < 0 or j2 % 2:
            continue
        rem = -(t + 2 * eps)
        if rem % 6 or rem < 0:
            continue
        count += 1
    return 2 * count


def verify_pattern(group: str, smax: int = 8, tmin: int = -24, tmax: int = 24) -> tuple:
    """H^s(F, M_t) of the localized model against ``pattern_dim`` for
    1 <= s <= smax and t = tmin, tmin + 2, ..., tmax: (report, ok).

    Every rank is re-checked at N+2.  The report lists the cells where the
    engine or the pattern is nonzero.  ok is None when no engine cell was
    compared: an empty window, or one holding only odd degrees, where the
    model vanishes.
    """
    if group == "C3":
        get = C3Table("SrhoLoc", DEFAULT_COHO_PRECISION).h_dim
    else:
        get = VariantTable(group, "SrhoLoc", DEFAULT_COHO_PRECISION).h_dim
    ok, cells = True, []
    for s in range(1, smax + 1):
        for t in range(tmin, tmax + 1, 2):
            got, want = get(s, t), pattern_dim(group, s, t)
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
    return report, ok if compared else None


# -- module structure: multiplication by invariant classes --------------------------

def multiplication_kills(
    table: C3Table,
    s: int,
    t: int,
    mult_num: WPoly,
    mult_r: int,
    t_shift: int,
) -> bool:
    """True when multiplying H^s(C3, A_t) by mult_num/sigma3^mult_r lands in
    the transfer image (i.e. the product classes vanish in the cokernel).

    The multiplier must be C3-invariant with internal degree t_shift.
    """
    m, M = table.m, 3**table.m
    model = table.model
    deg_src = table.degree(t)
    cell = deg_src.odd if s % 2 else deg_src.even
    if cell.dim_f3 == 0:
        return True
    x_deg = {sum(mm) for mm in mult_num.coeffs}
    if len(x_deg) != 1 or -2 * next(iter(x_deg)) + 6 * mult_r != t_shift:
        raise ValueError("multiplier degree does not match t_shift")
    src = model.piece(t)
    R = src.r + mult_r
    dst_deg = c3_degree(table.model_work, t + t_shift, m, R)
    dst = model.piece(t + t_shift, R)
    T = w_coordinate_matrix(
        src.basis, dst.basis, lambda mono, c: WPoly(2, m, {mono: c}) * mult_num, m
    )
    tgt_cell = dst_deg.odd if s % 2 else dst_deg.even
    HI = linalg.howell(tgt_cell.I, m) if tgt_cell.I.size else None
    for v in cell.K:
        img = (T @ v) % M
        if HI is None:
            if img.any():
                return False
        elif not linalg.in_span(HI, img, m):
            return False
    return True
