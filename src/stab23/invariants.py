"""Finite group actions on the graded models, and their invariant theory.

The order-24 group acts on W[x1,x2,x3] through the generators

    s:   x1 -> x2 -> x3 -> x1          (W-linear)
    t:   x1 -> w^2 x1, x2 -> w^2 x3, x3 -> w^2 x2   (W-linear, w = omega)
    psi: x_i -> w x_i, Frobenius on coefficients

The generator images on the x_i are derived data: they are pinned by a
startup assertion that every group relation and all eight of the
t/psi formulas on sigma_1..3 and the antisymmetric cubic hold exactly.
Groups of order prime to 3 act on the u1/u model instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, stabilizer as stab, witt
from .errors import CheckFailed, PrecisionUnstable
from .polys import (
    LocPoly,
    TamePoly,
    WPoly,
    embed_2_to_3,
    monomials_of_degree,

    substitute_x3,
)
from .witt import WittElement

GENS = ("s", "t", "psi")

GROUP_GENS = {
    "C3": ("s",),
    "C6": ("s", "t2"),
    "C12": ("s", "psi"),
    "G12": ("s", "t"),
    "G24": ("s", "t", "psi"),
    "Q8": ("t", "psi"),
}

W_LINEAR_GROUPS = {"C3", "C6", "G12"}


# -- generator ring maps on the 3-variable model ---------------------------


def _apply_gen_3(gen: str, p: WPoly) -> WPoly:
    om = witt.omega(p.precision)
    out = {}
    for (e1, e2, e3), c in p.coeffs.items():
        d = e1 + e2 + e3
        if gen == "s":
            mono, coef = (e3, e1, e2), c
        elif gen == "t":
            mono, coef = (e1, e3, e2), om ** (2 * d) * c
        elif gen == "t2":
            mono, coef = (e1, e2, e3), om ** (4 * d) * c
        elif gen == "psi":
            mono, coef = (e1, e2, e3), om**d * c.frobenius()
        else:
            raise KeyError(gen)
        prev = out.get(mono)
        s = coef if prev is None else prev + coef
        if s.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = s
    return WPoly(3, p.precision, out)


def apply_gen(gen: str, p: WPoly) -> WPoly:
    """One generator acting on the 3- or 2-variable model."""
    if p.nvars == 3:
        return _apply_gen_3(gen, p)
    return substitute_x3(_apply_gen_3(gen, embed_2_to_3(p)))


@lru_cache(maxsize=None)
def g24_words(precision: int = witt.DEFAULT_PRECISION) -> tuple:
    """All 24 normal forms (i, j, k) <-> s^i t^j psi^k, with a lookup table."""
    s = stab.s_element(precision)
    t = stab.t_element(precision)
    psi = stab.psi_element(precision)
    table = {}
    for i in range(3):
        for j in range(4):
            for k in range(2):
                g = (s**i) * (t**j) * (psi**k)
                table[g.key()] = (i, j, k)
    if len(table) != 24:
        raise CheckFailed("normal forms of the order-24 group are not distinct")
    return tuple(sorted(table.values()))


def word_of(g: stab.StabilizerElement) -> tuple:
    pr = g.precision
    s, t, psi = stab.s_element(pr), stab.t_element(pr), stab.psi_element(pr)
    for i in range(3):
        for j in range(4):
            for k in range(2):
                if ((s**i) * (t**j) * (psi**k)).key() == g.key():
                    return (i, j, k)
    raise KeyError("element is not in the order-24 subgroup")


def group_words(name: str, precision: int = witt.DEFAULT_PRECISION) -> list:
    """Normal-form words of one of the subgroups of the order-24 group."""
    if name == "G24":
        return list(g24_words(precision))
    members = {
        "C3": lambda i, j, k: j == 0 and k == 0,
        "C6": lambda i, j, k: k == 0 and j in (0, 2),
        "G12": lambda i, j, k: k == 0,
        "Q8": lambda i, j, k: i == 0,
        "C12": None,  # handled below: generated by s and psi
    }
    if name == "C12":
        pr = precision
        s, t, psi = stab.s_element(pr), stab.t_element(pr), stab.psi_element(pr)
        keys = {g.key() for g in stab.named_subgroup("C12", pr)}
        out = []
        for (i, j, k) in g24_words(pr):
            g = (s**i) * (t**j) * (psi**k)
            if g.key() in keys:
                out.append((i, j, k))
        return out
    pred = members[name]
    return [w for w in g24_words(precision) if pred(*w)]


def act_word(word: tuple, p: WPoly) -> WPoly:
    """Action of s^i t^j psi^k as the composite s^i o t^j o psi^k."""
    i, j, k = word
    out = p
    for _ in range(k):
        out = apply_gen("psi", out)
    for _ in range(j):
        out = apply_gen("t", out)
    for _ in range(i):
        out = apply_gen("s", out)
    return out


def act_loc(word: tuple, f: LocPoly) -> LocPoly:
    """Action on f/sigma3^r: each generator scales sigma3 by a unit."""
    i, j, k = word
    om = witt.omega(f.precision)
    out = f
    for gen, lam in [("psi", om**3)] * k + [("t", om**6)] * j + [("s", None)] * i:
        num = apply_gen(gen, out.num)
        if lam is not None:
            num = num.scale(lam.inv() ** out.r)
        out = LocPoly(num, out.r)
    return out.canonical()


# -- named elements ----------------------------------------------------------


def sigma(i: int, precision: int, nvars: int = 3) -> WPoly:
    x = [WPoly.variable(k, 3, precision) for k in range(3)]
    if i == 1:
        p = x[0] + x[1] + x[2]
    elif i == 2:
        p = x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
    elif i == 3:
        p = x[0] * x[1] * x[2]
    else:
        raise ValueError(i)
    return substitute_x3(p) if nvars == 2 else p


def epsilon(precision: int, nvars: int = 3) -> WPoly:
    x1, x2, x3 = (WPoly.variable(k, 3, precision) for k in range(3))
    p = (
        x1 * x1 * x2
        + x2 * x2 * x3
        + x3 * x3 * x1
        - x2 * x2 * x1
        - x1 * x1 * x3
        - x3 * x3 * x2
    )
    return substitute_x3(p) if nvars == 2 else p


def norm_product(precision: int) -> WPoly:
    """The product of the twelve G12-translates of x1 in W[x1,x2,x3]."""
    out = WPoly.constant(witt.one(precision), 3)
    x1 = WPoly.variable(0, 3, precision)
    for w in group_words("G12", precision):
        out = out * act_word(w, x1)
    return out


# -- startup pinning ---------------------------------------------------------


@lru_cache(maxsize=None)
def verify_action_pinning(precision: int = witt.DEFAULT_PRECISION) -> dict:
    """Assert the generator action satisfies the group law and the
    eight semi-invariance formulas; raises CheckFailed on any breakage."""
    om = witt.omega(precision)
    xs = [WPoly.variable(i, 3, precision) for i in range(3)]

    def act_seq(seq, p):
        for gen in reversed(seq):
            p = apply_gen(gen, p)
        return p

    checks = {}
    for x in xs:
        checks["s^3 = 1"] = checks.get("s^3 = 1", True) and act_seq(
            ["s", "s", "s"], x
        ) == x
        checks["t^4 = 1"] = checks.get("t^4 = 1", True) and act_seq(
            ["t"] * 4, x
        ) == x
        checks["psi^2 = t^2"] = checks.get("psi^2 = t^2", True) and act_seq(
            ["psi", "psi"], x
        ) == act_seq(["t", "t"], x)
        checks["t s = s^2 t"] = checks.get("t s = s^2 t", True) and act_seq(
            ["t", "s"], x
        ) == act_seq(["s", "s", "t"], x)
        checks["psi s = s psi"] = checks.get("psi s = s psi", True) and act_seq(
            ["psi", "s"], x
        ) == act_seq(["s", "psi"], x)
        checks["t psi = psi t^3"] = checks.get("t psi = psi t^3", True) and act_seq(
            ["t", "psi"], x
        ) == act_seq(["psi", "t", "t", "t"], x)

    s1, s2, s3 = (sigma(i, precision) for i in (1, 2, 3))
    eps = epsilon(precision)
    formulas = {
        "t(sigma1) = w^2 sigma1": apply_gen("t", s1) == s1.scale(om**2),
        "t(sigma2) = -sigma2": apply_gen("t", s2) == -s2,
        "t(sigma3) = w^6 sigma3": apply_gen("t", s3) == s3.scale(om**6),
        "t(eps) = w^2 eps": apply_gen("t", eps) == eps.scale(om**2),
        "psi(sigma1) = w sigma1": apply_gen("psi", s1) == s1.scale(om),
        "psi(sigma2) = w^2 sigma2": apply_gen("psi", s2) == s2.scale(om**2),
        "psi(sigma3) = w^3 sigma3": apply_gen("psi", s3) == s3.scale(om**3),
        "psi(eps) = w^3 eps": apply_gen("psi", eps) == eps.scale(om**3),
    }
    checks.update(formulas)
    if not all(checks.values()):
        bad = [k for k, v in checks.items() if not v]
        raise CheckFailed(f"action pinning failed: {bad}")
    return checks


# -- exact integer identity ---------------------------------------------------


def _int_mul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _int_scale(p: dict, n: int) -> dict:
    return {m: n * c for m, c in p.items() if n * c}


def _int_add(*ps) -> dict:
    out = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _int_sigma_eps():
    x1, x2, x3 = {(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}
    s1 = _int_add(x1, x2, x3)
    s2 = _int_add(_int_mul(x1, x2), _int_mul(x1, x3), _int_mul(x2, x3))
    s3 = _int_mul(_int_mul(x1, x2), x3)
    eps = _int_add(
        _int_mul(_int_mul(x1, x1), x2),
        _int_mul(_int_mul(x2, x2), x3),
        _int_mul(_int_mul(x3, x3), x1),
        _int_scale(_int_mul(_int_mul(x2, x2), x1), -1),
        _int_scale(_int_mul(_int_mul(x1, x1), x3), -1),
        _int_scale(_int_mul(_int_mul(x3, x3), x2), -1),
    )
    return s1, s2, s3, eps


def verify_epsilon_square() -> dict:
    """The discriminant identity for the antisymmetric cubic, over Z.

    Checks eps^2 = -27 s3^2 - 4 s2^3 - 4 s3 s1^3 + 18 s1 s2 s3 + s1^2 s2^2
    with exact integer coefficients, and its image modulo s1.
    """
    s1, s2, s3, eps = _int_sigma_eps()
    rhs = _int_add(
        _int_scale(_int_mul(s3, s3), -27),
        _int_scale(_int_mul(_int_mul(s2, s2), s2), -4),
        _int_scale(_int_mul(s3, _int_mul(_int_mul(s1, s1), s1)), -4),
        _int_scale(_int_mul(_int_mul(s1, s2), s3), 18),
        _int_mul(_int_mul(s1, s1), _int_mul(s2, s2)),
    )
    full = _int_add(_int_mul(eps, eps), _int_scale(rhs, -1)) == {}

    # image with s1 = 0: substitute x3 = -x1 - x2 over Z
    def sub3(p):
        out = {}
        from math import comb

        for (e1, e2, e3), c in p.items():
            for k in range(e3 + 1):
                m = (e1 + k, e2 + e3 - k)
                out[m] = out.get(m, 0) + c * comb(e3, k) * (-1) ** e3
        return {m: c for m, c in out.items() if c}

    eps_r, s2_r, s3_r = sub3(eps), sub3(s2), sub3(s3)
    reduced = (
        _int_add(
            _int_mul(eps_r, eps_r),
            _int_scale(_int_mul(s3_r, s3_r), 27),
            _int_scale(_int_mul(_int_mul(s2_r, s2_r), s2_r), 4),
        )
        == {}
    )
    if not (full and reduced):
        raise CheckFailed("epsilon^2 identity failed")
    return {"full_identity": full, "sigma1_zero_image": reduced}


# -- modular quantities --------------------------------------------------------


@dataclass(frozen=True)
class ModularQuantities:
    c4: LocPoly
    c6: LocPoly
    Delta: LocPoly
    delta: LocPoly
    sqrt_neg_Delta: LocPoly


def modular_quantities(precision: int = witt.DEFAULT_PRECISION) -> ModularQuantities:
    """c4, c6, Delta, delta and (-Delta)^(1/2); asserts their identities."""
    om = witt.omega(precision)
    half = witt.from_int(2, precision).inv()
    quarter = half * half
    one2 = WPoly.constant(witt.one(precision), 2)
    s2r = sigma(2, precision, nvars=2)
    epsr = epsilon(precision, nvars=2)
    c4 = LocPoly(s2r.scale(-(om**2)), 2).canonical()
    c6 = LocPoly(epsr.scale(om**3 * half), 3).canonical()
    Delta = LocPoly(one2.scale(-(om**6) * quarter), 4)
    delta = LocPoly(one2, 1)
    sqrtd = LocPoly(one2.scale(om**3 * half), 2)
    q = ModularQuantities(c4, c6, Delta, delta, sqrtd)

    lhs = c6 * c6 - c4 * c4 * c4
    rhs = Delta.scale(witt.from_int(27, precision))
    if lhs != rhs:
        raise CheckFailed("c6^2 - c4^3 = 27*Delta failed")
    if sqrtd * sqrtd != -Delta:
        raise CheckFailed("((-Delta)^(1/2))^2 = -Delta failed")
    return q


def g24_invariance_of_modular_quantities(precision: int = witt.DEFAULT_PRECISION) -> bool:
    q = modular_quantities(precision)
    for w in g24_words(precision):
        for f in (q.c4, q.c6, q.Delta):
            if act_loc(w, f) != f:
                raise CheckFailed(f"modular quantity moved under {w}")
    om = witt.omega(precision)
    if act_loc((0, 1, 0), q.delta) != q.delta.scale(om**2):
        raise CheckFailed("t(delta) != w^2 delta")
    if act_loc((0, 0, 1), q.delta) != q.delta.scale(om**5):
        raise CheckFailed("psi(delta) != w^5 delta")
    if act_loc((0, 2, 0), q.sqrt_neg_Delta) != q.sqrt_neg_Delta:
        raise CheckFailed("t^2 moves (-Delta)^(1/2)")
    if act_loc((0, 0, 1), q.sqrt_neg_Delta) != q.sqrt_neg_Delta:
        raise CheckFailed("psi moves (-Delta)^(1/2)")
    return True


# -- tame model actions ---------------------------------------------------------


def sd16_exponents(g: stab.StabilizerElement) -> tuple:
    """(a, e) with g = omega^a * phi^e; raises if g is outside SD16."""
    om = stab.omega_element(g.precision)
    for a in range(8):
        for e in range(2):
            if ((om**a) * stab.phi_element(g.precision) ** e).key() == g.key():
                return a, e
    raise ValueError("element is not in the omega/phi subgroup of order 16")


def act_tame(g: stab.StabilizerElement, f: TamePoly) -> TamePoly:
    """Exact prime-to-3 action: alpha(u) = alpha*u, alpha(u*u1) = alpha^3*u*u1,
    Frobenius acting on coefficients only."""
    a, e = sd16_exponents(g)
    om = witt.omega(f.precision)
    out = {}
    for (i, j), c in f.coeffs.items():
        coef = c.frobenius() if e else c
        coef = om ** (a * ((2 * i + j) % 8)) * coef
        if not coef.is_zero():
            out[(i, j)] = coef
    return TamePoly(f.precision, out)

TAME_GROUP_GENS = {
    "SD16": (("omega",), ("phi",)),
    "Q8": (("omega", "omega"), ("omega", "phi")),  # t = w^2, psi = w*phi
}


def _tame_gen_elements(name: str, precision: int) -> list:
    om, phi = stab.omega_element(precision), stab.phi_element(precision)
    atoms = {"omega": om, "phi": phi}
    out = []
    for word in TAME_GROUP_GENS[name]:
        g = stab.identity(precision)
        for atom in word:
            g = g * atoms[atom]
        out.append(g)
    return out


# -- invariant bases -------------------------------------------------------------


@dataclass
class InvariantBasis:
    group: str
    ring: str
    internal_degree: int
    rank: int
    rank_over: str          # "W" or "Z3"
    stable: bool
    basis: list             # polynomials (WPoly or TamePoly)


def _poly_to_vec(p: WPoly, basis_monos: list, precision: int) -> np.ndarray:
    v = np.zeros(2 * len(basis_monos), dtype=np.int64)
    idx = {m: i for i, m in enumerate(basis_monos)}
    for m, c in p.coeffs.items():
        i = idx[m]
        v[2 * i] = c.c0
        v[2 * i + 1] = c.c1
    return v


def _vec_to_poly(v, basis_monos, nvars, precision) -> WPoly:
    coeffs = {}
    for i, m in enumerate(basis_monos):
        c = WittElement(int(v[2 * i]), int(v[2 * i + 1]), precision)
        if not c.is_zero():
            coeffs[m] = c
    return WPoly(nvars, precision, coeffs)


def _gen_matrix(gen: str, basis_monos: list, nvars: int, precision: int) -> np.ndarray:
    n = len(basis_monos)
    A = np.zeros((2 * n, 2 * n), dtype=np.int64)
    one = witt.one(precision)
    w = WittElement(0, 1, precision)
    for i, m in enumerate(basis_monos):
        for k, scalar in ((0, one), (1, w)):
            p = WPoly(nvars, precision, {m: scalar})
            img = apply_gen(gen, p)
            A[:, 2 * i + k] = _poly_to_vec(img, basis_monos, precision)
    return A


def _fixed_rank_once(group: str, degree: int, ring: str, precision: int):
    nvars = 3 if ring == "SF" else 2
    basis = monomials_of_degree(nvars, degree)
    if not basis:
        return 0, [], basis
    ops = [
        _gen_matrix(g, basis, nvars, precision) for g in GROUP_GENS[group]
    ]
    ker = linalg.fixed_basis(ops, precision)
    return ker.shape[0], ker, basis


def invariant_basis(
    group: str,
    internal_degree: int,
    ring: str = "Srho",
    precision: int = witt.DEFAULT_PRECISION,
) -> InvariantBasis:
    """Basis of the fixed submodule of one graded piece.

    ``internal_degree`` is the topological grading (x_i in degree -2);
    it must be even and <= 0 for these polynomial models.
    """
    if internal_degree % 2 != 0 or internal_degree > 0:
        return InvariantBasis(group, ring, internal_degree, 0, "W", True, [])
    d = -internal_degree // 2
    rank, ker, basis = _fixed_rank_once(group, d, ring, precision)
    rank2, _, _ = _fixed_rank_once(group, d, ring, precision + 2)
    stable = rank == rank2
    if not stable:
        raise PrecisionUnstable(
            f"invariant rank changed {rank} -> {rank2} at N+2 "
            f"({group}, degree {internal_degree})"
        )
    nvars = 3 if ring == "SF" else 2
    polys = [_vec_to_poly(v, basis, nvars, precision) for v in ker]
    if group in W_LINEAR_GROUPS:
        if rank % 2:
            raise CheckFailed("W-linear fixed module has odd Z3-rank")
        return InvariantBasis(group, ring, internal_degree, rank // 2, "W", stable, polys)
    return InvariantBasis(group, ring, internal_degree, rank, "Z3", stable, polys)


def localized_fixed_rank(
    group: str, internal_degree: int, precision: int = 4
) -> int:
    """Fixed rank of one degree piece of the sigma3-localized model.

    The window truncation (denominator choice) follows the cohomology
    model; the rank is the Z3-rank of the saturated fixed module, with
    the two-route cross-check of the cohomology engine included.
    """
    from .cohomology import VariantTable

    vt = VariantTable(group, "SrhoLoc", precision)
    return vt.fixed_rank(internal_degree)



def groups_for_ring(ring: str) -> tuple:
    """Names of the groups whose invariants of ``ring`` can be computed:
    the tame groups on the u1/u model, the cohomology variants on the
    localized model, and the order-24 subgroups otherwise."""
    if ring == "tame":
        return tuple(TAME_GROUP_GENS)
    if ring == "SrhoLoc":
        from .cohomology import VARIANT_OPS

        return tuple(VARIANT_OPS)
    return tuple(GROUP_GENS)


def _tame_ops(group: str, j: int, u1_window: int, precision: int) -> list:
    """Generator matrices on the u1-truncated piece spanned by u1^i u^j."""
    monos = [(i, j) for i in range(u1_window + 1)]
    gens = _tame_gen_elements(group, precision)
    n = len(monos)
    ops = []
    one = witt.one(precision)
    w = WittElement(0, 1, precision)
    for g in gens:
        A = np.zeros((2 * n, 2 * n), dtype=np.int64)
        for col, m in enumerate(monos):
            for k, scalar in ((0, one), (1, w)):
                img = act_tame(g, TamePoly.monomial(m[0], m[1], precision, scalar))
                v = np.zeros(2 * n, dtype=np.int64)
                for (i2, j2), c in img.coeffs.items():
                    row = monos.index((i2, j2))
                    v[2 * row] = c.c0
                    v[2 * row + 1] = c.c1
                A[:, 2 * col + k] = v
        ops.append(A)
    return ops


def tame_fixed_rank(
    group: str,
    internal_degree: int,
    u1_window: int,
    precision: int = witt.DEFAULT_PRECISION,
) -> int:
    """Z3-rank of the group-fixed part of the degree piece, u1-truncated.

    The rank is recomputed from operators rebuilt at precision N+2 and
    must agree.
    """
    if internal_degree % 2 != 0:
        return 0
    j = -internal_degree // 2
    rank = linalg.fixed_basis(_tame_ops(group, j, u1_window, precision), precision).shape[0]
    hi = precision + 2
    rank2 = linalg.fixed_basis(_tame_ops(group, j, u1_window, hi), hi).shape[0]
    if rank != rank2:
        raise PrecisionUnstable(
            f"invariant rank changed {rank} -> {rank2} at N+2 "
            f"({group}, degree {internal_degree})"
        )
    return rank


def predicted_tame_rank(group: str, internal_degree: int, u1_window: int) -> int:
    """Monomial span predicted for the tame fixed rings.

    SD16: Z3 lines at u1^i u^j with 2i + j = 0 mod 8 (the span of
    v1 = u1 u^-2 and v2^{+-1} = u^{-+8}); Q8: 2i + j = 0 mod 4 (the
    span of v1 and (w^2 u^4)^{+-1}).
    """
    if internal_degree % 2 != 0:
        return 0
    j = -internal_degree // 2
    mod = 8 if group == "SD16" else 4
    return sum(1 for i in range(u1_window + 1) if (2 * i + j) % mod == 0)


# -- Hilbert series of the fixed-ring presentations ------------------------------


def hilbert_srho_c3(abs_degree: int) -> int:
    """W-rank of W[sigma2, sigma3, eps]/(eps^2 - g) in |degree| = abs_degree."""
    if abs_degree % 2:
        return 0
    count = 0
    for b in (0, 1):
        for j in range(abs_degree // 6 + 1):
            rest = abs_degree - 6 * b - 6 * j
            if rest >= 0 and rest % 4 == 0:
                count += 1
    return count


def burnside_c3_rank_sf(x_degree: int) -> int:
    """Orbit count of the cyclic shift on degree-d monomials in 3 variables."""
    monos = monomials_of_degree(3, x_degree)
    fixed = sum(1 for (a, b, c) in monos if a == b == c)
    return (len(monos) - fixed) // 3 + fixed
