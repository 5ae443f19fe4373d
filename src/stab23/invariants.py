"""Finite group actions on the graded models, and their invariant theory.

The order-24 group acts on W[x1,x2,x3] through the generators

    s:   x1 -> x2 -> x3 -> x1          (W-linear)
    t:   x1 -> w^2 x1, x2 -> w^2 x3, x3 -> w^2 x2   (W-linear, w = omega)
    psi: x_i -> w x_i, Frobenius on coefficients

One table, ``GEN_ACTION``, defines this action: a permutation of the
exponents, a power of w per degree, and whether Frobenius is applied.
Both the polynomial action ``apply_gen`` and the generator matrices read
it.  It is pinned by ``verify_action_pinning``, which ``model_matrix``
runs before it builds the first generator matrix at each precision, so no
table or rank is computed from an action that breaks a group relation or
one of the eight t/psi formulas on sigma_1..3 and the antisymmetric cubic.

Every matrix on the graded models is built in closed form as a sum of
kron(B, Omega) mod 3^N: B an integer matrix on the monomials, Omega the
2x2 ``_scalar_matrix`` of c -> u phi(c) in (c0, c1) coordinates.

* ``model_matrix(kind, precision, gen, t, r)``: one generator on the
  degree-t piece of S(F), S(rho), or S(rho) localized at sigma3
  (numerators over sigma3^r), B its permutation of the monomials (signed
  binomials after x3 -> -x1-x2 on the 2-variable models).  ``gen_matrix``
  memoizes it, read-only, for the cohomology engine; the invariant bases
  build theirs uncached.
* ``product_matrix``: multiplication by a polynomial, B the shifts of the
  exponents by its terms.
* ``_tame_ops``: the groups of order prime to 3 on the u1/u model, block
  diagonal with one Omega per monomial: each generator w^a phi^e of
  ``TAME_GEN_ACTION`` sends c u1^i u^j to w^(a (2i + j)) phi^e(c) u1^i u^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg, stabilizer as stab, witt
from .errors import CheckFailed, PrecisionUnstable
from .polys import (
    LocPoly,
    WPoly,
    embed_2_to_3,
    expand_x3,
    monomials_of_degree,
    substitute_x3,
)
from .witt import WittElement

GROUP_GENS = {
    "C3": ("s",),
    "C6": ("s", "t2"),
    "C12": ("s", "psi"),
    "G12": ("s", "t"),
    "G24": ("s", "t", "psi"),
    "Q8": ("t", "psi"),
}

W_LINEAR_GROUPS = {"C3", "C6", "G12"}

# the one definition of the action: gen -> (perm, k, semilinear) sends
# c x^e, e of degree d, to w^(k d) phi(c) x^(e[perm[0]], e[perm[1]], e[perm[2]]),
# phi the Frobenius when semilinear
GEN_ACTION = {
    "s": ((2, 0, 1), 0, False),
    "t": ((0, 2, 1), 2, False),
    "t2": ((0, 1, 2), 4, False),
    "psi": ((0, 1, 2), 1, True),
}

# g(sigma3) = omega^k sigma3 (k three times the omega exponent, sigma3 being
# symmetric of degree 3): on the localized model a generator acts on a
# numerator over sigma3^r as on the polynomial, times omega^(-k r)
SIGMA3_EXP = {gen: 3 * k for gen, (_, k, _) in GEN_ACTION.items()}


# -- generator ring maps on the 3-variable model ---------------------------


def _apply_gen_3(gen: str, p: WPoly) -> WPoly:
    perm, k, semilinear = GEN_ACTION[gen]
    om = witt.omega(p.precision)
    return WPoly(3, p.precision, {
        tuple(e[i] for i in perm): om ** (k * sum(e) % 8) * (c.frobenius() if semilinear else c)
        for e, c in p.coeffs.items()
    })


def apply_gen(gen: str, p: WPoly) -> WPoly:
    """One generator acting on the 3- or 2-variable model."""
    if p.nvars == 3:
        return _apply_gen_3(gen, p)
    return substitute_x3(_apply_gen_3(gen, embed_2_to_3(p)))


@lru_cache(maxsize=None)
def _g24_table(precision: int) -> dict:
    """Element key -> normal form (i, j, k) of s^i t^j psi^k, for all 24."""
    s, t, psi = stab.s_element(precision), stab.t_element(precision), stab.psi_element(precision)
    table = {
        ((s**i) * (t**j) * (psi**k)).key(): (i, j, k)
        for i in range(3) for j in range(4) for k in range(2)
    }
    if len(table) != 24:
        raise CheckFailed("normal forms of the order-24 group are not distinct")
    return table


def g24_words(precision: int = witt.DEFAULT_PRECISION) -> tuple:
    """All 24 normal forms (i, j, k) <-> s^i t^j psi^k."""
    return tuple(sorted(_g24_table(precision).values()))


def word_of(g: stab.StabilizerElement) -> tuple:
    word = _g24_table(g.precision).get(g.key())
    if word is None:
        raise KeyError("element is not in the order-24 subgroup")
    return word


def group_words(name: str, precision: int = witt.DEFAULT_PRECISION) -> list:
    """Normal-form words of one of the subgroups of the order-24 group."""
    return sorted(word_of(g) for g in stab.named_subgroup(name, precision))


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
    for gen in ["psi"] * k + ["t"] * j + ["s"] * i:
        out = LocPoly(apply_gen(gen, out.num).scale(om ** (-SIGMA3_EXP[gen] * out.r)), out.r)
    return out


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


# -- action pinning ------------------------------------------------------------


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

    relations = {
        "s^3 = 1": (["s"] * 3, []),
        "t^4 = 1": (["t"] * 4, []),
        "psi^2 = t^2": (["psi", "psi"], ["t", "t"]),
        "t s = s^2 t": (["t", "s"], ["s", "s", "t"]),
        "psi s = s psi": (["psi", "s"], ["s", "psi"]),
        "t psi = psi t^3": (["t", "psi"], ["psi", "t", "t", "t"]),
    }
    checks = {
        name: all(act_seq(lhs, x) == act_seq(rhs, x) for x in xs)
        for name, (lhs, rhs) in relations.items()
    }

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

# The identity has integer coefficients, so it is checked in W/3^8: every
# coefficient of either difference is an integer no larger in absolute value
# than the sum of the l1 norms of its terms.  With |s1| = |s2| = 3, |s3| = 1
# and |eps| = 6, the full difference is bounded by 36+27+108+108+162+81 = 522.
# After x3 -> -x1-x2 a term c*x1^a x2^b x3^e has l1 norm at most |c|*2^e, so
# |s2| <= 5, |s3| <= 2, |eps| <= 14, and the reduced difference is bounded by
# 196+108+500 = 804.  Both are below 3^8 = 6561: zero mod 3^8 means zero.
EPS_PRECISION = 8


def verify_epsilon_square() -> dict:
    """The discriminant identity for the antisymmetric cubic, over Z.

    Checks eps^2 = -27 s3^2 - 4 s2^3 - 4 s3 s1^3 + 18 s1 s2 s3 + s1^2 s2^2,
    and its image modulo s1, exactly (see EPS_PRECISION).
    """
    N = EPS_PRECISION

    def times(n: int, p: WPoly) -> WPoly:
        return p.scale(witt.from_int(n, N))

    s1, s2, s3 = (sigma(i, N) for i in (1, 2, 3))
    eps = epsilon(N)
    rhs = (
        times(-27, s3 * s3)
        + times(-4, s2**3)
        + times(-4, s3 * s1**3)
        + times(18, s1 * s2 * s3)
        + s1 * s1 * s2 * s2
    )
    full = eps * eps == rhs

    s2_r, s3_r, eps_r = sigma(2, N, 2), sigma(3, N, 2), epsilon(N, 2)
    reduced = (eps_r * eps_r + times(27, s3_r * s3_r) + times(4, s2_r**3)).is_zero()
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
    c4 = LocPoly(s2r.scale(-(om**2)), 2)
    c6 = LocPoly(epsr.scale(om**3 * half), 3)
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
    """c4, c6 and Delta are G24-invariant, delta and (-Delta)^(1/2) have
    their stated characters, and the norm product of x1 is G12-invariant
    and negated by psi; raises CheckFailed on any failure."""
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
    Np = norm_product(precision)
    if any(act_word(w, Np) != Np for w in group_words("G12", precision)):
        raise CheckFailed("the norm product of x1 moved under G12")
    if act_word((0, 0, 1), Np) != -Np:
        raise CheckFailed("psi(norm product) != -norm product")
    return True


# -- generator matrices on the graded models ------------------------------------

MODEL_NVARS = {"SF": 3, "Srho": 2, "SrhoLoc": 2}

def denominator(kind: str, t: int) -> int:
    """The sigma3-exponent r of the degree-t piece: on the localized model
    the default truncation, one unit of slack past stabilization; 0 on the
    polynomial models."""
    if kind != "SrhoLoc":
        return 0
    return max(0, math.ceil((t + 2) / 6) + 1)


def model_basis(kind: str, t: int, r: int) -> tuple:
    """Monomial basis of the degree-t piece (numerators of degree (6r - t)/2
    over sigma3^r; r = 0 on S(F) and S(rho)); empty where the piece vanishes."""
    d = (6 * r - t) // 2
    if t % 2 or d < 0:
        return ()
    return tuple(monomials_of_degree(MODEL_NVARS[kind], d))


def _scalar_matrix(u: WittElement, semilinear: bool) -> np.ndarray:
    """The 2x2 matrix, in (c0, c1) coordinates, of c -> u phi(c), phi the
    Frobenius (w -> -w) when semilinear and the identity otherwise:
    u = a + bw sends 1 to (a, b) and w to (-b, a), or to (b, -a) after phi."""
    sign = -1 if semilinear else 1
    return np.array([[u.c0, -sign * u.c1], [u.c1, sign * u.c0]], dtype=np.int64) % u.modulus


def _monomial_matrix(source: tuple, target: tuple, image, M: int) -> np.ndarray:
    """Integer matrix B, read mod M, of a map between monomial spans: column
    j holds ``image(source[j])``, a list of (target monomial, integer)."""
    row = {m: i for i, m in enumerate(target)}
    B = np.zeros((len(target), len(source)), dtype=np.int64)
    for j, e in enumerate(source):
        for m, n in image(e):
            B[row[m], j] = n % M
    return B


def model_matrix(kind: str, precision: int, gen: str, t: int, r: int) -> np.ndarray:
    """Z/3^precision matrix of one generator on the degree-t piece.

    It is kron(B, Omega): B the integer matrix of the generator on the
    monomials of degree d = (6r - t)/2 (a permutation on 3 variables,
    signed binomials after x3 -> -x1-x2 on 2, past int64 from degree 67),
    and Omega the ``_scalar_matrix`` of u = w^(k d), k the generator's
    omega exponent, times the twist w^(-SIGMA3_EXP r).
    """
    verify_action_pinning(precision)
    perm, k, semilinear = GEN_ACTION[gen]
    M, d = 3**precision, (6 * r - t) // 2

    def image(e):
        f = tuple((e + (0,))[i] for i in perm)  # x3^0 pads a 2-variable e
        return expand_x3(*f) if len(e) == 2 else [(f, 1)]

    basis = model_basis(kind, t, r)
    u = witt.omega(precision) ** ((k * d - SIGMA3_EXP[gen] * r) % 8)
    return np.kron(_monomial_matrix(basis, basis, image, M), _scalar_matrix(u, semilinear)) % M


def product_matrix(source: tuple, target: tuple, f: WPoly) -> np.ndarray:
    """Z/3^N matrix, N the precision of f, of multiplication by f from the
    span of the monomials ``source`` to that of ``target``: the sum of
    kron(B_m, Omega(c)) over the terms c x^m of f, B_m the shift x^e -> x^(e+m)
    and Omega(c) the ``_scalar_matrix`` of c."""
    M = 3**f.precision
    terms = []
    for m, c in f.coeffs.items():
        B = _monomial_matrix(
            source, target, lambda e: [(tuple(a + b for a, b in zip(e, m)), 1)], M
        )
        terms.append(np.kron(B, _scalar_matrix(c, False)))
    return sum(terms) % M


@lru_cache(maxsize=None)
def gen_matrix(kind: str, precision: int, gen: str, t: int, r: int) -> np.ndarray:
    """``model_matrix``, built once per key; the cached array is read-only."""
    A = model_matrix(kind, precision, gen, t, r)
    A.flags.writeable = False
    return A


# -- invariant bases -------------------------------------------------------------


@dataclass
class InvariantBasis:
    ring: str
    rank: int
    rank_over: str          # "W" or "Z3"
    rows: np.ndarray        # fixed vectors in (c0, c1) coordinates on ``monomials``
    monomials: list
    precision: int

    def polynomials(self, count: int | None = None) -> list:
        """The first ``count`` basis rows (all by default) as polynomials."""
        nvars, pr = (3 if self.ring == "SF" else 2), self.precision
        return [
            WPoly(nvars, pr, {m: WittElement(int(v[2 * i]), int(v[2 * i + 1]), pr)
                              for i, m in enumerate(self.monomials)})
            for v in self.rows[:count]
        ]


def _fixed_rank_once(group: str, degree: int, ring: str, precision: int):
    # built, not cached: no other suite reads these matrices, and the S(F)
    # ones of degrees 0..-36 at precisions 6 and 8 would hold about 10 MB
    ops = [model_matrix(ring, precision, g, -2 * degree, 0) for g in GROUP_GENS[group]]
    ker = linalg.fixed_basis(ops, precision)
    return ker.shape[0], ker, list(model_basis(ring, -2 * degree, 0))


def _stable_rank(rank: int, rank2: int, group: str, internal_degree: int) -> int:
    """``rank``, once the rank ``rank2`` recomputed at precision N+2 agrees."""
    if rank != rank2:
        raise PrecisionUnstable(
            f"invariant rank changed {rank} -> {rank2} at N+2 "
            f"({group}, degree {internal_degree})"
        )
    return rank


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
        rows = np.zeros((0, 0), dtype=np.int64)
        return InvariantBasis(ring, 0, "W", rows, [], precision)
    d = -internal_degree // 2
    rank, ker, basis = _fixed_rank_once(group, d, ring, precision)
    _stable_rank(rank, _fixed_rank_once(group, d, ring, precision + 2)[0], group, internal_degree)
    if group in W_LINEAR_GROUPS:
        if rank % 2:
            raise CheckFailed("W-linear fixed module has odd Z3-rank")
        rank, over = rank // 2, "W"
    else:
        over = "Z3"
    return InvariantBasis(ring, rank, over, ker, basis, precision)


def groups_for_ring(ring: str) -> tuple:
    """Names of the groups whose invariants of ``ring`` can be computed:
    the tame groups on the u1/u model, the cohomology variants on the
    localized model, and the order-24 subgroups otherwise."""
    if ring == "tame":
        return tuple(TAME_GEN_ACTION)
    if ring == "SrhoLoc":
        from .cohomology import VARIANT_OPS

        return tuple(VARIANT_OPS)
    return tuple(GROUP_GENS)


# the tame pieces are truncated to u1^i u^j with i <= TAME_U1_WINDOW, and
# their fixed ranks are computed over Z/3^TAME_PRECISION (re-checked at +2)
TAME_U1_WINDOW = 10
TAME_PRECISION = 5

# the generators of the tame groups as w^a phi^e, (a, e): omega and phi for
# SD16, t = w^2 and psi = w phi for Q8; alpha(u) = alpha u and
# alpha(u u1) = alpha^3 u u1, so w^a sends u1^i u^j to w^(a (2i + j)) u1^i u^j
TAME_GEN_ACTION = {"SD16": ((1, 0), (0, 1)), "Q8": ((2, 0), (1, 1))}


def _tame_ops(group: str, j: int, precision: int) -> list:
    """Generator matrices on the u1-truncated piece spanned by u1^i u^j,
    i <= TAME_U1_WINDOW: block diagonal, one ``_scalar_matrix`` per monomial."""
    om, n = witt.omega(precision), TAME_U1_WINDOW + 1
    ops = []
    for a, e in TAME_GEN_ACTION[group]:
        A = np.zeros((2 * n, 2 * n), dtype=np.int64)
        for i in range(n):
            u = om ** (a * (2 * i + j) % 8)
            A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = _scalar_matrix(u, bool(e))
        ops.append(A)
    return ops


def tame_fixed_rank(group: str, internal_degree: int) -> int:
    """Z3-rank of the group-fixed part of the degree piece, u1-truncated.

    The rank is recomputed from operators rebuilt at precision N+2 and
    must agree.
    """
    if internal_degree % 2 != 0:
        return 0
    j = -internal_degree // 2
    lo, hi = TAME_PRECISION, TAME_PRECISION + 2
    return _stable_rank(
        linalg.fixed_basis(_tame_ops(group, j, lo), lo).shape[0],
        linalg.fixed_basis(_tame_ops(group, j, hi), hi).shape[0],
        group,
        internal_degree,
    )


def predicted_tame_rank(group: str, internal_degree: int) -> int:
    """Monomial span predicted for the tame fixed rings.

    SD16: Z3 lines at u1^i u^j with 2i + j = 0 mod 8 (the span of
    v1 = u1 u^-2 and v2^{+-1} = u^{-+8}); Q8: 2i + j = 0 mod 4 (the
    span of v1 and (w^2 u^4)^{+-1}).
    """
    if internal_degree % 2 != 0:
        return 0
    j = -internal_degree // 2
    mod = 8 if group == "SD16" else 4
    return sum(1 for i in range(TAME_U1_WINDOW + 1) if (2 * i + j) % mod == 0)


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


# -- the invariants suite ----------------------------------------------------------


def verify_invariants(ring: str, group: str, max_degree: int = 48) -> tuple:
    """Fixed ranks of ``ring`` under ``group`` against an independent count
    in each degree of the window: (report, ok).

    The counts are the predicted monomial spans on the tame model, the
    Hilbert series of the C3 presentations on S(rho) and its localization,
    and the Burnside orbit count on S(F).  On the localized model every
    other group is checked by the two-route H^0 computation of the
    cohomology engine, and the identities of ``verify_epsilon_square``,
    ``modular_quantities`` and ``g24_invariance_of_modular_quantities``
    must hold at the default precision, or CheckFailed is raised.  ok is
    None when nothing was compared: S(F) or S(rho) under a group other
    than C3, or a window of odd degrees only (an odd --max-degree on the
    tame or localized model), where every piece vanishes and the engine
    computes nothing.
    """
    rows, ok = [], True
    if ring == "tame":
        for t in range(-max_degree, max_degree + 1, 2):
            got = tame_fixed_rank(group, t)
            want = predicted_tame_rank(group, t)
            ok = ok and got == want
            rows.append({"degree": t, "rank": got, "predicted": want})
    elif ring == "SrhoLoc":
        from .cohomology import fixed_rank

        # the identities of the modular quantities that live on this ring
        verify_epsilon_square()
        g24_invariance_of_modular_quantities()
        for t in range(-max_degree, max_degree + 1, 2):
            got = fixed_rank(group, ring, t)
            row = {"degree": t, "rank": got, "rank_over": "Z3"}
            if group == "C3":
                # numerator window: W-rank matches the presentation count
                row["hilbert"] = 2 * hilbert_srho_c3(6 * denominator(ring, t) - t)
                ok = ok and row["hilbert"] == got
            rows.append(row)
    else:
        for t in range(0, -max_degree - 1, -2):
            b = invariant_basis(group, t, ring=ring, precision=6)
            row = {"degree": t, "rank": b.rank, "rank_over": b.rank_over}
            if group == "C3":
                if ring == "Srho":
                    key, want = "hilbert", hilbert_srho_c3(-t)
                else:
                    key, want = "burnside", burnside_c3_rank_sf(-t // 2)
                row[key] = want
                ok = ok and want == b.rank
            row["basis"] = [p.render() for p in b.polynomials(4)]
            rows.append(row)
    counted = ring in ("tame", "SrhoLoc") or group == "C3"
    compared = counted and any(r["degree"] % 2 == 0 for r in rows)
    return {"ring": ring, "group": group, "rows": rows}, ok if compared else None
