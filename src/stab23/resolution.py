"""Finite-level verification of the permutation-module resolution.

Over (Z/3^m)[G(l)] the five-term complex

    (Z/3^m)[G/G24] <- chi_up <- chi_up <- (Z/3^m)[G/G24] <- aug target

is built by the lift-and-average recipe: at each splice the kernel of
the previous map is computed by normal-form linear algebra, a generator
of its coinvariants modulo (3, I_P) is lifted, averaged over the
order-16 subgroup against the sign character, and mapped in from the
induced module.  Exactness cannot hold literally at a finite level (the
Euler characteristic forces interior homology), so the verified
properties are: composites vanish, Nakayama-style surjectivity at every
splice, position-0 homology vanishes, and the interior homology is
pro-trivial under level transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import CheckFailed, ConstructionRefused
from .quotients import FiniteQuotient


# -- coset and pair scaffolding ------------------------------------------------

@dataclass
class CosetSpace:
    subgroup: str
    coset_id: np.ndarray
    reps: np.ndarray

    @property
    def size(self) -> int:
        return len(self.reps)


@dataclass
class ChiSpace:
    """The sign-isotypic summand of (Z/3^m)[G/Q8] in paired coordinates."""

    cosets: CosetSpace
    sigma: np.ndarray        # involution on Q8-cosets (right omega)
    pair_rep: np.ndarray     # pair index -> representative coset
    pair_of: np.ndarray      # coset -> pair index
    sign_of: np.ndarray      # coset -> +1 at representatives, -1 at partners

    @property
    def size(self) -> int:
        return len(self.pair_rep)

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """Pair coordinates of antisymmetric coset-space vectors (last axis)."""
        return full[..., self.pair_rep]

    def embed(self, pairs: np.ndarray, M: int) -> np.ndarray:
        full = np.zeros(pairs.shape[:-1] + (len(self.sigma),), dtype=np.int64)
        full[..., self.pair_rep] = pairs % M
        full[..., self.sigma[self.pair_rep]] = (-pairs) % M
        return full


def _perm_apply(perm: np.ndarray, vec: np.ndarray, M: int) -> np.ndarray:
    out = np.zeros_like(vec)
    out[..., perm] = vec
    return out % M


@dataclass
class LevelData:
    """Cosets, actions and subgroup images of one finite quotient."""

    fq: FiniteQuotient
    m: int
    c24: CosetSpace
    chi: ChiSpace
    act24: np.ndarray        # perm of G24-cosets under left mult by each Q8-coset rep
    act8: np.ndarray         # perm of Q8-cosets under left mult by each Q8-coset rep
    act8_by24: np.ndarray    # perm of Q8-cosets under left mult by each G24-coset rep
    sd16_perm24: np.ndarray  # left perms on G24-cosets for the 16 SD16 elements
    sd16_perm8: np.ndarray
    sd16_sign: np.ndarray
    p_gens: list             # sylow generator indices in the quotient
    g_gens: list             # full generating set indices

    @property
    def M(self) -> int:
        return 3**self.m


def _coset_space(fq: FiniteQuotient, name: str) -> CosetSpace:
    cid, reps = fq.cosets(fq.subgroup_image(name))
    return CosetSpace(name, cid, reps)


def _left_perm_table(fq, actors: np.ndarray, cosets: CosetSpace) -> np.ndarray:
    """Table[i, :] = permutation of cosets under left mult by actors[i]."""
    n_act, n_cos = len(actors), cosets.size
    out = np.empty((n_act, n_cos), dtype=np.int64)
    for i, g in enumerate(actors):
        moved = fq.mul(np.full(n_cos, int(g), dtype=np.int64), cosets.reps)
        out[i, :] = cosets.coset_id[moved]
    return out


def prepare_level(fq: FiniteQuotient, m: int) -> LevelData:
    import stab23.stabilizer as stab

    c24 = _coset_space(fq, "G24")
    c8 = _coset_space(fq, "Q8")
    om_idx = int(fq.project(stab.omega_element(fq.precision)))
    sigma = c8.coset_id[fq.mul(c8.reps, np.full(c8.size, om_idx, dtype=np.int64))]
    if np.any(sigma == np.arange(c8.size)):
        raise CheckFailed("right translation by omega fixes a Q8-coset")
    pair_of = np.full(c8.size, -1, dtype=np.int64)
    pair_rep = []
    sign_of = np.zeros(c8.size, dtype=np.int64)
    for x in range(c8.size):
        if pair_of[x] >= 0:
            continue
        p = len(pair_rep)
        pair_rep.append(x)
        pair_of[x] = p
        pair_of[sigma[x]] = p
        sign_of[x] = 1
        sign_of[sigma[x]] = -1
    chi = ChiSpace(c8, sigma, np.array(pair_rep, dtype=np.int64), pair_of, sign_of)

    act24 = _left_perm_table(fq, c8.reps, c24)
    act8 = _left_perm_table(fq, c8.reps, c8)
    act8_by24 = _left_perm_table(fq, c24.reps, c8)

    sd16 = fq.subgroup_image("SD16")
    q8 = set(int(x) for x in fq.subgroup_image("Q8"))
    sd16_sign = np.array([1 if int(g) in q8 else -1 for g in sd16], dtype=np.int64)
    sd16_perm24 = _left_perm_table(fq, sd16, c24)
    sd16_perm8 = _left_perm_table(fq, sd16, c8)

    return LevelData(
        fq,
        m,
        c24,
        chi,
        act24,
        act8,
        act8_by24,
        sd16_perm24,
        sd16_perm8,
        sd16_sign,
        [int(v) for v in fq.sylow_generators().values()],
        [int(v) for v in fq.generators().values()],
    )


# -- chi summand ------------------------------------------------------------------

def chi_idempotent(ld: LevelData) -> np.ndarray:
    """e_chi = (1/16) sum eps(alpha) * (right translation by alpha) on Q8-cosets."""
    n = ld.chi.cosets.size
    M = ld.M
    fq = ld.fq
    E = np.zeros((n, n), dtype=np.int64)
    inv16 = pow(16, -1, M)
    for g, sgn in zip(fq.subgroup_image("SD16"), ld.sd16_sign):
        perm = ld.chi.cosets.coset_id[
            fq.mul(ld.chi.cosets.reps, np.full(n, int(g), dtype=np.int64))
        ]
        P = np.zeros((n, n), dtype=np.int64)
        P[perm, np.arange(n)] = 1
        E = (E + int(sgn) * P) % M
    return (inv16 * E) % M


def verify_chi_summand(ld: LevelData) -> dict:
    """Idempotency, rank |G|/16, and the chi + tau decomposition."""
    M = ld.M
    E = chi_idempotent(ld)
    n = E.shape[0]
    idem = not ((E @ E - E) % M).any()
    rank = linalg.free_rank(linalg.image(E, ld.m).rows, ld.m)
    eye = np.eye(n, dtype=np.int64)
    tau = (eye - E) % M
    chi_rows = linalg.image(E, ld.m).rows
    tau_rows = linalg.image(tau, ld.m).rows
    together = linalg.span_log_size(np.vstack([chi_rows, tau_rows]), ld.m)
    full = together == ld.m * n
    expected = ld.fq.order // 16
    return {
        "idempotent": idem,
        "rank": int(rank),
        "rank_expected": expected,
        "chi_plus_tau_full": bool(full),
        "ok": idem and rank == expected and full,
    }


# -- P-module span utilities ---------------------------------------------------------

def _closure_f3(ld: LevelData, rows: np.ndarray, gens: list, space: str) -> linalg.HowellForm:
    """Echelon basis over F3 of the F3[<gens>]-module generated by the rows."""
    H = linalg.howell(rows % 3, 1)
    while True:
        fresh = []
        for g in gens:
            moved = _act_vector(ld, g, H.rows, 3, space)
            fresh.append(moved[linalg.outside_span(H, moved, 1)])
        fresh = np.vstack(fresh)
        if not fresh.size:
            return H
        H = linalg.howell(np.vstack([H.rows, fresh]), 1)


def _act_vector(ld: LevelData, g: int, v: np.ndarray, M: int, space: str) -> np.ndarray:
    """Left action of a quotient element on C0 ('c24') or chi_up ('chi');
    ``v`` is one vector or a matrix of row vectors."""
    fq = ld.fq
    if space == "c24":
        perm = ld.c24.coset_id[fq.mul(np.full(ld.c24.size, g, dtype=np.int64), ld.c24.reps)]
        return _perm_apply(perm, v, M)
    full = ld.chi.embed(v, M)
    perm = ld.chi.cosets.coset_id[
        fq.mul(np.full(ld.chi.cosets.size, g, dtype=np.int64), ld.chi.cosets.reps)
    ]
    moved = _perm_apply(perm, full, M)
    return ld.chi.restrict(moved) % M


def _tor0_data(ld: LevelData, kernel_rows: np.ndarray, space: str) -> tuple:
    """(dim over F3 of N/(3,I_P)N, Howell of the (3,I_P)-span mod 3)."""
    V3 = linalg.howell(kernel_rows % 3, 1).rows
    ik = [(_act_vector(ld, g, V3, 3, space) - V3) % 3 for g in ld.p_gens]
    H_IK = _closure_f3(ld, np.vstack(ik), ld.p_gens, space)
    return len(V3) - H_IK.nrows, H_IK, V3


def _sd16_average(ld: LevelData, d: np.ndarray, space: str) -> np.ndarray:
    """(1/16) sum over SD16 of eps(alpha) * alpha . d."""
    M = ld.M
    out = np.zeros_like(d)
    for g, sgn in zip(ld.fq.subgroup_image("SD16"), ld.sd16_sign):
        out = (out + int(sgn) * _act_vector(ld, int(g), d, M, space)) % M
    return (pow(16, -1, M) * out) % M


def _pick_averaged_generator(ld: LevelData, kernel_rows, space: str, rng=None) -> tuple:
    """Lift-and-average: first kernel generator whose average still
    generates the coinvariants; returns (c, tor0_dim, choice_index).

    With ``rng`` the candidate order is shuffled and the lift is
    perturbed by a random element of (3, I_P) * N; the construction's
    verdicts must not depend on this choice.
    """
    tor_dim, H_IK, V3 = _tor0_data(ld, kernel_rows, space)
    order = list(range(len(kernel_rows)))
    if rng is not None:
        rng.shuffle(order)
    for j in order:
        v = kernel_rows[j] % ld.M
        if linalg.in_span(H_IK, v % 3, 1):
            continue
        if rng is not None:
            noise = 3 * kernel_rows[rng.randrange(len(kernel_rows))]
            g = ld.p_gens[rng.randrange(len(ld.p_gens))]
            w = kernel_rows[rng.randrange(len(kernel_rows))] % ld.M
            noise = (noise + _act_vector(ld, g, w, ld.M, space) - w) % ld.M
            v = (v + noise) % ld.M
        c = _sd16_average(ld, v, space)
        if c.size and not linalg.in_span(H_IK, c % 3, 1):
            return c, tor_dim, j
    raise ConstructionRefused(f"no averaged generator found in {space} kernel")


# -- complex construction -------------------------------------------------------------

@dataclass
class ComplexAtLevel:
    level: Fraction
    m: int
    dims: tuple              # (n24, n_chi, n_chi, n24)
    aug: np.ndarray
    b1: np.ndarray           # chi -> C0
    b2: np.ndarray           # chi -> chi
    b3: np.ndarray           # C3-term (G24-cosets) -> chi
    c_vectors: dict
    diagnostics: dict = field(default_factory=dict)

    def boundaries(self):
        return [self.b1, self.b2, self.b3]


def _boundary_from_c24(ld: LevelData, c: np.ndarray) -> np.ndarray:
    """chi_up -> C0: pair p maps to (g_p - g_p omega) . c."""
    M = ld.M
    n24, nchi = ld.c24.size, ld.chi.size
    B = np.zeros((n24, nchi), dtype=np.int64)
    for p in range(nchi):
        x = ld.chi.pair_rep[p]
        y = ld.chi.sigma[x]
        B[:, p] = (
            _perm_apply(ld.act24[x], c, M) - _perm_apply(ld.act24[y], c, M)
        ) % M
    return B


def _boundary_from_chi(ld: LevelData, c_pairs: np.ndarray, source: str) -> np.ndarray:
    """chi_up or C3-term -> chi_up: columns are translates of the chi vector."""
    M = ld.M
    full = ld.chi.embed(c_pairs, M)
    if source == "chi":
        n_src = ld.chi.size
        B = np.zeros((ld.chi.size, n_src), dtype=np.int64)
        for p in range(n_src):
            x = ld.chi.pair_rep[p]
            y = ld.chi.sigma[x]
            moved = (
                _perm_apply(ld.act8[x], full, M) - _perm_apply(ld.act8[y], full, M)
            ) % M
            B[:, p] = ld.chi.restrict(moved)
        return B
    n_src = ld.c24.size
    B = np.zeros((ld.chi.size, n_src), dtype=np.int64)
    for yx in range(n_src):
        moved = _perm_apply(ld.act8_by24[yx], full, M)
        B[:, yx] = ld.chi.restrict(moved)
    return B


def construct_complex(
    fq: FiniteQuotient, m: int, ld: LevelData | None = None, rng=None
) -> ComplexAtLevel:
    if ld is None:
        ld = prepare_level(fq, m)
    M = ld.M
    n24, nchi = ld.c24.size, ld.chi.size
    diagnostics = {}

    chi_report = verify_chi_summand(ld)
    diagnostics["chi_summand"] = chi_report
    if not chi_report["ok"]:
        raise CheckFailed("chi summand failed its structural checks")

    aug = np.ones((1, n24), dtype=np.int64)
    N1 = linalg.kernel(aug, m)
    c1, tor1, pick1 = _pick_averaged_generator(ld, N1, "c24", rng)
    _assert_q8_invariant(ld, c1, "c24")
    b1 = _boundary_from_c24(ld, c1)

    N2 = linalg.kernel(b1, m)
    c2, tor2, pick2 = _pick_averaged_generator(ld, N2, "chi", rng)
    _assert_q8_invariant(ld, c2, "chi")
    b2 = _boundary_from_chi(ld, c2, "chi")

    N3 = linalg.kernel(b2, m)
    c3, tor3 = _g24_invariant_generator(ld, N3)
    b3 = _boundary_from_chi(ld, c3, "c24")

    diagnostics["tor0_dims"] = {"N1": tor1, "N2": tor2, "N3": tor3}
    diagnostics["generator_choice"] = {"N1": int(pick1), "N2": int(pick2)}

    cx = ComplexAtLevel(
        fq.level,
        m,
        (n24, nchi, nchi, n24),
        aug,
        b1,
        b2,
        b3,
        {"c1": c1, "c2": c2, "c3": c3},
        diagnostics,
    )
    comp = composite_checks(cx)
    diagnostics["composites_zero"] = comp
    if not all(comp.values()):
        raise CheckFailed(f"composites not zero: {comp}")
    return cx


def _assert_q8_invariant(ld: LevelData, c: np.ndarray, space: str) -> None:
    M = ld.M
    fq = ld.fq
    import stab23.stabilizer as stab

    t_idx = int(fq.project(stab.t_element(fq.precision)))
    psi_idx = int(fq.project(stab.psi_element(fq.precision)))
    om_idx = int(fq.project(stab.omega_element(fq.precision)))
    for g in (t_idx, psi_idx):
        if ((_act_vector(ld, g, c, M, space) - c) % M).any():
            raise CheckFailed("averaged generator is not Q8-invariant")
    if ((_act_vector(ld, om_idx, c, M, space) + c) % M).any():
        raise CheckFailed("averaged generator is not in the sign isotype")


def _g24_invariant_generator(ld: LevelData, N3: np.ndarray) -> tuple:
    """A G24-fixed vector of span(N3) generating mod (3, I_G)."""
    import stab23.stabilizer as stab

    fq, M, m = ld.fq, ld.M, ld.m
    gens24 = [
        int(fq.project(g_el))
        for g_el in (
            stab.s_element(fq.precision),
            stab.t_element(fq.precision),
            stab.psi_element(fq.precision),
        )
    ]
    blocks = []
    for g in gens24:
        blocks.append((_act_vector(ld, g, N3, M, "chi") - N3).T % M)
    big = np.vstack(blocks) % M
    y_span = linalg.kernel(big, m)
    if y_span.size == 0:
        raise ConstructionRefused("no G24-invariant vectors in the last kernel")
    cands = (y_span @ N3) % M
    tor_dim, H_IK, _ = _tor0_data(ld, N3, "chi")
    # full-group coinvariants for the generator test
    V3 = linalg.howell(N3 % 3, 1).rows
    ig = [(_act_vector(ld, g, V3, 3, "chi") - V3) % 3 for g in ld.g_gens]
    H_IG = _closure_f3(ld, np.vstack(ig), ld.g_gens, "chi")
    outside = linalg.outside_span(H_IG, cands % 3, 1).nonzero()[0]
    if outside.size:
        return cands[outside[0]], tor_dim
    raise ConstructionRefused("no G24-invariant generator survives the coinvariant test")


# -- checks ------------------------------------------------------------------------

def composite_checks(cx: ComplexAtLevel) -> dict:
    M = 3**cx.m
    return {
        "aug_b1": not ((cx.aug @ cx.b1) % M).any(),
        "b1_b2": not ((cx.b1 @ cx.b2) % M).any(),
        "b2_b3": not ((cx.b2 @ cx.b3) % M).any(),
    }


def nakayama_surjectivity(ld: LevelData, f: np.ndarray, target_rows: np.ndarray, space: str) -> dict:
    """Compare F3-coinvariant surjectivity with direct surjectivity onto
    span(target_rows); the two verdicts must agree (Nakayama)."""
    m = ld.m
    _, H_IK, V3 = _tor0_data(ld, target_rows, space)
    cols3 = linalg.howell(np.vstack([H_IK.rows, (f.T % 3)]) if H_IK.rows.size else f.T % 3, 1)
    covered = linalg.span_contains(cols3, V3, 1)
    H_img = linalg.image(f, m)
    direct = linalg.span_contains(H_img, target_rows, m)
    return {
        "f3_surjective": bool(covered),
        "surjective": bool(direct),
        "nakayama_consistent": bool(covered == direct),
        "ok": bool(covered and direct),
    }


def homology_cells(cx: ComplexAtLevel) -> dict:
    """Invariant factors of the homology at each position."""
    m = cx.m
    M = 3**m
    out = {}
    out["coker_aug"] = [] if linalg.image(cx.aug, m).log3_size(m) == m else ["nonzero"]
    N1 = linalg.kernel(cx.aug, m)
    out["pos0"] = linalg.quotient_invariants(
        _join(N1, linalg.image(cx.b1, m).rows), linalg.image(cx.b1, m).rows, m
    )
    Z1 = linalg.kernel(cx.b1, m)
    out["pos1"] = linalg.quotient_invariants(
        _join(Z1, linalg.image(cx.b2, m).rows), linalg.image(cx.b2, m).rows, m
    )
    Z2 = linalg.kernel(cx.b2, m)
    out["pos2"] = linalg.quotient_invariants(
        _join(Z2, linalg.image(cx.b3, m).rows), linalg.image(cx.b3, m).rows, m
    )
    Z3 = linalg.kernel(cx.b3, m)
    out["pos3"] = linalg.quotient_invariants(
        Z3, np.zeros((0, Z3.shape[1] if Z3.size else cx.dims[3]), dtype=np.int64), m
    )
    return out


def _join(K: np.ndarray, I: np.ndarray) -> np.ndarray:
    if I.size == 0:
        return K
    if K.size == 0:
        return I
    return np.vstack([K, I])


def _perm24_of(ld: LevelData, g: int) -> np.ndarray:
    fq = ld.fq
    return ld.c24.coset_id[
        fq.mul(np.full(ld.c24.size, g, dtype=np.int64), ld.c24.reps)
    ]


def _chi_signed_perm(ld: LevelData, g: int) -> tuple:
    """g . v_p = sign[p] * v_{perm[p]} on the paired chi coordinates."""
    fq = ld.fq
    n8 = ld.chi.cosets.size
    p8 = ld.chi.cosets.coset_id[
        fq.mul(np.full(n8, g, dtype=np.int64), ld.chi.cosets.reps)
    ]
    moved = p8[ld.chi.pair_rep]
    return ld.chi.pair_of[moved], ld.chi.sign_of[moved]


def equivariance_check(ld: LevelData, cx: ComplexAtLevel) -> bool:
    """Boundary matrices commute with every generator action, exactly."""
    M = ld.M
    for g in ld.g_gens:
        p24 = _perm24_of(ld, g)
        pchi, schi = _chi_signed_perm(ld, g)
        for B, src, dst in (
            (cx.b1, "chi", "c24"),
            (cx.b2, "chi", "chi"),
            (cx.b3, "c24", "chi"),
        ):
            lhs = np.zeros_like(B)
            if dst == "c24":
                lhs[p24, :] = B                      # matrix of g o B
            else:
                lhs[pchi, :] = schi[:, None] * B
            if src == "c24":
                rhs = B[:, p24]                      # matrix of B o g
            else:
                rhs = B[:, pchi] * schi[None, :]
            if ((lhs - rhs) % M).any():
                return False
    return True


# -- level transitions ----------------------------------------------------------------

@dataclass
class TransitionReport:
    levels: list             # fine to coarse
    m: int
    chain_maps_ok: bool
    homology: dict           # level -> position -> invariant factors
    step_zero: dict          # (upper, lower) -> position -> bool
    composite_zero: dict     # position -> bool, over the full level range

    @property
    def pro_trivial(self) -> bool:
        """Transitions are eventually zero within the tested range."""
        return all(self.composite_zero.values())


def pushforward_maps(ld_hi: LevelData, ld_lo: LevelData) -> tuple:
    """(P0 on G24-cosets, P1 on chi pairs) along the level projection."""
    proj = ld_hi.fq.projection_to(ld_lo.fq)
    n24h, n24l = ld_hi.c24.size, ld_lo.c24.size
    P0 = np.zeros((n24l, n24h), dtype=np.int64)
    targets = ld_lo.c24.coset_id[proj[ld_hi.c24.reps]]
    P0[targets, np.arange(n24h)] = 1
    nch, ncl = ld_hi.chi.size, ld_lo.chi.size
    P1 = np.zeros((ncl, nch), dtype=np.int64)
    tgt_cosets = ld_lo.chi.cosets.coset_id[proj[ld_hi.chi.cosets.reps[ld_hi.chi.pair_rep]]]
    P1[ld_lo.chi.pair_of[tgt_cosets], np.arange(nch)] = ld_lo.chi.sign_of[tgt_cosets]
    return P0 % 3**ld_lo.m, P1 % 3**ld_lo.m


def pushforward_complex(cx_hi: ComplexAtLevel, ld_hi: LevelData, ld_lo: LevelData) -> ComplexAtLevel:
    """The compatible complex at the lower level: push the generators down."""
    M = 3**ld_lo.m
    P0, P1 = pushforward_maps(ld_hi, ld_lo)
    c1 = (P0 @ cx_hi.c_vectors["c1"]) % M
    c2 = (P1 @ cx_hi.c_vectors["c2"]) % M
    c3 = (P1 @ cx_hi.c_vectors["c3"]) % M
    b1 = _boundary_from_c24(ld_lo, c1)
    b2 = _boundary_from_chi(ld_lo, c2, "chi")
    b3 = _boundary_from_chi(ld_lo, c3, "c24")
    aug = np.ones((1, ld_lo.c24.size), dtype=np.int64)
    cx = ComplexAtLevel(
        ld_lo.fq.level,
        ld_lo.m,
        (ld_lo.c24.size, ld_lo.chi.size, ld_lo.chi.size, ld_lo.c24.size),
        aug,
        b1,
        b2,
        b3,
        {"c1": c1, "c2": c2, "c3": c3},
        {"pushforward_from": str(cx_hi.level)},
    )
    comp = composite_checks(cx)
    cx.diagnostics["composites_zero"] = comp
    if not all(comp.values()):
        raise CheckFailed("pushforward complex lost composite-zero")
    return cx


def _transition_zero(cx_hi, cx_lo, P0, P1, m: int) -> dict:
    """Per-position: does the induced map on interior homology vanish."""
    M = 3**m
    out = {}
    for pos, (bker_hi, bim_lo, P) in {
        "pos1": (cx_hi.b1, cx_lo.b2, P1),
        "pos2": (cx_hi.b2, cx_lo.b3, P1),
        "pos3": (cx_hi.b3, None, P0),
    }.items():
        Z = linalg.kernel(bker_hi, m)
        if bim_lo is None:
            im_H = linalg.howell(np.zeros((0, P.shape[0]), dtype=np.int64), m)
        else:
            im_H = linalg.image(bim_lo, m)
        out[pos] = bool(linalg.span_contains(im_H, (Z @ P.T) % M, m))
    return out


def homology_pro_triviality(quotients: list, m: int) -> TransitionReport:
    """Interior homology transitions along a tower of levels (fine to coarse).

    The top complex is built by lift-and-average and pushed down level by
    level, so the projections are chain maps on the nose.  Reports the
    per-step verdicts and the composite over the whole range; interior
    classes observed in runs die after one full congruence step (two
    half-integer levels), not necessarily after a single half-step.
    """
    if len(quotients) < 2:
        raise ValueError("need at least two levels")
    levels = [fq.level for fq in quotients]
    if any(a <= b for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must strictly decrease")
    M = 3**m
    lds = [prepare_level(fq, m) for fq in quotients]
    cxs = [construct_complex(quotients[0], m, lds[0])]
    for hi, lo in zip(lds, lds[1:]):
        cxs.append(pushforward_complex(cxs[-1], hi, lo))
    chain_ok = True
    step_zero = {}
    P0_acc = P1_acc = None
    for i, (hi, lo) in enumerate(zip(lds, lds[1:])):
        P0, P1 = pushforward_maps(hi, lo)
        cx_hi, cx_lo = cxs[i], cxs[i + 1]
        chain_ok = chain_ok and (
            not ((P0 @ cx_hi.b1 - cx_lo.b1 @ P1) % M).any()
            and not ((P1 @ cx_hi.b2 - cx_lo.b2 @ P1) % M).any()
            and not ((P1 @ cx_hi.b3 - cx_lo.b3 @ P0) % M).any()
        )
        step_zero[(str(levels[i]), str(levels[i + 1]))] = _transition_zero(
            cx_hi, cx_lo, P0, P1, m
        )
        if P0_acc is None:
            P0_acc, P1_acc = P0 % M, P1 % M
        else:
            P0_acc, P1_acc = (P0 @ P0_acc) % M, (P1 @ P1_acc) % M
    composite = _transition_zero(cxs[0], cxs[-1], P0_acc, P1_acc, m)
    return TransitionReport(
        [str(lv) for lv in levels],
        m,
        bool(chain_ok),
        {str(fq.level): homology_cells(cx) for fq, cx in zip(quotients, cxs)},
        step_zero,
        composite,
    )


# -- the doubled complex for the full extended group -----------------------------------

def doubled_complex_boundaries(cx: ComplexAtLevel, central_level: int = 1) -> list:
    """The six-term complex for the extended group: tensor with the
    two-term resolution 0 -> R -> R -> R/(gamma-1) -> 0 of the central
    factor modeled at level 3^c.  D_k = C_k (x) R + C_{k-1} (x) R with
    the usual total-complex signs.  Returns [aug_D, d1, d2, d3, d4]."""
    M = 3**cx.m
    q = 3**central_level
    gam = np.zeros((q, q), dtype=np.int64)
    gam[(np.arange(q) + 1) % q, np.arange(q)] = 1
    gm1 = (gam - np.eye(q, dtype=np.int64)) % M
    dC = [cx.aug, cx.b1, cx.b2, cx.b3]          # dC[k] : C_k -> C_{k-1}
    dims = list(cx.dims)                        # C_0..C_3
    Iq = np.eye(q, dtype=np.int64)

    def top_dim(k):   # rank of C_k (x) R0, with C_4 = 0
        return dims[k] * q if 0 <= k <= 3 else 0

    boundaries = []
    # augmentation of the doubled complex: C_0 (x) R -> Z/3^m
    aug_D = np.kron(cx.aug, np.ones((1, q), dtype=np.int64)) % M
    boundaries.append(aug_D)
    for k in range(1, 5):
        rows = top_dim(k - 1) + (top_dim(k - 2) if k >= 2 else 0)
        cols = top_dim(k) + top_dim(k - 1)
        D = np.zeros((rows, cols), dtype=np.int64)
        if top_dim(k):
            D[: top_dim(k - 1), : top_dim(k)] = np.kron(dC[k], Iq)
        sign = 1 if (k - 1) % 2 == 0 else -1
        D[: top_dim(k - 1), top_dim(k) :] = (
            sign * np.kron(np.eye(dims[k - 1], dtype=np.int64), gm1)
        ) % M
        if k >= 2:
            D[top_dim(k - 1) :, top_dim(k) :] = np.kron(dC[k - 1], Iq)
        boundaries.append(D % M)
    return boundaries


def doubled_composites_zero(cx: ComplexAtLevel, central_level: int = 1) -> bool:
    M = 3**cx.m
    bs = doubled_complex_boundaries(cx, central_level)
    for A, B in zip(bs, bs[1:]):
        if A.shape[1] != B.shape[0]:
            return False
        if ((A @ B) % M).any():
            return False
    return True
