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

from . import linalg, quotients
from . import stabilizer as stab
from .errors import CheckFailed, ConstructionRefused
from .quotients import FiniteQuotient


# -- coset and pair scaffolding ------------------------------------------------

@dataclass
class CosetSpace:
    coset_id: np.ndarray
    reps: np.ndarray

    @property
    def size(self) -> int:
        return len(self.reps)


@dataclass
class ChiSpace:
    """The sign-isotypic summand of (Z/3^m)[G/Q8] in paired coordinates.

    A vector v on the pairs stands for the antisymmetric coset vector
    with v[p] at pair_rep[p] and -v[p] at its partner sigma[pair_rep[p]].
    """

    cosets: CosetSpace
    sigma: np.ndarray        # involution on Q8-cosets (right omega)
    pair_rep: np.ndarray     # pair index -> representative coset
    pair_of: np.ndarray      # coset -> pair index
    sign_of: np.ndarray      # coset -> +1 at representatives, -1 at partners

    @property
    def size(self) -> int:
        return len(self.pair_rep)


@dataclass
class LevelData:
    """Cosets, subgroup images and the group actions of one quotient.

    Every action of G(l) used by the construction and its checks comes
    from ``actions``: an element g acts on the space 'c24' (G24-cosets)
    or 'chi' (chi pairs) by a signed permutation, g . e_p = sign[p] *
    e_{perm[p]}, with all signs +1 on 'c24'.  Nothing is kept: each call
    reads its permutations off the coset action of the quotient.
    """

    fq: FiniteQuotient
    m: int
    c24: CosetSpace
    chi: ChiSpace
    sd16_sign: np.ndarray    # +1 on Q8, -1 off it, aligned with the SD16 image
    p_gens: list             # sylow generator indices in the quotient
    g_gens: list             # full generating set indices
    named: dict              # 'omega', 's', 't', 'psi' -> index in the quotient

    @property
    def M(self) -> int:
        return 3**self.m

    def actions(self, actors, space: str) -> tuple:
        """(perm, sign) on 'c24' or 'chi', int32 and int8: 1-d rows for a
        scalar actor, one row per actor for an array of actors."""
        if space == "c24":
            perm = self.fq.left_action_on_cosets(actors, self.c24.coset_id, self.c24.reps)
            return perm, np.broadcast_to(np.int8(1), perm.shape)
        # g moves the pair led by x to the coset g x, which leads its pair
        # (sign +1) or is the partner of its leader (sign -1)
        cos = self.chi.cosets
        moved = self.fq.left_action_on_cosets(actors, cos.coset_id, cos.reps[self.chi.pair_rep])
        return self.chi.pair_of[moved], self.chi.sign_of[moved]


def _coset_space(fq: FiniteQuotient, name: str) -> CosetSpace:
    cid, reps = fq.cosets(fq.subgroup_image(name))
    return CosetSpace(cid, reps)


_NAMED = {"omega": stab.omega_element, "s": stab.s_element, "t": stab.t_element, "psi": stab.psi_element}


def prepare_level(fq: FiniteQuotient, m: int) -> LevelData:
    named = {name: int(fq.project(element(fq.precision))) for name, element in _NAMED.items()}
    c24 = _coset_space(fq, "G24")
    c8 = _coset_space(fq, "Q8")
    sigma = c8.coset_id[fq.mul(c8.reps, named["omega"])]
    cos = np.arange(c8.size)
    if np.any(sigma == cos) or np.any(sigma[sigma] != cos):
        raise CheckFailed("right translation by omega is not a free involution on Q8-cosets")
    # each pair is led by its smaller coset
    pair_rep = np.nonzero(cos < sigma)[0]
    # int32 and int8, the dtypes of the actions read through them
    pair_of = np.empty(c8.size, dtype=np.int32)
    pair_of[pair_rep] = pair_of[sigma[pair_rep]] = np.arange(len(pair_rep))
    sign_of = np.where(cos < sigma, 1, -1).astype(np.int8)
    chi = ChiSpace(c8, sigma, pair_rep, pair_of, sign_of)
    in_q8 = np.zeros(fq.order, dtype=bool)
    in_q8[fq.subgroup_image("Q8")] = True
    sd16_sign = np.where(in_q8[fq.subgroup_image("SD16")], 1, -1)
    return LevelData(
        fq,
        m,
        c24,
        chi,
        sd16_sign,
        [int(v) for v in fq.sylow_generators().values()],
        [int(v) for v in fq.generators().values()],
        named,
    )


# -- chi summand ------------------------------------------------------------------

def _sd16_right(ld: LevelData) -> np.ndarray:
    """right[x, k]: the Q8-coset of reps[x] * alpha_k, alpha_k the SD16 image."""
    cos = ld.chi.cosets
    return cos.coset_id[ld.fq.mul_table(cos.reps, ld.fq.subgroup_image("SD16"))]


def verify_chi_summand(ld: LevelData) -> dict:
    """The chi idempotent e = (1/16) sum eps(alpha) * (right translation by
    alpha) on Q8-cosets is (1 - sigma)/2.

    Q8 is normal in SD16, so right translation by alpha is well defined on
    G/Q8: the identity for alpha in Q8 and sigma (right omega) off it.  The
    n x 16 table of right translations is checked against that, with eight
    signs of each kind.  Since sigma is a free involution (``prepare_level``
    checks it) and 2 is a unit mod 3^m, e is then idempotent, its image is
    the span of the n/2 pair vectors e_x - e_sigma(x), free of rank n/2,
    and chi + tau is the whole module.  ``rank`` is the pair count, the
    rank of (1 - sigma)/2; the other verdicts are False when the table
    check fails.
    """
    right = _sd16_right(ld)
    plus = ld.sd16_sign > 0
    want = np.where(plus, np.arange(len(right))[:, None], ld.chi.sigma[:, None])
    table = bool(np.array_equal(right, want) and len(plus) == 16 and plus.sum() == 8)
    rank, expected = ld.chi.size, ld.fq.order // 16
    return {
        "idempotent": table,
        "rank": rank,
        "rank_expected": expected,
        "chi_plus_tau_full": table,
        "ok": table and rank == expected,
    }


# -- P-module span utilities ---------------------------------------------------------

def _act_vector(ld: LevelData, g: int, v: np.ndarray, space: str) -> np.ndarray:
    """Left action of a quotient element on C0 ('c24') or chi_up ('chi');
    ``v`` is one vector or a matrix of row vectors."""
    return linalg.signed_permute(v, *ld.actions(g, space)) % ld.M


def _coinvariant_span(ld: LevelData, V3: np.ndarray, gens: list, space: str) -> linalg.F3Space:
    """I . span(V3) mod 3, for I the augmentation ideal of the group
    generated by ``gens``."""
    return linalg.augmentation_span(V3, zip(*ld.actions(gens, space)))


def _tor0_data(ld: LevelData, kernel_rows: np.ndarray, space: str) -> tuple:
    """(dim over F3 of N/(3,I_P)N, the (3,I_P)-span mod 3, the Howell form
    over F3 of N mod 3, an int8 RREF)."""
    HN = linalg.howell(kernel_rows % 3, 1, np.int8)
    H_IK = _coinvariant_span(ld, HN.rows, ld.p_gens, space)
    return len(HN.rows) - H_IK.dim, H_IK, HN


def _sd16_average(ld: LevelData, d: np.ndarray, space: str) -> np.ndarray:
    """(1/16) sum over SD16 of eps(alpha) * alpha . d."""
    M = ld.M
    moved = linalg.signed_permute(d, *ld.actions(ld.fq.subgroup_image("SD16"), space)) % M
    return (pow(16, -1, M) * ((ld.sd16_sign @ moved) % M)) % M


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _kept_tor0(tor: tuple) -> tuple:
    """The part of ``_tor0_data`` the Nakayama check reads again, read-only
    int8: the (3, I_P)-span rows and the Howell form of N mod 3."""
    _, H_IK, HN = tor
    _read_only(HN.rows)
    return _read_only(H_IK.rows.astype(np.int8)), HN


def _pick_averaged_generator(ld: LevelData, kernel_rows, space: str, rng=None) -> tuple:
    """Lift-and-average: first kernel generator whose average still
    generates the coinvariants; returns (c, tor0 data).

    With ``rng`` the candidate order is shuffled and the lift is
    perturbed by a random element of (3, I_P) * N; the construction's
    verdicts must not depend on this choice.  The kernel rows may be
    narrow, so each row is read as int64 before any arithmetic.
    """
    tor = _tor0_data(ld, kernel_rows, space)
    H_IK = tor[1]
    order = list(range(len(kernel_rows)))
    if rng is not None:
        rng.shuffle(order)

    def row(j):
        return kernel_rows[j].astype(np.int64) % ld.M

    for j in order:
        v = row(j)
        if not H_IK.reduce(v).any():
            continue
        if rng is not None:
            noise = 3 * row(rng.randrange(len(kernel_rows)))
            g = ld.p_gens[rng.randrange(len(ld.p_gens))]
            w = row(rng.randrange(len(kernel_rows)))
            noise = (noise + _act_vector(ld, g, w, space) - w) % ld.M
            v = (v + noise) % ld.M
        c = _sd16_average(ld, v, space)
        if c.size and H_IK.reduce(c).any():
            return c, tor
    raise ConstructionRefused(f"no averaged generator found in {space} kernel")


# -- complex construction -------------------------------------------------------------

@dataclass
class ComplexAtLevel:
    """The complex at one level, owner of the kernel and the image of each
    boundary ('aug', 'b1', 'b2', 'b3'), both computed once by ``_eliminate``:
    by the construction or on first use.  Boundaries, kernel rows and image
    rows are residues in the storage type of ``linalg.residue_dtypes`` and
    read-only, so a caller that writes into one raises instead of
    corrupting a later verdict; products of them must upcast first.
    ``tor0`` holds the Tor0 data of each kernel the construction built
    (``_kept_tor0``).

    Building one checks it: ``composite_checks`` goes into
    ``diagnostics['composites_zero']``, and a nonzero composite raises
    CheckFailed.
    """

    level: Fraction
    m: int
    aug: np.ndarray
    b1: np.ndarray           # chi -> C0
    b2: np.ndarray           # chi -> chi
    b3: np.ndarray           # C3-term (G24-cosets) -> chi
    c_vectors: dict
    diagnostics: dict = field(default_factory=dict)
    solved: dict = field(default_factory=dict, repr=False)   # boundary name -> _eliminate(...)
    tor0: dict = field(default_factory=dict, repr=False)     # boundary name -> (rows, HowellForm)

    def __post_init__(self):
        for a in (self.aug, self.b1, self.b2, self.b3):
            _read_only(a)
        comp = composite_checks(self)
        self.diagnostics["composites_zero"] = comp
        if not all(comp.values()):
            raise CheckFailed(f"composites not zero: {comp}")

    @property
    def dims(self) -> tuple:
        """(n24, n_chi, n_chi, n24): the ranks of the four terms, the
        target and source of b1 and of b3."""
        return (*self.b1.shape, *self.b3.shape)

    def _solved(self, name: str) -> tuple:
        if name not in self.solved:
            self.solved[name] = _eliminate(getattr(self, name), self.m)
        return self.solved[name]

    def kernel(self, name: str) -> np.ndarray:
        """Rows spanning the kernel of the boundary ``name``."""
        return self._solved(name)[0]

    def image(self, name: str) -> linalg.HowellForm:
        """Howell form of the image of the boundary ``name``."""
        return self._solved(name)[2]

    def kernel_form(self, name: str) -> linalg.HowellForm | None:
        """Howell form of the kernel of ``name``; at m = 1 the one the Tor0
        data kept for N mod 3, or None when the construction kept none."""
        if self.m > 1:
            return self._solved(name)[1]
        return self.tor0[name][1] if name in self.tor0 else None


def _eliminate(A: np.ndarray, m: int) -> tuple:
    """(kernel rows, Howell form of the kernel, Howell form of the image)
    of A, read-only and in the storage type.  At m >= 2 all three come off
    one Howell form of [A^T | I]; at m = 1 the kernel is the F3 kernel
    basis, whose Howell form the Tor0 data holds, and the image its own
    RREF."""
    store = linalg.residue_dtypes(m)[0]
    if m == 1:
        K, HK, HI = linalg.kernel(A, 1, store), None, linalg.image(A, 1, store)
    else:
        HK, HI = linalg.kernel_and_image(A, m, store)
        K = HK.rows
    _read_only(HI.rows)
    return _read_only(K), HK, HI


def _boundary_on_pairs(ld: LevelData, c: np.ndarray, space: str) -> np.ndarray:
    """chi_up -> C0 (``c`` in 'c24') or chi_up -> chi_up (``c`` in 'chi'):
    pair p maps to (g_p - g_p omega) . c, g_p the representative of the
    coset leading pair p.  ``c`` is checked to be Q8-invariant with
    omega . c = -c, so that is 2 g_p . c, read off one action table: the
    moved copies of c are in the storage type and their double, within
    2 (3^m - 1) of zero, in the working type."""
    _assert_q8_invariant(ld, c, space)
    store, work = linalg.residue_dtypes(ld.m)
    c = (np.asarray(c) % ld.M).astype(store)
    moved = linalg.signed_permute(c, *ld.actions(ld.chi.cosets.reps[ld.chi.pair_rep], space))
    d = np.multiply(moved, 2, dtype=work)
    d %= ld.M
    return d.T.astype(store)


def _boundary_on_cosets(ld: LevelData, c_pairs: np.ndarray) -> np.ndarray:
    """C3-term (G24-cosets) -> chi_up: coset y maps to g_y . c, in the
    storage type."""
    c = (np.asarray(c_pairs) % ld.M).astype(linalg.residue_dtypes(ld.m)[0])
    return linalg.signed_permute(c, *ld.actions(ld.c24.reps, "chi")).T % ld.M


def construct_complex(ld: LevelData, rng=None) -> ComplexAtLevel:
    m = ld.m
    diagnostics = {"chi_summand": verify_chi_summand(ld)}
    if not diagnostics["chi_summand"]["ok"]:
        raise CheckFailed("chi summand failed its structural checks")

    aug = np.ones((1, ld.c24.size), dtype=linalg.residue_dtypes(m)[0])
    # the Tor0 spans are kept in compact form, one F3Space alive at a time
    tor0, solved = {}, {"aug": _eliminate(aug, m)}
    c1, tor = _pick_averaged_generator(ld, solved["aug"][0], "c24", rng)
    tor0["aug"] = _kept_tor0(tor)
    b1 = _boundary_on_pairs(ld, c1, "c24")

    solved["b1"] = _eliminate(b1, m)
    c2, tor = _pick_averaged_generator(ld, solved["b1"][0], "chi", rng)
    tor0["b1"] = _kept_tor0(tor)
    b2 = _boundary_on_pairs(ld, c2, "chi")

    solved["b2"] = _eliminate(b2, m)
    c3, tor = _g24_invariant_generator(ld, solved["b2"][0])
    tor0["b2"] = _kept_tor0(tor)
    b3 = _boundary_on_cosets(ld, c3)

    diagnostics["tor0_dims"] = {
        f"N{i}": len(HN.rows) - len(H) for i, (H, HN) in enumerate(tor0.values(), start=1)
    }
    return ComplexAtLevel(
        ld.fq.level, m, aug, b1, b2, b3, {"c1": c1, "c2": c2, "c3": c3}, diagnostics, solved, tor0
    )


def _assert_q8_invariant(ld: LevelData, c: np.ndarray, space: str) -> None:
    M = ld.M
    for g in (ld.named["t"], ld.named["psi"]):
        if ((_act_vector(ld, g, c, space) - c) % M).any():
            raise CheckFailed("averaged generator is not Q8-invariant")
    if ((_act_vector(ld, ld.named["omega"], c, space) + c) % M).any():
        raise CheckFailed("averaged generator is not in the sign isotype")


def _g24_invariant_generator(ld: LevelData, N3: np.ndarray) -> tuple:
    """A G24-fixed vector of span(N3) generating mod (3, I_G), and the
    Tor0 data of N3.  The y with y N3 fixed by s, t and psi are the kernel
    of the three blocks ((g - 1) N3)^T stacked, written into one buffer of
    the working type and reduced there."""
    M, m = ld.M, ld.m
    gens = (ld.named["s"], ld.named["t"], ld.named["psi"])
    k, n = N3.shape
    big = np.empty((len(gens) * n, k), dtype=linalg.residue_dtypes(m)[1])
    for i, act in enumerate(zip(*ld.actions(gens, "chi"))):
        moved = linalg.signed_permute(N3, *act)
        np.subtract(moved.T, N3.T, out=big[i * n : (i + 1) * n], dtype=big.dtype)
    big %= M
    y_span = linalg.kernel(big, m)
    if y_span.size == 0:
        raise ConstructionRefused("no G24-invariant vectors in the last kernel")
    cands = linalg.matmul_mod(y_span, N3, m)
    tor = _tor0_data(ld, N3, "chi")
    # full-group coinvariants for the generator test
    H_IG = _coinvariant_span(ld, tor[2].rows, ld.g_gens, "chi")
    outside = H_IG.reduce(cands).any(axis=1).nonzero()[0]
    if outside.size:
        return cands[outside[0]], tor
    raise ConstructionRefused("no G24-invariant generator survives the coinvariant test")


# -- checks ------------------------------------------------------------------------

def composite_checks(cx: ComplexAtLevel) -> dict:
    return {
        "aug_b1": not linalg.matmul_mod(cx.aug, cx.b1, cx.m).any(),
        "b1_b2": not linalg.matmul_mod(cx.b1, cx.b2, cx.m).any(),
        "b2_b3": not linalg.matmul_mod(cx.b2, cx.b3, cx.m).any(),
    }


def nakayama_surjectivity(
    ld: LevelData, f: np.ndarray, target_rows: np.ndarray, space: str, image=None, tor0=None
) -> dict:
    """Compare F3-coinvariant surjectivity with direct surjectivity onto
    span(target_rows); the two verdicts must agree (Nakayama).

    ``image`` (the Howell form of the image of f) and ``tor0`` (as kept by
    ``_kept_tor0`` for the target) are computed here unless given, as
    ``splice_nakayama`` gives them from the complex.
    """
    m = ld.m
    H_rows, HN = _kept_tor0(_tor0_data(ld, target_rows, space)) if tor0 is None else tor0
    cols3 = linalg.howell(np.vstack([H_rows, f.T % 3]), 1, np.int8)
    covered = linalg.span_contains(cols3, HN.rows, 1)
    H_img = linalg.image(f, m) if image is None else image
    direct = linalg.span_contains(H_img, target_rows, m)
    return {
        "f3_surjective": bool(covered),
        "surjective": bool(direct),
        "nakayama_consistent": bool(covered == direct),
        "ok": bool(covered and direct),
    }


# (stage, boundary, the boundary whose kernel is its target, target space)
_SPLICES = (("stage1", "b1", "aug", "c24"), ("stage2", "b2", "b1", "chi"), ("stage3", "b3", "b2", "chi"))


def splice_nakayama(ld: LevelData, cx: ComplexAtLevel) -> dict:
    """Nakayama at every splice: b1 onto ker aug, b2 onto ker b1 and b3
    onto ker b2, with targets, images and Tor0 data read from the complex."""
    return {
        stage: nakayama_surjectivity(
            ld, getattr(cx, f), cx.kernel(src), space, cx.image(f), cx.tor0.get(src)
        )
        for stage, f, src, space in _SPLICES
    }


def homology_cells(cx: ComplexAtLevel) -> dict:
    """Invariant factors of the homology at each position: ker b_i / im b_(i+1),
    with the Howell form of ker b_i the complex keeps."""
    m = cx.m
    out = {"coker_aug": [] if cx.image("aug").log3_size(m) == m else ["nonzero"]}
    for pos, (ker, im) in enumerate((("aug", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", None))):
        Z = cx.kernel(ker)
        HI = cx.image(im) if im else None
        B = HI.rows if im else np.zeros((0, Z.shape[1]), dtype=np.int64)
        out[f"pos{pos}"] = linalg.quotient_invariants(Z, B, m, cx.kernel_form(ker), HI)
    return out


# -- level transitions ----------------------------------------------------------------

def pushforward_maps(ld_hi: LevelData, ld_lo: LevelData) -> tuple:
    """(P0 on G24-cosets, P1 on chi pairs) along the level projection.

    Each has one nonzero, a sign, per column, so each is kept as a triple
    (targets, signs, n): the n-row matrix with signs[j] at (targets[j], j),
    applied by ``_push`` and ``_pull``."""
    proj = ld_hi.fq.projection_to(ld_lo.fq)
    targets = ld_lo.c24.coset_id[proj[ld_hi.c24.reps]]
    P0 = (targets, np.ones(len(targets), dtype=np.int8), ld_lo.c24.size)
    tgt_cosets = ld_lo.chi.cosets.coset_id[proj[ld_hi.chi.cosets.reps[ld_hi.chi.pair_rep]]]
    P1 = (ld_lo.chi.pair_of[tgt_cosets], ld_lo.chi.sign_of[tgt_cosets], ld_lo.chi.size)
    return P0, P1


def _push(P: tuple, X: np.ndarray, m: int) -> np.ndarray:
    """P @ X mod 3^m, as int64, for a pushforward map P: row j of X, times
    signs[j], is added into row targets[j], as one sum over each run of
    equal targets in sorted order."""
    targets, signs, n = P
    order = np.argsort(targets, kind="stable")
    t = targets[order]
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    X = np.asarray(X)[order]
    out = np.zeros((n, *X.shape[1:]), dtype=np.int64)
    out[t[starts]] = np.add.reduceat((signs[order] * X.T).T, starts, axis=0, dtype=np.int64)
    return out % 3**m


def _pull(X: np.ndarray, P: tuple, m: int) -> np.ndarray:
    """X @ P mod 3^m for a pushforward map P: column j is signs[j] times
    column targets[j] of X."""
    targets, signs, _ = P
    return X[:, targets] * signs % 3**m


def pushforward_complex(cx_hi: ComplexAtLevel, ld_lo: LevelData, P0, P1) -> ComplexAtLevel:
    """The compatible complex at the lower level: push the generators down
    along ``pushforward_maps`` P0, P1 to ``ld_lo``."""
    m = ld_lo.m
    c1 = _push(P0, cx_hi.c_vectors["c1"], m)
    c2 = _push(P1, cx_hi.c_vectors["c2"], m)
    c3 = _push(P1, cx_hi.c_vectors["c3"], m)
    return ComplexAtLevel(
        ld_lo.fq.level,
        m,
        np.ones((1, ld_lo.c24.size), dtype=linalg.residue_dtypes(m)[0]),
        _boundary_on_pairs(ld_lo, c1, "c24"),
        _boundary_on_pairs(ld_lo, c2, "chi"),
        _boundary_on_cosets(ld_lo, c3),
        {"c1": c1, "c2": c2, "c3": c3},
    )


def _transition_zero(cx_hi, cx_lo, P0, P1, m: int) -> dict:
    """Per-position: does the induced map on interior homology vanish.
    Kernels come from the higher complex, images from the lower one."""
    out = {}
    for pos, ker, im, P in (("pos1", "b1", "b2", P1), ("pos2", "b2", "b3", P1), ("pos3", "b3", None, P0)):
        moved = _push(P, cx_hi.kernel(ker).T, m).T
        if im is None:
            out[pos] = not moved.any()
        else:
            out[pos] = bool(linalg.span_contains(cx_lo.image(im), moved, m))
    return out


def homology_pro_triviality(lds: list, top_cx: ComplexAtLevel) -> dict:
    """Interior homology transitions along a tower of levels (fine to coarse).

    ``lds`` are the prepared levels, finest first, and ``top_cx`` is the
    complex built by lift-and-average at the finest one.  It is pushed
    down level by level, so the projections are chain maps on the nose.
    Returns the report's transitions: the levels, the chain-map verdict,
    the per-step verdicts keyed "upper->lower", and the verdicts of the
    projection over the whole range, which is the composite of the steps;
    ``pro_trivial`` says that one vanishes.  Interior classes observed in
    runs die after one full congruence step (two half-integer levels),
    not necessarily after a single half-step.
    """
    if len(lds) < 2:
        raise ValueError("need at least two levels")
    levels = [ld.fq.level for ld in lds]
    if any(a <= b for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must strictly decrease")
    m = top_cx.m
    if top_cx.level != levels[0] or any(ld.m != m for ld in lds):
        raise ValueError("the top complex and the levels must share the top level and m")
    maps = [pushforward_maps(hi, lo) for hi, lo in zip(lds, lds[1:])]
    cxs = [top_cx]
    for lo, (P0, P1) in zip(lds[1:], maps):
        cxs.append(pushforward_complex(cxs[-1], lo, P0, P1))
    chain_ok = True
    step_zero = {}
    for i, (P0, P1) in enumerate(maps):
        cx_hi, cx_lo = cxs[i], cxs[i + 1]
        chain_ok = chain_ok and all(
            np.array_equal(_push(X, b_hi, m), _pull(b_lo, Y, m))
            for X, b_hi, b_lo, Y in (
                (P0, cx_hi.b1, cx_lo.b1, P1), (P1, cx_hi.b2, cx_lo.b2, P1), (P1, cx_hi.b3, cx_lo.b3, P0)
            )
        )
        step_zero[f"{levels[i]}->{levels[i + 1]}"] = _transition_zero(cx_hi, cx_lo, P0, P1, m)
    composite = _transition_zero(cxs[0], cxs[-1], *pushforward_maps(lds[0], lds[-1]), m)
    return {
        "levels": [str(lv) for lv in levels],
        "chain_maps_ok": bool(chain_ok),
        "step_zero": step_zero,
        "composite_zero": composite,
        "pro_trivial": all(composite.values()),
    }


# -- the protocol verdict ---------------------------------------------------------------

def _level_report(ld: LevelData, cx: ComplexAtLevel) -> dict:
    """One built level passes when its terms have ranks |G|/24, |G|/16,
    |G|/16, |G|/24, its composites vanish, neither position 0 nor the
    augmentation carries homology, b1 is onto ker aug, and Nakayama holds
    at every splice."""
    g = ld.fq.order
    hom = homology_cells(cx)
    naka = splice_nakayama(ld, cx)
    ok = (
        cx.dims == (g // 24, g // 16, g // 16, g // 24)
        and all(cx.diagnostics["composites_zero"].values())
        and hom["pos0"] == []
        and hom["coker_aug"] == []
        and naka["stage1"]["ok"]
        and all(v["nakayama_consistent"] for v in naka.values())
    )
    return {
        "dims": list(cx.dims),
        "composites_zero": cx.diagnostics["composites_zero"],
        "tor0_dims": cx.diagnostics["tor0_dims"],
        "homology": hom,
        "nakayama": naka,
        "ok": ok,
    }


def verify_tower(levels, m: int, precision: int) -> tuple:
    """The resolution protocol over Z/3^m on a tower of levels: (report, ok),
    with ok True (PASS), False (FAIL) or None (INCONCLUSIVE: no level could
    be constructed, so nothing was verified).

    Each level is built and checked by ``_level_report``; a refused
    construction is reported, not failed.  With two or more levels the
    complex of the top level is pushed down the tower, and the projections
    must be chain maps.  A tower spanning one full congruence step at m = 1
    must also kill the interior homology; shorter towers, and m >= 2, only
    report the transitions.
    """
    lvls = sorted(levels, reverse=True)
    per_level = {}
    ok = True
    lds, top_cx = [], None
    for lv in lvls:
        ld = prepare_level(quotients.finite_quotient(lv, precision), m)
        lds.append(ld)
        try:
            cx = construct_complex(ld)
        except ConstructionRefused as exc:
            # shallow levels can lack the sign-isotypic generator; this
            # is a reported outcome, the level still receives pushforwards
            per_level[str(lv)] = {"construction_refused": str(exc)}
            continue
        if lv == lvls[0]:
            top_cx = cx
        per_level[str(lv)] = _level_report(ld, cx)
        ok = ok and per_level[str(lv)]["ok"]
    transitions = None
    top = per_level[str(lvls[0])]
    if len(lvls) >= 2 and "construction_refused" in top:
        # the tower is built at the top level and pushed down, so a
        # refused top level leaves the transitions unchecked: that is
        # INCONCLUSIVE when no level was built, and FAIL otherwise,
        # since the requested tower check did not run
        transitions = {"construction_refused": top["construction_refused"]}
        ok = False
    elif len(lvls) >= 2:
        transitions = homology_pro_triviality(lds, top_cx)
        transitions["spans_full_level"] = lvls[0] - lvls[-1] >= 1
        ok = ok and transitions["chain_maps_ok"]
        if transitions["spans_full_level"] and m == 1:
            # one full congruence step at modulus 3 must kill the
            # interior classes; shorter towers only report the data
            ok = ok and transitions["pro_trivial"]
    if all("construction_refused" in d for d in per_level.values()):
        ok = None
    return {"levels": per_level, "transitions": transitions, "modulus": m}, ok
