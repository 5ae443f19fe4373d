"""Minimal free resolutions over F3[P] for finite 3-groups P.

Only the dimensions dim_F3 H^n(P, F3) are produced: over the local ring
F3[P] a minimal resolution has differentials with entries in the
augmentation ideal, so H^n is the free rank of the n-th term.  Groups
arrive as permutation data: a multiplication table index set with a
distinguished generating set.  The inflation maps along a surjection of
groups are computed by lifting a chain map into the pulled-back
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, quotients


@dataclass
class PermGroup:
    """A finite group as its full multiplication table plus generators."""

    mult: np.ndarray        # (p, p) index table, mult[i, j] = i * j
    identity: int
    gens: list              # generator indices

    @property
    def order(self) -> int:
        return self.mult.shape[0]


def group_from_indices(fq, indices: np.ndarray, gen_indices: list) -> PermGroup:
    """Relabel a subgroup of a FiniteQuotient as 0..p-1 with its table."""
    indices = np.sort(np.asarray(indices, dtype=np.int64))
    mult = quotients.relabel(indices, fq.mul_table(indices, indices))
    ident = int(quotients.relabel(indices, fq.identity_index()))
    gens = [int(i) for i in quotients.relabel(indices, np.asarray(gen_indices, dtype=np.int64))]
    return PermGroup(mult, ident, gens)


def sylow_group(fq) -> PermGroup:
    """P(l) labelled 0..p-1 in the order of its quotient indices, with the
    minimal generating set ``FiniteQuotient.sylow_generators`` picks."""
    return group_from_indices(fq, fq.sylow_indices(), list(fq.sylow_generators().values()))


def sylow_projection(fq_hi, fq_lo) -> np.ndarray:
    """proj[i]: the image in P(lo) of element i of P(hi), labelled as in ``sylow_group``."""
    image = fq_hi.projection_to(fq_lo)[np.sort(fq_hi.sylow_indices())]
    return quotients.relabel(np.sort(fq_lo.sylow_indices()), image)


def _regular_action(G: PermGroup, g: int, rank: int) -> np.ndarray:
    """Left multiplication by g on F3[P]^rank, coordinates blocked as
    (rank, p), as a column permutation."""
    p = G.order
    return (np.arange(rank)[:, None] * p + G.mult[g]).ravel()


def _new_generators(G: PermGroup, gens: list, K: np.ndarray, free: np.ndarray, rank: int) -> list:
    """The rows of K (int8 kernel rows, the identity on the columns
    ``free``) outside span(I.K, the rows chosen before them), in one pass.

    I.K lies in span(K), so it is eliminated in K's coordinates, a vector's
    entries on ``free``: there (g - 1).K is K[:, g^-1 free] - 1, as
    ``linalg.augmentation_span`` would give it restricted to ``free``, and
    row j of K is e_j.  Reducing mod I.K is linear, so the rows are the
    pivot columns of R^T for the remainders R of the e_j; they are copied
    so that K can be freed."""
    n = len(free)
    space = linalg.F3Space(n)
    for g in gens:
        block = K[:, np.argsort(_regular_action(G, g, rank))[free]]
        block[np.arange(n), np.arange(n)] -= 1
        space.add(block)
    R = space.reduce(np.eye(n, dtype=np.int8), dtype=np.int8)
    return [K[j].copy() for j in linalg.rref_f3(R.T)[1]]


@dataclass
class MinimalResolution:
    group: PermGroup
    ranks: list             # dim H^n for n = 0..n_max
    diffs: list             # int8 F3 matrices d_n : F_n -> F_{n-1}, n >= 1;
                            # column (j, identity) of d_n is generator j


def minimal_resolution(G: PermGroup, n_max: int) -> MinimalResolution:
    """The minimal free resolution of F3 over F3[G] up to degree ``n_max``.

    I.K is spanned by the (g - 1).K for g in ``G.gens`` as given: for any
    generating set I = sum (g - 1).F3[G], as gh - 1 = (g - 1)h + (h - 1),
    and F3[G].K = K, K being a submodule, so the generators set only the
    cost.  ``sylow_group`` gives the two ``FiniteQuotient.sylow_generators``
    keeps."""
    p = G.order
    # ldiv[g, h] = g^-1 h
    inverse = np.argmax(G.mult == G.identity, axis=1)
    ldiv = G.mult[inverse]
    ranks = [1]
    diffs = []
    # d_0: augmentation F3[P] -> F3
    prev_rank = 1
    d_prev = np.ones((1, p), dtype=np.int8)
    for n in range(1, n_max + 1):
        new_gens = _new_generators(G, G.gens, *linalg.kernel_f3(d_prev, np.int8), prev_rank)
        r = len(new_gens)
        ranks.append(r)
        # d_n as an F3 matrix (p*prev_rank) x (p*r): column (j, g) is
        # g . v_j, whose entry (b, h) is v_j[b, g^-1 h]; entries are in
        # {0, 1, 2}, so int8, and a product reads it through an upcast
        d = np.zeros((p * prev_rank, p * r), dtype=np.int8)
        d4 = d.reshape(prev_rank, p, r, p)
        for j, v in enumerate(new_gens):
            d4[:, :, j, :] = v.reshape(prev_rank, p)[:, ldiv.T]
        diffs.append(d)
        d_prev = d
        prev_rank = r
    return MinimalResolution(G, ranks, diffs)


def rank_f3(A: np.ndarray) -> int:
    """Rank over F3 of an integer matrix, read mod 3."""
    return len(linalg.rref_f3(A)[1])


def apply_lift(X: np.ndarray, act: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi(v) for the P_big-map phi : F3[P_big]^r_big -> F3[P_small]^r_small
    with phi(e_j) = X[:, j], one scatter of v[j, g] * g.X[:, j] over the
    nonzero v[j, g]; ``act`` = Gs.mult[proj] moves coordinate (b, k) to
    (b, act[g, k])."""
    pb, ps = act.shape
    r_small = X.shape[0] // ps
    vb = np.asarray(v, dtype=np.int64).reshape(-1, pb)   # v may be an int8 column
    j, g = np.nonzero(vb)
    out = np.zeros((r_small, ps), dtype=np.int64)
    moved = X.T.reshape(X.shape[1], r_small, ps)[j] * vb[j, g][:, None, None]
    np.add.at(out, (np.arange(r_small)[:, None], act[g][:, None, :]), moved)
    return out.ravel() % 3


def chain_lift(res_big: MinimalResolution, res_small: MinimalResolution, proj, n_max: int) -> list:
    """Generator matrices X_1..X_n_max (``apply_lift``) of a chain map F(big)
    -> F(small) over the surjection proj: P_big -> P_small.  phi_0 sends
    generator to generator, and X_n solves d_small X_n = phi_(n-1)(d_big e_j)
    at the identity translate e_j of each generator j."""
    Gb, Gs = res_big.group, res_small.group
    act = Gs.mult[proj]
    X = np.zeros((Gs.order, 1), dtype=np.int64)
    X[Gs.identity] = 1
    lifts = []
    for n in range(1, n_max + 1):
        d_big = res_big.diffs[n - 1]
        targets = np.zeros((res_small.diffs[n - 1].shape[0], res_big.ranks[n]), dtype=np.int64)
        for j in range(res_big.ranks[n]):
            targets[:, j] = apply_lift(X, act, d_big[:, j * Gb.order + Gb.identity])
        X = linalg.solve(res_small.diffs[n - 1], targets)
        if X is None:
            raise RuntimeError("chain lift failed; pullback complex not exact")
        lifts.append(X)
    return lifts


def inflation_matrices(
    res_big: MinimalResolution,
    res_small: MinimalResolution,
    proj: np.ndarray,
    n_max: int,
) -> list:
    """Inflation H^n(P_small) -> H^n(P_big) along a surjection P_big -> P_small.

    proj[i] is the image in P_small of element i of P_big.  Returns, per
    n, the matrix of the inflation with respect to the minimal-generator
    bases (shape r_small x r_big after dualization; entry [i, j] pairs
    small-generator i with big-generator j): the coinvariant classes of
    the columns of ``chain_lift``.
    """
    ps = res_small.group.order
    lifts = chain_lift(res_big, res_small, proj, n_max)
    return [X.reshape(-1, ps, X.shape[1]).sum(axis=1) % 3 for X in lifts]


def target_poincare_dims(n_max: int) -> list:
    """dim H^n of the detected limit cohomology: coefficients of
    (1 + 2t + 2t^2 + 2t^3 + t^4) / (1 - t^2)."""
    num = [1, 2, 2, 2, 1]
    out = []
    for n in range(n_max + 1):
        total = sum(num[k] for k in range(n % 2, min(n, 4) + 1, 2))
        out.append(total)
    return out


def verify_inflation(levels, nmax: int, precision: int) -> tuple:
    """Inflation-rank monotonicity of H^*(P(l); F3): (report, ok), with ok
    True (PASS), False (FAIL) or None (INCONCLUSIVE: one level, so no
    inflation and no rank was compared).

    For each level below the deepest, the rank of the inflation into the
    deepest level must not decrease as the level rises, and must not exceed
    the detected target.  The report also names, per degree, the first
    level from which the ranks sit at the target.
    """
    lvls = sorted(levels)
    fqs = {lv: quotients.finite_quotient(lv, precision) for lv in lvls}
    resolutions = {lv: minimal_resolution(sylow_group(fq), nmax) for lv, fq in fqs.items()}
    deepest = lvls[-1]
    target = target_poincare_dims(nmax)
    through_ranks = {}
    for lv in lvls[:-1]:
        proj = sylow_projection(fqs[deepest], fqs[lv])
        mats = inflation_matrices(resolutions[deepest], resolutions[lv], proj, nmax)
        through_ranks[str(lv)] = [1] + [rank_f3(m) for m in mats]
    ok = True
    stabilized = {}
    seq = list(through_ranks.values())
    for n in range(nmax + 1):
        col = [v[n] for v in seq]
        ok = ok and all(a <= b for a, b in zip(col, col[1:]))
        ok = ok and all(v <= target[n] for v in col)
        hit = [i for i, v in enumerate(col) if v == target[n]]
        stable = hit and all(v == target[n] for v in col[hit[0]:])
        stabilized[str(n)] = str(lvls[hit[0]]) if stable else "beyond tested range"
    if not through_ranks:
        ok = None
    payload = {
        "raw_dims": {str(lv): resolutions[lv].ranks for lv in lvls},
        "through_image_ranks": through_ranks,
        "target": target,
        "stabilization": stabilized,
    }
    return payload, ok
