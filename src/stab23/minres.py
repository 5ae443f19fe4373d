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

from . import linalg


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

    def relabel(x):
        pos = np.searchsorted(indices, x)
        if not np.array_equal(indices[np.minimum(pos, len(indices) - 1)], x):
            raise ValueError("element outside the subgroup")
        return pos

    mult = relabel(fq.mul_table(indices, indices))
    ident = int(relabel(fq.identity_index()))
    gens = [int(i) for i in relabel(np.asarray(gen_indices, dtype=np.int64))]
    return PermGroup(mult, ident, gens)


def _regular_action(G: PermGroup, g: int, rank: int) -> np.ndarray:
    """Left multiplication by g on F3[P]^rank, coordinates blocked as
    (rank, p), as a column permutation."""
    p = G.order
    return (np.arange(rank)[:, None] * p + G.mult[g]).ravel()


@dataclass
class MinimalResolution:
    group: PermGroup
    ranks: list             # dim H^n for n = 0..n_max
    diffs: list             # F3 matrices d_n : F_n -> F_{n-1}, n >= 1
    generators: list        # chosen minimal generator vectors per stage


def minimal_resolution(G: PermGroup, n_max: int) -> MinimalResolution:
    p = G.order
    # ldiv[g, h] = g^-1 h
    inverse = np.argmax(G.mult == G.identity, axis=1)
    ldiv = G.mult[inverse]
    ranks = [1]
    diffs = []
    gens_per_stage = []
    # d_0: augmentation F3[P] -> F3
    prev_rank = 1
    d_prev = np.ones((1, p), dtype=np.int64)
    for n in range(1, n_max + 1):
        K = linalg.kernel(d_prev, 1)
        # IK: submodule generated by (g - 1) K
        acts = [(_regular_action(G, g, prev_rank), None) for g in G.gens]
        space = linalg.module_closure_f3(
            (linalg.signed_permute(K, perm) - K for perm, _ in acts), acts, K.shape[1]
        )
        # greedy: each row of K outside the span of IK and the rows
        # already chosen; one reduction of the remaining rows per choice
        new_gens = []
        start = 0
        while True:
            outside = space.reduce(K[start:]).any(axis=1).nonzero()[0]
            if not outside.size:
                break
            start += int(outside[0])
            new_gens.append(K[start])
            space.add(K[start : start + 1])
            start += 1
        r = len(new_gens)
        ranks.append(r)
        gens_per_stage.append(new_gens)
        # d_n as an F3 matrix (p*prev_rank) x (p*r): column (j, g) is
        # g . v_j, whose entry (b, h) is v_j[b, g^-1 h]
        d = np.zeros((p * prev_rank, p * r), dtype=np.int64)
        d4 = d.reshape(prev_rank, p, r, p)
        for j, v in enumerate(new_gens):
            d4[:, :, j, :] = v.reshape(prev_rank, p)[:, ldiv.T]
        diffs.append(d)
        d_prev = d
        prev_rank = r
    return MinimalResolution(G, ranks, diffs, gens_per_stage)


def cohomology_dims(G: PermGroup, n_max: int) -> list:
    return minimal_resolution(G, n_max).ranks[: n_max + 1]


def _block_augment(v: np.ndarray, p: int, rank: int) -> np.ndarray:
    """Coinvariant reduction F3[P]^rank -> F3^rank (sum each block)."""
    return v.reshape(rank, p).sum(axis=1) % 3


def rank_f3(A: np.ndarray) -> int:
    """Rank over F3 of an integer matrix, read mod 3."""
    return len(linalg.rref_f3(A)[1])


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
    small-generator i with big-generator j).
    """
    Gb, Gs = res_big.group, res_small.group
    pb, ps = Gb.order, Gs.order

    def push(v: np.ndarray, rank: int) -> np.ndarray:
        """F3[P_big]^rank -> F3[P_small]^rank along proj (sum over fibers)."""
        out = np.zeros(rank * ps, dtype=np.int64)
        vb = v.reshape(rank, pb)
        vs = out.reshape(rank, ps)
        np.add.at(vs, (slice(None), proj), vb)
        return out % 3

    # chain map phi_n : F_n(big) -> C_n = pullback of F_n(small);
    # phi_0 = push; each next stage solves d_small x = phi(d_big e_j)
    mats = []

    def phi0(v):
        return push(v, 1)

    phis = [phi0]
    for n in range(1, n_max + 1):
        d_big = res_big.diffs[n - 1]
        d_small = res_small.diffs[n - 1]
        r_big = res_big.ranks[n]
        r_small = res_small.ranks[n]
        prev = phis[n - 1]
        # the identity-translate of generator j is column j * pb of d_big
        targets = np.zeros((d_small.shape[0], r_big), dtype=np.int64)
        for j in range(r_big):
            targets[:, j] = prev(d_big[:, j * pb] % 3)
        X = linalg.solve(d_small, targets, 1)
        if X is None:
            raise RuntimeError("chain lift failed; pullback complex not exact")
        gen_images = list(X.T)

        def phi_n(v, gen_images=gen_images, r_big=r_big, r_small=r_small):
            out = np.zeros(gen_images[0].shape[0] if gen_images else 0, dtype=np.int64)
            vb = v.reshape(r_big, pb)
            for j in range(r_big):
                img = gen_images[j].reshape(r_small, ps)
                for g in np.nonzero(vb[j])[0]:
                    coef = vb[j, g]
                    # g acts through its image in the small group
                    moved = np.zeros_like(img)
                    moved[:, Gs.mult[proj[g]]] = img
                    out = (out + coef * moved.ravel()) % 3
            return out

        phis.append(phi_n)
        # inflation pairing: coinvariant classes of the generator images
        mat = np.zeros((r_small, r_big), dtype=np.int64)
        for j, x in enumerate(gen_images):
            mat[:, j] = _block_augment(x, ps, r_small)
        mats.append(mat % 3)
    return mats


def target_poincare_dims(n_max: int) -> list:
    """dim H^n of the detected limit cohomology: coefficients of
    (1 + 2t + 2t^2 + 2t^3 + t^4) / (1 - t^2)."""
    num = [1, 2, 2, 2, 1]
    out = []
    for n in range(n_max + 1):
        total = sum(num[k] for k in range(n % 2, min(n, 4) + 1, 2))
        out.append(total)
    return out
