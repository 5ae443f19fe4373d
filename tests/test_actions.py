"""The one action layer of the resolution: cosets, and the signed
permutations by which G(l) acts on G24-cosets and on chi pairs, checked
against their definitions at levels 1 and 3/2."""

from fractions import Fraction

import numpy as np
import pytest

from stab23 import quotients as q
from stab23 import resolution as res

N = 8


@pytest.fixture(scope="module", params=[Fraction(1), Fraction(3, 2)], ids=["1", "3/2"])
def ld(request):
    return res.prepare_level(q.finite_quotient(request.param, N), 1)


def _left_perm(fq, g, cosets):
    """Definition: g * (coset of reps[r]) is the coset of g * reps[r]."""
    return cosets.coset_id[fq.mul(np.full(cosets.size, g, dtype=np.int64), cosets.reps)]


def _chi_matrix(ld, g):
    """Definition: row p is g . e_p, by embedding e_p as the antisymmetric
    coset vector, permuting the Q8-cosets and restricting to the pairs."""
    chi = ld.chi
    n = chi.size
    full = np.zeros((n, chi.cosets.size), dtype=np.int64)
    full[np.arange(n), chi.pair_rep] = 1
    full[np.arange(n), chi.sigma[chi.pair_rep]] = -1
    moved = np.zeros_like(full)
    moved[:, _left_perm(ld.fq, g, chi.cosets)] = full
    return moved[:, chi.pair_rep]


def _signed_matrix(perm, sign):
    out = np.zeros((len(perm), len(perm)), dtype=np.int64)
    out[np.arange(len(perm)), perm] = sign
    return out


def test_actions_match_their_definition(ld):
    for g in range(ld.fq.order):
        perm, sign = ld.actions(g, "c24")
        assert np.array_equal(perm, _left_perm(ld.fq, g, ld.c24))
        assert (sign == 1).all()
        assert np.array_equal(_signed_matrix(*ld.actions(g, "chi")), _chi_matrix(ld, g))


def test_actions_are_homomorphisms(ld):
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, ld.fq.order, size=(400, 2))
    for g, h in pairs:
        gh = int(ld.fq.mul(g, h))
        for space in ("c24", "chi"):
            pg, sg = ld.actions(g, space)
            ph, sh = ld.actions(h, space)
            pgh, sgh = ld.actions(gh, space)
            # (gh) . e_p = g . (sh[p] e_{ph[p]}) = sh[p] sg[ph[p]] e_{pg[ph[p]]}
            assert np.array_equal(pgh, pg[ph])
            assert np.array_equal(sgh, sh * sg[ph])


def test_batched_actions_equal_single_ones(ld):
    actors = np.array([5, ld.fq.identity_index(), 5, ld.fq.order - 1])
    for space in ("c24", "chi"):
        perms, signs = ld.actions(actors, space)
        for i, g in enumerate(actors):
            perm, sign = ld.actions(g, space)
            assert np.array_equal(perms[i], perm) and np.array_equal(signs[i], sign)
    perms = ld.fq.left_action_on_cosets(actors, ld.c24.coset_id, ld.c24.reps)
    assert perms.shape == (len(actors), ld.c24.size)
    assert np.array_equal(perms[1], np.arange(ld.c24.size))


def test_actions_are_compact_and_block_by_block(ld, monkeypatch):
    # int32 permutations and int8 signs, the same when the coset action is
    # read for a few actors at a time
    actors = np.arange(ld.fq.order)[::-1]
    want = {space: ld.actions(actors, space) for space in ("c24", "chi")}
    monkeypatch.setattr(q, "_PRODUCTS_PER_BLOCK", 3 * ld.chi.cosets.size)
    for space in ("c24", "chi"):
        perms, signs = ld.actions(actors, space)
        assert perms.dtype == np.int32 and signs.dtype == np.int8
        assert np.array_equal(perms, want[space][0]) and np.array_equal(signs, want[space][1])
        for g in actors[:10]:
            perm, sign = ld.actions(g, space)
            assert perm.dtype == np.int32 and sign.dtype == np.int8


@pytest.mark.parametrize("level", [Fraction(1), Fraction(3, 2)], ids=["1", "3/2"])
@pytest.mark.parametrize("name", ["G24", "Q8"])
def test_cosets_match_brute_force(level, name):
    fq = q.finite_quotient(level, N)
    H = fq.subgroup_image(name)
    cid, reps = fq.cosets(H)
    n = fq.order
    inv = (fq.mul_table(np.arange(n), np.arange(n)) == fq.identity_index()).argmax(axis=1)
    # g and k lie in one left coset iff g^-1 k lies in H
    same = np.array([np.isin(fq.mul(np.full(n, inv[g]), np.arange(n)), H) for g in range(n)])
    assert np.array_equal(same, cid[:, None] == cid[None, :])
    smallest = same.argmax(axis=1)
    assert np.array_equal(reps, np.unique(smallest))
    assert np.array_equal(reps[cid], smallest)
