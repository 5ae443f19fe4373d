import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import group_oracle
import linalg_oracle as oracle
from stab23 import linalg
from stab23 import minres
from stab23 import quotients as q

N = 8


def cyclic_group(n):
    mult = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=np.int64)
    return minres.PermGroup(mult.astype(np.int64), 0, [1 % n])


def product_c3_c3():
    # indices i = 3a + b over C3 x C3
    n = 9
    mult = np.zeros((n, n), dtype=np.int64)
    for a1 in range(3):
        for b1 in range(3):
            for a2 in range(3):
                for b2 in range(3):
                    mult[3 * a1 + b1, 3 * a2 + b2] = 3 * ((a1 + a2) % 3) + (b1 + b2) % 3
    return minres.PermGroup(mult, 0, [1, 3])


def test_trivial_group():
    G = cyclic_group(1)
    assert minres.minimal_resolution(G, 4).ranks[:5] == [1, 0, 0, 0, 0]


def test_cyclic_c3():
    G = cyclic_group(3)
    assert minres.minimal_resolution(G, 5).ranks[:6] == [1, 1, 1, 1, 1, 1]


def test_cyclic_c9():
    G = cyclic_group(9)
    assert minres.minimal_resolution(G, 4).ranks[:5] == [1, 1, 1, 1, 1]


def test_elementary_abelian_rank_two():
    # known: dim H^n(C3 x C3) = n + 1
    G = product_c3_c3()
    assert minres.minimal_resolution(G, 4).ranks[:5] == [1, 2, 3, 4, 5]


def test_p_level_one_is_elementary_of_rank_two():
    fq = q.finite_quotient(1, N)
    syl = fq.sylow_indices()
    gens = list(fq.sylow_generators().values())
    G = minres.group_from_indices(fq, syl, gens)
    assert G.order == 9
    assert minres.minimal_resolution(G, 4).ranks[:5] == [1, 2, 3, 4, 5]


def test_inflation_c3_to_c9():
    # surjection C9 -> C3: inflation is iso on H^1? no: on H^1 it is
    # injective (rank 1), on H^2 it vanishes (the Bockstein obstruction)
    G9, G3 = cyclic_group(9), cyclic_group(3)
    res9 = minres.minimal_resolution(G9, 3)
    res3 = minres.minimal_resolution(G3, 3)
    proj = np.array([i % 3 for i in range(9)], dtype=np.int64)
    mats = minres.inflation_matrices(res9, res3, proj, 3)
    ranks = [minres.rank_f3(m) for m in mats]
    assert ranks[0] == 1
    assert ranks[1] == 0


def test_rank_is_taken_over_f3():
    # rank 2 over R, but the rows agree up to the unit 2 mod 3
    assert minres.rank_f3(np.array([[1, 2], [2, 1]])) == 1
    assert minres.rank_f3(np.array([[1, 2], [0, 3]])) == 1
    assert minres.rank_f3(np.eye(3, dtype=np.int64)) == 3
    assert minres.rank_f3(np.zeros((0, 4), dtype=np.int64)) == 0


def test_target_poincare_series():
    assert minres.target_poincare_dims(6) == [1, 2, 3, 4, 4, 4, 4]


def test_p_level_three_halves_dims():
    fq = q.finite_quotient(Fraction(3, 2), N)
    syl = fq.sylow_indices()
    gens = list(fq.sylow_generators().values())
    G = minres.group_from_indices(fq, syl, gens)
    assert G.order == 27
    dims = minres.minimal_resolution(G, 4).ranks[:5]
    assert dims[0] == 1
    assert dims[1] >= 2  # at least the abelianization rank


# -- P(l) at levels 1, 3/2, 2: generators, I.K, and the lifted chain maps ------------------

LEVELS = (Fraction(1), Fraction(3, 2), Fraction(2))


@pytest.fixture(scope="module")
def sylow():
    fqs = {lv: q.finite_quotient(lv, N) for lv in LEVELS}
    return fqs, {lv: minres.minimal_resolution(minres.sylow_group(fqs[lv]), 3) for lv in LEVELS}


def pooled_group(fq) -> minres.PermGroup:
    """P(l) labelled as in ``sylow_group``, with the six pooled generators
    s, u1..u5 instead of the two that ``sylow_generators`` keeps."""
    pool = fq._generator_pool()
    pro3 = [v for k, v in pool.items() if k not in ("omega", "phi")]
    return minres.group_from_indices(fq, fq.sylow_indices(), pro3)


def test_sylow_group_generators_are_two(sylow):
    # the pool has 6 pro-3 entries; P(l) has Frattini rank 2 (Burnside's
    # basis theorem): two of them generate it, by the closure over
    # products, and neither alone does; the trivial P(1/2) needs none
    fqs, res = sylow
    for lv in LEVELS:
        G = res[lv].group
        pool = pooled_group(fqs[lv]).gens
        assert len(pool) == 6 and len(G.gens) == 2 and set(G.gens) <= set(pool)
        gens = fqs[lv].sylow_indices()[G.gens]
        assert group_oracle.is_minimal_generating_set(fqs[lv], gens, G.order)
    assert minres.sylow_group(q.finite_quotient(Fraction(1, 2), N)).gens == []


def test_pruning_the_generators_moves_no_differential(sylow):
    # I.K is the same span from any generating set, so the whole pool and
    # the kept pair in either order give byte-equal differentials
    fqs, _ = sylow
    for lv in LEVELS:
        G = minres.sylow_group(fqs[lv])
        want = minres.minimal_resolution(G, 4).diffs
        for H in (pooled_group(fqs[lv]), dataclasses.replace(G, gens=G.gens[::-1])):
            assert np.array_equal(H.mult, G.mult) and H.identity == G.identity
            got = minres.minimal_resolution(H, 4).diffs
            assert len(got) == len(want) == 4
            for d, e in zip(got, want):
                assert d.dtype == e.dtype and np.array_equal(d, e)


def test_closure_of_the_augmentation_span_adds_no_rows(sylow):
    # I.K from two generators, without closure rounds, against the old
    # closure of the (g - 1) K blocks over the six pooled generators
    fqs, res = sylow
    for lv in LEVELS:
        G = res[lv].group
        d_prev, rank = np.ones((1, G.order), dtype=np.int64), 1
        for d in res[lv].diffs:
            K = linalg.kernel(d_prev, 1)
            plain = linalg.augmentation_span(
                K, [(minres._regular_action(G, g, rank),) for g in G.gens]
            )
            acts = [(minres._regular_action(G, g, rank), None) for g in pooled_group(fqs[lv]).gens]
            closed = oracle.module_closure_f3(
                (linalg.signed_permute(K, perm) - K for perm, _ in acts), acts, K.shape[1]
            )
            assert closed.dim == plain.dim
            assert np.array_equal(closed.rows[np.argsort(closed.pivots)], plain.rows[np.argsort(plain.pivots)])
            d_prev, rank = d, d.shape[1] // G.order


def test_generators_chosen_in_coordinates_are_the_ambient_choice(sylow):
    # I.K eliminated in K's coordinates picks the rows of K that the span
    # of the (g - 1) K blocks in F3[P]^r picks
    _, res = sylow
    for lv in LEVELS:
        G = res[lv].group
        d_prev, rank = np.ones((1, G.order), dtype=np.int8), 1
        for d in res[lv].diffs:
            chosen = d[:, G.identity :: G.order].T  # column (j, identity) is generator j
            K, free = linalg.kernel_f3(d_prev, np.int8)
            assert np.array_equal(K[:, free], np.eye(len(free), dtype=np.int8))
            acts = [(minres._regular_action(G, g, rank),) for g in G.gens]
            R = linalg.augmentation_span(K, acts).reduce(K, dtype=np.int8)
            want = [K[j] for j in linalg.rref_f3(R.T)[1]]
            assert np.array_equal(np.array(chosen), np.array(want))
            d_prev, rank = d, d.shape[1] // G.order


def dense_lift(X, act):
    """The matrix of ``minres.apply_lift(X, act, .)``: column (j, g) is
    X[:, j] moved by g, coordinate (b, k) going to (b, act[g, k])."""
    pb, ps = act.shape
    r_small, r_big = X.shape[0] // ps, X.shape[1]
    Phi = np.zeros((r_small, ps, r_big, pb), dtype=np.int64)
    for g in range(pb):
        Phi[:, :, :, g][:, act[g], :] = X.reshape(r_small, ps, r_big)
    return Phi.reshape(r_small * ps, r_big * pb)


def mul3(A, B):
    return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % 3


def test_chain_lift_is_a_chain_map_on_every_translate(sylow):
    # d_small phi_n = phi_(n-1) d_big on every column of d_big, not only
    # on the identity translates that the lift solved for
    fqs, res = sylow
    big, small = res[Fraction(2)], res[Fraction(3, 2)]
    proj = minres.sylow_projection(fqs[Fraction(2)], fqs[Fraction(3, 2)])
    act = small.group.mult[proj]
    X0 = np.zeros((small.group.order, 1), dtype=np.int64)
    X0[small.group.identity] = 1
    lifts = [X0] + minres.chain_lift(big, small, proj, 3)
    phis = [dense_lift(X, act) for X in lifts]
    rng = np.random.default_rng(11)
    for n in range(1, 4):
        assert np.array_equal(mul3(small.diffs[n - 1], phis[n]), mul3(phis[n - 1], big.diffs[n - 1]))
        # the scatter of the library is the dense map
        for v in rng.integers(0, 3, size=(5, phis[n].shape[1])):
            assert np.array_equal(minres.apply_lift(lifts[n], act, v), mul3(phis[n], v))


def test_apply_lift_into_no_rows():
    # a lift into F3[P_small]^0, as from the trivial P(1/2): the image is empty
    act = np.zeros((3, 1), dtype=np.int64)  # C3 -> the trivial group
    X = np.zeros((0, 2), dtype=np.int64)
    out = minres.apply_lift(X, act, np.arange(6) % 3)
    assert out.shape == (0,) and out.dtype == np.int64


def test_inflation_is_functorial(sylow):
    # inflation 1 -> 3/2 -> 2 is inflation 1 -> 2: on H_n = F_n (x) F3 the
    # induced maps do not depend on the lift, so the matrices compose
    fqs, res = sylow
    one, mid, top = LEVELS

    def infl(hi, lo):
        proj = minres.sylow_projection(fqs[hi], fqs[lo])
        return minres.inflation_matrices(res[hi], res[lo], proj, 3)

    for A, B, C in zip(infl(mid, one), infl(top, mid), infl(top, one)):
        assert minres.rank_f3(mul3(A, B)) == minres.rank_f3(C)
        assert np.array_equal(mul3(A, B), C)


# -- int8 differentials: the int64 construction, the lifts, and the memory ---------------

def int64_diffs(res):
    """d_n built in int64 from the chosen generators (its identity columns)
    and ldiv, one column at a time: column (j, g) is g . v_j, whose entry
    (b, h) is v_j[b, g^-1 h]."""
    G = res.group
    p = G.order
    ldiv = G.mult[np.argmax(G.mult == G.identity, axis=1)]
    out, prev = [], 1
    for gens in (d8[:, G.identity :: G.order].T for d8 in res.diffs):
        d = np.zeros((p * prev, p * len(gens)), dtype=np.int64)
        for j, v in enumerate(gens):
            v = v.astype(np.int64).reshape(prev, p)
            for g in range(p):
                d[:, j * p + g] = v[:, ldiv[g]].ravel()
        out.append(d)
        prev = len(gens)
    return out


def test_int8_differentials_lift_as_the_int64_ones(sylow):
    # apply_lift and chain_lift read the int8 differentials through an
    # upcast; with the int64 construction they give the same matrices
    fqs, res = sylow
    wide = {lv: dataclasses.replace(res[lv], diffs=int64_diffs(res[lv])) for lv in LEVELS}
    for lv in LEVELS:
        for d8, d64 in zip(res[lv].diffs, wide[lv].diffs):
            assert d8.dtype == np.int8 and np.array_equal(d8, d64)
    rng = np.random.default_rng(12)
    one, mid, top = LEVELS
    for hi, lo in [(mid, one), (top, mid), (top, one)]:
        proj = minres.sylow_projection(fqs[hi], fqs[lo])
        lifts = minres.chain_lift(res[hi], res[lo], proj, 3)
        for X, Y in zip(lifts, minres.chain_lift(wide[hi], wide[lo], proj, 3)):
            assert X.dtype == np.int64 and np.array_equal(X, Y)
        act = res[lo].group.mult[proj]
        for X, d8, d64 in zip(lifts, res[hi].diffs[1:], wide[hi].diffs[1:]):
            for c in rng.integers(0, d8.shape[1], size=6):
                got = minres.apply_lift(X, act, d8[:, c])
                assert got.dtype == np.int64
                assert np.array_equal(got, minres.apply_lift(X, act, d64[:, c]))


def test_p2_resolution_is_int8_under_a_memory_bound(sylow):
    # the resolution's tracemalloc peak was 30.3 MB with int64 differentials
    # and a float64 basis; each d_n is the int64 construction, as int8
    fqs, _ = sylow
    G = minres.sylow_group(fqs[Fraction(2)])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = minres.minimal_resolution(G, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"
    assert res.ranks == [1, 2, 4, 8]
    for d8, d64 in zip(res.diffs, int64_diffs(res)):
        assert d8.dtype == np.int8 and np.array_equal(d8, d64)
