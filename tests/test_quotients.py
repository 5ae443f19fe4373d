from fractions import Fraction

import numpy as np
import pytest

import group_oracle
from stab23 import quotients as q
from stab23 import stabilizer as stab
from stab23 import witt
from stab23.errors import ResourceBoundExceeded

N = 8


@pytest.fixture(scope="module")
def g1():
    return q.finite_quotient(1, N)


@pytest.fixture(scope="module")
def g32():
    return q.finite_quotient(Fraction(3, 2), N)


@pytest.fixture(scope="module")
def g2():
    return q.finite_quotient(2, N)


def test_full_quotient_layer_sizes():
    # |S2 / F_{1/2}| = 8 and each further half-step layer has size 9
    assert q.full_quotient_order(Fraction(1, 2)) == 8
    levels = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2)]
    for lo, hi in zip(levels, levels[1:]):
        assert q.full_quotient_order(hi) == 9 * q.full_quotient_order(lo)


def test_full_quotient_order_matches_enumeration():
    # count (a, b) coordinate classes with a a unit, no determinant cut
    for level in (Fraction(1, 2), 1, Fraction(3, 2)):
        alpha, beta = q.level_digits(level)
        Ma, Mb = 3**alpha, 3**beta
        count = 0
        for a0 in range(Ma):
            for a1 in range(Ma):
                if a0 % 3 == 0 and a1 % 3 == 0:
                    continue
                count += Mb * Mb
        assert count == q.full_quotient_order(level)


def test_quotient_orders(g1, g32, g2):
    # |G(l)| = 2 * |S2/F_l| / 3^(alpha-1)
    assert g1.order == 144
    assert g32.order == 432
    assert g2.order == 3888


def test_group_axioms_sampled(g32):
    rng = np.random.default_rng(3)
    idx = rng.integers(0, g32.order, size=40)
    e = g32.identity_index()
    for i in idx:
        assert int(g32.mul(i, g32.project(_lift(g32, i).inv()))) == e
        assert int(g32.mul(e, i)) == int(i)
    a, b, c = idx[:3]
    ab_c = g32.mul(g32.mul(a, b), c)
    a_bc = g32.mul(a, g32.mul(b, c))
    assert int(ab_c) == int(a_bc)


def test_projection_is_homomorphism(g32, g1):
    proj = g32.projection_to(g1)
    rng = np.random.default_rng(5)
    i = rng.integers(0, g32.order, size=30)
    j = rng.integers(0, g32.order, size=30)
    lhs = proj[g32.mul(i, j)]
    rhs = g1.mul(proj[i], proj[j])
    assert np.array_equal(lhs, rhs)


def test_subgroup_image_orders(g1, g32, g2):
    for fq in (g1, g32, g2):
        assert len(fq.subgroup_image("G24")) == 24
        assert len(fq.subgroup_image("SD16")) == 16
        assert len(fq.subgroup_image("C3")) == 3
        assert len(fq.subgroup_image("G12")) == 12
        assert len(fq.subgroup_image("Q8")) == 8


def test_sd16_embeds_at_level_half():
    fq = q.finite_quotient(Fraction(1, 2), N)
    assert fq.order == 16
    assert len(fq.subgroup_image("SD16")) == 16


def test_sylow_and_k_orders(g1, g32, g2):
    assert len(g1.sylow_indices()) == 9
    assert len(g32.sylow_indices()) == 27
    assert len(g2.sylow_indices()) == 243
    for fq in (g1, g32, g2):
        syl = len(fq.sylow_indices())
        assert len(fq.k_indices()) == syl // 3


def test_sylow_is_a_subgroup(g32):
    syl = set(int(x) for x in g32.sylow_indices())
    arr = np.array(sorted(syl), dtype=np.int64)
    prods = g32.mul(np.repeat(arr, len(arr)), np.tile(arr, len(arr)))
    assert set(int(x) for x in prods) <= syl


def test_projection_commutes_with_subgroup_images(g32, g1):
    proj = g32.projection_to(g1)
    for name in ("G24", "SD16", "C3", "Q8"):
        upper = set(int(proj[i]) for i in g32.subgroup_image(name))
        lower = set(int(i) for i in g1.subgroup_image(name))
        assert upper == lower


def test_cosets_partition(g1):
    cid, reps = g1.cosets(g1.subgroup_image("G24"))
    assert len(reps) == g1.order // 24
    sizes = np.bincount(cid)
    assert (sizes == 24).all()


def test_left_action_is_permutation_homomorphism(g1):
    cid, reps = g1.cosets(g1.subgroup_image("Q8"))
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = (int(x) for x in rng.integers(0, g1.order, size=2))
        pa = g1.left_action_on_cosets(a, cid, reps)
        pb = g1.left_action_on_cosets(b, cid, reps)
        pab = g1.left_action_on_cosets(int(g1.mul(a, b)), cid, reps)
        assert np.array_equal(pab, pa[pb])


def _pro3_pool(fq) -> dict:
    """The six pooled generators s, u1..u5 of P(l): the pool without omega and phi."""
    return {k: v for k, v in fq._generator_pool().items() if k not in ("omega", "phi")}


def test_generators_generate(g1, g32, g2):
    # generators() lists the whole pool, which generates G(l); the Sylow
    # generators are what minimal_generators keeps of the six pro-3 ones:
    # two from level 1 on (Burnside's basis theorem), none for the trivial
    # P(1/2); the closure over products is the oracle
    for fq in (q.finite_quotient(Fraction(1, 2), N), g1, g32, g2):
        assert fq.generators() == fq._generator_pool()
        assert group_oracle.closure_size(fq, fq.generators().values()) == fq.order
        P = fq.sylow_indices()
        assert fq.sylow_generators() == fq.minimal_generators(_pro3_pool(fq), P)
        assert len(fq.sylow_generators()) == (2 if fq.level >= 1 else 0)
        assert group_oracle.is_minimal_generating_set(fq, fq.sylow_generators().values(), len(P))


def _lift(fq, i) -> stab.StabilizerElement:
    """The element of G2^1 whose coordinates are those of class i."""
    a0, a1, b0, b1, e = (int(v) for v in fq.coords[:, int(i)])
    return stab.StabilizerElement(
        witt.WittElement(a0, a1, fq.precision), witt.WittElement(b0, b1, fq.precision), e
    )


def test_lift_project_round_trip(g32):
    rng = np.random.default_rng(4)
    for i in rng.integers(0, g32.order, size=15):
        assert g32.project(_lift(g32, int(i))) == int(i)


def test_json_summary_is_stable(g1):
    s1 = g1.json_summary()
    s2 = g1.json_summary()
    assert s1 == s2
    assert s1["order"] == 144
    assert s1["subgroup_image_orders"]["G24"] == 24


@pytest.mark.parametrize("level", [1, Fraction(3, 2), 2, Fraction(5, 2)])
def test_products_and_inverses_match_the_stabilizer_group(level):
    # the one-pass coordinate product against the exact product in G2^1
    fq = q.finite_quotient(level, N)
    rng = np.random.default_rng(11)
    i, j = rng.integers(0, fq.order, size=(2, 100))
    e = fq.identity_index()
    for a, b, ab in zip(i, j, fq.mul(i, j)):
        assert int(ab) == fq.project(_lift(fq, a) * _lift(fq, b))
        a_inv = fq.project(_lift(fq, a).inv())
        assert int(fq.mul(a, a_inv)) == e == int(fq.mul(a_inv, a))


def test_index_of_refuses_non_members(g2):
    with pytest.raises(KeyError):
        g2.index_of(3, 0, 0, 0, 0)      # not a unit
    with pytest.raises(KeyError):
        g2.index_of(2, 0, 0, 0, 0)      # det = 4, not +-1 mod 9


def test_slot_table_inverts_the_encoding(g1, g32, g2):
    for fq in (g1, g32, g2):
        keys = fq._encode(*fq.coords)
        assert np.all(np.diff(keys) > 0)        # indices follow the key order
        assert len(fq.slot) == 2 * fq.Ma**2 * fq.Mb**2
        assert np.array_equal(fq.slot[keys], np.arange(fq.order))
        assert np.count_nonzero(fq.slot == -1) == len(fq.slot) - fq.order



def _powers(fq, g) -> list:
    """The powers of g, from g up to the identity."""
    out = [int(g)]
    while out[-1] != fq.identity_index():
        out.append(int(fq.mul(out[-1], g)))
    return out


def test_minimal_generators_match_the_closure_search(g1, g32, g2):
    # the table search agrees with the breadth-first closure over
    # products: the kept generators generate the subgroup and no proper
    # subset does, for P(l) from the six pooled generators and for a
    # cyclic group from all its elements
    for fq in (g1, g32, g2):
        pool = _pro3_pool(fq)
        cyclic = _powers(fq, max(pool.values()))
        for gens, H in ((pool, fq.sylow_indices()), (dict(enumerate(cyclic)), np.sort(cyclic))):
            keep = fq.minimal_generators(gens, H)
            assert keep.items() <= gens.items()
            assert group_oracle.is_minimal_generating_set(fq, keep.values(), len(H))
        assert len(fq.minimal_generators(dict(enumerate(cyclic)), np.sort(cyclic))) == 1


def test_minimal_generators_refuse_a_set_that_does_not_generate(g32):
    P = g32.sylow_indices()
    pool = _pro3_pool(g32)
    with pytest.raises(ValueError):
        g32.minimal_generators(dict(enumerate(_powers(g32, max(pool.values())))), P)
    outside = int(np.setdiff1d(np.arange(g32.order), P)[0])
    with pytest.raises(ValueError):
        g32.minimal_generators({**pool, "outside": outside}, P)


def test_a_pool_that_does_not_generate_is_refused(monkeypatch):
    # without omega and phi the pool lies in P(l), so it cannot generate
    # G(l); with s alone as its pro-3 part it cannot generate P(l)
    pool = q.finite_quotient(1, N)._generator_pool()
    pro3 = {k: v for k, v in pool.items() if k not in ("omega", "phi")}
    monkeypatch.setattr(q.FiniteQuotient, "_generator_pool", lambda self: dict(pro3))
    with pytest.raises(ResourceBoundExceeded, match="generate G"):
        q.finite_quotient(1, N).generators()
    cut = {k: pool[k] for k in ("omega", "phi", "s")}
    monkeypatch.setattr(q.FiniteQuotient, "_generator_pool", lambda self: dict(cut))
    with pytest.raises(ResourceBoundExceeded, match="generate P"):
        q.finite_quotient(1, N).sylow_generators()
