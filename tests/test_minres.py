from fractions import Fraction

import numpy as np
import pytest

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
    assert minres.cohomology_dims(G, 4) == [1, 0, 0, 0, 0]


def test_cyclic_c3():
    G = cyclic_group(3)
    assert minres.cohomology_dims(G, 5) == [1, 1, 1, 1, 1, 1]


def test_cyclic_c9():
    G = cyclic_group(9)
    assert minres.cohomology_dims(G, 4) == [1, 1, 1, 1, 1]


def test_elementary_abelian_rank_two():
    # known: dim H^n(C3 x C3) = n + 1
    G = product_c3_c3()
    assert minres.cohomology_dims(G, 4) == [1, 2, 3, 4, 5]


def test_p_level_one_is_elementary_of_rank_two():
    fq = q.finite_quotient(1, N)
    syl = fq.sylow_indices()
    gens = list(fq.sylow_generators().values())
    G = minres.group_from_indices(fq, syl, gens)
    assert G.order == 9
    assert minres.cohomology_dims(G, 4) == [1, 2, 3, 4, 5]


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
    dims = minres.cohomology_dims(G, 4)
    assert dims[0] == 1
    assert dims[1] >= 2  # at least the abelianization rank
