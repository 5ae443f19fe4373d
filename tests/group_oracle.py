"""Subgroup closure in a finite quotient G(l), by products.

``closure_size`` is the breadth-first closure over ``FiniteQuotient.mul``
that ``stab23.quotients`` ran before it read every closure test off one
table of the subgroup times the generators.  ``is_minimal_generating_set``
asks it of a set and of each of its proper subsets.  They are a test
oracle only.
"""

from __future__ import annotations

import itertools

import numpy as np


def closure_size(fq, gens) -> int:
    """The order of the subgroup of G(l) that the element indices ``gens``
    generate: breadth-first from the identity, one product per frontier
    element and generator."""
    gens = np.asarray(list(gens), dtype=np.int64)
    seen = np.zeros(fq.order, dtype=bool)
    frontier = np.array([fq.identity_index()])
    while frontier.size:
        seen[frontier] = True
        new = np.zeros_like(seen)
        new[fq.mul(frontier[:, None], gens[None, :])] = True
        frontier = (new & ~seen).nonzero()[0]
    return int(seen.sum())


def is_minimal_generating_set(fq, gens, order: int) -> bool:
    """Whether ``gens`` generate a subgroup of the given order and no proper
    subset of them does."""
    gens = [int(g) for g in gens]
    return closure_size(fq, gens) == order and all(
        closure_size(fq, sub) < order
        for k in range(len(gens))
        for sub in itertools.combinations(gens, k)
    )
