import pytest

from stab23 import cohomology as coh
from stab23 import invariants as inv


@pytest.fixture()
def drop_sf_caches():
    """Empty the cohomology caches after a test that sweeps S(F).

    Its cells and generator matrices are the largest entries and no later
    test reads them back; the library caches stay unbounded for the suites
    that reuse them.
    """
    yield
    for f in (coh.c3_degree, coh.invariant_cell, inv.gen_matrix):
        f.cache_clear()
