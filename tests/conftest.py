import pytest

from stab23 import cohomology as coh
from stab23 import invariants as inv


@pytest.fixture()
def drop_sf_caches():
    """A callable that empties the cohomology caches, called once more
    after the test.

    A test that sweeps S(F) calls it between degrees: each degree's cells
    and generator matrices are the largest entries, and neither the next
    degree nor a later test reads them back.  The library caches stay
    unbounded for the suites that reuse them.
    """

    def drop():
        for f in (coh.c3_degree, coh.invariant_cell, inv.gen_matrix):
            f.cache_clear()

    yield drop
    drop()
