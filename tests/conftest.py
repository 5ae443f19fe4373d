import pytest

from stab23 import cohomology as coh
from stab23 import invariants as inv


def pytest_addoption(parser):
    parser.addoption("--deep", action="store_true", help="also run the tests marked deep")


def pytest_collection_modifyitems(config, items):
    """Skip the tests marked deep unless --deep is given."""
    if config.getoption("--deep"):
        return
    skip = pytest.mark.skip(reason="deep run: give --deep")
    for item in items:
        if "deep" in item.keywords:
            item.add_marker(skip)


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
        for f in (coh.invariant_cell, inv.gen_matrix):
            f.cache_clear()
        coh._C3_CELLS.clear()
        coh._SUBQUOTIENTS.clear()

    yield drop
    drop()
