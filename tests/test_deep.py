"""Deep runs: minutes and gigabytes each, skipped unless ``--deep`` is
given (``tests/conftest.py``), so the tier-1 command never runs them.

    PYTHONPATH=src python -m pytest tests/test_deep.py --deep
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

# the resident-set bounds of the level-3 tower, which peaks near 0.9 GB at
# m = 1 and 1.3 GB at m = 2: an F3 span kept alive with an int64 copy of
# its rows past the step that built it (1.2 GB at m = 1, 1.5 GB at m = 2),
# a per-element action cache (2.5 GB at m = 1) or int64 and float64 copies
# of the vectors in each span test (1.8 GB at m = 1) exceed them
LEVEL3_RSS_BOUND_KB = int(1.0 * 2**20)
LEVEL3_MOD2_RSS_BOUND_KB = int(1.4 * 2**20)


def _tower_from_the_cli(tmp_path, m: int, fixture: str, bound_kb: int):
    """Run the tower 3 -> 5/2 -> 2 over Z/3^m from the CLI, compare its
    reports with the fixture byte for byte, and bound the peak resident
    set of that one child, as ``os.wait4`` reports it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["resolution", "--levels", "3,5/2,2", "--mod", str(m)]
    log = tmp_path / "output.log"
    with open(log, "wb") as out:
        p = subprocess.Popen(
            [sys.executable, "-m", "stab23.cli", "--out", str(tmp_path)] + argv,
            cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
        _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    assert p.returncode == 0, log.read_text()
    for ext in ("json", "txt"):
        got = (tmp_path / f"resolution.{ext}").read_bytes()
        assert got == (FIXTURES / f"{fixture}.{ext}").read_bytes()
    assert usage.ru_maxrss < bound_kb


@pytest.mark.deep
def test_level_three_tower_from_the_cli(tmp_path):
    # the tower over Z/3 spans a full level and must pass
    _tower_from_the_cli(tmp_path, 1, "resolution_mod1_level3", LEVEL3_RSS_BOUND_KB)


@pytest.mark.deep
def test_level_three_tower_mod_nine_from_the_cli(tmp_path):
    # over Z/9 the full step 3 -> 2 leaves pos1 alive; the report pins it
    _tower_from_the_cli(tmp_path, 2, "resolution_mod2_level3", LEVEL3_MOD2_RSS_BOUND_KB)
