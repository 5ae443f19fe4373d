"""Deep runs: minutes and gigabytes each, skipped unless ``--deep`` is
given (``tests/conftest.py``), so the tier-1 command never runs them.

    PYTHONPATH=src python -m pytest tests/test_deep.py --deep
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

# the resident-set bound of the level-3 tower at m = 1
LEVEL3_RSS_BOUND_KB = int(2.5 * 2**20)


@pytest.mark.deep
def test_level_three_tower_from_the_cli(tmp_path):
    # the tower 3 -> 5/2 -> 2 over Z/3 spans a full level and must pass;
    # its reports are pinned byte for byte.  ru_maxrss of the children is
    # the largest over every child this process has waited for, so the
    # bound holds for this one a fortiori
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["resolution", "--levels", "3,5/2,2", "--mod", "1"]
    r = subprocess.run(
        [sys.executable, "-m", "stab23.cli", "--out", str(tmp_path)] + argv,
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    for ext in ("json", "txt"):
        got = (tmp_path / f"resolution.{ext}").read_bytes()
        assert got == (FIXTURES / f"resolution_mod1_level3.{ext}").read_bytes()
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < LEVEL3_RSS_BOUND_KB
