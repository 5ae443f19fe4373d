#!/usr/bin/env python3
"""Drive every CLI verification suite; reports land in out/."""

import subprocess
import sys
from pathlib import Path

SUITES = [
    ["group", "verify-relations"],
    ["group", "subgroup", "G24"],
    ["group", "subgroup", "SD16"],
    ["group", "quotient", "--level", "2"],
    ["invariants", "--ring", "Srho", "--group", "C3", "--max-degree", "24"],
    ["invariants", "--ring", "tame", "--group", "SD16", "--max-degree", "24"],
    ["cohomology", "--group", "C3", "--smax", "8", "--tmin", "-12", "--tmax", "12"],
    ["cohomology", "--group", "G24", "--smax", "8", "--tmin", "-24", "--tmax", "24"],
    ["chart", "--group", "G24", "--stems=-1..73"],
    ["chart", "--tower", "--stems=-4..30"],
    ["resolution", "--levels", "5/2,2,3/2", "--mod", "1"],
    ["resolution", "--levels", "2,3/2", "--mod", "2"],
    ["sylow-cohomology", "--levels", "1,3/2,2"],
]
# a suite whose report name an earlier suite also writes, and the
# subdirectory of the output directory it writes into instead
SUBDIRS = {("resolution", "--levels", "2,3/2", "--mod", "2"): "resolution-mod2"}

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    out = sys.argv[1] if len(sys.argv) > 1 else "out"
    failures = 0
    for suite in SUITES:
        print(f"\n=== stab23 {' '.join(suite)}")
        dest = str(Path(out) / SUBDIRS.get(tuple(suite), ""))
        rc = subprocess.call(
            [sys.executable, "-m", "stab23.cli", "--out", dest] + suite, cwd=root
        )
        failures += rc != 0
    print(f"\n{len(SUITES) - failures}/{len(SUITES)} suites passed")
    raise SystemExit(1 if failures else 0)
