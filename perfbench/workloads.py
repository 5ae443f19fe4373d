"""The benchmark's workloads: stab23 CLI suites run one after another.

Each suite is the argument list a user would give the `stab23` command,
the JSON report it writes, and the check of that report.  The inputs are
the fixed windows of the verification protocol; nothing here is random.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Suite:
    argv: tuple
    report: str
    check: Callable


WORKLOADS = {
    "resolution": (
        Suite(("resolution", "--levels", "2,3/2,1", "--mod", "1"), "resolution.json",
              partial(checks.check_resolution, levels=["2", "3/2", "1"], modulus=1)),
        Suite(("resolution", "--levels", "2,3/2", "--mod", "2"), "resolution.json",
              partial(checks.check_resolution, levels=["2", "3/2"], modulus=2)),
    ),
    "sylow": (
        Suite(("sylow-cohomology", "--levels", "1,3/2,2", "--nmax", "3"), "sylow-cohomology.json",
              partial(checks.check_sylow, levels=["1", "3/2", "2"], nmax=3)),
    ),
    "tables": (
        Suite(("invariants", "--ring", "SF", "--group", "C3", "--max-degree", "36"),
              "invariants-SF-C3.json", partial(checks.check_invariants_sf_c3, max_degree=36)),
        Suite(("cohomology", "--group", "G24", "--smax", "8", "--tmin", "-24", "--tmax", "24"),
              "cohomology-G24.json",
              partial(checks.check_cohomology_g24, smax=8, tmin=-24, tmax=24)),
        Suite(("chart", "--group", "G24", "--stems=-1..73"), "chart-G24.json",
              partial(checks.check_chart_g24, stems=(-1, 73))),
        Suite(("chart", "--tower", "--stems=-4..30"), "chart-tower.json", checks.check_tower),
    ),
}
