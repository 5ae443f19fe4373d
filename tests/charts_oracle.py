"""The differential engine of ``stab23.charts`` as first written.

Four congruences, two per differential: ``d5_kills`` and ``d9_kills`` on
sources, and ``d5_hit`` and ``d9_hit`` on targets, each target rule a
separate congruence rather than the source rule read one shift below.
``run_differentials`` applies them in two loops, d5 on E5 and d9 on E9,
and returns the E-infinity classes and the differential log.  Tests
compare these with ``charts.run_differentials`` for exact equality.  They
are a test oracle only.
"""

from __future__ import annotations

from stab23.charts import PosClass


def d5_kills(c: PosClass) -> bool:
    return c.eps == 0 and c.k % 3 != 0


def d5_hit(c: PosClass) -> bool:
    return c.eps == 1 and c.j >= 2 and (c.k + 4) % 3 != 0


def d9_kills(c: PosClass) -> bool:
    return c.eps == 1 and c.k % 3 == 2


def d9_hit(c: PosClass) -> bool:
    return c.eps == 0 and c.j >= 5 and c.k % 3 == 0


def run_differentials(chart, unit_signs: tuple = (1, 1)) -> tuple:
    """(E-infinity classes, differential log) of an E2 chart."""
    group = chart.group
    a1 = unit_signs[0]
    diff_log = []
    e9 = {}
    for c, d in chart.classes.items():
        if d5_kills(c):
            tgt = PosClass(1, c.j + 2, c.k - 4)
            coeff = (a1 * c.k) % 3
            diff_log.append(
                {"page": 5, "from": c.name(group), "to": tgt.name(group),
                 "coeff": f"{'+' if coeff == 1 else '-'}1"}
            )
        elif not d5_hit(c):
            e9[c] = d
    einf = {}
    for c, d in e9.items():
        if d9_kills(c):
            tgt = PosClass(0, c.j + 5, c.k - 8)
            diff_log.append(
                {"page": 9, "from": c.name(group), "to": tgt.name(group), "coeff": "unit"}
            )
        elif not d9_hit(c):
            einf[c] = d
    return einf, diff_log
