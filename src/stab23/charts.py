"""Bigraded chart bookkeeping for the homotopy fixed-point spectral sequences.

Positive-filtration classes are monomials alpha^eps * beta^j * delta^k
(bidegrees alpha (1,4), beta (2,12), delta (0,6)); each label carries an
F9- or F3-line whose dimension comes from the group cohomology engine.
The only differentials are d5 and d9, seeded by

    d5(Delta) = a1 * alpha * beta^2      d9(alpha * Delta^2) = a2 * beta^5

with a1, a2 symbolic units; they propagate multiplicatively over the
permanent cycles (alpha, beta, delta^{+-3}, and every transfer image).
The filtration-0 line is carried as symbolic rank data over the
degree-zero power-series base of the invariant ring presentations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import cohomology as coh
from .errors import CheckFailed

SCHEMA_VERSION = 1

THREE_TORSION = tuple(coh.VARIANT_OPS)
TAME = ("SD16", "Q8")

# delta-exponent constraint per group
DELTA_STEP = coh.GROUP_DELTA_STEP

PERIODS = {"C3": 18, "C6": 36, "C12": 36, "G12": 72, "G24": 72, "SD16": 16, "Q8": 8}

UNIT_NAME = {"C3": "d", "C6": "h", "C12": "h", "G12": "D", "G24": "D"}
ZERO_LINE_BASE = {
    "C3": "W[[z]]",
    "C6": "W[[z]]",
    "C12": "Z3[[z]]",
    "G12": "W[[z]]",
    "G24": "Z3[[z]]",
    "SD16": "Z3[[z]]",
    "Q8": "Z3[[z]]",
}


@dataclass(frozen=True, order=True)
class PosClass:
    """alpha^eps * beta^j * delta^k."""

    eps: int
    j: int
    k: int

    @property
    def s(self) -> int:
        return self.eps + 2 * self.j

    @property
    def t(self) -> int:
        return 4 * self.eps + 12 * self.j + 6 * self.k

    @property
    def stem(self) -> int:
        return self.t - self.s

    def name(self, group: str) -> str:
        step = DELTA_STEP[group]
        sym = UNIT_NAME[group]
        power = self.k // step
        parts = []
        if power:
            parts.append(f"{sym}^{power}" if power != 1 else sym)
        if self.j:
            parts.append(f"b^{self.j}" if self.j > 1 else "b")
        if self.eps:
            parts.append("a")
        return "*".join(parts) if parts else "1"


def zero_line_rank(group: str, t: int) -> int:
    """Rank of the degree-t invariant line over the degree-0 base."""
    if group in TAME:
        return 1 if t % 4 == 0 else 0
    step = DELTA_STEP[group]
    count = 0
    for a in (0, 1, 2):
        for b in (0, 1):
            rem = t - 8 * a - 12 * b
            if rem % 6:
                continue
            c = rem // 6
            if c % step == 0:
                count += 1
    return count


@dataclass
class BigradedChart:
    group: str
    page: int
    stem_range: tuple              # inclusive
    classes: dict                  # PosClass -> dim (only surviving classes)
    zero_line: dict                # t -> rank over the base
    annotations: list = field(default_factory=list)
    differentials: list = field(default_factory=list)
    engine_checked: int = 0        # E2 cells recomputed by the engine; not in the JSON

    def cells(self) -> dict:
        out: dict = {}
        for c, d in self.classes.items():
            out.setdefault((c.s, c.t), []).append((c.name(self.group), d))
        return {k: sorted(v) for k, v in sorted(out.items())}

    def stem_entries(self, n: int) -> list:
        out = [
            (c.s, c.name(self.group), d)
            for c, d in self.classes.items()
            if c.stem == n and c.s >= 1
        ]
        return sorted(out)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "group": self.group,
            "page": self.page,
            "stems": list(self.stem_range),
            "cells": [
                {"s": s, "t": t, "classes": [{"name": n, "dim": d} for n, d in v]}
                for (s, t), v in self.cells().items()
            ],
            "zero_line": [
                {"t": t, "rank": r, "base": ZERO_LINE_BASE[self.group]}
                for t, r in sorted(self.zero_line.items())
                if r
            ],
            "differentials": self.differentials,
            "annotations": sorted(self.annotations),
        }


def _class_window(stems: tuple, s_max: int):
    """The monomials alpha^eps * beta^j * delta^k, 1 <= s <= s_max, in the stem window."""
    lo, hi = stems
    for eps in (0, 1):
        for j in range(0, (s_max - eps) // 2 + 1):
            s = eps + 2 * j
            if s < 1 or s > s_max:
                continue
            # stem = 3 eps + 10 j + 6 k
            rem_lo, rem_hi = lo - 3 * eps - 10 * j, hi - 3 * eps - 10 * j
            k0 = -((-rem_lo) // 6)  # ceil(rem_lo / 6)
            for k in range(k0 - 1, rem_hi // 6 + 2):
                c = PosClass(eps, j, k)
                if lo <= c.stem <= hi:
                    yield c


def e2_chart(group: str, stems: tuple = (-1, 73), s_max: int = 24) -> BigradedChart:
    """E2 chart populated from the cohomology engine.

    Positive filtration is read off ``cohomology.pattern_dim``; up to 40
    cells with s <= 4 and -30 <= t <= 42 are recomputed with the exact
    engine and must agree, tying the chart to the computed E2.
    ``engine_checked`` counts them.  Tame groups get charts concentrated
    on the 0-line.
    """
    lo, hi = stems
    zero = {t: zero_line_rank(group, t) for t in range(lo, hi + s_max + 10)}
    if group in TAME:
        return BigradedChart(group, 2, stems, {}, zero)
    classes = {
        c: d for c in _class_window(stems, s_max) if (d := coh.pattern_dim(group, c.s, c.t))
    }
    checked = 0
    for c in sorted(classes):
        if checked >= 40 or c.s > 4 or not (-30 <= c.t <= 42):
            continue
        got = coh.h_dim(group, "SrhoLoc", c.s, c.t)
        if got != classes[c]:
            raise CheckFailed(
                f"engine dim {got} != pattern dim {classes[c]} at {(c.s, c.t)}"
            )
        checked += 1
    return BigradedChart(group, 2, stems, classes, zero, engine_checked=checked)


# -- the differential engine -----------------------------------------------------

def _d5_kills(c: PosClass) -> bool:
    # d5(delta^k) = a1 * k * delta^(k-4) * alpha * beta^2 up to units
    return c.eps == 0 and c.k % 3 != 0


def _d9_kills(c: PosClass) -> bool:
    # on E9, d9(alpha * delta^k) = a2 * beta^5 * delta^(k-8) when k = 2 mod 3
    return c.eps == 1 and c.k % 3 == 2


def _shifted(c: PosClass, shift: tuple, sign: int) -> PosClass:
    return PosClass(c.eps + sign * shift[0], c.j + sign * shift[1], c.k + sign * shift[2])


def run_differentials(chart: BigradedChart, unit_signs: tuple = (1, 1)) -> BigradedChart:
    """Apply d5 then d9; returns the E-infinity chart.

    Each differential is a rule on sources and the (eps, j, k) shift from
    a source to its target.  A class dies as a source the rule kills, or
    as a target: the class one shift below it is a source the rule kills.
    All emitted ranks are independent of the unit signs (the scalars are
    units whenever nonzero); callers re-run with both signs and compare.
    """
    if chart.group in TAME:
        return replace(chart, page=10)
    if chart.page != 2:
        raise ValueError("run_differentials starts from an E2 chart")
    group = chart.group
    a1, a2 = unit_signs
    if a1 not in (1, -1) or a2 not in (1, -1):
        raise ValueError("unit signs must be +1 or -1")
    diff_log = []
    classes = dict(chart.classes)  # pages 2, 3, 4 carry no differentials
    for page, kills, shift in ((5, _d5_kills, (1, 2, -4)), (9, _d9_kills, (-1, 5, -8))):
        survivors = {}
        for c, d in classes.items():
            if kills(c):
                tgt = _shifted(c, shift, 1)
                if chart.classes.get(tgt, coh.pattern_dim(group, tgt.s, tgt.t)) != d:
                    raise CheckFailed(f"d{page} source and target dimensions differ")
                coeff = f"{'+' if (a1 * c.k) % 3 == 1 else '-'}1" if page == 5 else "unit"
                diff_log.append(
                    {"page": page, "from": c.name(group), "to": tgt.name(group), "coeff": coeff}
                )
                continue
            src = _shifted(c, shift, -1)
            if not (src.eps in (0, 1) and src.j >= 0 and kills(src)):
                survivors[c] = d
        classes = survivors
    annotations = list(chart.annotations)
    annotations.append("every transfer-image class is a permanent cycle (enforced)")
    if group in ("G12", "G24"):
        annotations.append(
            "multiplicative extension (D*a)*a = +-b^3 in stem 30 (recorded, unused)"
        )
    elif group == "C3":
        annotations.append(
            "multiplicative extension d^3*(d*a)*a = +-w^6*b^3 in stem 30 (recorded, unused)"
        )
    return replace(chart, page=10, classes=classes, annotations=annotations, differentials=diff_log)


def e_infinity(group: str, stems: tuple = (-1, 73), **kw) -> BigradedChart:
    """E2 -> E-infinity with the unit-independence assertion built in."""
    e2 = e2_chart(group, stems, **kw)
    out = run_differentials(e2, (1, 1))
    for signs in ((1, -1), (-1, 1), (-1, -1)):
        alt = run_differentials(e2, signs)
        if alt.cells() != out.cells():
            raise CheckFailed(f"E-infinity ranks depend on unit choice {signs}")
    return out


# stems whose homotopy vanishes: pi_25 for every group, pi_26 where the
# group contains -1 (all but C3), and pi_1 for the tame groups
VANISHING_STEMS = {
    "C3": (25,), "C6": (25, 26), "C12": (25, 26), "G12": (25, 26), "G24": (25, 26),
    "SD16": (1, 25, 26), "Q8": (1, 25, 26),
}


def _check_stems(chart: BigradedChart) -> None:
    """The vanishing stems inside the window, and the stem-translation
    isomorphism by one period when the window spans two; raises CheckFailed."""
    group, period = chart.group, PERIODS[chart.group]
    lo, hi = chart.stem_range
    by_stem: dict = {}
    for c, d in chart.classes.items():
        by_stem.setdefault(c.stem, []).append((c.s, d))

    def content(n):
        return chart.zero_line.get(n, 0), sorted(by_stem.get(n, []))

    if hi - lo + 1 >= 2 * period:
        for n in range(lo, hi - period + 1):
            if content(n) != content(n + period):
                raise CheckFailed(
                    f"E-infinity of {group} is not {period}-periodic: stems {n} and {n + period} differ"
                )
    for n in VANISHING_STEMS[group]:
        if lo <= n <= hi and content(n) != (0, []):
            raise CheckFailed(f"pi_{n} of the {group} chart does not vanish: {content(n)}")


def verify_chart(group: str, stems: tuple = (-1, 73)) -> tuple:
    """The E-infinity chart of one group and its verdict: (chart, ok).

    ``e2_chart`` raises CheckFailed when an engine cell disagrees with the
    pattern, and so does this function when a stem of ``VANISHING_STEMS``
    inside the window is not zero, or when a window spanning two periods
    is not isomorphic to itself translated by one period.  For G24 on a
    window covering both periodicity blocks (stems -1..113) ok is the
    generator-list check; otherwise ok is True when at least one engine
    cell was compared, and None when none was: tame charts, and windows
    outside the engine's reach.
    """
    chart = e_infinity(group, stems)
    _check_stems(chart)
    if group == "G24" and stems[0] <= -1 and stems[1] >= 113:
        return chart, verify_einf_generator_list(chart)
    return chart, True if chart.engine_checked else None


# -- towers -------------------------------------------------------------------------

RESOLUTION_LAYERS = [
    [("G24", 0)],
    [("SD16", 8), ("G24", 0)],
    [("SD16", 8), ("SD16", 40)],
    [("SD16", 40), ("G24", 48)],
    [("G24", 48)],
]

TOWER_FIBERS = [
    [("G24", 44)],
    [("G24", 45), ("SD16", 37)],
    [("SD16", 6), ("SD16", 38)],
    [("SD16", 7), ("G24", -1)],
]

REDUCED_TOWER_FIBERS = [
    [("G24", 45)],
    [("SD16", 38)],
    [("SD16", 7)],
]


def _suspensions(layers: list) -> list:
    return [[{"group": g, "suspension": sh} for (g, sh) in layer] for layer in layers]


def _tower_base_window(stems: tuple) -> tuple:
    """Stem window of the G24 and SD16 charts the tower layers are read from."""
    shifts = {sh for layer in RESOLUTION_LAYERS for (_, sh) in layer}
    return stems[0] - max(shifts) - 80, stems[1] + 10


def tower_chart(stems: tuple = (-5, 48)) -> dict:
    """The tower report: layer-by-layer homotopy tables for both towers,
    the E1 alternating sums of the induced spectral sequence, and the
    vanishing inputs."""
    lo, hi = stems
    pad_lo, pad_hi = _tower_base_window(stems)
    base = {
        "G24": e_infinity("G24", (pad_lo, pad_hi)),
        "SD16": e_infinity("SD16", (pad_lo, pad_hi)),
    }

    def parts_at(g, n):
        """(zero-line rank, finite F3 dim) of stem n of one base chart."""
        ch = base[g]
        return ch.zero_line.get(n, 0), sum(d for (_, _, d) in ch.stem_entries(n))

    layer_tables = []
    for layer in RESOLUTION_LAYERS:
        tab = {}
        for n in range(lo, hi + 1):
            parts = [parts_at(g, n - sh) for (g, sh) in layer]
            tab[str(n)] = {
                "zero_line_rank": sum(z for z, _ in parts),
                "finite_dim": sum(f for _, f in parts),
            }
        layer_tables.append(tab)
    return {
        "schema": SCHEMA_VERSION,
        "stems": list(stems),
        "layers": _suspensions(RESOLUTION_LAYERS),
        "layer_tables": layer_tables,
        "tower_fibers": _suspensions(TOWER_FIBERS),
        "reduced_tower_fibers": _suspensions(REDUCED_TOWER_FIBERS),
        "alternating_sums": {
            str(n): sum((-1) ** p * layer_tables[p][str(n)]["finite_dim"] for p in range(5))
            for n in range(lo, hi + 1)
        },
        "vanishing_inputs": {
            "pi25_shifted_48": sum(parts_at("G24", 25 - 48)),
            "pi26_shifted_48": sum(parts_at("G24", 26 - 48)),
            "pi27_shifted_48": sum(parts_at("G24", 27 - 48)),
            "pi27_G24_is_one_class": base["G24"].stem_entries(27),
        },
    }


def verify_tower(stems: tuple = (-5, 48)) -> tuple:
    """The tower layers and the vanishing inputs of the resolution:
    (report, ok), with ok True when pi_25 and pi_26 of the 48-fold
    suspension vanish and pi_27 of E^hG24 is the one class D*a in
    filtration 1.

    ok is None when the base charts do not reach stems -23..27, where
    the vanishing inputs live: a window ending below stem 17 or starting
    above 105.
    """
    report = tower_chart(stems)
    v = report["vanishing_inputs"]
    lo, hi = _tower_base_window(stems)
    if not (lo <= 25 - 48 and 27 <= hi):
        return report, None
    ok = (
        v["pi25_shifted_48"] == 0
        and v["pi26_shifted_48"] == 0
        and v["pi27_G24_is_one_class"] == [(1, "D*a", 1)]
    )
    return report, ok


# -- headline extraction -------------------------------------------------------------

def einf_positive_generator_labels(group: str = "G24") -> set:
    """The stated E-infinity positive-filtration generators over two
    periodicity blocks: alpha, U*alpha, alpha*beta, U*alpha*beta and
    beta^j (1 <= j <= 4), all times U^{+-3}, where U is Delta for the
    order-24 group and delta for the cyclic subgroup of order 3."""
    if group not in ("G24", "C3"):
        raise ValueError("the stated generator lists cover G24 and C3")
    step = DELTA_STEP[group]
    gens = set()
    for block in (0, 3 * step):
        gens |= {
            PosClass(1, 0, block),
            PosClass(1, 0, step + block),
            PosClass(1, 1, block),
            PosClass(1, 1, step + block),
        }
        gens |= {PosClass(0, j, block) for j in range(1, 5)}
    return gens


def verify_einf_generator_list(chart: BigradedChart) -> bool:
    """Engine survivors over two periods equal the stated generator list.

    Also checks the named exclusion: beta^5 times any periodicity power
    is absent from E-infinity.
    """
    group = chart.group
    step = DELTA_STEP[group]
    window_k = 6 * step  # two periodicity blocks in the delta exponent
    expected = einf_positive_generator_labels(group)
    lo, hi = chart.stem_range
    if any(not lo <= c.stem <= hi for c in expected):
        raise ValueError("chart window does not cover both periodicity blocks")
    got = {c for c in chart.classes if 0 <= c.k < window_k and c.s >= 1}
    if got != expected:
        return False
    return all(
        PosClass(0, 5, 3 * step * i) not in chart.classes for i in (-1, 0, 1)
    )
