"""Independent checks of the stab23 suite reports.

Each `check_*` function takes a parsed JSON report plus the suite's own
parameters and returns a list of problems; an empty list means the report
passed.  Every expected value is computed here from first principles
(enumeration of the finite quotients, brute-force group theory, orbit and
monomial counts, series coefficients) or is a value the paper states,
never read from a stored copy of a report.  Only the standard library is
used, so nothing here shares code with stab23.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product


# -- the finite quotients G(l), by plain enumeration -------------------------

def level_moduli(level) -> tuple:
    """(3^alpha, 3^beta): the truncations of the a and b coordinates at level l."""
    lv = Fraction(level)
    return 3 ** math.ceil(lv), 3 ** math.ceil(lv - Fraction(1, 2))


@lru_cache(maxsize=None)
def unit_coordinates(level) -> tuple:
    """The classes a + bS (a = a0 + a1 i, b = b0 + b1 i, i^2 = -1) modulo
    level l whose reduced determinant a*conj(a) - 3 b*conj(b) is +-1."""
    Ma, Mb = level_moduli(level)
    out = []
    for a0, a1, b0, b1 in product(range(Ma), range(Ma), range(Mb), range(Mb)):
        if a0 % 3 == 0 and a1 % 3 == 0:
            continue
        det = (a0 * a0 + a1 * a1 - 3 * (b0 * b0 + b1 * b1)) % Ma
        if det in (1 % Ma, Ma - 1):
            out.append((a0, a1, b0, b1))
    return tuple(out)


def quotient_order(level) -> int:
    """|G(l)|: the determinant-+-1 units, each with or without the Galois twist."""
    return 2 * len(unit_coordinates(level))


def sylow_elements(level) -> tuple:
    """P(l): Galois-trivial classes with a = 1 mod 3."""
    return tuple(x for x in unit_coordinates(level) if x[0] % 3 == 1 and x[1] % 3 == 0)


def sylow_mul(level):
    """Product in P(l): (a + bS)(c + dS) = (ac + 3 b phi(d)) + (ad + b phi(c)) S,
    with S^2 = 3, S c = phi(c) S and phi(x0 + x1 i) = x0 - x1 i."""
    Ma, Mb = level_moduli(level)

    def mul(x, y):
        a0, a1, b0, b1 = x
        c0, c1, d0, d1 = y
        return (
            (a0 * c0 - a1 * c1 + 3 * (b0 * d0 + b1 * d1)) % Ma,
            (a0 * c1 + a1 * c0 + 3 * (b1 * d0 - b0 * d1)) % Ma,
            (a0 * d0 - a1 * d1 + b0 * c0 + b1 * c1) % Mb,
            (a0 * d1 + a1 * d0 + b1 * c0 - b0 * c1) % Mb,
        )

    return mul


def _table(elems, mul) -> list:
    index = {x: i for i, x in enumerate(elems)}
    return [[index[mul(x, y)] for y in elems] for x in elems]


def frattini_rank(elems, mul) -> int:
    """d with P / Phi(P) = (Z/3)^d, Phi(P) generated by cubes and commutators."""
    table = _table(elems, mul)
    n = len(elems)
    ident = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inv = [row.index(ident) for row in table]
    gens = {table[table[i][i]][i] for i in range(n)}
    gens |= {table[table[inv[i]][inv[j]]][table[i][j]] for i in range(n) for j in range(n)}
    phi, frontier = {ident}, [ident]
    while frontier:
        fresh = {table[x][g] for x in frontier for g in gens} - phi
        phi |= fresh
        frontier = list(fresh)
    index = n // len(phi)
    d = round(math.log(index, 3))
    if n % len(phi) or 3 ** d != index:
        raise ValueError(f"index {n}/{len(phi)} of the Frattini subgroup is not a power of 3")
    return d


def is_elementary_abelian(elems, mul) -> bool:
    table = _table(elems, mul)
    n = len(elems)
    ident = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    commutes = all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
    return commutes and all(table[table[i][i]][i] == ident for i in range(n))


# -- series, orbit counts and bidegree counts --------------------------------

def target_dims(nmax: int) -> list:
    """Coefficients of (1 + 2t + 2t^2 + 2t^3 + t^4) / (1 - t^2) up to t^nmax."""
    num = [1, 2, 2, 2, 1]
    return [sum(num[k] for k in range(n % 2, min(n, 4) + 1, 2)) for n in range(nmax + 1)]


def c3_orbits(d: int) -> int:
    """Orbits of the cyclic shift on the degree-d monomials in three variables."""
    seen = set()
    for i in range(d + 1):
        for j in range(d - i + 1):
            e = (i, j, d - i - j)
            seen.add(min(e, e[1:] + e[:1], e[2:] + e[:2]))
    return len(seen)


def g24_cell_count(s: int, t: int) -> int:
    """Monomials alpha^i beta^j Delta^k (alpha^2 = 0, Delta invertible) in
    bidegree (s, t), with alpha in (1, 4), beta in (2, 12), Delta in (0, 24)."""
    return sum(
        1
        for i in (0, 1)
        for j in range(s // 2 + 1)
        if i + 2 * j == s and (t - 4 * i - 12 * j) % 24 == 0
    )


_CLASS_FACTOR = re.compile(r"^(D|b|a)(?:\^(-?\d+))?$")


def class_bidegree(name: str) -> tuple:
    """(s, t) of a chart class named as a product of D, b and a."""
    s = t = 0
    for factor in name.split("*"):
        m = _CLASS_FACTOR.match(factor)
        if m is None:
            raise ValueError(f"unparsable class name {name!r}")
        k = int(m.group(2) or 1)
        ds, dt = {"D": (0, 24), "b": (2, 12), "a": (1, 4)}[m.group(1)]
        s, t = s + k * ds, t + k * dt
    return s, t


# -- report checks -------------------------------------------------------------

def check_resolution(report: dict, levels: list, modulus: int) -> list:
    """The `resolution` report at the given levels (fine to coarse) and 3^modulus."""
    bad = []
    if report.get("modulus") != modulus:
        bad.append(f"modulus {report.get('modulus')} != {modulus}")
    per_level = report.get("levels", {})
    if set(per_level) != set(levels):
        bad.append(f"levels {sorted(per_level)} != {sorted(levels)}")
    built = {lv: data for lv, data in per_level.items() if "construction_refused" not in data}
    if levels[0] not in built:
        bad.append(f"top level {levels[0]} was not constructed")
    for lv, data in built.items():
        n = quotient_order(lv)
        want = [n // 24, n // 16, n // 16, n // 24]
        if data.get("dims") != want:
            bad.append(f"level {lv}: dims {data.get('dims')} != {want} from |G| = {n}")
        hom = data.get("homology", {})
        for key in ("pos0", "coker_aug"):
            if hom.get(key) != []:
                bad.append(f"level {lv}: homology {key} = {hom.get(key)} is not empty")
        comp = data.get("composites_zero", {})
        if not comp or not all(v is True for v in comp.values()):
            bad.append(f"level {lv}: composites {comp} are not all zero")
        naka = data.get("nakayama", {})
        if set(naka) != {"stage1", "stage2", "stage3"} or not all(
            v.get("nakayama_consistent") is True for v in naka.values()
        ):
            bad.append(f"level {lv}: Nakayama inconsistent at a splice: {naka}")
        if data.get("ok") is not True:
            bad.append(f"level {lv}: verdict {data.get('ok')}")
    tr = report.get("transitions")
    if len(levels) >= 2:
        if not tr or tr.get("levels") != levels:
            bad.append(f"transition tower {tr and tr.get('levels')} != {levels}")
        elif tr.get("chain_maps_ok") is not True:
            bad.append("transition maps are not chain maps")
        elif modulus == 1 and Fraction(levels[0]) - Fraction(levels[-1]) >= 1:
            comp = tr.get("composite_zero", {})
            if set(comp) != {"pos1", "pos2", "pos3"} or not all(v is True for v in comp.values()):
                bad.append(f"composite transition {levels[0]} -> {levels[-1]} not zero: {comp}")
    return bad


SYLOW_ORDERS = {"1": 9, "3/2": 27, "2": 243}


def check_sylow(report: dict, levels: list, nmax: int) -> list:
    """The `sylow-cohomology` report at the given levels (coarse to fine)."""
    bad = []
    raw = report.get("raw_dims", {})
    if set(raw) != set(levels):
        bad.append(f"levels {sorted(raw)} != {sorted(levels)}")
        return bad
    for lv in levels:
        elems = sylow_elements(lv)
        if len(elems) != SYLOW_ORDERS.get(lv):
            bad.append(f"|P({lv})| = {len(elems)} by enumeration, expected {SYLOW_ORDERS.get(lv)}")
            continue
        dims = raw[lv]
        if len(dims) != nmax + 1 or dims[0] != 1:
            bad.append(f"P({lv}): raw dims {dims} need nmax+1 entries and H^0 = 1")
            continue
        d = frattini_rank(elems, sylow_mul(lv))
        if dims[1] != d:
            bad.append(f"P({lv}): H^1 = {dims[1]} != Frattini rank {d}")
    order9 = [lv for lv in levels if SYLOW_ORDERS.get(lv) == 9]
    for lv in order9:
        if not is_elementary_abelian(sylow_elements(lv), sylow_mul(lv)):
            bad.append(f"P({lv}) is not elementary abelian")
        if raw[lv] != [n + 1 for n in range(nmax + 1)]:
            bad.append(f"P({lv}): Kuenneth dims {raw[lv]} != n+1")
    target = target_dims(nmax)
    if report.get("target") != target:
        bad.append(f"target {report.get('target')} != series coefficients {target}")
    through = report.get("through_image_ranks", {})
    if set(through) != set(levels[:-1]):
        bad.append(f"stable-image levels {list(through)} != {levels[:-1]}")
        return bad
    seq = [through[lv] for lv in levels[:-1]]
    for n in range(nmax + 1):
        col = [ranks[n] for ranks in seq]
        if any(a > b for a, b in zip(col, col[1:])):
            bad.append(f"n={n}: stable-image ranks {col} decrease with the level")
        if any(v > target[n] for v in col):
            bad.append(f"n={n}: stable-image ranks {col} exceed the target {target[n]}")
    for n in (0, 1):
        if seq and seq[-1][n] != target[n]:
            bad.append(f"n={n}: stable-image rank {seq[-1][n]} misses the target {target[n]}")
    return bad


def check_invariants_sf_c3(report: dict, max_degree: int) -> list:
    """`invariants --ring SF --group C3`: each rank is a C3-orbit count."""
    rows = report.get("rows", [])
    degrees = [r.get("degree") for r in rows]
    want_degrees = list(range(0, -max_degree - 1, -2))
    if degrees != want_degrees:
        return [f"degrees {degrees} != {want_degrees}"]
    return [
        f"t={r['degree']}: rank {r.get('rank')} != {c3_orbits(-r['degree'] // 2)} C3-orbits"
        for r in rows
        if r.get("rank") != c3_orbits(-r["degree"] // 2)
    ]


def check_cohomology_g24(report: dict, smax: int, tmin: int, tmax: int) -> list:
    """`cohomology --group G24`: every cell in the window is the alpha-beta-Delta count."""
    bad = []
    got = {}
    for c in report.get("cells", []):
        key = (c.get("s"), c.get("t"))
        if key in got or not (1 <= key[0] <= smax and tmin <= key[1] <= tmax):
            bad.append(f"cell {key} repeated or outside the window")
        got[key] = c.get("rank")
    for s in range(1, smax + 1):
        for t in range(tmin, tmax + 1, 2):
            want = g24_cell_count(s, t)
            if got.get((s, t), 0) != want:
                bad.append(f"cell (s={s}, t={t}): rank {got.get((s, t), 0)} != {want}")
    return bad


def check_chart_g24(report: dict, stems: tuple) -> list:
    """`chart --group G24`: each class sits in the bidegree its name gives."""
    bad = []
    cells = report.get("cells", [])
    if not cells:
        bad.append("empty E-infinity chart")
    for c in cells:
        for cls in c.get("classes", []):
            try:
                st = class_bidegree(cls.get("name", ""))
            except ValueError as exc:
                bad.append(str(exc))
                continue
            if st != (c.get("s"), c.get("t")) or not stems[0] <= st[1] - st[0] <= stems[1]:
                bad.append(f"class {cls.get('name')} at {(c.get('s'), c.get('t'))}, name gives {st}")
    return bad


def check_tower(report: dict) -> list:
    """`chart --tower`: the vanishing inputs take the values the paper states."""
    bad = []
    vi = report.get("vanishing_inputs", {})
    for key in ("pi25_shifted_48", "pi26_shifted_48"):
        if vi.get(key) != 0:
            bad.append(f"{key} = {vi.get(key)}, the paper has 0")
    one = vi.get("pi27_G24_is_one_class")
    if not one or len(one) != 1 or one[0][-1] != 1:
        bad.append(f"pi27 of E^hG24 is {one}, the paper has one class")
    else:
        s, t = class_bidegree(one[0][1])
        if t - s != 27:
            bad.append(f"pi27 class {one[0][1]} lies in stem {t - s}")
    return bad
