"""Arithmetic in the stabilizer algebra O2 and the extended group G2.

O2 is W<S> subject to S^2 = 3 and S*a = frobenius(a)*S; an element of
the extended group G2 = units(O2) x| Gal(F9/F3) is a pair (a + b*S, e)
with e in {0,1} the Galois exponent.  The product of unit parts follows

    (a + b*S)(c + d*S) = (a*c + 3*b*phi(d)) + (a*d + b*phi(c))*S.

Also implemented: the reduced determinant and its torsion/principal
splitting, bounded subgroup closure and the named finite subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import witt
from .errors import CheckFailed, ClosureBoundExceeded, NonUnitError, PrecisionMismatch
from .witt import DEFAULT_PRECISION, WittElement

CLOSURE_CAP = 10_000


@dataclass(frozen=True)
class StabilizerElement:
    a: WittElement
    b: WittElement
    galois: int = 0

    def __post_init__(self):
        if self.a.precision != self.b.precision:
            raise PrecisionMismatch("a and b disagree in precision")
        object.__setattr__(self, "galois", self.galois % 2)

    @property
    def precision(self) -> int:
        return self.a.precision

    def key(self) -> tuple:
        return (self.a.c0, self.a.c1, self.b.c0, self.b.c1, self.galois)

    def is_unit(self) -> bool:
        return self.a.is_unit()

    def frobenius(self) -> "StabilizerElement":
        """Coefficientwise Galois action on the unit part (exponent kept)."""
        return StabilizerElement(self.a.frobenius(), self.b.frobenius(), self.galois)

    def _unit_mul(self, other: "StabilizerElement"):
        a, b = self.a, self.b
        c, d = other.a, other.b
        three = witt.from_int(3, self.precision)
        return (a * c + three * b * d.frobenius(), a * d + b * c.frobenius())

    def __mul__(self, other: "StabilizerElement") -> "StabilizerElement":
        if self.precision != other.precision:
            raise PrecisionMismatch("mixed precisions in stabilizer product")
        rhs = other.frobenius() if self.galois else other
        rhs = StabilizerElement(rhs.a, rhs.b, 0)
        a, b = self._unit_mul(rhs)
        return StabilizerElement(a, b, self.galois + other.galois)

    def det(self) -> int:
        """a*phi(a) - 3*b*phi(b), a Galois-invariant element of Z/3^N."""
        d = (self.a.norm() - 3 * self.b.norm()) % self.a.modulus
        return d

    def inv(self) -> "StabilizerElement":
        if not self.is_unit():
            raise NonUnitError("only units are invertible in O2")
        d_inv = pow(self.det(), -1, self.a.modulus)
        scale = witt.from_int(d_inv, self.precision)
        ua = self.a.frobenius() * scale
        ub = -self.b * scale
        u = StabilizerElement(ua, ub, 0)
        if self.galois:
            u = u.frobenius()
        return StabilizerElement(u.a, u.b, self.galois)

    def __pow__(self, n: int) -> "StabilizerElement":
        if n < 0:
            return self.inv() ** (-n)
        result = identity(self.precision)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self) -> str:
        tail = f", phi^{self.galois}" if self.galois else ""
        return f"Stab({self.a.encode()} + ({self.b.encode()})*S{tail})"


def identity(precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    return StabilizerElement(witt.one(precision), witt.zero(precision), 0)


def from_witt(a: WittElement) -> StabilizerElement:
    return StabilizerElement(a, witt.zero(a.precision), 0)


def S_element(precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    return StabilizerElement(witt.zero(precision), witt.one(precision), 0)


def omega_element(precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    return from_witt(witt.omega(precision))


def s_element(precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    """s = -(1 + omega*S)/2, the chosen element of order 3."""
    minus_half = -witt.from_int(2, precision).inv()
    return StabilizerElement(minus_half, minus_half * witt.omega(precision), 0)


def t_element(precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    return from_witt(witt.omega(precision) ** 2)


def phi_element(precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    return StabilizerElement(witt.one(precision), witt.zero(precision), 1)


def psi_element(precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    """psi = omega * phi."""
    return StabilizerElement(witt.omega(precision), witt.zero(precision), 1)


def central(n: int, precision: int = DEFAULT_PRECISION) -> StabilizerElement:
    return from_witt(witt.from_int(n, precision))


def reduced_det(g: StabilizerElement) -> tuple:
    """Split det(g) in Z_3^x as (torsion in {+1,-1}, principal in 1+3Z).

    g lies in G2^1 exactly when the principal part is 1.
    """
    if not g.is_unit():
        raise NonUnitError("reduced_det needs a unit")
    d = g.det()
    M = g.a.modulus
    torsion = 1 if d % 3 == 1 else -1
    principal = (d * torsion) % M
    return torsion, principal


def subgroup_closure(generators, cap: int = CLOSURE_CAP) -> list:
    """Full element list of the subgroup generated at this precision."""
    gens = list(generators)
    if not gens:
        return [identity()]
    for g in gens:
        if not g.is_unit():
            raise NonUnitError("subgroup generators must be units")
    seen = {}
    frontier = [identity(gens[0].precision)]
    seen[frontier[0].key()] = frontier[0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                k = y.key()
                if k not in seen:
                    if len(seen) >= cap:
                        raise ClosureBoundExceeded(f"closure exceeded {cap} elements")
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    return [seen[k] for k in sorted(seen)]


@lru_cache(maxsize=None)
def named_subgroup(name: str, precision: int = DEFAULT_PRECISION) -> tuple:
    """Element tuple of one of the named finite subgroups of G2."""
    s, t, psi = s_element(precision), t_element(precision), psi_element(precision)
    om, phi = omega_element(precision), phi_element(precision)
    gens = {
        "C3": [s],
        "C6": [s, t * t],
        "C12": [s, psi],
        "G12": [s, t],
        "G24": [s, t, psi],
        "Q8": [t, psi],
        "SD16": [om, phi],
    }
    if name not in gens:
        raise KeyError(f"unknown subgroup {name!r}")
    return tuple(subgroup_closure(gens[name]))


SUBGROUP_ORDERS = {"C3": 3, "C6": 6, "C12": 12, "G12": 12, "G24": 24, "Q8": 8, "SD16": 16}


def g2_relations_check(precision: int = DEFAULT_PRECISION) -> dict:
    """Exact verification of the defining relations at this precision."""
    one = identity(precision)
    S = S_element(precision)
    om = omega_element(precision)
    s = s_element(precision)
    t = t_element(precision)
    psi = psi_element(precision)
    phi = phi_element(precision)
    s2 = om * s * om.inv()
    checks = {
        "S^2 = 3": S * S == central(3, precision),
        "s^3 = 1": s**3 == one,
        "omega^8 = 1": om**8 == one,
        "omega^4 = -1": om**4 == central(-1, precision),
        "omega^2 s omega^6 = s^2": t * s * om**6 == s * s,
        "psi s = s psi": psi * s == s * psi,
        "t psi = psi t^3": t * psi == psi * t**3,
        "psi^2 = t^2": psi * psi == t * t,
        "phi(s) = s2^2": s.frobenius() == s2 * s2,
    }
    return checks


def _check_unit_identities(precision: int) -> None:
    """On fixed sample elements a = c0 + c1 w: S a = phi(a) S and
    det(c0) = c0^2; and det omega = -1, with reduced determinant (-1, 1).
    Raises CheckFailed."""
    S, M = S_element(precision), 3**precision
    for c0, c1 in ((1, 0), (2, 1), (4, 7), (5, 3), (10, 11), (-1, 6), (13, -2), (0, 1)):
        a = witt.WittElement(c0, c1, precision)
        if S * from_witt(a) != from_witt(a.frobenius()) * S:
            raise CheckFailed(f"S a != phi(a) S at a = {a.encode()}")
        if central(c0, precision).det() != c0 * c0 % M:
            raise CheckFailed(f"det of the central element {c0} is not {c0}^2")
    om = omega_element(precision)
    if om.det() != M - 1 or reduced_det(om) != (-1, 1):
        raise CheckFailed(f"det omega = {om.det()}, reduced {reduced_det(om)}; want -1, (-1, 1)")


def verify_relations(precision: int = DEFAULT_PRECISION) -> tuple:
    """The defining relations of G2 and the orders of five named
    subgroups: (report, ok); something is always compared.  The identities
    of ``_check_unit_identities`` must hold, or CheckFailed is raised."""
    _check_unit_identities(precision)
    checks = g2_relations_check(precision)
    orders = {
        name: len(named_subgroup(name, precision)) for name in ("G12", "G24", "SD16", "Q8", "C3")
    }
    ok = all(checks.values()) and all(orders[k] == SUBGROUP_ORDERS[k] for k in orders)
    return {"relations": checks, "subgroup_orders": orders}, ok


def verify_subgroup(name: str, precision: int = DEFAULT_PRECISION) -> tuple:
    """The element listing of one named subgroup, with its order and the
    principal part 1 of every reduced determinant checked: (report, ok)."""
    elems = named_subgroup(name, precision)
    listing = [
        {"a": g.a.encode(), "b": g.b.encode(), "galois": g.galois, "det_split": reduced_det(g)}
        for g in elems
    ]
    ok = len(elems) == SUBGROUP_ORDERS[name] and all(e["det_split"][1] == 1 for e in listing)
    return {"name": name, "order": len(elems), "elements": listing}, ok


def normalize_to_s21(g: StabilizerElement) -> StabilizerElement:
    """Scale by a central unit in 1+3Z so the principal determinant is 1.

    Requires g in the 3-Sylow part (a = 1 mod 3); the result lies in
    S2^1 and has the same image in every quotient of S2^1 by a central
    correction.
    """
    _, principal = reduced_det(g)
    u = witt.sqrt_principal(principal, g.precision)
    scale = witt.from_int(pow(u, -1, g.a.modulus), g.precision)
    out = StabilizerElement(g.a * scale, g.b * scale, g.galois)
    assert reduced_det(out)[1] == 1
    return out
