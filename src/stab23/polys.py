"""Graded polynomial carriers for the Lubin-Tate ring models.

Two carriers share WittElement coefficients:

* ``WPoly`` over x1,x2,x3 (the symmetric-algebra model, deg x_i = -2),
  or over x1,x2 after the substitution x3 = -x1-x2 (the quotient by
  the first elementary symmetric function).  Exponents may be negative,
  so a 2-variable ``WPoly`` also writes u1^i u^j, j of either sign;
* ``LocPoly``: a pair (numerator, r) representing f / sigma3^r, with no
  normal form; two pairs are compared by clearing denominators.

The matrices of the group actions and of multiplication on these models
are built in closed form by ``invariants``, not from the carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import witt
from .errors import PrecisionMismatch
from .witt import WittElement


class WPoly:
    """Finitely supported map from exponent tuples to WittElement."""

    __slots__ = ("coeffs", "nvars", "precision")

    def __init__(self, nvars: int, precision: int, coeffs=None):
        self.nvars = nvars
        self.precision = precision
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                if len(mono) != nvars:
                    raise ValueError("monomial arity mismatch")
                if c.precision != precision:
                    raise PrecisionMismatch("coefficient precision mismatch")
                if not c.is_zero():
                    self.coeffs[tuple(mono)] = c

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, c: WittElement, nvars: int):
        return cls(nvars, c.precision, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, i: int, nvars: int, precision: int):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, precision, {tuple(mono): witt.one(precision)})

    # -- basic ring ops ---------------------------------------------------
    def _check(self, other: "WPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.precision != other.precision:
            raise PrecisionMismatch("poly precision mismatch")

    def __add__(self, other: "WPoly") -> "WPoly":
        self._check(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        return WPoly(self.nvars, self.precision, out)

    def __neg__(self) -> "WPoly":
        return WPoly(
            self.nvars, self.precision, {m: -c for m, c in self.coeffs.items()}
        )

    def __sub__(self, other: "WPoly") -> "WPoly":
        return self + (-other)

    def __mul__(self, other: "WPoly") -> "WPoly":
        self._check(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return WPoly(self.nvars, self.precision, out)

    def scale(self, c: WittElement) -> "WPoly":
        return WPoly(
            self.nvars, self.precision, {m: c * v for m, v in self.coeffs.items()}
        )

    def __pow__(self, n: int) -> "WPoly":
        out = WPoly.constant(witt.one(self.precision), self.nvars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WPoly)
            and self.nvars == other.nvars
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.precision, frozenset(self.coeffs.items())))

    # -- structure ---------------------------------------------------------
    def render(self, names=None) -> str:
        if self.is_zero():
            return "0"
        names = names or [f"x{i+1}" for i in range(self.nvars)]
        terms = []
        for m in sorted(self.coeffs, reverse=True):
            c = self.coeffs[m]
            mono = "*".join(
                f"{names[i]}^{e}" if e != 1 else names[i]
                for i, e in enumerate(m)
                if e
            )
            coef = f"({c.c0}+{c.c1}w)"
            terms.append(f"{coef}{'*' + mono if mono else ''}")
        return " + ".join(terms)

    def __repr__(self):
        return f"WPoly({self.render()})"


def expand_x3(e1: int, e2: int, e3: int) -> list:
    """x1^e1 x2^e2 x3^e3 under x3 -> -x1-x2, as [(exponents, integer coefficient)]:
    signed binomials, one term per 2-variable monomial."""
    sign = -1 if e3 % 2 else 1
    return [((e1 + k, e2 + e3 - k), sign * comb(e3, k)) for k in range(e3 + 1)]


def substitute_x3(p: WPoly) -> WPoly:
    """Image of a 3-variable poly under x3 -> -x1-x2, in 2 variables."""
    if p.nvars != 3:
        raise ValueError("substitute_x3 expects 3 variables")
    out = {}
    for e, c in p.coeffs.items():
        for mono, n in expand_x3(*e):
            v = c * witt.from_int(n, p.precision)
            prev = out.get(mono)
            out[mono] = v if prev is None else prev + v
    return WPoly(2, p.precision, out)


def embed_2_to_3(p: WPoly) -> WPoly:
    if p.nvars != 2:
        raise ValueError("embed_2_to_3 expects 2 variables")
    return WPoly(
        3, p.precision, {(e1, e2, 0): c for (e1, e2), c in p.coeffs.items()}
    )


def monomials_of_degree(nvars: int, d: int) -> list:
    """Exponent tuples of total degree d, in lexicographic order."""
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        out.extend([(e, *rest) for rest in monomials_of_degree(nvars - 1, d - e)])
    return sorted(out)


def sigma3_rho(precision: int) -> WPoly:
    """Image of x1*x2*x3 in 2 variables: -x1^2*x2 - x1*x2^2."""
    mone = -witt.one(precision)
    return WPoly(2, precision, {(2, 1): mone, (1, 2): mone})


@dataclass(frozen=True, eq=False)
class LocPoly:
    """num / sigma3^r over the 2-variable quotient model: a plain pair, with
    no normal form.  The sigma3 image -x1*x2*(x1 + x2) is not a zero divisor
    in (W/3^N)[x1, x2], each factor having a unit leading coefficient, so
    f/sigma3^r = g/sigma3^s exactly when the numerators agree over the
    common denominator sigma3^max(r, s).  Equal pairs may differ field by
    field, so a LocPoly is not hashable."""

    num: WPoly
    r: int

    @property
    def precision(self) -> int:
        return self.num.precision

    def _over(self, r: int) -> WPoly:
        """The numerator over sigma3^r, for r >= self.r."""
        return self.num * sigma3_rho(self.precision) ** (r - self.r)

    def __add__(self, other: "LocPoly") -> "LocPoly":
        r = max(self.r, other.r)
        return LocPoly(self._over(r) + other._over(r), r)

    def __neg__(self):
        return LocPoly(-self.num, self.r)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "LocPoly") -> "LocPoly":
        return LocPoly(self.num * other.num, self.r + other.r)

    def scale(self, c: WittElement) -> "LocPoly":
        return LocPoly(self.num.scale(c), self.r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocPoly):
            return NotImplemented
        r = max(self.r, other.r)
        return self._over(r) == other._over(r)
