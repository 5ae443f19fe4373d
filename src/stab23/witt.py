"""Exact arithmetic in W(F9)/3^N, the Witt vectors of F9 at finite precision.

The residue field is presented as F9 = F3[w]/(w^2+1); an element is
c0 + c1*w with both coordinates in Z/3^N.  The Frobenius is the ring
automorphism lifting cubing on residues, which in this basis is
w -> -w.  Teichmueller lifts are computed by iterating x -> x^9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NonUnitError, PrecisionMismatch

DEFAULT_PRECISION = 8


@dataclass(frozen=True)
class WittElement:
    c0: int
    c1: int
    precision: int

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        M = 3**self.precision
        object.__setattr__(self, "c0", self.c0 % M)
        object.__setattr__(self, "c1", self.c1 % M)

    @property
    def modulus(self) -> int:
        return 3**self.precision

    def _check(self, other: "WittElement") -> None:
        if self.precision != other.precision:
            raise PrecisionMismatch(
                f"precision {self.precision} vs {other.precision}"
            )

    def __add__(self, other: "WittElement") -> "WittElement":
        self._check(other)
        return WittElement(self.c0 + other.c0, self.c1 + other.c1, self.precision)

    def __sub__(self, other: "WittElement") -> "WittElement":
        self._check(other)
        return WittElement(self.c0 - other.c0, self.c1 - other.c1, self.precision)

    def __neg__(self) -> "WittElement":
        return WittElement(-self.c0, -self.c1, self.precision)

    def __mul__(self, other: "WittElement") -> "WittElement":
        self._check(other)
        # (a0 + a1 w)(b0 + b1 w) with w^2 = -1
        return WittElement(
            self.c0 * other.c0 - self.c1 * other.c1,
            self.c0 * other.c1 + self.c1 * other.c0,
            self.precision,
        )

    def __pow__(self, n: int) -> "WittElement":
        if n < 0:
            return self.inv() ** (-n)
        result = one(self.precision)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def is_unit(self) -> bool:
        return self.c0 % 3 != 0 or self.c1 % 3 != 0

    def frobenius(self) -> "WittElement":
        return WittElement(self.c0, -self.c1, self.precision)

    def norm(self) -> int:
        """x * frobenius(x), an element of Z/3^N."""
        return (self.c0 * self.c0 + self.c1 * self.c1) % self.modulus

    def inv(self) -> "WittElement":
        if not self.is_unit():
            raise NonUnitError(f"{self} is not a unit")
        n_inv = pow(self.norm(), -1, self.modulus)
        return WittElement(self.c0 * n_inv, -self.c1 * n_inv, self.precision)

    def encode(self) -> str:
        return f"{self.c0}+{self.c1}*w mod 3^{self.precision}"

    def __repr__(self) -> str:
        return f"W({self.encode()})"


def zero(precision: int = DEFAULT_PRECISION) -> WittElement:
    return WittElement(0, 0, precision)


def one(precision: int = DEFAULT_PRECISION) -> WittElement:
    return WittElement(1, 0, precision)


def from_int(n: int, precision: int = DEFAULT_PRECISION) -> WittElement:
    return WittElement(n, 0, precision)


def teichmuller(r0: int, r1: int, precision: int = DEFAULT_PRECISION) -> WittElement:
    """The unique lift x of the residue r0 + r1*w with x^9 == x."""
    x = WittElement(r0 % 3, r1 % 3, precision)
    if x.is_zero():
        return x
    for _ in range(precision + 2):
        nxt = x**9
        if nxt == x:
            break
        x = nxt
    assert x**9 == x, "Teichmuller iteration failed to converge"
    return x


@lru_cache(maxsize=None)
def omega(precision: int = DEFAULT_PRECISION) -> WittElement:
    """The fixed primitive 8th root of unity: Teichmueller lift of 1 + w."""
    w = teichmuller(1, 1, precision)
    if w**4 != -one(precision) or w**8 != one(precision):
        raise AssertionError("omega failed its order-8 check")
    return w


def sqrt_principal(x: int, precision: int) -> int:
    """Square root in 1 + 3*Z/3^N of x = 1 mod 3, by Newton iteration."""
    M = 3**precision
    x = x % M
    if x % 3 != 1:
        raise ValueError("sqrt_principal needs x = 1 mod 3")
    y = 1
    for _ in range(precision + 2):
        y = (y - (y * y - x) * pow(2 * y, -1, M)) % M
    assert (y * y - x) % M == 0
    if y % 3 != 1:
        y = (-y) % M
    return y
