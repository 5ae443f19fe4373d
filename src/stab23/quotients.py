"""Finite quotients of G2^1 by the congruence filtration.

An element of the quotient at level l (a half-integer, quotient by
F_l = {x : v(x-1) >= l}) is canonically represented by the coordinate
tuple (a mod 3^alpha, b mod 3^beta, e) with alpha = ceil(l) and
beta = ceil(l - 1/2); congruence mod F_l is exactly coordinatewise
congruence at those truncations.  Membership in the image of G2^1 is
the condition det = +-1 mod 3^alpha.  All group arithmetic is closed
at the truncated coordinates, so no full-precision lifts are needed
for products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import stabilizer as stab
from . import witt
from .errors import ResourceBoundExceeded
from .stabilizer import StabilizerElement

MAX_LEVEL = Fraction(3)


def _as_level(level) -> Fraction:
    lv = Fraction(level)
    if lv < Fraction(1, 2) or lv.denominator not in (1, 2):
        raise ValueError(f"level must be a half-integer >= 1/2, got {level}")
    return lv


def level_digits(level) -> tuple:
    """(alpha, beta): truncation exponents of the a and b coordinates."""
    lv = _as_level(level)
    alpha = math.ceil(lv)
    beta = math.ceil(lv - Fraction(1, 2))
    return alpha, beta


def full_quotient_order(level) -> int:
    """|S2 / F_l| for the full unit group S2 (no determinant condition)."""
    lv = _as_level(level)
    k = int(2 * lv)  # number of half-integer layers
    return 8 * 9 ** (k - 1)


# products per ``mul`` call when a table is built block by block
_PRODUCTS_PER_BLOCK = 2**15


def _row_blocks(nrows: int, ncols: int):
    """Row slices holding at most about _PRODUCTS_PER_BLOCK entries each."""
    step = max(1, _PRODUCTS_PER_BLOCK // max(ncols, 1))
    return (slice(i, i + step) for i in range(0, nrows, step))


def _wmul(a0, a1, b0, b1, M):
    return (a0 * b0 - a1 * b1) % M, (a0 * b1 + a1 * b0) % M


@dataclass
class FiniteQuotient:
    """Enumerated quotient G(l) of G2^1 with coordinate arithmetic."""

    level: Fraction
    precision: int
    alpha: int
    beta: int
    coords: np.ndarray        # (n, 5): a0, a1, b0, b1, e
    keys: np.ndarray          # sorted int64 encodings, row-aligned with coords
    _sub_cache: dict = field(default_factory=dict, repr=False)
    _gen_cache: dict = field(default_factory=dict, repr=False)

    @property
    def order(self) -> int:
        return self.coords.shape[0]

    @property
    def Ma(self) -> int:
        return 3**self.alpha

    @property
    def Mb(self) -> int:
        return 3**self.beta

    # -- encoding ------------------------------------------------------
    def _encode(self, a0, a1, b0, b1, e):
        Ma, Mb = self.Ma, self.Mb
        return (((np.int64(e) * Mb + b1) * Mb + b0) * Ma + a1) * Ma + a0

    def index_of(self, a0, a1, b0, b1, e):
        key = self._encode(
            np.asarray(a0, dtype=np.int64) % self.Ma,
            np.asarray(a1, dtype=np.int64) % self.Ma,
            np.asarray(b0, dtype=np.int64) % self.Mb,
            np.asarray(b1, dtype=np.int64) % self.Mb,
            np.asarray(e, dtype=np.int64) % 2,
        )
        pos = np.searchsorted(self.keys, key)
        if not np.all(self.keys[np.minimum(pos, len(self.keys) - 1)] == key):
            raise KeyError("coordinates do not satisfy the quotient membership test")
        return pos

    # -- group structure -----------------------------------------------
    def identity_index(self) -> int:
        return int(self.index_of(1, 0, 0, 0, 0))

    def mul(self, i, j):
        """Vectorized product of element indices."""
        Ma, Mb = self.Ma, self.Mb
        x = self.coords[np.asarray(i, dtype=np.int64)]
        y = self.coords[np.asarray(j, dtype=np.int64)]
        a0, a1, b0, b1, e1 = (x[..., k] for k in range(5))
        c0, c1, d0, d1, e2 = (y[..., k] for k in range(5))
        # apply phi^{e1} to the right unit part
        c1 = np.where(e1 == 1, -c1, c1) % Ma
        d1 = np.where(e1 == 1, -d1, d1) % Mb
        p0, p1 = _wmul(a0, a1, c0, c1, Ma)
        q0, q1 = _wmul(b0 % Ma, b1 % Ma, d0 % Ma, -d1 % Ma, Ma)  # b*phi(d)
        A0, A1 = (p0 + 3 * q0) % Ma, (p1 + 3 * q1) % Ma
        r0, r1 = _wmul(a0 % Mb, a1 % Mb, d0, d1, Mb)
        s0, s1 = _wmul(b0, b1, c0 % Mb, -c1 % Mb, Mb)  # b*phi(c)
        B0, B1 = (r0 + s0) % Mb, (r1 + s1) % Mb
        return self.index_of(A0, A1, B0, B1, (e1 + e2) % 2)

    def inv(self, i):
        Ma, Mb = self.Ma, self.Mb
        x = self.coords[np.asarray(i, dtype=np.int64)]
        a0, a1, b0, b1, e = (x[..., k] for k in range(5))
        det = (a0 * a0 + a1 * a1 - 3 * (b0 * b0 + b1 * b1)) % Ma
        dinv = np.array(
            [pow(int(d), -1, Ma) for d in np.atleast_1d(det)], dtype=np.int64
        ).reshape(det.shape)
        ia0, ia1 = (a0 * dinv) % Ma, (-a1 * dinv) % Ma
        ib0, ib1 = (-b0 * dinv) % Mb, (-b1 * dinv) % Mb
        # Galois twist: (u, e)^-1 = (phi^e(u^-1), e)
        ia1 = np.where(e == 1, -ia1, ia1) % Ma
        ib1 = np.where(e == 1, -ib1, ib1) % Mb
        return self.index_of(ia0, ia1, ib0, ib1, e)

    def project(self, g: StabilizerElement) -> int:
        """Index of the class of an element of G2^1.

        Membership is checked at the quotient truncation: the class of g
        meets G2^1 exactly when det(g) = +-1 mod 3^alpha, which is also
        what any exact element of G2^1 satisfies.
        """
        if g.precision < self.alpha:
            raise ValueError("element precision below quotient truncation")
        det = g.det() % self.Ma
        if det not in (1 % self.Ma, (-1) % self.Ma):
            raise ValueError("element is not in G2^1 at this level")
        return int(
            self.index_of(g.a.c0, g.a.c1, g.b.c0, g.b.c1, g.galois)
        )

    def lift(self, i: int) -> StabilizerElement:
        a0, a1, b0, b1, e = (int(v) for v in self.coords[int(i)])
        return StabilizerElement(
            witt.WittElement(a0, a1, self.precision),
            witt.WittElement(b0, b1, self.precision),
            int(e),
        )

    # -- distinguished subsets ------------------------------------------
    def subgroup_image(self, name: str) -> np.ndarray:
        """Sorted element indices of the image of a named finite subgroup."""
        if name not in self._sub_cache:
            elems = stab.named_subgroup(name, self.precision)
            idx = sorted({self.project(g) for g in elems})
            self._sub_cache[name] = np.array(idx, dtype=np.int64)
        return self._sub_cache[name]

    def sylow_indices(self) -> np.ndarray:
        """Image of S2^1 (the pro-3 part): Galois-trivial, a = 1 mod 3."""
        c = self.coords
        mask = (c[:, 4] == 0) & (c[:, 0] % 3 == 1) & (c[:, 1] % 3 == 0)
        return np.nonzero(mask)[0].astype(np.int64)

    def to_c3(self, i) -> np.ndarray:
        return self.coords[np.asarray(i, dtype=np.int64), 3] % 3

    def k_indices(self) -> np.ndarray:
        syl = self.sylow_indices()
        return syl[self.to_c3(syl) == 0]

    def decompose_sylow(self, i: int) -> tuple:
        """Unique k * c with k in image(K), c in image(C3), for i in P(l)."""
        s_idx = self.project(stab.s_element(self.precision))
        c3_of_s = int(self.to_c3(s_idx))
        inv_gen = pow(c3_of_s, -1, 3)
        mpow = (int(self.to_c3(i)) * inv_gen) % 3
        c = self.identity_index()
        for _ in range(mpow):
            c = int(self.mul(c, s_idx))
        k = int(self.mul(i, self.inv(c)))
        assert int(self.to_c3(k)) == 0
        return k, c

    # -- tables ----------------------------------------------------------
    def mul_table(self, left, right) -> np.ndarray:
        """T[i, j] = left[i] * right[j], built in row blocks of at most
        about 2^15 products so that no broadcast product grows large."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        out = np.empty((len(left), len(right)), dtype=np.int64)
        for rows in _row_blocks(len(left), len(right)):
            out[rows] = self.mul(left[rows, None], right[None, :])
        return out

    def cosets(self, subgroup_idx: np.ndarray) -> tuple:
        """(coset_id array over elements, representative indices).

        Left cosets g*H; the representative is the smallest element
        index in each coset, and coset ids are ordered by representative.
        """
        H = np.asarray(subgroup_idx, dtype=np.int64)
        smallest = np.empty(self.order, dtype=np.int64)
        for rows in _row_blocks(self.order, len(H)):
            g = np.arange(self.order, dtype=np.int64)[rows]
            smallest[rows] = self.mul(g[:, None], H[None, :]).min(axis=1)
        reps = np.flatnonzero(smallest == np.arange(self.order))
        return np.searchsorted(reps, smallest), reps

    def left_action_on_cosets(self, g, coset_id: np.ndarray, reps: np.ndarray):
        """Permutations p with g * (coset r) = coset p[r], one row per actor
        in the array ``g``; a scalar actor gives one 1-d permutation."""
        actors = np.asarray(g, dtype=np.int64)
        return coset_id[self.mul_table(actors.reshape(-1), reps)].reshape(
            actors.shape + (len(reps),)
        )

    # -- generators -------------------------------------------------------
    def _generator_pool(self) -> dict:
        """Indices of the candidate generators omega, phi, s, u1..u5."""
        pr = self.precision
        pool = {
            "omega": stab.omega_element(pr),
            "phi": stab.phi_element(pr),
            "s": stab.s_element(pr),
        }
        for name, a, b in [
            ("u1", witt.WittElement(1, 3, pr), witt.zero(pr)),
            ("u2", witt.one(pr), witt.from_int(3, pr)),
            ("u3", witt.one(pr), witt.WittElement(0, 3, pr)),
            ("u4", witt.WittElement(1, 9, pr), witt.zero(pr)),
            ("u5", witt.one(pr), witt.WittElement(0, 1, pr)),
        ]:
            pool[name] = stab.normalize_to_s21(StabilizerElement(a, b, 0))
        return {k: int(self.project(v)) for k, v in pool.items()}

    def generators(self) -> dict:
        """A verified finite generating set of G(l): the whole pool."""
        return self._verified_generators("G", self.order)

    def sylow_generators(self) -> dict:
        """A verified generating set of P(l): the pool without omega and phi."""
        return self._verified_generators("P", len(self.sylow_indices()))

    def _verified_generators(self, group: str, order: int) -> dict:
        """The pool, or its part in P(l), checked once to generate a group
        of the given order."""
        if group not in self._gen_cache:
            if "pool" not in self._gen_cache:
                self._gen_cache["pool"] = self._generator_pool()
            gens = {
                k: v
                for k, v in self._gen_cache["pool"].items()
                if group == "G" or k not in ("omega", "phi")
            }
            if self._closure_size(list(gens.values())) != order:
                raise ResourceBoundExceeded(f"generator pool failed to generate {group}(l)")
            self._gen_cache[group] = gens
        return dict(self._gen_cache[group])

    def _closure_size(self, gen_indices) -> int:
        seen = {self.identity_index()}
        frontier = list(seen)
        gen_arr = np.array(sorted(set(gen_indices)), dtype=np.int64)
        while frontier:
            base = np.repeat(np.array(frontier, dtype=np.int64), len(gen_arr))
            step = self.mul(base, np.tile(gen_arr, len(frontier)))
            fresh = set(int(x) for x in step) - seen
            seen |= fresh
            frontier = list(fresh)
        return len(seen)

    # -- transitions -------------------------------------------------------
    def projection_to(self, coarser: "FiniteQuotient") -> np.ndarray:
        """index map G(l) -> G(l') for l' <= l (coordinate truncation)."""
        if coarser.level > self.level:
            raise ValueError("projection goes to a coarser level")
        c = self.coords
        return coarser.index_of(c[:, 0], c[:, 1], c[:, 2], c[:, 3], c[:, 4])

    def json_summary(self) -> dict:
        gens = self.generators()
        return {
            "level": str(self.level),
            "modulus": {"a": f"3^{self.alpha}", "b": f"3^{self.beta}"},
            "order": self.order,
            "generators": {k: int(v) for k, v in sorted(gens.items())},
            "subgroup_image_orders": {
                name: int(len(self.subgroup_image(name)))
                for name in sorted(stab.SUBGROUP_ORDERS)
            },
            "sylow_order": int(len(self.sylow_indices())),
            "k_order": int(len(self.k_indices())),
        }


def finite_quotient(level, precision: int | None = None) -> FiniteQuotient:
    """Enumerate G(l) = G2^1 / (F_l intersect S2^1)."""
    lv = _as_level(level)
    if lv > MAX_LEVEL:
        raise ResourceBoundExceeded(f"level {lv} beyond configured bound {MAX_LEVEL}")
    alpha, beta = level_digits(lv)
    if precision is None:
        precision = max(witt.DEFAULT_PRECISION, alpha + 2)
    if Fraction(precision) < lv + 2:
        raise ValueError("need precision >= level + 2")
    Ma, Mb = 3**alpha, 3**beta
    a0, a1, b0, b1 = np.meshgrid(
        np.arange(Ma), np.arange(Ma), np.arange(Mb), np.arange(Mb), indexing="ij"
    )
    a0, a1, b0, b1 = (x.ravel().astype(np.int64) for x in (a0, a1, b0, b1))
    unit = (a0 % 3 != 0) | (a1 % 3 != 0)
    det = (a0 * a0 + a1 * a1 - 3 * (b0 * b0 + b1 * b1)) % Ma
    member = unit & ((det == 1 % Ma) | (det == (-1) % Ma))
    a0, a1, b0, b1 = (x[member] for x in (a0, a1, b0, b1))
    n = len(a0)
    coords = np.empty((2 * n, 5), dtype=np.int64)
    for e in (0, 1):
        coords[e * n : (e + 1) * n, 0] = a0
        coords[e * n : (e + 1) * n, 1] = a1
        coords[e * n : (e + 1) * n, 2] = b0
        coords[e * n : (e + 1) * n, 3] = b1
        coords[e * n : (e + 1) * n, 4] = e
    fq = FiniteQuotient(lv, precision, alpha, beta, coords, np.zeros(1))
    keys = fq._encode(
        coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3], coords[:, 4]
    )
    order = np.argsort(keys)
    fq.coords = coords[order]
    fq.keys = keys[order]
    return fq


def verify_quotient(level, precision: int | None = None) -> tuple:
    """The summary of G(l) with the image orders of the named subgroups
    checked: (report, ok).

    The finite subgroups embed from level 1 on; below it their images are
    not an independent count, nothing is compared and ok is None.
    """
    fq = finite_quotient(level, precision)
    report = fq.json_summary()
    if fq.level < 1:
        return report, None
    return report, report["subgroup_image_orders"] == stab.SUBGROUP_ORDERS
