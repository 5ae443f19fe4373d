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
from .errors import CheckFailed, ResourceBoundExceeded
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


def _mod(x, M: int):
    """x mod M: numpy divides by a scalar much faster than it takes %."""
    return x - M * (x // M)


def _row_blocks(nrows: int, ncols: int):
    """Row slices holding at most about _PRODUCTS_PER_BLOCK entries each."""
    step = max(1, _PRODUCTS_PER_BLOCK // max(ncols, 1))
    return (slice(i, i + step) for i in range(0, nrows, step))


@dataclass
class FiniteQuotient:
    """Enumerated quotient G(l) of G2^1 with coordinate arithmetic."""

    level: Fraction
    precision: int
    alpha: int
    beta: int
    coords: np.ndarray        # (5, n) int32: rows a0, a1, b0, b1, e; columns in key order
    slot: np.ndarray          # slot[key] = index of the element with that key, -1 off G(l)
    _sub_cache: dict = field(default_factory=dict, repr=False)
    _gen_cache: dict = field(default_factory=dict, repr=False)

    @property
    def order(self) -> int:
        return self.coords.shape[1]

    @property
    def Ma(self) -> int:
        return 3**self.alpha

    @property
    def Mb(self) -> int:
        return 3**self.beta

    # -- encoding ------------------------------------------------------
    def _encode(self, a0, a1, b0, b1, e):
        Ma, Mb = self.Ma, self.Mb
        return (((e * Mb + b1) * Mb + b0) * Ma + a1) * Ma + a0

    def _lookup(self, key):
        idx = self.slot[key]
        if np.any(idx < 0):
            raise KeyError("coordinates do not satisfy the quotient membership test")
        return idx

    def index_of(self, a0, a1, b0, b1, e):
        return self._lookup(self._encode(
            np.asarray(a0, dtype=np.int64) % self.Ma,
            np.asarray(a1, dtype=np.int64) % self.Ma,
            np.asarray(b0, dtype=np.int64) % self.Mb,
            np.asarray(b1, dtype=np.int64) % self.Mb,
            np.asarray(e, dtype=np.int64) % 2,
        ))

    # -- group structure -----------------------------------------------
    def identity_index(self) -> int:
        return int(self.index_of(1, 0, 0, 0, 0))

    def mul(self, i, j):
        """Vectorized product of element indices.

        (a + bS) * phi^e1(c + dS) = (a c' + 3 b phi(d')) + (a d' + b phi(c')) S
        with x' = phi^e1(x), phi negating the w-coordinate.  The signs of
        the twist and of the product sit on the left factor, reduced to
        [0, 3^alpha) or [0, 3^beta), so every term is non-negative and each
        coordinate is reduced once.  Coordinates below 3^3 keep every sum
        and key far inside int32.
        """
        Ma, Mb = self.Ma, self.Mb
        a0, a1, b0, b1, e1 = self.coords.take(i, axis=1)
        c0, c1, d0, d1, e2 = self.coords.take(j, axis=1)
        s = 1 - 2 * e1
        sa0, na1, sb1, nb0 = s * a0 % Ma, -s * a1 % Ma, s * b1 % Mb, -s * b0 % Mb
        A0 = _mod(a0 * c0 + na1 * c1 + 3 * (b0 * d0 + sb1 * d1), Ma)
        A1 = _mod(sa0 * c1 + a1 * c0 + 3 * (b1 * d0 + nb0 * d1), Ma)
        B0 = _mod(a0 * d0 + na1 * d1 + b0 * c0 + sb1 * c1, Mb)
        B1 = _mod(sa0 * d1 + a1 * d0 + b1 * c0 + nb0 * c1, Mb)
        return self._lookup(self._encode(A0, A1, B0, B1, e1 ^ e2))

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
        a0, a1, _, _, e = self.coords
        mask = (e == 0) & (a0 % 3 == 1) & (a1 % 3 == 0)
        return np.nonzero(mask)[0].astype(np.int64)

    def to_c3(self, i) -> np.ndarray:
        return self.coords[3].take(i) % 3

    def k_indices(self) -> np.ndarray:
        syl = self.sylow_indices()
        return syl[self.to_c3(syl) == 0]

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
        """int32 p with p[r] the coset of g * reps[r], one row per actor in
        the array ``g`` and one 1-d row for a scalar actor: on all coset
        representatives, the permutation g * (coset r) = coset p[r].  The
        coset ids are written a row block at a time, so no table of
        products outlives its block."""
        actors = np.asarray(g, dtype=np.int64)
        flat, reps = actors.reshape(-1), np.asarray(reps, dtype=np.int64)
        out = np.empty((len(flat), len(reps)), dtype=np.int32)
        for rows in _row_blocks(len(flat), len(reps)):
            out[rows] = coset_id[self.mul(flat[rows, None], reps[None, :])]
        return out.reshape(actors.shape + (len(reps),))

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
        """The whole pool omega, phi, s, u1..u5, which ``group quotient``
        lists.  It is checked once to generate G(l), by a breadth-first
        search over one table of G(l) times the pool, and a pool that does
        not generate raises ResourceBoundExceeded."""
        if "G" not in self._gen_cache:
            pool = self._generator_pool()
            step = self.mul_table(np.arange(self.order), list(pool.values()))
            if _orbit_size(step, self.identity_index()) != self.order:
                raise ResourceBoundExceeded("generator pool failed to generate G(l)")
            self._gen_cache["G"] = pool
        return dict(self._gen_cache["G"])

    def sylow_generators(self) -> dict:
        """A minimal generating set of P(l): the part of the pool's pro-3
        part s, u1..u5 that ``minimal_generators`` keeps, found once.  It
        has two elements at every level from 1 to 3, as Burnside's basis
        theorem gives (every minimal generating set of a 3-group has as
        many elements as its Frattini quotient's dimension).  A pro-3 part
        that does not generate P(l) raises ResourceBoundExceeded."""
        if "P" not in self._gen_cache:
            pro3 = {k: v for k, v in self._generator_pool().items() if k not in ("omega", "phi")}
            try:
                self._gen_cache["P"] = self.minimal_generators(pro3, self.sylow_indices())
            except ValueError:
                raise ResourceBoundExceeded("generator pool failed to generate P(l)") from None
        return dict(self._gen_cache["P"])

    def minimal_generators(self, gens: dict, subgroup_idx: np.ndarray) -> dict:
        """The part of ``gens`` (name -> element index) that generates the
        subgroup with the sorted indices ``subgroup_idx`` and no proper
        part of which does: each generator in turn is dropped while the
        others still generate it.  One pass suffices, since a subset of a
        set that cannot generate cannot either.  The products are read
        from one table of the subgroup times the generators, relabelled
        by ``relabel``, so each closure test is a search over positions in
        the subgroup, with no multiplication.  A ValueError if a generator
        lies outside the subgroup or the generators do not generate it."""
        names = list(gens)
        H = np.asarray(subgroup_idx, dtype=np.int64)
        step = relabel(H, self.mul_table(H, [gens[k] for k in names]))
        start = int(relabel(H, self.identity_index()))
        if _orbit_size(step, start) != len(H):
            raise ValueError("the generators do not generate the subgroup")
        keep = list(range(len(names)))
        for j in range(len(names)):
            rest = [i for i in keep if i != j]
            if _orbit_size(step[:, rest], start) == len(H):
                keep = rest
        return {names[i]: gens[names[i]] for i in keep}

    # -- transitions -------------------------------------------------------
    def projection_to(self, coarser: "FiniteQuotient") -> np.ndarray:
        """index map G(l) -> G(l') for l' <= l (coordinate truncation)."""
        if coarser.level > self.level:
            raise ValueError("projection goes to a coarser level")
        return coarser.index_of(*self.coords)

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


def relabel(indices: np.ndarray, x) -> np.ndarray:
    """Positions of the elements x in the sorted array ``indices``, which
    relabel a subgroup of G(l) as 0..p-1; a ValueError if one of them is
    outside it."""
    pos = np.searchsorted(indices, x)
    if not np.array_equal(indices.take(pos, mode="clip"), x):
        raise ValueError("element outside the subgroup")
    return pos


def _orbit_size(step: np.ndarray, start: int) -> int:
    """How many positions are reached from ``start`` through the columns
    of ``step``, each a map of the positions to themselves."""
    seen = np.zeros(len(step), dtype=bool)
    frontier = np.array([start])
    while frontier.size:
        seen[frontier] = True
        new = np.zeros_like(seen)
        new[step[frontier]] = True
        frontier = (new & ~seen).nonzero()[0]
    return int(seen.sum())


def finite_quotient(level, precision: int | None = None) -> FiniteQuotient:
    """Enumerate G(l) = G2^1 / (F_l intersect S2^1); the count must match
    ``full_quotient_order``, or CheckFailed is raised."""
    lv = _as_level(level)
    if lv > MAX_LEVEL:
        raise ResourceBoundExceeded(f"level {lv} beyond configured bound {MAX_LEVEL}")
    alpha, beta = level_digits(lv)
    if precision is None:
        precision = max(witt.DEFAULT_PRECISION, alpha + 2)
    if Fraction(precision) < lv + 2:
        raise ValueError("need precision >= level + 2")
    Ma, Mb = 3**alpha, 3**beta
    # the raveled grid runs through the keys _encode(a0, a1, b0, b1, e) in order
    e, b1, b0, a1, a0 = (x.ravel() for x in np.meshgrid(
        np.arange(2), np.arange(Mb), np.arange(Mb), np.arange(Ma), np.arange(Ma), indexing="ij"
    ))
    unit = (a0 % 3 != 0) | (a1 % 3 != 0)
    det = (a0 * a0 + a1 * a1 - 3 * (b0 * b0 + b1 * b1)) % Ma
    member = unit & ((det == 1 % Ma) | (det == (-1) % Ma))
    slot = np.full(member.size, -1)
    slot[member] = np.arange(np.count_nonzero(member))
    coords = np.array([a0, a1, b0, b1, e], dtype=np.int32).compress(member, axis=1)
    # det = +-1 keeps 2 of the 2 * 3^(alpha-1) units mod 3^alpha, and the
    # Galois exponent doubles the count
    want = 2 * full_quotient_order(lv) // 3 ** (alpha - 1)
    if coords.shape[1] != want:
        raise CheckFailed(f"G({lv}) has {coords.shape[1]} elements, not {want}")
    return FiniteQuotient(lv, precision, alpha, beta, coords, slot)


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
