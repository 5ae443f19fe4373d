"""The model matrices of ``stab23.invariants`` as first built, entry by entry.

``w_coordinate_matrix`` builds the Z/3^N matrix of a W-semilinear map
between monomial spans column by column in Witt arithmetic, from the
images of one-term polynomials.  ``act_tame`` is the action of the
omega/phi subgroup of order 16 on the u1/u model, with ``sd16_exponents``
finding (a, e) with g = omega^a phi^e by search over the 16 products.
``tame_ops`` is the tame generator matrices built from them.  Tests
compare these with the closed-form kron(B, Omega) matrices for exact
equality.  They are a test oracle only.
"""

from __future__ import annotations

import numpy as np

from stab23 import invariants as inv
from stab23 import stabilizer as stab
from stab23 import witt
from stab23.polys import WPoly
from stab23.witt import WittElement

# the generators of the tame groups, as elements of the stabilizer group
TAME_GENERATORS = {
    "SD16": (stab.omega_element, stab.phi_element),
    "Q8": (stab.t_element, stab.psi_element),
}


def w_coordinate_matrix(source, target, image, precision: int) -> np.ndarray:
    """Matrix over Z/3^N of a W-semilinear map between monomial spans.

    Coordinates are (c0, c1) with c = c0 + c1*w: column 2i + k holds the
    image of w^k times the i-th source monomial, row 2j + l its w^l
    coordinate on the j-th target monomial.  ``image(mono, scalar)``
    returns the image of scalar*mono, a polynomial on the target.
    """
    row = {m: i for i, m in enumerate(target)}
    A = np.zeros((2 * len(target), 2 * len(source)), dtype=np.int64)
    for col, mono in enumerate(source):
        for k, scalar in enumerate((witt.one(precision), WittElement(0, 1, precision))):
            for m, c in image(mono, scalar).coeffs.items():
                A[2 * row[m], 2 * col + k] = c.c0
                A[2 * row[m] + 1, 2 * col + k] = c.c1
    return A


def sd16_exponents(g: stab.StabilizerElement) -> tuple:
    """(a, e) with g = omega^a * phi^e; raises if g is outside SD16."""
    om = stab.omega_element(g.precision)
    for a in range(8):
        for e in range(2):
            if ((om**a) * stab.phi_element(g.precision) ** e).key() == g.key():
                return a, e
    raise ValueError("element is not in the omega/phi subgroup of order 16")


def act_tame(g: stab.StabilizerElement, f: WPoly) -> WPoly:
    """Exact prime-to-3 action on the tame model, exponents (i, j) for
    u1^i u^j: alpha(u) = alpha*u, alpha(u*u1) = alpha^3*u*u1, Frobenius
    acting on coefficients only."""
    a, e = sd16_exponents(g)
    om = witt.omega(f.precision)
    return WPoly(2, f.precision, {
        (i, j): om ** (a * ((2 * i + j) % 8)) * (c.frobenius() if e else c)
        for (i, j), c in f.coeffs.items()
    })


def tame_ops(group: str, j: int, precision: int) -> list:
    """Generator matrices on the u1-truncated piece spanned by u1^i u^j."""
    monos = [(i, j) for i in range(inv.TAME_U1_WINDOW + 1)]
    return [
        w_coordinate_matrix(
            monos, monos, lambda m, c, g=g: act_tame(g, WPoly(2, precision, {m: c})), precision
        )
        for g in (element(precision) for element in TAME_GENERATORS[group])
    ]


def product_matrix(source, target, f: WPoly) -> np.ndarray:
    """Multiplication by f from the span of ``source`` to that of ``target``."""
    return w_coordinate_matrix(
        source, target, lambda mono, c: WPoly(2, f.precision, {mono: c}) * f, f.precision
    )
