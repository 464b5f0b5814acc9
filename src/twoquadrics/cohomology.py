"""Middle-cohomology lattice of an even-dimensional intersection of two
quadrics.

The lattice carries a distinguished geometric basis: the class omega^{m/2}
of the ambient hyperplane power and the half-dimensional plane classes
zeta_0 .. zeta_{m+2}, whose pairings depend only on m.  A rational class
zeta with (m+1)*zeta = (m/2+1)*omega^{m/2} - sum(zeta_i) makes
zeta_{-1} = 2*zeta - omega^{m/2} integral, and {zeta_{-1}, zeta_0, ..,
zeta_{m+2}} spans the full integral middle cohomology.  The same relation
gives omega^{m/2} = (m+1)*zeta_{-1} + 2*sum(zeta_i), so omega's integral
coordinates are written down and checked, not solved for.  The three
claims are computed from the pairing table, never hardcoded: the unit
determinant of the integral Gram, the index-4 sublattice generated by the
ambient class together with its integral orthogonal complement, and the
definiteness of the primitive part.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .exactmath import (
    Mat,
    det,
    gram_diagonalize,
    integer_kernel_basis,
    mat_vec,
    signature,
    smith_normal_form,
    transpose,
)


def pairing_constants(m: int) -> tuple[Fraction, Fraction]:
    """(diagonal, off-diagonal) pairing of the plane classes; floors are
    taken toward minus infinity."""
    half = m // 2
    diag_sign = -1 if half % 2 else 1
    off_sign = -1 if (half - 2) % 2 else 1
    diag = Fraction(diag_sign * (m // 4 + 1))
    off = Fraction(off_sign * ((half - 2) // 2 + 1))
    return diag, off


def quadric_pencil_gram(m: int) -> Mat:
    """Full (m+4)-square Gram matrix in the basis omega^{m/2}, zeta_0 ..
    zeta_{m+2}."""
    if m % 2 or m < 4:
        raise ValueError(
            "dimension must be even and at least 4; "
            "the pairing table is uncertified in dimension 2"
        )
    diag, off = pairing_constants(m)
    n = m + 4
    gram = [[Fraction(0)] * n for _ in range(n)]
    gram[0][0] = Fraction(4)
    for i in range(1, n):
        gram[0][i] = gram[i][0] = Fraction(1)
        for j in range(1, n):
            gram[i][j] = diag if i == j else off
    return gram


def _zeta_minus_one(m: int) -> list[Fraction]:
    """Coordinates c of zeta_{-1} = 2*zeta - omega^{m/2} in the basis
    omega^{m/2}, zeta_0 .. zeta_{m+2}."""
    return [Fraction(2 * (m // 2 + 1), m + 1) - 1] + [Fraction(-2, m + 1)] * (m + 3)


def integral_gram(m: int) -> Mat:
    """Gram matrix C^T G C in the integral basis.

    C is the identity with its first column replaced by the coordinates c
    of zeta_{-1}, so only row and column 0 differ from G: entry (0, j) is
    (G c)[j] for j >= 1, G being symmetric, and entry (0, 0) is c^T G c.
    """
    g = quadric_pencil_gram(m)
    c = _zeta_minus_one(m)
    row0 = mat_vec(g, c)
    row0[0] = sum(x * y for x, y in zip(row0, c))
    g[0] = row0
    for i in range(1, len(g)):
        g[i][0] = row0[i]
    return g


def integral_gram_det(m: int) -> Fraction:
    """Determinant of the Gram matrix in the integral basis."""
    return det(integral_gram(m))


def _omega_in_integral_coords(m: int) -> list[int]:
    """omega^{m/2} = (m+1)*zeta_{-1} + 2*sum(zeta_i), from the relation
    that defines zeta; checked by mapping it back through C."""
    coords = [m + 1] + [2] * (m + 3)
    c = _zeta_minus_one(m)
    # C x is x_0 * c, plus x_i on each coordinate i >= 1
    image = [coords[0] * ci for ci in c]
    for i in range(1, m + 4):
        image[i] += coords[i]
    if image != [1] + [0] * (m + 3):
        raise ArithmeticError("omega^{m/2} is not integral in the integral basis")
    return coords


def _pairings_with_omega(m: int) -> list[Fraction]:
    """Pairings of omega^{m/2} with the integral basis.  C maps omega's
    integral coordinates to e_0, so they are C^T (G e_0): c . G e_0 for
    zeta_{-1}, then column 0 of the pairing table."""
    column = [row[0] for row in quadric_pencil_gram(m)]
    return [sum(x * y for x, y in zip(_zeta_minus_one(m), column))] + column[1:]


def lattice_index(m: int) -> int:
    """Index of Z<omega^{m/2}> + (integral orthogonal complement of omega)
    inside the full integral lattice, via Smith normal form of the
    inclusion matrix."""
    omega = _omega_in_integral_coords(m)
    pair_with_omega = _pairings_with_omega(m)
    if any(v.denominator != 1 for v in pair_with_omega):
        raise ArithmeticError("pairing with omega^{m/2} is not integral")
    constraint = [[int(v) for v in pair_with_omega]]
    complement = integer_kernel_basis(constraint)
    inclusion = transpose([omega] + complement)
    diag, _, _ = smith_normal_form(inclusion)
    if any(d == 0 for d in diag):
        raise ArithmeticError("inclusion matrix is singular")
    return abs(prod(diag))


def primitive_gram(m: int) -> tuple[Mat, tuple[int, int, int]]:
    """Gram matrix of the omega-orthogonal projections of the plane
    classes, together with its signature.

    Projecting zeta_i off omega is a rank-one update of the plane block:
    entry (i-1, j-1) is G[i][j] - G[0][i]*G[0][j]/G[0][0] for i, j >= 1.
    """
    g = quadric_pencil_gram(m)
    omega_row = g[0]
    norm = omega_row[0]
    gram = [
        [g[i][j] - omega_row[i] * omega_row[j] / norm for j in range(1, m + 4)]
        for i in range(1, m + 4)
    ]
    return gram, signature(gram_diagonalize(gram))
