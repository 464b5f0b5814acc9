"""Middle-cohomology lattice of an even-dimensional intersection of two
quadrics.

The lattice carries a distinguished geometric basis: the class omega^{m/2}
of the ambient hyperplane power and the half-dimensional plane classes
zeta_0 .. zeta_{m+2}, whose pairings depend only on m.  A rational class
zeta with (m+1)*zeta = (m/2+1)*omega^{m/2} - sum(zeta_i) makes
zeta_{-1} = 2*zeta - omega^{m/2} integral, and {zeta_{-1}, zeta_0, ..,
zeta_{m+2}} spans the full integral middle cohomology.  The same relation
gives omega^{m/2} = (m+1)*zeta_{-1} + 2*sum(zeta_i), so omega's integral
coordinates are written down and checked, not solved for.

The three claims follow in closed form, in O(m), from the two pairing
constants; no pairing table is built.  Write n = m+3, a = diag - off and
o = off.  The plane block of the table is a*I + o*J, bordered by a row of
ones and omega.omega = 4, and J has rank one, so:

- determinant: by the matrix-determinant lemma, det(a*I + o*J) is
  a^{n-1}*(a + n*o), and the border contributes the Schur complement
  4 - n/(a + n*o).  Multiplied out, the table's determinant is
  a^{n-1}*(4*(a + n*o) - n), a polynomial, so it holds for a + n*o = 0
  as well.  The integral basis changes coordinates by a matrix of
  determinant c0, the omega-coordinate of zeta_{-1}, which squares in.
- signature: projecting the plane classes off omega is a rank-one update,
  a*I + (o - 1/4)*J.  Its eigenvalues are a on the n-1 directions with
  coordinate sum zero and a + n*(o - 1/4) on the all-ones direction.
- index: the pairing with omega maps the lattice L onto g*Z, g the gcd of
  omega's pairings with the integral basis, with kernel the orthogonal
  complement; omega itself maps to (omega.omega)*Z.  So
  [L : Z*omega + omega^perp] = |omega.omega| / g whenever
  omega.omega != 0.  Omega's pairings are c.G.e_0 for zeta_{-1}, then
  1, .., 1.

The dense route (the table, the Bareiss determinant, the Smith form of
the inclusion and the congruence diagonal) is the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactmath import signature


def pairing_constants(m: int) -> tuple[Fraction, Fraction]:
    """(diagonal, off-diagonal) pairing of the plane classes; floors are
    taken toward minus infinity."""
    half = m // 2
    diag_sign = -1 if half % 2 else 1
    off_sign = -1 if (half - 2) % 2 else 1
    diag = Fraction(diag_sign * (m // 4 + 1))
    off = Fraction(off_sign * ((half - 2) // 2 + 1))
    return diag, off


def _plane_block(m: int) -> tuple[Fraction, Fraction, int]:
    """(a, o, n): the plane block of the pairing table is a*I + o*J,
    n-square."""
    if m % 2 or m < 4:
        raise ValueError(
            "dimension must be even and at least 4; "
            "the pairing table is uncertified in dimension 2"
        )
    diag, off = pairing_constants(m)
    return diag - off, off, m + 3


def _zeta_minus_one(m: int) -> list[Fraction]:
    """Coordinates c of zeta_{-1} = 2*zeta - omega^{m/2} in the basis
    omega^{m/2}, zeta_0 .. zeta_{m+2}."""
    return [Fraction(2 * (m // 2 + 1), m + 1) - 1] + [Fraction(-2, m + 1)] * (m + 3)


def integral_gram_det(m: int) -> Fraction:
    """Determinant of the Gram matrix in the integral basis:
    c0^2 * a^{n-1} * (4*(a + n*o) - n)."""
    a, o, n = _plane_block(m)
    c0 = _zeta_minus_one(m)[0]
    return c0 * c0 * a ** (n - 1) * (4 * (a + n * o) - n)


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
    zeta_{-1}, then column 0 of the pairing table, which is 4 and then
    n ones."""
    _, _, n = _plane_block(m)
    c = _zeta_minus_one(m)
    return [4 * c[0] + sum(c[1:])] + [Fraction(1)] * n


def _index_over_omega(omega: list[int], pairings: list[int]) -> int:
    """[L : Z*omega + omega^perp] = |omega.omega| / gcd of omega's
    pairings with a basis of L, given omega's coordinates and those
    pairings in that basis."""
    norm = sum(x * y for x, y in zip(omega, pairings))
    if norm == 0:
        raise ArithmeticError("omega^{m/2} is isotropic")
    return abs(norm) // gcd(*pairings)


def lattice_index(m: int) -> int:
    """Index of Z<omega^{m/2}> + (integral orthogonal complement of omega)
    inside the full integral lattice."""
    pair_with_omega = _pairings_with_omega(m)
    omega = _omega_in_integral_coords(m)
    if any(v.denominator != 1 for v in pair_with_omega):
        raise ArithmeticError("pairing with omega^{m/2} is not integral")
    return _index_over_omega(omega, [int(v) for v in pair_with_omega])


def primitive_gram(m: int) -> tuple[tuple, tuple[int, int, int]]:
    """Gram matrix of the omega-orthogonal projections of the plane
    classes, as its spectrum, together with its signature.

    Projecting zeta_i off omega subtracts G[0][i]*G[0][j]/G[0][0] = 1/4
    from every entry of the plane block, so the Gram matrix is
    a*I + (o - 1/4)*J, with eigenvalue a (n-1 times) and a + n*(o - 1/4).
    """
    a, o, n = _plane_block(m)
    top = a + n * (o - Fraction(1, 4))
    return ((a, n - 1), (top, 1)), signature([a] * (n - 1) + [top])
