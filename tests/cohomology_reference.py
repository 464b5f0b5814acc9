"""The dense route through the lattice claims, kept as the oracle for the
closed forms in ``twoquadrics.cohomology``.

Here the (m+4)-square pairing table is built, the integral Gram is its
congruence by the basis change C, the determinant is a Bareiss
elimination, the index is the Smith form of the inclusion of
Z*omega + omega^perp, and the signature is a congruence diagonal of the
projected primitive Gram.  Every routine reads the pairing constants
through ``cohomology.pairing_constants`` at the call, so a test that
patches them moves the oracle and the closed forms together.
"""

from fractions import Fraction
from math import prod

from exactmath_reference import integer_kernel_basis, mat_vec, transpose
from twoquadrics import cohomology
from twoquadrics.exactmath import det, gram_diagonalize, signature, smith_normal_form


def quadric_pencil_gram(m):
    """Full (m+4)-square Gram matrix in the basis omega^{m/2}, zeta_0 ..
    zeta_{m+2}."""
    if m % 2 or m < 4:
        raise ValueError("dimension must be even and at least 4")
    diag, off = cohomology.pairing_constants(m)
    n = m + 4
    gram = [[Fraction(0)] * n for _ in range(n)]
    gram[0][0] = Fraction(4)
    for i in range(1, n):
        gram[0][i] = gram[i][0] = Fraction(1)
        for j in range(1, n):
            gram[i][j] = diag if i == j else off
    return gram


def integral_gram(m):
    """Gram matrix C^T G C in the integral basis.

    C is the identity with its first column replaced by the coordinates c
    of zeta_{-1}, so only row and column 0 differ from G: entry (0, j) is
    (G c)[j] for j >= 1, G being symmetric, and entry (0, 0) is c^T G c.
    """
    g = quadric_pencil_gram(m)
    c = cohomology._zeta_minus_one(m)
    row0 = mat_vec(g, c)
    row0[0] = sum(x * y for x, y in zip(row0, c))
    g[0] = row0
    for i in range(1, len(g)):
        g[i][0] = row0[i]
    return g


def integral_gram_det(m):
    return det(integral_gram(m))


def lattice_index(m):
    """Index of Z*omega + omega^perp via the Smith normal form of the
    inclusion matrix, omega's pairings read off the integral Gram."""
    omega = [Fraction(x) for x in cohomology._omega_in_integral_coords(m)]
    pairings = mat_vec(integral_gram(m), omega)
    if any(v.denominator != 1 for v in pairings):
        raise ArithmeticError("pairing with omega^{m/2} is not integral")
    complement = integer_kernel_basis([[int(v) for v in pairings]])
    inclusion = transpose([[int(x) for x in omega]] + complement)
    diag, _, _ = smith_normal_form(inclusion)
    if any(d == 0 for d in diag):
        raise ArithmeticError("inclusion matrix is singular")
    return abs(prod(diag))


def primitive_gram(m):
    """Gram matrix of the omega-orthogonal projections of the plane
    classes, with its signature: entry (i-1, j-1) is
    G[i][j] - G[0][i]*G[0][j]/G[0][0] for i, j >= 1."""
    g = quadric_pencil_gram(m)
    omega_row = g[0]
    norm = omega_row[0]
    gram = [
        [g[i][j] - omega_row[i] * omega_row[j] / norm for j in range(1, m + 4)]
        for i in range(1, m + 4)
    ]
    return gram, signature(gram_diagonalize(gram))
