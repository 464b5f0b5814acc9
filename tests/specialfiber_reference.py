"""The dense fiber pairing, kept as the oracle for the coordinate-wise
``twoquadrics.specialfiber.fiber_gram_on_kernel``.

``fiber_pairing`` runs over every coordinate of both classes, so the Gram
built from it pays once per pair of classes: O(n^3) steps in all.
"""

from fractions import Fraction

from twoquadrics.specialfiber import mv_kernel, pairing_diagonal


def fiber_pairing(x, y):
    """Bilinear extension of the component top-intersection table."""
    if x.m != y.m:
        raise ValueError("dimension mismatch")
    acc = Fraction(0)
    for xi, yi, d in zip(x.coeffs, y.coeffs, pairing_diagonal(x.m)):
        if xi and yi:
            acc += xi * yi * d
    return acc


def fiber_gram_on_kernel(m):
    """Pairing matrix on the named kernel basis, one dense pairing per
    entry."""
    basis = mv_kernel(m)
    return [[fiber_pairing(x, y) for y in basis] for x in basis]
