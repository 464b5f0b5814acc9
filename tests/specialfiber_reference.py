"""The dense fiber pairing, kept as the oracle for the coordinate-wise
``twoquadrics.specialfiber.fiber_gram_on_kernel``, the dense pull-back of
the smooth fiber's pairing, kept as the oracle for
``RestrictionMap.is_pairing_preserving``, and ``from_labels``, which builds
the tests' fiber classes by label.

``fiber_pairing`` runs over every coordinate of both classes, so the Gram
built from it pays once per pair of classes: O(n^3) steps in all.
"""

from fractions import Fraction

from twoquadrics.specialfiber import (
    FiberClass,
    fiber_basis_labels,
    mv_kernel,
    pairing_diagonal,
    x_middle_gram,
)


def from_labels(m, assignment):
    """The fiber class with the given coefficients by basis label, and 0
    at every other label."""
    labels = fiber_basis_labels(m)
    unknown = set(assignment) - set(labels)
    if unknown:
        raise ValueError(f"unknown labels {sorted(unknown)}")
    return FiberClass(m, tuple(Fraction(assignment.get(lbl, 0)) for lbl in labels))


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


def restriction_gram(rmap):
    """transpose(M) * G_X * M for the restriction matrix M, entry by entry:
    the (i, j) entry is column i of M dotted with G_X times column j, each a
    dense sum over every coordinate."""
    gx = x_middle_gram(rmap.m)
    columns = list(zip(*rmap.matrix))
    images = [
        [sum((g * x for g, x in zip(row, col)), Fraction(0)) for row in gx]
        for col in columns
    ]
    return [
        [sum((x * y for x, y in zip(col, image)), Fraction(0)) for image in images]
        for col in columns
    ]
