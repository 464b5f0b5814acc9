from fractions import Fraction

import pytest

import specialfiber_reference as reference
from specialfiber_reference import fiber_pairing, from_labels
from twoquadrics import specialfiber
from twoquadrics.chern import CIDescriptor, euler_char, primitive_middle_dim
from twoquadrics.exactmath import GaussRational, IMAG_UNIT, kernel_basis, rank
from twoquadrics.specialfiber import (
    RestrictionMap,
    fiber_basis_labels,
    fiber_gram_on_kernel,
    gamma_matrix,
    mv_kernel,
    mv_kernel_labels,
    restriction_map,
    restriction_to_divisor,
    x1_restriction,
    x_middle_gram,
)


def _expected_kernel_gram(m):
    n = m + 5
    g = [[Fraction(0)] * n for _ in range(n)]
    g[0][0] = Fraction(4)
    g[2][2] = Fraction(1)
    g[3][3] = Fraction(1)
    for i in range(4, n):
        g[i][i] = Fraction(-1)
    return g


def test_component_tables_cross_checked_against_euler():
    for m in (4, 6, 8):
        # volumes are the degrees of the pieces
        assert specialfiber.COMPONENT_VOLUME == 2
        assert specialfiber.DIVISOR_VOLUME == 2
        assert specialfiber.CENTER_VOLUME == 4
        # middle ranks against the Euler-characteristic route: one primitive
        # class per quadric piece (beta, theta), m+1 on the center (z_i)
        labels = fiber_basis_labels(m)
        assert primitive_middle_dim(CIDescriptor(m + 1, (2,))) == 1
        assert primitive_middle_dim(CIDescriptor(m, (2, 2))) == m + 1
        assert sum(lbl.startswith("z") for lbl in labels) == m + 1
        # the divisor is odd-dimensional with one class per even degree
        assert euler_char(CIDescriptor(m + 2, (2, 1, 1))) == m


def test_restriction_table():
    table = restriction_to_divisor(4)
    assert table["h1"] == 1 and table["h2"] == 1 and table["hz"] == 2
    assert table["beta"] == table["theta"] == table["z1"] == 0


def test_gamma_kernel_dimension():
    for m in (4, 6, 8, 10):
        assert len(kernel_basis(gamma_matrix(m))) == m + 5


def test_mv_kernel_named_basis_spans_kernel():
    for m in (4, 6, 8):
        basis = mv_kernel(m)
        assert len(basis) == m + 5
        gamma = gamma_matrix(m)[0]
        for v in basis:
            assert all(isinstance(c, Fraction) for c in v.coeffs)
            assert sum(g * c for g, c in zip(gamma, v.coeffs)) == 0
        assert rank([list(v.coeffs) for v in basis]) == m + 5


def test_mv_kernel_classes_are_their_label_assignments():
    for m in (4, 6, 40):
        expected = [
            from_labels(m, {"h1": 1, "h2": 1}),
            from_labels(m, {"h1": 1, "hz": 1, "h2": -1}),
            from_labels(m, {"beta": 1}),
            from_labels(m, {"theta": 1}),
        ] + [from_labels(m, {f"z{i}": 1}) for i in range(1, m + 2)]
        assert [v.coeffs for v in mv_kernel(m)] == [v.coeffs for v in expected]


def test_gamma_kills_the_named_classes():
    m = 4
    gamma = gamma_matrix(m)[0]
    beta = from_labels(m, {"beta": 1})
    both_halves = from_labels(m, {"h1": 1, "h2": 1})
    assert sum(g * c for g, c in zip(gamma, beta.coeffs)) == 0
    assert sum(g * c for g, c in zip(gamma, both_halves.coeffs)) == 0


def test_fiber_pairing_table_entries():
    m = 4
    h1h2 = from_labels(m, {"h1": 1, "h2": 1})
    null = from_labels(m, {"h1": 1, "hz": 1, "h2": -1})
    z1 = from_labels(m, {"z1": 1})
    beta = from_labels(m, {"beta": 1})
    theta = from_labels(m, {"theta": 1})
    assert fiber_pairing(h1h2, h1h2) == 4
    assert fiber_pairing(z1, z1) == -1
    assert fiber_pairing(beta, beta) == 1
    assert fiber_pairing(theta, theta) == 1
    assert fiber_pairing(beta, theta) == 0
    # the null direction: 2 + 2 - 4 from the component volumes
    assert (
        specialfiber.COMPONENT_VOLUME
        + specialfiber.COMPONENT_VOLUME
        - specialfiber.CENTER_VOLUME
        == 0
    )
    assert fiber_pairing(null, null) == 0
    for other in (h1h2, z1, beta, theta):
        assert fiber_pairing(null, other) == 0


def test_fiber_gram_matches_block_table():
    for m in range(4, 41, 2):
        gram = fiber_gram_on_kernel(m)
        assert gram == _expected_kernel_gram(m) == reference.fiber_gram_on_kernel(m), m
        assert all(type(x) is Fraction for row in gram for x in row), m


def test_mixed_component_products_vanish():
    m = 4
    labels = fiber_basis_labels(m)
    first = [lbl for lbl in labels[:2]]
    second = [lbl for lbl in labels[2:]]
    for a in first:
        for b in second:
            x = from_labels(m, {a: 1})
            y = from_labels(m, {b: 1})
            assert fiber_pairing(x, y) == 0


def _apply(rmap, kernel_coords):
    """Image of a class given in the named kernel basis."""
    coords = [GaussRational.of(c) for c in kernel_coords]
    assert len(coords) == len(rmap.source_labels)
    return [
        sum((row[j] * coords[j] for j in range(len(coords))), GaussRational.of(0))
        for row in rmap.matrix
    ]


def test_restriction_images():
    m = 4
    rmap = restriction_map(m)
    assert rmap.source_labels == mv_kernel_labels(m)
    # h1+h2 -> omega
    assert _apply(rmap, [1, 0, 0, 0, 0, 0, 0, 0, 0]) == [1, 0, 0, 0, 0, 0, 0, 0]
    # the null combination dies
    assert all(not c for c in _apply(rmap, [0, 1, 0, 0, 0, 0, 0, 0, 0]))
    # z_1 -> sqrt(-1) e_1
    image = _apply(rmap, [0, 0, 0, 0, 1, 0, 0, 0, 0])
    assert image[1] == IMAG_UNIT and all(not c for i, c in enumerate(image) if i != 1)
    # beta and theta hit the last two classes
    assert _apply(rmap, [0, 0, 1, 0, 0, 0, 0, 0, 0])[m + 2] == 1
    assert _apply(rmap, [0, 0, 0, 1, 0, 0, 0, 0, 0])[m + 3] == 1


def test_restriction_is_pairing_preserving():
    for m in (4, 6, 8):
        assert restriction_map(m).is_pairing_preserving()


def _altered(rmap, edits):
    rows = [list(row) for row in rmap.matrix]
    for (i, j), value in edits.items():
        rows[i][j] = GaussRational.of(value)
    return RestrictionMap(
        rmap.m, tuple(tuple(row) for row in rows), rmap.source_labels, rmap.target_labels
    )


def test_pairing_check_rejects_wrong_restrictions():
    for m in (4, 6, 10):
        rmap = restriction_map(m)
        # beta (column 2) sent to the -1 class e_1 instead of e_{m+2}
        beta_to_e1 = _altered(rmap, {(m + 2, 2): 0, (1, 2): 1})
        assert not beta_to_e1.is_pairing_preserving()
        # z_1 (column 4) sent to 2 sqrt(-1) e_1, so it squares to -4
        doubled_z = _altered(rmap, {(1, 4): IMAG_UNIT * 2})
        assert not doubled_z.is_pairing_preserving()
        # theta sent to (3 e_{m+2} + 4 e_{m+3}) / 5 still squares to 1, but
        # now pairs to 3/5 with beta: only an off-diagonal entry is wrong
        tilted = _altered(rmap, {(m + 2, 3): Fraction(3, 5), (m + 3, 3): Fraction(4, 5)})
        assert not tilted.is_pairing_preserving()


def test_restriction_kernel_and_rank():
    for m in (4, 6, 8):
        rmap = restriction_map(m)
        assert rank(rmap.matrix) == m + 4
        kernel = rmap.kernel()
        assert len(kernel) == 1
        vec = kernel[0]
        assert vec[1] and all(not c for i, c in enumerate(vec) if i != 1)


def test_pairing_check_on_imaginary_string():
    m = 4
    z1 = from_labels(m, {"z1": 1})
    assert fiber_pairing(z1, z1) == -1
    g = x_middle_gram(m)
    image = IMAG_UNIT  # coefficient on e_1
    hermitian = image * image.conjugate() * g[1][1]
    assert hermitian == GaussRational.of(-1)


def test_x1_restriction_table():
    m = 4
    assert x1_restriction(m + 2, m) == (0, 1)
    assert x1_restriction(1, m) == (0, 0)
    assert x1_restriction(m + 3, m) == (0, 0)
    with pytest.raises(ValueError):
        x1_restriction(0, m)
    with pytest.raises(ValueError):
        x1_restriction(m + 4, m)


def test_fiber_model_rejects_small_dimension():
    with pytest.raises(ValueError):
        fiber_basis_labels(2)
    with pytest.raises(ValueError):
        mv_kernel(3)


def test_fiber_class_validation():
    with pytest.raises(ValueError):
        from_labels(4, {"nope": 1})
