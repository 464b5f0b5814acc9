from fractions import Fraction

import pytest

from exactmath_reference import identity
from twoquadrics import cli, cohomology
from twoquadrics.cohomology import (
    _omega_in_integral_coords,
    _pairings_with_omega,
    _zeta_minus_one,
    integral_gram,
    integral_gram_det,
    lattice_index,
    pairing_constants,
    primitive_gram,
    quadric_pencil_gram,
)
from twoquadrics.exactmath import (
    det,
    gram_diagonalize,
    mat_mul,
    mat_vec,
    rank,
    signature,
    smith_normal_form,
    solve_exact,
    transpose,
)


def integral_basis_matrix(m):
    """Columns express zeta_{-1}, zeta_0 .. zeta_{m+2} in the (omega,
    zeta_i) coordinates, built from (m+1)*zeta = (m/2+1)*omega - sum(zeta_i)
    and zeta_{-1} = 2*zeta - omega."""
    cols = identity(m + 4)
    zeta = [Fraction(m // 2 + 1, m + 1)] + [Fraction(-1, m + 1)] * (m + 3)
    first = [2 * c for c in zeta]
    first[0] -= 1
    for row, x in zip(cols, first):
        row[0] = x
    return cols


def test_gram_entries_dimension_four():
    g = quadric_pencil_gram(4)
    assert g[0][0] == 4
    assert all(g[0][i] == 1 for i in range(1, 8))
    assert g[1][1] == 2 and g[1][2] == 1


def test_gram_entries_dimension_six():
    g = quadric_pencil_gram(6)
    assert g[1][1] == -2 and g[1][2] == -1 and g[0][1] == 1


def test_gram_symmetric_full_rank():
    for m in (4, 6, 8, 10, 12):
        g = quadric_pencil_gram(m)
        assert g == transpose(g)
        assert rank(g) == m + 4


def test_surface_case_is_gated():
    with pytest.raises(ValueError, match="uncertified in dimension 2"):
        quadric_pencil_gram(2)
    # uncertified, under the floor-toward-minus-infinity convention
    assert pairing_constants(2) == (-1, 0)


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        quadric_pencil_gram(5)


def test_integral_basis_expresses_plane_class():
    # 2*zeta - omega with (m+1)*zeta = 3*omega - sum(zeta_i) at m = 4
    assert _zeta_minus_one(4) == [Fraction(1, 5)] + [Fraction(-2, 5)] * 7
    for m in range(4, 61, 2):
        assert _zeta_minus_one(m) == [row[0] for row in integral_basis_matrix(m)], m


def test_integral_gram_determinant_closed_form():
    for m in (4, 6, 8, 10, 12):
        expected = Fraction(-1 if m % 4 else 1)
        assert integral_gram_det(m) == expected


def test_integral_gram_is_integer_valued():
    for m in (4, 6):
        g = integral_gram(m)
        assert all(x.denominator == 1 for row in g for x in row)


def _dense_projection(m):
    """Columns are the omega-orthogonal projections of zeta_0 .. zeta_{m+2}."""
    g = quadric_pencil_gram(m)
    proj = [[Fraction(0)] * (m + 3) for _ in range(m + 4)]
    for j in range(m + 3):
        proj[j + 1][j] = Fraction(1)
        proj[0][j] = -g[0][j + 1] / g[0][0]
    return proj


def test_structured_grams_match_dense_products():
    for m in range(4, 61, 2):
        g = quadric_pencil_gram(m)
        c = integral_basis_matrix(m)
        assert integral_gram(m) == mat_mul(transpose(c), mat_mul(g, c)), m
        p = _dense_projection(m)
        assert primitive_gram(m)[0] == mat_mul(transpose(p), mat_mul(g, p)), m


def test_lattice_index_is_four():
    for m in (4, 6, 8, 10):
        assert lattice_index(m) == 4


def test_full_lattice_inclusion_has_index_one():
    # sanity: the lattice inside itself via the identity inclusion
    diag, _, _ = smith_normal_form([[1 if i == j else 0 for j in range(8)] for i in range(8)])
    assert diag == [1] * 8


def test_primitive_gram_definite():
    for m in (4, 6, 8, 10):
        gram, sig = primitive_gram(m)
        pos, neg, zero = sig
        assert zero == 0
        assert pos + neg == m + 3
        assert pos == 0 or neg == 0
        expected_sign = 1 if m % 4 == 0 else -1
        assert (pos if expected_sign == 1 else neg) == m + 3


def test_primitive_projection_entries():
    gram, _ = primitive_gram(4)
    # projecting zeta_i off omega shifts every pairing by -1/4
    assert gram[0][0] == Fraction(2) - Fraction(1, 4)
    assert gram[0][1] == Fraction(1) - Fraction(1, 4)


def test_full_lattice_signature_adds_one_positive_direction():
    for m in (4, 6, 8):
        _, prim_sig = primitive_gram(m)
        full_diag = gram_diagonalize(quadric_pencil_gram(m))
        pos, neg, zero = signature(full_diag)
        assert zero == 0
        assert (pos, neg) == (prim_sig[0] + 1, prim_sig[1])


def test_index_matches_inclusion_determinant():
    # the SNF-computed index must agree with |det| of the inclusion
    from twoquadrics.exactmath import integer_kernel_basis

    for m in (4, 6):
        g = integral_gram(m)
        omega = _omega_in_integral_coords(m)
        row = [int(v) for v in mat_vec(g, [Fraction(x) for x in omega])]
        complement = integer_kernel_basis([row])
        inclusion = transpose([omega] + complement)
        d = det([[Fraction(x) for x in r] for r in inclusion])
        assert abs(d) == lattice_index(m) == 4


def test_non_integral_omega_coordinates_raise(monkeypatch):
    real = cohomology._zeta_minus_one
    monkeypatch.setattr(cohomology, "_zeta_minus_one", lambda m: [-x for x in real(m)])
    with pytest.raises(ArithmeticError):
        _omega_in_integral_coords(4)


def test_closed_form_omega_matches_the_solved_system():
    for m in range(4, 61, 2):
        solved = solve_exact(integral_basis_matrix(m), [Fraction(1)] + [Fraction(0)] * (m + 3))
        omega = _omega_in_integral_coords(m)
        assert omega == solved, m
        # the pairing row is [-2, 1, ..., 1]: omega . zeta_{-1} = -2
        row = _pairings_with_omega(m)
        assert row == mat_vec(integral_gram(m), omega) == [-2] + [1] * (m + 3), m


def test_integral_gram_is_built_once_per_section(monkeypatch):
    calls = []
    real = cohomology.integral_gram

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(cohomology, "integral_gram", counted)
    section = cli.run_cohomology({"m": 8})
    assert section["ok"]
    assert calls == [8]
