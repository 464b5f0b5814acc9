import random
import tracemalloc
from fractions import Fraction
from math import prod

import pytest

import cohomology_reference as reference
from exactmath_reference import identity, integer_kernel_basis, mat_vec, transpose
from twoquadrics import cli, cohomology
from twoquadrics.cohomology import (
    _index_over_omega,
    _omega_in_integral_coords,
    _pairings_with_omega,
    _zeta_minus_one,
    integral_gram_det,
    lattice_index,
    pairing_constants,
    primitive_gram,
)
from twoquadrics.exactmath import (
    det,
    gram_diagonalize,
    mat_mul,
    rank,
    signature,
    smith_normal_form,
    solve_exact,
)

CLOSED_FORMS = (integral_gram_det, lattice_index, primitive_gram)


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
    g = reference.quadric_pencil_gram(4)
    assert g[0][0] == 4
    assert all(g[0][i] == 1 for i in range(1, 8))
    assert g[1][1] == 2 and g[1][2] == 1


def test_gram_entries_dimension_six():
    g = reference.quadric_pencil_gram(6)
    assert g[1][1] == -2 and g[1][2] == -1 and g[0][1] == 1


def test_gram_symmetric_full_rank():
    for m in (4, 6, 8, 10, 12):
        g = reference.quadric_pencil_gram(m)
        assert g == transpose(g)
        assert rank(g) == m + 4


def test_surface_case_is_gated():
    for claim in CLOSED_FORMS:
        with pytest.raises(ValueError, match="uncertified in dimension 2"):
            claim(2)
    # uncertified, under the floor-toward-minus-infinity convention
    assert pairing_constants(2) == (-1, 0)


def test_odd_dimension_rejected():
    for claim in CLOSED_FORMS:
        for m in (3, 5, 41):
            with pytest.raises(ValueError):
                claim(m)


def test_integral_basis_expresses_plane_class():
    # 2*zeta - omega with (m+1)*zeta = 3*omega - sum(zeta_i) at m = 4
    assert _zeta_minus_one(4) == [Fraction(1, 5)] + [Fraction(-2, 5)] * 7
    for m in range(4, 61, 2):
        assert _zeta_minus_one(m) == [row[0] for row in integral_basis_matrix(m)], m


def test_integral_gram_determinant_closed_form():
    for m in (4, 6, 8, 10, 12):
        expected = Fraction(-1 if m % 4 else 1)
        assert integral_gram_det(m) == expected
        assert type(integral_gram_det(m)) is Fraction


def test_integral_gram_is_integer_valued():
    for m in (4, 6):
        g = reference.integral_gram(m)
        assert all(x.denominator == 1 for row in g for x in row)


def _dense_projection(m):
    """Columns are the omega-orthogonal projections of zeta_0 .. zeta_{m+2}."""
    g = reference.quadric_pencil_gram(m)
    proj = [[Fraction(0)] * (m + 3) for _ in range(m + 4)]
    for j in range(m + 3):
        proj[j + 1][j] = Fraction(1)
        proj[0][j] = -g[0][j + 1] / g[0][0]
    return proj


def test_structured_grams_match_dense_products():
    for m in range(4, 61, 2):
        g = reference.quadric_pencil_gram(m)
        c = integral_basis_matrix(m)
        assert reference.integral_gram(m) == mat_mul(transpose(c), mat_mul(g, c)), m
        p = _dense_projection(m)
        assert reference.primitive_gram(m)[0] == mat_mul(transpose(p), mat_mul(g, p)), m


def test_lattice_index_is_four():
    for m in (4, 6, 8, 10):
        assert lattice_index(m) == 4


def test_full_lattice_inclusion_has_index_one():
    # sanity: the lattice inside itself via the identity inclusion
    diag, _, _ = smith_normal_form([[1 if i == j else 0 for j in range(8)] for i in range(8)])
    assert diag == [1] * 8


def test_primitive_gram_definite():
    for m in (4, 6, 8, 10):
        _, sig = primitive_gram(m)
        pos, neg, zero = sig
        assert zero == 0
        assert pos + neg == m + 3
        assert pos == 0 or neg == 0
        expected_sign = 1 if m % 4 == 0 else -1
        assert (pos if expected_sign == 1 else neg) == m + 3


def test_primitive_projection_entries():
    gram, _ = reference.primitive_gram(4)
    # projecting zeta_i off omega shifts every pairing by -1/4
    assert gram[0][0] == Fraction(2) - Fraction(1, 4)
    assert gram[0][1] == Fraction(1) - Fraction(1, 4)
    # a*I + (o - 1/4)*J with a = 1, o = 1: eigenvalue 1 six times, 1 + 7*3/4 once
    assert primitive_gram(4)[0] == ((1, 6), (Fraction(25, 4), 1))


def test_full_lattice_signature_adds_one_positive_direction():
    for m in (4, 6, 8):
        _, prim_sig = primitive_gram(m)
        full_diag = gram_diagonalize(reference.quadric_pencil_gram(m))
        pos, neg, zero = signature(full_diag)
        assert zero == 0
        assert (pos, neg) == (prim_sig[0] + 1, prim_sig[1])


def test_index_matches_inclusion_determinant():
    # the SNF-computed index must agree with |det| of the inclusion
    for m in (4, 6):
        g = reference.integral_gram(m)
        omega = _omega_in_integral_coords(m)
        row = [int(v) for v in mat_vec(g, [Fraction(x) for x in omega])]
        complement = integer_kernel_basis([row])
        inclusion = transpose([omega] + complement)
        d = det([[Fraction(x) for x in r] for r in inclusion])
        assert abs(d) == lattice_index(m) == reference.lattice_index(m) == 4


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
        assert row == mat_vec(reference.integral_gram(m), omega) == [-2] + [1] * (m + 3), m


def _assert_spectrum_matches(m, spectrum):
    """The dense primitive Gram is a*I + b*J, with a the eigenvalue of
    multiplicity n-1 and a + n*b the one on the all-ones vector."""
    gram, _ = reference.primitive_gram(m)
    n = m + 3
    (a, rest), (top, once) = spectrum
    assert (rest, once) == (n - 1, 1), m
    b = gram[0][1]
    assert all(x == a * (i == j) + b for i, row in enumerate(gram) for j, x in enumerate(row)), m
    assert top == a + n * b, m


def test_closed_forms_match_the_dense_oracle():
    for m in range(4, 81, 2):
        assert integral_gram_det(m) == reference.integral_gram_det(m), m
        assert lattice_index(m) == reference.lattice_index(m), m
        spectrum, sig = primitive_gram(m)
        assert sig == reference.primitive_gram(m)[1], m
        _assert_spectrum_matches(m, spectrum)


def test_closed_forms_hold_for_any_pairing_constants(monkeypatch):
    # the determinant and the spectrum are identities in (diag, off): patch
    # the constants, and the dense oracle, which reads them too, follows;
    # (1, 1) gives a = 0; at m = 4, where n = 7, (6, -1) gives a + n*o = 0
    # and (7/4, 0) gives a + n*(o - 1/4) = 0
    rng = random.Random(17)
    cases = [
        (Fraction(1), Fraction(1)),
        (Fraction(6), Fraction(-1)),
        (Fraction(7, 4), Fraction(0)),
        (Fraction(5, 4), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(1, 7)),
    ]
    cases += [
        (Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(20)
    ]
    for diag, off in cases:
        monkeypatch.setattr(cohomology, "pairing_constants", lambda m: (diag, off))
        for m in (4, 6, 10):
            assert integral_gram_det(m) == reference.integral_gram_det(m), (m, diag, off)
            spectrum, sig = primitive_gram(m)
            assert sig == reference.primitive_gram(m)[1], (m, diag, off)
            _assert_spectrum_matches(m, spectrum)


def _smith_index(omega, gram):
    """[Z^k : Z*omega + omega^perp] for the form ``gram`` on Z^k, from the
    Smith form of the inclusion."""
    pairings = [sum(x * y for x, y in zip(row, omega)) for row in gram]
    inclusion = transpose([omega] + integer_kernel_basis([pairings]))
    diag, _, _ = smith_normal_form(inclusion)
    return abs(prod(diag))


def test_index_formula_matches_smith_form_on_random_lattices():
    # |omega.omega| / gcd(pairings) holds for any lattice with omega.omega != 0,
    # degenerate or not, and whether or not omega is primitive
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        k = rng.randint(2, 5)
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                gram[i][j] = gram[j][i] = rng.randint(-6, 6)
        omega = [rng.randint(-4, 4) for _ in range(k)]
        pairings = [sum(x * y for x, y in zip(row, omega)) for row in gram]
        if sum(x * y for x, y in zip(omega, pairings)) == 0:
            continue
        assert _index_over_omega(omega, pairings) == _smith_index(omega, gram), (gram, omega)
        checked += 1
    # the first pairing is the one that brings the gcd down to 2: index 2 / 2
    assert _index_over_omega([1, 0], [2, 4]) == _smith_index([1, 0], [[2, 4], [4, 1]]) == 1


def test_isotropic_omega_raises():
    with pytest.raises(ArithmeticError):
        _index_over_omega([1, 1], [1, -1])


def test_integral_gram_is_never_built():
    # the pointers of one (m+4)-square table alone would take (m+4)^2 * 8
    # bytes; the closed forms hold a few vectors of length m+4
    m = 200
    tracemalloc.start()
    try:
        section = cli.run_cohomology({"m": m})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert section["ok"]
    assert peak < (m + 4) ** 2 * 8 // 4, peak
