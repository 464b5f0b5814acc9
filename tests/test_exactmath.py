import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

import cohomology_reference
import exactmath_reference as reference
from exactmath_reference import identity, integer_kernel_basis, transpose
from twoquadrics.cohomology import pairing_constants
from twoquadrics.exactmath import (
    det,
    gram_diagonalize,
    kernel_basis,
    mat_mul,
    rank,
    signature,
    smith_normal_form,
    solve_exact,
)


def frac(a, b=1):
    return Fraction(a, b)


def _laplace_det(m):
    """Independent determinant oracle: first-row cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _laplace_det(minor)
    return total


def _random_matrix(rng, n, den_max=4):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, den_max)) for _ in range(n)]
        for _ in range(n)
    ]


def test_det_identity():
    assert det(identity(5)) == 1


def test_det_two_by_two():
    assert det([[frac(2), frac(1)], [frac(1), frac(2)]]) == 3


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[frac(1), frac(2)]])


def _random_mixed_matrix(rng, n, fractions):
    """Entries are ints, or ints and Fractions mixed when ``fractions``."""
    return [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if fractions and rng.random() < 0.5
            else rng.randint(-6, 6)
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_det_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5))
        assert det(m) == _laplace_det(m)
    for fractions in (False, True):
        for _ in range(40):
            m = _random_mixed_matrix(rng, rng.randint(1, 5), fractions)
            value = det(m)
            assert value == _laplace_det(m), m
            assert type(value) is Fraction


def test_det_nonzero_iff_full_rank():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n)
        if rng.random() < 0.5 and n > 1:
            # force a dependent row
            m[-1] = [2 * x for x in m[0]]
        assert (det(m) != 0) == (rank(m) == n)


def test_rank_trivial():
    assert rank([[frac(0)] * 3 for _ in range(3)]) == 0
    assert rank(identity(4)) == 4


def test_rank_of_block_restriction_row():
    # six block classes restricting to the one-dimensional divisor middle
    gamma = [[frac(1), frac(0), frac(-1), frac(0), frac(-2), frac(0)]]
    assert rank(gamma) == 1
    assert len(kernel_basis(gamma)) == 5


def test_kernel_basis_trivial():
    assert kernel_basis(identity(3)) == []
    basis = kernel_basis([[frac(1), frac(-1)]])
    assert basis == [[frac(1), frac(1)]]


def test_kernel_vectors_lie_in_kernel():
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)
        ]
        basis = kernel_basis(m)
        assert len(basis) == cols - rank(m)
        for v in basis:
            assert all(
                sum(r * x for r, x in zip(row, v)) == 0 for row in m
            )


def test_solve_exact():
    a = [[frac(2), frac(1)], [frac(1), frac(3)]]
    x = solve_exact(a, [frac(5), frac(10)])
    assert [sum(r * v for r, v in zip(row, x)) for row in a] == [frac(5), frac(10)]
    assert solve_exact([[frac(1)], [frac(1)]], [frac(0), frac(1)]) is None


def _minor_gcd(m, k):
    rows = range(len(m))
    cols = range(len(m[0]))
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = [[Fraction(m[i][j]) for j in ci] for i in ri]
            g = gcd(g, abs(int(_laplace_det(sub))))
    return g


def _dense_mat_mul(a, b):
    """Reference product: the dense row-by-column comprehension."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _random_entry(rng, kind, density):
    if rng.random() >= density:
        return {"int": 0, "fraction": Fraction(0)}[kind]
    if kind == "int":
        return rng.choice([-3, -2, -1, 1, 2, 5])
    return Fraction(rng.choice([-3, -1, 1, 2, 7]), rng.randint(1, 5))


def test_mat_mul_matches_dense_oracle_in_value_and_type():
    rng = random.Random(17)
    kinds = ("int", "fraction")
    shapes = [(1, 6, 1), (6, 1, 5), (1, 1, 1), (4, 7, 3), (8, 8, 8)]
    for kind_a, kind_b in product(kinds, repeat=2):
        for rows, inner, cols in shapes:
            for density in (0.0, 0.2, 1.0):
                a = [[_random_entry(rng, kind_a, density) for _ in range(inner)] for _ in range(rows)]
                b = [[_random_entry(rng, kind_b, density) for _ in range(cols)] for _ in range(inner)]
                got = mat_mul(a, b)
                want = _dense_mat_mul(a, b)
                assert got == want, (kind_a, kind_b, rows, inner, cols, density)
                # the JSON writer prints Fraction(0) as "0" but int 0 as 0
                assert [[type(x) for x in row] for row in got] == [
                    [type(x) for x in row] for row in want
                ], (kind_a, kind_b, rows, inner, cols, density)


def test_mat_mul_rejects_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match="inner dimensions"):
        mat_mul([[Fraction(1), Fraction(0)]], [[Fraction(1)]])
    with pytest.raises(ValueError, match="inner dimensions"):
        mat_mul(identity(3), identity(2))


def test_smith_trivial():
    assert smith_normal_form(identity(3))[0] == [1, 1, 1]
    assert smith_normal_form([[2, 0], [0, 4]])[0] == [2, 4]


def test_smith_properties_and_minor_oracle():
    rng = random.Random(19)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag, left, right = smith_normal_form(m)
        lf = [[Fraction(x) for x in row] for row in left]
        rf = [[Fraction(x) for x in row] for row in right]
        assert abs(det(lf)) == 1
        assert abs(det(rf)) == 1
        product = mat_mul(lf, mat_mul([[Fraction(x) for x in r] for r in m], rf))
        for i in range(rows):
            for j in range(cols):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert product[i][j] == expected
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        # diagonal entries against the gcd-of-minors oracle
        running = 1
        for k, d in enumerate(diag, start=1):
            g = _minor_gcd(m, k)
            assert d == (g // running if running else 0)
            running = g if g else running


def test_integer_kernel_basis():
    basis = integer_kernel_basis([[-2, 1, 1, 1]])
    assert len(basis) == 3
    for v in basis:
        assert -2 * v[0] + v[1] + v[2] + v[3] == 0
    # spans the full integer kernel: the 3x4 stack has Smith diagonal all ones
    diag, _, _ = smith_normal_form(basis)
    assert diag == [1, 1, 1]


def test_gram_diagonalize_already_diagonal():
    g = [[frac(1), frac(0)], [frac(0), frac(-1)]]
    assert gram_diagonalize(g) == [frac(1), frac(-1)]
    assert reference.gram_diagonalize(g) == ([frac(1), frac(-1)], identity(2))


def test_gram_diagonalize_hyperbolic():
    g = [[frac(0), frac(1)], [frac(1), frac(0)]]
    diag = gram_diagonalize(g)
    assert signature(diag) == (1, 1, 0)
    ref_diag, t = reference.gram_diagonalize(g)
    assert diag == ref_diag
    product = mat_mul(transpose(t), mat_mul(g, t))
    assert product == [[diag[0], frac(0)], [frac(0), diag[1]]]


def _random_symmetric(rng, n, density, zero_diagonal):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density and not (zero_diagonal and i == j):
                g[i][j] = g[j][i] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return g


def test_gram_diagonalize_matches_dense_oracle():
    rng = random.Random(41)
    folds = 0
    for trial in range(2000):
        n = rng.randint(1, 7)
        zero_diagonal = trial % 4 == 0
        g = _random_symmetric(rng, n, rng.choice((0.2, 0.5, 1.0)), zero_diagonal)
        diag = gram_diagonalize(g)
        assert diag == reference.gram_diagonalize(g)[0], g
        assert all(type(d) is Fraction for d in diag)
        folds += zero_diagonal and any(any(row) for row in g)
    # the all-zero diagonals send the first step through the fold branch
    assert folds > 250
    # ints only, and ints mixed with Fractions
    for fractions in (False, True):
        for trial in range(200):
            g = _random_mixed_matrix(rng, rng.randint(1, 6), fractions)
            for i in range(len(g)):
                if trial % 4 == 0:
                    g[i][i] = 0
                for j in range(i):
                    g[i][j] = g[j][i]
            diag = gram_diagonalize(g)
            assert diag == reference.gram_diagonalize(g)[0], g
            assert all(type(d) is Fraction for d in diag)


def _primitive_gram_closed_form(m):
    """The primitive Gram alpha*I + beta*J of size m+3 with its diagonal.

    Its k-th Schur complement is alpha*I + beta_k*J with
    beta_k = alpha*beta/(alpha+k*beta), so the k-th pivot is
    alpha*(alpha+(k+1)*beta)/(alpha+k*beta)."""
    d, o = pairing_constants(m)
    alpha, beta = d - o, o - Fraction(1, 4)
    n = m + 3
    gram = [[alpha * (i == j) + beta for j in range(n)] for i in range(n)]
    diag = [alpha * (alpha + (k + 1) * beta) / (alpha + k * beta) for k in range(n)]
    return gram, diag


def test_gram_diagonalize_primitive_grams():
    for m in range(4, 61, 2):
        gram, expected = _primitive_gram_closed_form(m)
        diag = gram_diagonalize(gram)
        assert diag == expected, m
        # the dense oracle costs O(n^3) Fraction steps; a few sizes suffice
        if m <= 12 or m == 24:
            assert gram == cohomology_reference.primitive_gram(m)[0], m
            assert diag == reference.gram_diagonalize(gram)[0], m


def test_gram_diagonalize_rejects_asymmetric():
    with pytest.raises(ValueError):
        gram_diagonalize([[frac(0), frac(1)], [frac(2), frac(0)]])


def _random_unimodular(rng, n):
    m = identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-2, 2))
        for r in range(n):
            m[r][i] += c * m[r][j]
    return m


def test_signature_invariant_under_congruence():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 5)
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                g[i][j] = g[j][i]
        base_sig = signature(gram_diagonalize(g))
        u = _random_unimodular(rng, n)
        conj = mat_mul(transpose(u), mat_mul(g, u))
        assert signature(gram_diagonalize(conj)) == base_sig


def test_congruence_identity_holds():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 5)
        g = _random_matrix(rng, n)
        for i in range(n):
            for j in range(i):
                g[i][j] = g[j][i]
        diag, t = reference.gram_diagonalize(g)
        assert gram_diagonalize(g) == diag
        product = mat_mul(transpose(t), mat_mul(g, t))
        for i in range(n):
            for j in range(n):
                assert product[i][j] == (diag[i] if i == j else 0)


def test_fraction_sum_matches_schoolbook():
    rng = random.Random(31)
    for _ in range(200):
        a, c = rng.randint(-50, 50), rng.randint(-50, 50)
        b, d = rng.randint(1, 50), rng.randint(1, 50)
        total = Fraction(a, b) + Fraction(c, d)
        num, den = a * d + c * b, b * d
        g = gcd(abs(num), den)
        if g:
            num, den = num // g, den // g
        assert (total.numerator, total.denominator) == (num, den)


def _span_mod(vectors, n, p):
    """Every F_p combination of the vectors, as a set of n-tuples."""
    return {
        tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) % p for j in range(n))
        for coeffs in product(range(p), repeat=len(vectors))
    }


def test_rank_and_kernel_mod_p_against_brute_force():
    rng = random.Random(37)
    for p in (3, 5, 7):
        for _ in range(15):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            if rng.random() < 0.4 and rows > 1:
                m[-1] = [3 * x - y for x, y in zip(m[0], m[1 % rows])]
            r = rank(m, p)
            # the row space has p^rank elements
            assert len(_span_mod(m, cols, p)) == p**r
            null = {
                v for v in product(range(p), repeat=cols)
                if all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in m)
            }
            basis = kernel_basis(m, p)
            assert len(basis) == cols - r
            assert all(0 <= x < p for v in basis for x in v)
            assert _span_mod(basis, cols, p) == null


def test_kernel_over_rationals_finds_the_restriction_null_class():
    from twoquadrics.specialfiber import restriction_map

    rmap = restriction_map(4)
    rows = rmap.matrix
    # row operations keep the kernel; mix in rational multiples
    mixed = [list(row) for row in rows]
    for i in range(1, len(mixed)):
        mixed[0] = [a + frac(i, 3) * b for a, b in zip(mixed[0], mixed[i])]
        mixed[i] = [b - frac(1, 2) * a for a, b in zip(mixed[i - 1], mixed[i])]
    assert rank(mixed) == rank(rows) == len(rows)
    basis = kernel_basis(mixed)
    assert basis == rmap.kernel() == [[Fraction(int(j == 1)) for j in range(len(rows[0]))]]
    assert all(type(x) is Fraction for x in basis[0])
