import random
from fractions import Fraction
from math import comb

import pytest

from twoquadrics.chern import (
    CIDescriptor,
    euler_char,
    primitive_middle_dim,
    total_chern,
)


def _long_division(numerator, denominator, cap):
    """Independent oracle: schoolbook long division of power series."""
    rem = [Fraction(c) for c in numerator] + [Fraction(0)] * cap
    den = [Fraction(c) for c in denominator]
    out = []
    for k in range(cap):
        q = rem[k] / den[0]
        out.append(q)
        for i, d in enumerate(den):
            if k + i < len(rem):
                rem[k + i] -= q * d
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _chern_oracle(ci):
    """(1+w)^(N+1) divided by prod_i (1 + d_i w), one long division."""
    denominator = [1]
    for d in ci.degrees:
        denominator = _poly_mul(denominator, [1, d])
    numerator = [comb(ci.ambient_dim + 1, k) for k in range(ci.ambient_dim + 2)]
    return _long_division(numerator, denominator, ci.m + 1)


def _assert_matches_oracle(ci):
    c = total_chern(ci)
    assert all(type(x) is int for x in c), ci
    assert c == _chern_oracle(ci), ci
    # multiplying back by prod_i (1 + d_i w) gives the numerator
    for d in ci.degrees:
        c = _poly_mul(c, [1, d])[: ci.m + 1]
    assert c == [comb(ci.ambient_dim + 1, k) for k in range(ci.m + 1)], ci


def test_long_division_oracle():
    assert _long_division([1], [1, 1], 4) == [1, -1, 1, -1]
    assert _long_division([1], [1, 4, 4], 5) == [1, -4, 12, -32, 80]
    assert _long_division([1], [2], 3) == [Fraction(1, 2), 0, 0]


def test_total_chern_of_projective_space_is_the_numerator():
    assert total_chern(CIDescriptor(4, ())) == [comb(5, k) for k in range(5)]


def test_total_chern_hyperplane_is_smaller_projective_space():
    ci = CIDescriptor(5, (1,))
    assert total_chern(ci) == [comb(5, k) for k in range(5)]


def test_total_chern_hypersurface_tables():
    # quartic K3 surface: c1 = 0, c2 = 6, chi = 24
    assert total_chern(CIDescriptor(3, (4,))) == [1, 0, 6]
    assert euler_char(CIDescriptor(3, (4,))) == 24
    # quintic threefold: c1 = 0, chi = -200
    assert total_chern(CIDescriptor(4, (5,)))[1] == 0
    assert euler_char(CIDescriptor(4, (5,))) == -200


def test_total_chern_times_degree_factors_is_the_numerator():
    for ci in (CIDescriptor(6, (2, 2)), CIDescriptor(9, (3, 1, 5)), CIDescriptor(3, (3,))):
        _assert_matches_oracle(ci)


def test_total_chern_quadric_pairs_against_long_division():
    for m in range(0, 13):
        _assert_matches_oracle(CIDescriptor(m + 2, (2, 2)))
    assert total_chern(CIDescriptor(6, (2, 2))) == [1, 3, 5, 3, 3]


def test_total_chern_random_against_long_division():
    rng = random.Random(5)
    for _ in range(300):
        degrees = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4)))
        ambient = rng.randint(len(degrees), len(degrees) + 10)
        _assert_matches_oracle(CIDescriptor(ambient, degrees))


def test_quadric_pair_euler_values():
    for m in (2, 4, 6, 8, 10, 12):
        assert euler_char(CIDescriptor(m + 2, (2, 2))) == 2 * m + 4


def test_quadric_pair_top_coefficient():
    ci = CIDescriptor(6, (2, 2))
    assert 4 * total_chern(ci)[4] == 12


def test_euler_independent_tables():
    # quadric threefold: one class in each even degree
    assert euler_char(CIDescriptor(4, (2,))) == 1 + 1 + 1 + 1
    # cubic surface: plane blown up in six points
    assert euler_char(CIDescriptor(3, (3,))) == 3 + 6
    assert 3 * total_chern(CIDescriptor(3, (3,)))[2] == 9


def test_primitive_middle_dim_values():
    for m in (2, 4, 6, 8, 10, 12):
        assert primitive_middle_dim(CIDescriptor(m + 2, (2, 2))) == m + 3
        assert primitive_middle_dim(CIDescriptor(m + 1, (2,))) == 1
    # the blow-up center is the same kind of variety two dimensions down
    for m in (4, 6, 8):
        assert primitive_middle_dim(CIDescriptor(m, (2, 2))) == (m - 2) + 3


def test_primitive_middle_dim_rejects_odd():
    with pytest.raises(ValueError):
        primitive_middle_dim(CIDescriptor(5, (2, 2)))
    with pytest.raises(ValueError):
        primitive_middle_dim(CIDescriptor(m := 6, (2, 1, 1)))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        CIDescriptor(3, (0,))
    with pytest.raises(ValueError):
        CIDescriptor(1, (2, 2))
    assert CIDescriptor(6, (2, 1, 1)).m == 3
