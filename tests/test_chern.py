import random
from fractions import Fraction
from math import comb

import pytest

from twoquadrics.chern import (
    CIDescriptor,
    euler_char,
    primitive_middle_dim,
    series,
    series_inv,
    series_mul,
    total_chern,
)


def series_one(cap):
    return series(cap, [1])


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


def test_series_mul_basic():
    cap = 3
    a = series(cap, [1, 1])
    b = series(cap, [1, -1])
    assert series_mul(a, b).coeffs == (1, 0, -1)
    sq = series_mul(series(2, [1, 1]), series(2, [1, 1]))
    assert sq.coeffs == (1, 2)


def test_series_mul_cap_mismatch():
    with pytest.raises(ValueError):
        series_mul(series(2, [1]), series(3, [1]))


def test_series_inv_geometric():
    inv = series_inv(series(4, [1, 1]))
    assert inv.coeffs == (1, -1, 1, -1)
    assert series_inv(series(3, [2])).coeffs == (Fraction(1, 2), 0, 0)


def test_series_inv_two_sided_contract():
    one_plus = series(6, [1, 2])
    assert series_mul(one_plus, series_inv(one_plus)).coeffs == series_one(6).coeffs


def test_series_inv_rejects_zero_constant():
    with pytest.raises(ValueError):
        series_inv(series(3, [0, 1]))


def test_inverse_square_against_long_division():
    cap = 5
    sq = series_mul(series(cap, [1, 2]), series(cap, [1, 2]))
    inv = series_inv(sq)
    assert inv.coeffs == (1, -4, 12, -32, 80)
    assert list(inv.coeffs) == _long_division([1], [1, 4, 4], cap)


def test_series_inv_two_sided_random():
    rng = random.Random(5)
    for _ in range(200):
        cap = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(1, 9))] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cap - 1)
        ]
        s = series(cap, coeffs)
        inv = series_inv(s)
        assert series_mul(s, inv).coeffs == series_one(cap).coeffs
        assert series_mul(inv, s).coeffs == series_one(cap).coeffs


def test_total_chern_hyperplane_is_smaller_projective_space():
    ci = CIDescriptor(5, (1,))
    assert total_chern(ci).coeffs == tuple(comb(5, k) for k in range(5))


def test_total_chern_cap_contract():
    with pytest.raises(ValueError):
        total_chern(CIDescriptor(6, (2, 2)), cap=3)


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
