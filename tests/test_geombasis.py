import random
from fractions import Fraction

import pytest

import geombasis_reference as reference
from twoquadrics import geombasis
from twoquadrics.geombasis import (
    LambdaConfig,
    default_config,
    lagrange_weights,
    power_sum,
    power_sums,
    verify_plane_in_x,
    verify_points_on_quadrics,
)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _interpolant_top_coeff(nodes, exponent):
    """Independent oracle: top coefficient of the polynomial interpolating
    x^exponent at the nodes, built through explicit basis polynomials."""
    n = len(nodes)
    total = [Fraction(0)] * n
    for i, xi in enumerate(nodes):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            basis = _poly_mul(basis, [-xj, Fraction(1)])
            denom *= xi - xj
        scale = xi**exponent / denom
        for k, c in enumerate(basis):
            total[k] += scale * c
    return total[n - 1]


def test_weights_two_nodes():
    cfg = LambdaConfig((0, 1))
    assert lagrange_weights(cfg) == (Fraction(-1), Fraction(1))
    assert power_sum(cfg, 0) == 0


def test_weights_three_nodes():
    cfg = LambdaConfig((0, 1, 2))
    assert lagrange_weights(cfg) == (Fraction(1, 2), Fraction(-1), Fraction(1, 2))


def test_weights_sum_to_zero_default():
    cfg = default_config(4)
    assert sum(lagrange_weights(cfg)) == 0
    assert power_sum(cfg, 0) == 0


def test_power_sum_matches_interpolation_oracle():
    cfg = default_config(4)
    for p in range(0, 7):
        expected = _interpolant_top_coeff(cfg.lambdas, p)
        assert power_sum(cfg, p) == expected
    assert power_sum(cfg, 5) == 0
    assert power_sum(cfg, 6) == 1


def test_power_sum_pattern_random_configs():
    rng = random.Random(17)
    for m in (4, 6, 8, 10):
        for _ in range(20):
            nodes = set()
            while len(nodes) < m + 3:
                nodes.add(Fraction(rng.randint(-30, 30), rng.randint(1, 5)))
            cfg = LambdaConfig(tuple(sorted(nodes)))
            for p in range(m + 2):
                assert power_sum(cfg, p) == 0
            assert power_sum(cfg, m + 2) == 1


def test_points_on_quadrics():
    assert verify_points_on_quadrics(default_config(4))
    assert verify_points_on_quadrics(
        LambdaConfig(tuple(Fraction(i) for i in range(1, 10)))
    )
    # degenerate three-node case: only the constant point row
    assert verify_points_on_quadrics(LambdaConfig((0, 1, 2)))


def test_plane_reductions_via_power_sums():
    cfg = default_config(4)
    # constant parametrization reduces to the first two power sums
    assert power_sum(cfg, 0) == 0 and power_sum(cfg, 1) == 0
    # top-degree monomial parametrization reduces to the boundary sums
    assert power_sum(cfg, 4) == 0 and power_sum(cfg, 5) == 0


def test_plane_in_intersection_random_parametrizations():
    assert verify_plane_in_x(default_config(4), trials=100, seed=42)
    for m in (6, 8):
        assert verify_plane_in_x(default_config(m), trials=20, seed=1)


def _random_rational_config(rng, m):
    nodes = set()
    while len(nodes) < m + 3:
        nodes.add(Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
    return LambdaConfig(tuple(rng.sample(sorted(nodes), m + 3)))


def test_plane_check_matches_fraction_oracle():
    rng = random.Random(53)
    runs = [
        (_random_rational_config(rng, m), 8, seed) for m in (2, 4, 6, 8) for seed in range(6)
    ]
    # the benchmark's configuration, and a run over two blocks of trials
    runs.append((default_config(40), 100, 1))
    runs.append((_random_rational_config(rng, 6), geombasis._BLOCK + 1, 3))
    for cfg, trials, seed in runs:
        assert verify_plane_in_x(cfg, trials=trials, seed=seed)
        assert reference.verify_plane_in_x(cfg, trials=trials, seed=seed)


def _horner(row, a):
    acc = 0
    for c in reversed(row):
        acc = acc * a + c
    return acc


def _packed_values_checked_by_horner(rows, nodes):
    values = list(geombasis._packed_node_values(rows, nodes))
    assert values == [[_horner(row, a) for row in rows] for a in nodes]
    return values


def test_packed_node_values_match_integer_horner():
    chunk = geombasis._CHUNK
    rng = random.Random(73)
    # numerators -9..9 over denominators 5, 7, 8 and 9, cleared by 2520
    cleared = [n * (2520 // d) for n in range(-9, 10) for d in (5, 7, 8, 9)]
    for degree in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        for nodes in (list(range(degree + 3)), [-7, -3, 0, 2, 11], [-40, 39]):
            for trials in (1, 3, geombasis._BLOCK + 1):
                rows = [[rng.choice(cleared) for _ in range(degree + 1)] for _ in range(trials)]
                _packed_values_checked_by_horner(rows, nodes)
            # rows at the slot bound: every chunk value is max|c| times
            # sum_r max|a|^r at a = max|a|, or at a = -max|a| with the signs
            # alternating
            top = 9 * 2520
            radius = max(map(abs, nodes))
            rows = [
                [top] * (degree + 1),
                [-top] * (degree + 1),
                [top * (-1) ** k for k in range(degree + 1)],
                [-top * (-1) ** k for k in range(degree + 1)],
            ]
            _packed_values_checked_by_horner(rows, sorted({radius, -radius} | set(nodes)))


def test_packed_node_values_on_rational_nodes():
    # the plane check's integers: nodes a_i = lambda_i * b, and coefficient
    # k scaled by 2520 * b^(deg-k), so that the value is 2520 * b^deg * q(lambda_i)
    rng = random.Random(79)
    for m in (0, 2, 2 * geombasis._CHUNK - 2, 2 * geombasis._CHUNK, 2 * geombasis._CHUNK + 2):
        cfg = _random_rational_config(rng, m)
        b, nodes = geombasis._cleared(cfg.lambdas)
        degree = m // 2
        q = [Fraction(rng.randint(-9, 9), rng.choice((5, 7, 8, 9))) for _ in range(degree + 1)]
        row = [int(c * 2520) * b ** (degree - k) for k, c in enumerate(q)]
        rows = [row, [-c for c in row]]
        values = _packed_values_checked_by_horner(rows, nodes)
        for lam, (h, minus_h) in zip(cfg.lambdas, values):
            assert h == -minus_h == 2520 * b**degree * reference._eval_poly(q, lam)


def test_integer_weights_and_power_sums_match_fraction_oracle():
    rng = random.Random(67)
    configs = [_random_rational_config(rng, m) for m in (2, 4, 6, 8) for _ in range(6)]
    configs += [default_config(m) for m in range(0, 41)]
    for cfg in configs:
        weights = lagrange_weights(cfg)
        assert weights == reference.lagrange_weights(cfg) == cfg.weights
        assert all(type(c) is Fraction for c in weights)
        sums = power_sums(cfg, cfg.m + 5)
        for p in range(cfg.m + 5):
            value = power_sum(cfg, p)
            assert value == sums[p] == reference.power_sum(cfg, p), (cfg, p)
            assert type(value) is Fraction and type(sums[p]) is Fraction
    # every route reads the weights from the config at call time
    cfg = configs[0]
    object.__setattr__(cfg, "weights", cfg.weights[:-1] + (cfg.weights[-1] + Fraction(1, 7),))
    assert power_sum(cfg, 0) == Fraction(1, 7)
    sums = power_sums(cfg, cfg.m + 5)
    for p in range(cfg.m + 5):
        assert power_sum(cfg, p) == sums[p] == reference.power_sum(cfg, p)


def test_plane_check_rejects_a_perturbed_weight():
    rng = random.Random(59)
    for m in (2, 4, 6, 8):
        cfg = _random_rational_config(rng, m)
        weights = list(cfg.weights)
        weights[rng.randrange(m + 3)] += Fraction(1, 7)
        object.__setattr__(cfg, "weights", tuple(weights))
        assert not verify_plane_in_x(cfg, trials=8, seed=m)
        assert not reference.verify_plane_in_x(cfg, trials=8, seed=m)


def test_plane_check_rejects_weights_that_fail_only_the_second_quadric():
    # the weights of the first m+2 nodes, and 0 at the last, kill every
    # power sum through degree m, so sum_i c_i q(lambda_i)^2 still vanishes;
    # the degree m+1 sum is 1, so sum_i c_i lambda_i q(lambda_i)^2 does not
    rng = random.Random(61)
    for m in (2, 4, 6, 8):
        cfg = _random_rational_config(rng, m)
        weights = lagrange_weights(LambdaConfig(cfg.lambdas[:-1])) + (Fraction(0),)
        object.__setattr__(cfg, "weights", weights)
        assert power_sum(cfg, m) == 0 and power_sum(cfg, m + 1) == 1
        assert not verify_plane_in_x(cfg, trials=8, seed=m)
        assert not reference.verify_plane_in_x(cfg, trials=8, seed=m)


def test_plane_check_needs_a_trial():
    with pytest.raises(ValueError, match="trials"):
        verify_plane_in_x(default_config(4), trials=0)
    with pytest.raises(ValueError, match="trials"):
        verify_plane_in_x(default_config(4), trials=-3)


def test_repeated_nodes_rejected():
    with pytest.raises(ValueError):
        LambdaConfig((0, 0, 1))
    with pytest.raises(ValueError):
        LambdaConfig((Fraction(1, 2), Fraction(2, 4), Fraction(3)))


def test_odd_dimension_rejected():
    cfg = LambdaConfig((0, 1, 2, 3))  # m = 1
    with pytest.raises(ValueError):
        verify_points_on_quadrics(cfg)
    with pytest.raises(ValueError):
        verify_plane_in_x(cfg)
