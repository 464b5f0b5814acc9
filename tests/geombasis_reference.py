"""The weights, power sums and plane check in Fractions, kept as the
oracles for the integer routes of ``twoquadrics.geombasis``.

``lagrange_weights`` multiplies out 1/prod_{j != i}(lambda_i - lambda_j) and
``power_sum`` adds lambda_i^p * c_i term by term, reading the weights from
the config as the library does.  ``verify_plane_in_x`` draws the same
random parametrizations from the same seed and evaluates
sum_i c_i q(lambda_i)^2 and sum_i c_i lambda_i q(lambda_i)^2 directly, by
Horner's rule in Fractions at every node.
"""

import random
from fractions import Fraction


def lagrange_weights(cfg):
    weights = []
    for i, li in enumerate(cfg.lambdas):
        denom = Fraction(1)
        for j, lj in enumerate(cfg.lambdas):
            if j != i:
                denom *= li - lj
        weights.append(1 / denom)
    return tuple(weights)


def power_sum(cfg, p):
    return sum((li**p * c for li, c in zip(cfg.lambdas, cfg.weights)), Fraction(0))


def _eval_poly(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def verify_plane_in_x(cfg, trials=100, seed=0):
    rng = random.Random(seed)
    degree = cfg.m // 2
    for _ in range(trials):
        q = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(degree + 1)
        ]
        first = Fraction(0)
        second = Fraction(0)
        for li, c in zip(cfg.lambdas, cfg.weights):
            sq = _eval_poly(q, li) ** 2
            first += c * sq
            second += c * li * sq
        if first or second:
            return False
    return True
