"""The plane check in Fractions, kept as the oracle for the integer route
of ``twoquadrics.geombasis.verify_plane_in_x``.

It draws the same random parametrizations from the same seed and evaluates
sum_i c_i q(lambda_i)^2 and sum_i c_i lambda_i q(lambda_i)^2 directly, by
Horner's rule in Fractions at every node.
"""

import random
from fractions import Fraction


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
