"""Exact power-sum identities behind the half-dimensional planes inside
the intersection of two quadrics.

With m+3 pairwise distinct nodes, the interpolation weights
c_i = 1/prod_{j != i}(lambda_i - lambda_j) satisfy
sum_i lambda_i^p c_i = 0 for p <= m+1 and = 1 at p = m+2.  The plane
constructions square every coordinate, so those two facts are all that is
needed: the defining quadrics evaluate to weighted power sums of degree
at most m+1 and vanish identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm


@dataclass(frozen=True)
class LambdaConfig:
    """Pairwise distinct nodes, with their interpolation weights computed
    once here for every power sum and plane check on the config."""

    lambdas: tuple[Fraction, ...]
    weights: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.lambdas)
        object.__setattr__(self, "lambdas", vals)
        if len(vals) < 2:
            raise ValueError("need at least two nodes")
        if len(set(vals)) != len(vals):
            raise ValueError("nodes must be pairwise distinct")
        object.__setattr__(self, "weights", lagrange_weights(self))

    @property
    def m(self) -> int:
        """Dimension of the intersection carved out by m+3 nodes."""
        return len(self.lambdas) - 3


def default_config(m: int) -> LambdaConfig:
    return LambdaConfig(tuple(Fraction(i) for i in range(m + 3)))


def lagrange_weights(cfg: LambdaConfig) -> tuple[Fraction, ...]:
    """Exact barycentric weights 1/prod_{j != i}(lambda_i - lambda_j)."""
    weights = []
    for i, li in enumerate(cfg.lambdas):
        denom = Fraction(1)
        for j, lj in enumerate(cfg.lambdas):
            if j != i:
                denom *= li - lj
        weights.append(1 / denom)
    return tuple(weights)


def power_sum(cfg: LambdaConfig, p: int) -> Fraction:
    """sum_i lambda_i^p * c_i; zero through degree m+1 and one at m+2."""
    return sum((li**p * c for li, c in zip(cfg.lambdas, cfg.weights)), Fraction(0))


def verify_points_on_quadrics(cfg: LambdaConfig) -> bool:
    """Both quadrics vanish on every spanning point of the plane: the
    squared coordinates turn the two equations into power sums of degree
    2k and 2k+1 for k up to m/2, all below the vanishing threshold."""
    if cfg.m < 0 or cfg.m % 2:
        raise ValueError("even dimension required")
    for k in range(cfg.m // 2 + 1):
        if power_sum(cfg, 2 * k) or power_sum(cfg, 2 * k + 1):
            return False
    return True


def verify_plane_in_x(cfg: LambdaConfig, trials: int = 100, seed: int = 0) -> bool:
    """Random points of the plane satisfy both quadrics exactly.

    A point is parametrized by a polynomial q of degree at most m/2; the
    two quadrics evaluate to sum_i c_i q(lambda_i)^2 and
    sum_i c_i lambda_i q(lambda_i)^2, which must both vanish.  Both sums
    are taken in integers, times a nonzero constant: with b the lcm of the
    node denominators, a_i = lambda_i*b, and the denominators of q cleared
    to Q, H_i = sum_k Q_k a_i^k b^(deg-k) is a multiple of q(lambda_i)
    that is the same for every i, and the weights c_i and c_i*lambda_i are
    scaled by one common L to integers W1_i and W2_i.
    """
    if cfg.m < 0 or cfg.m % 2:
        raise ValueError("even dimension required")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    degree = cfg.m // 2
    b = lcm(*(li.denominator for li in cfg.lambdas))
    nodes = [int(li * b) for li in cfg.lambdas]
    b_powers = [b**e for e in range(degree + 1)]
    second_weights = [c * li for li, c in zip(cfg.lambdas, cfg.weights)]
    scale = lcm(*(w.denominator for w in cfg.weights + tuple(second_weights)))
    w1 = [int(c * scale) for c in cfg.weights]
    w2 = [int(c * scale) for c in second_weights]
    for _ in range(trials):
        q = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(degree + 1)
        ]
        den = lcm(*(x.denominator for x in q))
        # Q_k * b^(deg-k), highest degree first for Horner's rule
        coeffs = [int(x * den) * b_powers[degree - k] for k, x in enumerate(q)][::-1]
        first = 0
        second = 0
        for a, c1, c2 in zip(nodes, w1, w2):
            acc = 0
            for coeff in coeffs:
                acc = acc * a + coeff
            sq = acc * acc
            first += c1 * sq
            second += c2 * sq
        if first or second:
            return False
    return True
