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
from fractions import Fraction
from math import lcm, prod


class LambdaConfig:
    """Pairwise distinct nodes, with their interpolation weights computed
    once here for every power sum and plane check on the config."""

    __slots__ = ("lambdas", "weights")

    def __init__(self, lambdas):
        vals = tuple(Fraction(v) for v in lambdas)
        if len(vals) < 2:
            raise ValueError("need at least two nodes")
        if len(set(vals)) != len(vals):
            raise ValueError("nodes must be pairwise distinct")
        self.lambdas = vals
        self.weights = lagrange_weights(self)

    @property
    def m(self) -> int:
        """Dimension of the intersection carved out by m+3 nodes."""
        return len(self.lambdas) - 3


def default_config(m: int) -> LambdaConfig:
    return LambdaConfig(tuple(Fraction(i) for i in range(m + 3)))


def _cleared(values) -> tuple[int, list[int]]:
    """(d, [v*d for each v]), d the lcm of the denominators of the values."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def lagrange_weights(cfg: LambdaConfig) -> tuple[Fraction, ...]:
    """Exact barycentric weights 1/prod_{j != i}(lambda_i - lambda_j),
    taken in integers as b^(n-1)/prod_{j != i}(a_i - a_j), with b the lcm
    of the node denominators and a_i = lambda_i*b."""
    b, nodes = _cleared(cfg.lambdas)
    top = b ** (len(nodes) - 1)
    return tuple(
        Fraction(top, prod(ai - aj for j, aj in enumerate(nodes) if j != i))
        for i, ai in enumerate(nodes)
    )


def power_sums(cfg: LambdaConfig, count: int) -> list[Fraction]:
    """s_0 .. s_{count-1}, s_p = sum_i lambda_i^p * c_i: zero through degree
    m+1 and one at m+2.  The denominators are cleared once, from the weights
    ``cfg`` holds at the call: s_p = sum_i a_i^p * W_i / (b^p * L), W_i = c_i*L,
    with the numerator terms a_i^p * W_i kept as running products."""
    b, nodes = _cleared(cfg.lambdas)
    den, terms = _cleared(cfg.weights)
    sums = []
    for _ in range(count):
        sums.append(Fraction(sum(terms), den))
        terms = [t * a for t, a in zip(terms, nodes)]
        den *= b
    return sums


def power_sum(cfg: LambdaConfig, p: int) -> Fraction:
    """The one sum s_p of ``power_sums``."""
    return power_sums(cfg, p + 1)[p]


def verify_points_on_quadrics(cfg: LambdaConfig) -> bool:
    """Both quadrics vanish on every spanning point of the plane: the
    squared coordinates turn the two equations into power sums of degree
    2k and 2k+1 for k up to m/2, that is s_0 .. s_{m+1}, all below the
    vanishing threshold."""
    if cfg.m < 0 or cfg.m % 2:
        raise ValueError("even dimension required")
    return not any(power_sums(cfg, cfg.m + 2))


def verify_plane_in_x(cfg: LambdaConfig, trials: int = 100, seed: int = 0) -> bool:
    """Random points of the plane satisfy both quadrics exactly.

    A point is parametrized by a polynomial q of degree at most m/2; the
    two quadrics evaluate to sum_i c_i q(lambda_i)^2 and
    sum_i c_i lambda_i q(lambda_i)^2, which must both vanish.  Both sums
    are taken in integers, times a nonzero constant: with b the lcm of the
    node denominators, a_i = lambda_i*b, and the denominators of q cleared
    to Q, H_i = sum_k Q_k a_i^k b^(deg-k) is a multiple of q(lambda_i)
    that is the same for every i.  The weights c_i are scaled by L to
    integers W1_i, and W2_i = W1_i*a_i is c_i*lambda_i scaled by L*b.
    """
    if cfg.m < 0 or cfg.m % 2:
        raise ValueError("even dimension required")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    degree = cfg.m // 2
    b, nodes = _cleared(cfg.lambdas)
    b_powers = [b**e for e in range(degree + 1)]
    _, w1 = _cleared(cfg.weights)
    w2 = [w * a for w, a in zip(w1, nodes)]
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
