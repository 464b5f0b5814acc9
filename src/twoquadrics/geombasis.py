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


# The two projections of ``power_sums`` below keep their own names because
# the benchmark's traced run (bench/layers.py) wraps them by name, and an
# absent name fails its smoke run; the geombasis section calls neither, and
# they go once the benchmark traces power_sums instead.
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


# Trials evaluated together, and coefficients per packed chunk; see
# verify_plane_in_x.
_BLOCK = 100
_CHUNK = 32


def _packed_node_values(rows, nodes):
    """For each node a, in order, the list [sum_k row[k] * a^k for each row]:
    the rows are integer coefficient lists of one length, constant term
    first, evaluated together in packed chunks as ``verify_plane_in_x``
    describes."""
    count = len(rows[0])
    radius = max(abs(a) for a in nodes)
    bound = max(abs(c) for row in rows for c in row) * sum(
        radius**r for r in range(min(_CHUNK, count))
    )
    size = (bound.bit_length() + 8) // 8  # bytes per slot: bound < 2^(8*size-1)
    half = 1 << (8 * size - 1)
    slots = len(rows)
    offset = int.from_bytes(half.to_bytes(size, "little") * slots, "little")
    packed = [
        int.from_bytes(
            b"".join((row[k] + half).to_bytes(size, "little") for row in rows), "little"
        )
        - offset
        for k in range(count)
    ]
    length = slots * size
    starts = range(0, count, _CHUNK)[::-1]
    for a in nodes:
        chunks = []
        for start in starts:
            acc = 0
            for coeff in reversed(packed[start : start + _CHUNK]):
                acc = acc * a + coeff
            raw = (acc + offset).to_bytes(length, "little")
            chunks.append(
                [int.from_bytes(raw[s : s + size], "little") - half for s in range(0, length, size)]
            )
        values = chunks[0]
        radix = a**_CHUNK
        for chunk in chunks[1:]:
            values = [h * radix + v for h, v in zip(values, chunk)]
        yield values


def verify_plane_in_x(cfg: LambdaConfig, trials: int = 100, seed: int = 0) -> bool:
    """Random points of the plane satisfy both quadrics exactly.

    A point is parametrized by a polynomial q of degree at most m/2 whose
    coefficients are drawn as n/d with -9 <= n <= 9 and 1 <= d <= 9; the
    two quadrics evaluate to sum_i c_i q(lambda_i)^2 and
    sum_i c_i lambda_i q(lambda_i)^2, which must both vanish.  Both sums
    are taken in integers, times a nonzero constant: with b the lcm of the
    node denominators and a_i = lambda_i*b, the coefficients become
    Q_k = q_k * 2520 * b^(deg-k) (2520 is a multiple of every d), so
    H_i = sum_k Q_k a_i^k is 2520 * b^deg * q(lambda_i), the same multiple
    for every i.  The weights c_i are scaled by L to integers W_i, and each
    node adds u = W_i * H_i^2 to the first sum and u * a_i to the second.

    The values H_i are exact, but taken for a block of trials at once.
    Each coefficient index is packed across the block into one integer,
    the trials' coefficients in signed slots w bits wide (w a multiple of
    8).  The coefficients are split into chunks of S consecutive ones,
    and Horner's rule on the packed integers evaluates every trial's
    chunk value sum_{r<S} Q_{jS+r} a^r at once: multiplying by a and
    adding act on each slot separately as long as every slot stays inside
    (-2^(w-1), 2^(w-1)), which max|Q| * sum_{r<S} max|a|^r < 2^(w-1), the
    bound w is chosen from, ensures.  Adding the offset 2^(w-1) to every
    slot makes each one nonnegative, so the slots are read off the bytes
    of the sum and the offset taken away again.  Each trial then combines
    its chunk values by Horner's rule in the radix a^S.

    S trades the packed work against the per-trial work: a slot needs
    about log2|a| bits per coefficient of a chunk, and every chunk past
    the first costs each trial one multiplication by a^S at every node.
    With a single chunk the slots are as wide as H from the first step,
    and the packed integers grow with m^2 times the trials.  S = 32 keeps
    the slots near 300 bits at m = 480, where it beat 8, 16, 64 and 128;
    up to m = 62 a polynomial is a single chunk.
    """
    if cfg.m < 0 or cfg.m % 2:
        raise ValueError("even dimension required")
    if trials < 1:
        raise ValueError("trials must be positive")
    randint = random.Random(seed).randint
    degree = cfg.m // 2
    b, nodes = _cleared(cfg.lambdas)
    scales = [b ** (degree - k) for k in range(degree + 1)]
    _, weights = _cleared(cfg.weights)
    for start in range(0, trials, _BLOCK):
        # numerator, then denominator, coefficient by coefficient: the draws
        # of Fraction(randint(-9, 9), randint(1, 9))
        rows = [
            [randint(-9, 9) * (2520 // randint(1, 9)) * scale for scale in scales]
            for _ in range(min(_BLOCK, trials - start))
        ]
        first = [0] * len(rows)
        second = [0] * len(rows)
        for a, w, values in zip(nodes, weights, _packed_node_values(rows, nodes)):
            for t, h in enumerate(values):
                u = w * (h * h)
                first[t] += u
                second[t] += u * a
        if any(first) or any(second):
            return False
    return True
