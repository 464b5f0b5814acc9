"""Truncated power series over Q and Euler characteristics of complete
intersections in projective space via their total Chern class."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod


@dataclass(frozen=True)
class TruncSeries:
    """Univariate power series truncated below degree ``cap``."""

    cap: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("cap must be positive")
        if len(self.coeffs) != self.cap:
            raise ValueError("coefficient list must have length cap")

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]


def series(cap: int, coeffs) -> TruncSeries:
    cs = [Fraction(c) for c in coeffs][:cap]
    cs += [Fraction(0)] * (cap - len(cs))
    return TruncSeries(cap, tuple(cs))


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Cauchy product truncated at the shared cap."""
    if a.cap != b.cap:
        raise ValueError("cap mismatch")
    out = [Fraction(0)] * a.cap
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j in range(a.cap - i):
            if b.coeffs[j]:
                out[i + j] += x * b.coeffs[j]
    return TruncSeries(a.cap, tuple(out))


def series_inv(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse up to the cap; needs a nonzero constant term."""
    if not a.coeffs[0]:
        raise ValueError("series with zero constant term has no inverse")
    inv0 = 1 / a.coeffs[0]
    out = [inv0] + [Fraction(0)] * (a.cap - 1)
    for n in range(1, a.cap):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += a.coeffs[k] * out[n - k]
        out[n] = -acc * inv0
    return TruncSeries(a.cap, tuple(out))


@dataclass(frozen=True)
class CIDescriptor:
    """A complete intersection of the given multidegree in P^ambient_dim."""

    ambient_dim: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be at least 1")
        if self.m < 0:
            raise ValueError("codimension exceeds ambient dimension")

    @property
    def m(self) -> int:
        return self.ambient_dim - len(self.degrees)


def total_chern(ci: CIDescriptor, cap: int | None = None) -> TruncSeries:
    """Total Chern class of the tangent bundle, written in the ambient
    hyperplane variable: (1+w)^(N+1) / prod_i (1 + d_i w)."""
    if cap is None:
        cap = ci.m + 1
    if cap < ci.m + 1:
        raise ValueError("cap must be at least m+1")
    numerator = series(cap, [comb(ci.ambient_dim + 1, k) for k in range(cap)])
    out = numerator
    for d in ci.degrees:
        out = series_mul(out, series_inv(series(cap, [1, d])))
    return out


def euler_char(ci: CIDescriptor) -> int:
    """Topological Euler characteristic: degree times the top Chern
    coefficient of total_chern."""
    value = total_chern(ci)[ci.m] * prod(ci.degrees)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral Euler characteristic {value}")
    return int(value)


def primitive_middle_dim(ci: CIDescriptor) -> int:
    """Rank of the non-ambient part of the middle cohomology, even
    dimension only.  Odd-dimensional varieties follow a different rule and
    are rejected here; their middle ranks are recorded as table data where
    needed."""
    if ci.m % 2:
        raise ValueError("primitive middle rank formula requires even dimension")
    return euler_char(ci) - (ci.m + 1)
