"""Euler characteristics of complete intersections in projective space
via their total Chern class, computed in integers."""

from __future__ import annotations

from math import comb, prod


class CIDescriptor:
    """A complete intersection of the given multidegree in P^ambient_dim."""

    __slots__ = ("ambient_dim", "degrees")

    def __init__(self, ambient_dim: int, degrees):
        self.ambient_dim = ambient_dim
        self.degrees = tuple(int(d) for d in degrees)
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be at least 1")
        if self.m < 0:
            raise ValueError("codimension exceeds ambient dimension")

    @property
    def m(self) -> int:
        return self.ambient_dim - len(self.degrees)


def total_chern(ci: CIDescriptor) -> list[int]:
    """Total Chern class of the tangent bundle up to degree m, written in
    the ambient hyperplane variable: (1+w)^(N+1) / prod_i (1 + d_i w).
    Dividing by 1 + d*w is the ascending step c[k] -= d * c[k-1]."""
    c = [comb(ci.ambient_dim + 1, k) for k in range(ci.m + 1)]
    for d in ci.degrees:
        for k in range(1, ci.m + 1):
            c[k] -= d * c[k - 1]
    return c


def euler_char(ci: CIDescriptor) -> int:
    """Topological Euler characteristic: degree times the top Chern
    coefficient of total_chern."""
    return total_chern(ci)[ci.m] * prod(ci.degrees)


def primitive_middle_dim(ci: CIDescriptor) -> int:
    """Rank of the non-ambient part of the middle cohomology, even
    dimension only.  Odd-dimensional varieties follow a different rule and
    are rejected here; their middle ranks are recorded as table data where
    needed."""
    if ci.m % 2:
        raise ValueError("primitive middle rank formula requires even dimension")
    return euler_char(ci) - (ci.m + 1)
