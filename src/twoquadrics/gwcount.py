"""Bookkeeping for the degeneration formula in genus zero.

The correlator under scrutiny pairs one insertion with every class of an
orthonormal primitive basis, in curve class m/2.  Splitting along the
degenerate fiber turns it into a sum over distributions of the insertions
between the two components, curve-class splittings, and tangency data
along the divisor.  Only the quadric-component factor is ever screened
here, the way the vanishing argument works: a term dies if an insertion
restricts to zero on that side, if the tangency count violates the
derived bound, if its virtual dimension misses the cohomological degree
budget, or if the configuration is too degenerate to support a stable
map.

A term's verdict depends only on its class (n1, beta1, l, S), S being the
sum of its divisor degrees; the other fields only multiply the count.  The
census therefore screens one representative per class and counts the
class's terms by two small integer tables, so its work is polynomial in m.
Only the terms of surviving classes are ever built.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from math import comb

from .specialfiber import x1_restriction

REASON_ZERO_INSERTION = "zero-insertion-restriction"
REASON_DIMENSION = "dimension-mismatch"
REASON_L_BOUND = "inequality-l-bound"
REASON_UNSTABLE = "unstable-configuration"

TERM_NOTES = (
    "divisor insertions range over the reduced half-degrees 1..m-1; "
    "degree-0 and top-degree divisor classes are excluded by that reduction",
    "only the quadric-component factor of each term is screened; the "
    "blown-up component factor is never evaluated",
)


class Verdict:
    __slots__ = ("vanishes", "reason")

    def __init__(self, vanishes: bool, reason: str | None):
        self.vanishes = vanishes
        self.reason = reason


class DegenerationTerm:
    """One candidate summand of the degeneration formula."""

    __slots__ = ("m", "x1_insertions", "beta1", "l", "mu", "delta_degrees")

    def __init__(
        self,
        m: int,
        x1_insertions: tuple[int, ...],  # indices of basis classes sent to the quadric side
        beta1: int,
        l: int,
        mu: tuple[int, ...],
        delta_degrees: tuple[int, ...],
    ):
        self.m = m
        self.x1_insertions = x1_insertions
        self.beta1 = beta1
        self.l = l
        self.mu = mu
        self.delta_degrees = delta_degrees

    @property
    def n1(self) -> int:
        return len(self.x1_insertions)


def degree_budget(term: DegenerationTerm) -> int:
    """Cohomological degree carried by the quadric-side insertions, in
    half-degree units: the divisor classes plus m/2 per interior marking."""
    return sum(term.delta_degrees) + term.n1 * (term.m // 2)


def _partitions(total: int, parts: int):
    """Partitions of ``total`` into exactly ``parts`` positive parts,
    weakly decreasing."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return

    def rec(remaining, k, cap):
        if k == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        for first in range(min(cap, remaining - k + 1), 0, -1):
            for rest in rec(remaining - first, k - 1, first):
                yield (first,) + rest

    yield from rec(total, parts, total)


def live_insertions(m: int) -> tuple[int, ...]:
    """The basis classes with nonzero quadric-side restriction.  A subset of
    insertions holding any other class has an identically zero factor."""
    return tuple(i for i in range(1, m + 4) if any(x1_restriction(i, m)))


def enumerate_terms(m: int):
    """Iterator over the candidate terms with every insertion live.

    Insertion assignments run over the subsets of ``live_insertions(m)``,
    by size and then in ``combinations`` order, and each expands into all
    of its curve data.  The 2^{m+3} - 2^{len(live)} assignments holding a
    dead class are never built; ``main_correlator_report`` counts them.
    """
    if m % 2 or m < 2:
        raise ValueError("dimension must be even and at least 2")
    live = live_insertions(m)
    every = {
        (n1, beta1, l): range(l, l * (m - 1) + 1)
        for n1 in range(len(live) + 1)
        for beta1 in range(m // 2 + 1)
        for l in range(beta1 + 1)
    }
    return _expand(m, live, every)


def _expand(m: int, live: tuple[int, ...], sums: dict):
    """The terms of the classes in ``sums``, which maps (n1, beta1, l) to
    the wanted divisor-degree sums: insertion subsets by size and then in
    ``combinations`` order, each with its curve data in order."""
    for n1 in sorted({key[0] for key in sums}):
        curves = [(beta1, l, sums[k, beta1, l]) for k, beta1, l in sorted(sums) if k == n1]
        for subset in combinations(live, n1):
            for beta1, l, wanted in curves:
                for mu in _partitions(beta1, l):
                    for deltas in combinations_with_replacement(range(1, m), l):
                        if sum(deltas) in wanted:
                            yield DegenerationTerm(m, subset, beta1, l, mu, deltas)


def l_bound(n1: int, m: int) -> int | None:
    """Largest admissible number of divisor markings, where the argument
    applies: 3-m with no interior insertion, 2-m/2 with one."""
    if n1 == 0:
        return 3 - m
    if n1 == 1:
        return 2 - m // 2
    return None


def screen_results(term: DegenerationTerm) -> tuple[bool | None, bool]:
    """Evaluate both screens independently: (passes the tangency bound or
    None when no bound applies, satisfies the exact dimension equation)."""
    m, n1 = term.m, term.n1
    bound = l_bound(n1, m)
    passes_bound = None if bound is None else term.l <= bound
    # relative virdim dim - 3 + (c1 - D).beta1 + n1 + l with dim m, c1 = m, D.beta = beta
    vd = m - 3 + (m - 1) * term.beta1 + n1 + term.l
    return passes_bound, vd == degree_budget(term)


def vanishing_check(term: DegenerationTerm) -> Verdict:
    """First applicable vanishing reason, or a surviving verdict.

    Order: stability of the quadric-side configuration, then the tangency
    bound, then the exact dimension equation; the insertion filter acts
    before any term is built.  Degenerate configurations with no curve
    class and fewer than three special points are flagged on their own:
    for m = 4 the one-interior-marking case actually satisfies the
    dimension equation, so stability is what kills it.
    """
    passes_bound, dim_ok = screen_results(term)
    if term.beta1 == 0 and term.n1 + term.l < 3:
        return Verdict(True, REASON_UNSTABLE)
    if passes_bound is False:
        return Verdict(True, REASON_L_BOUND)
    if not dim_ok:
        return Verdict(True, REASON_DIMENSION)
    return Verdict(False, None)


def screens_agree(terms) -> bool:
    """No term rejected by the tangency bound satisfies the dimension
    equation; over the census's class representatives, this cross-validates
    the inequality chain on every class of terms."""
    for term in terms:
        passes_bound, dim_ok = screen_results(term)
        if passes_bound is False and dim_ok:
            return False
    return True


def partition_counts(top: int) -> list[list[int]]:
    """p[l][b], the number of partitions of b into exactly l positive parts,
    for 0 <= l, b <= top."""
    p = [[0] * (top + 1) for _ in range(top + 1)]
    p[0][0] = 1
    for l in range(1, top + 1):
        for b in range(l, top + 1):
            # the smallest part is 1, or every part shrinks by 1
            p[l][b] = p[l - 1][b - 1] + p[l][b - l]
    return p


def delta_sum_counts(m: int) -> list[list[int]]:
    """N[l][S], the number of size-l multisets from 1..m-1 with sum S, for
    0 <= l <= m/2 and 0 <= S <= (m/2)*(m-1)."""
    top = m // 2
    n = [[0] * (top * (m - 1) + 1) for _ in range(top + 1)]
    n[0][0] = 1
    for degree in range(1, m):
        # ascending l, so a multiset may take this degree more than once
        for l in range(1, top + 1):
            row, shorter = n[l], n[l - 1]
            for s in range(degree, len(row)):
                row[s] += shorter[s - degree]
    for l, row in enumerate(n):
        if sum(row) != comb(m - 2 + l, l):
            raise ArithmeticError(f"divisor-degree table for l={l} misses multisets at m={m}")
    return n


def _deltas_with_sum(m: int, l: int, total: int) -> tuple[int, ...]:
    """A weakly increasing l-tuple from 1..m-1 with the given sum, which
    must lie in l..l*(m-1): ones, then one value between, then a run of
    m-1."""
    full, rest = divmod(total - l, m - 2) if m > 2 else (0, 0)
    if full == l:
        return (m - 1,) * l
    return (1,) * (l - full - 1) + (1 + rest,) + (m - 1,) * full


def census_classes(m: int, live: tuple[int, ...]) -> list[tuple[int, DegenerationTerm]]:
    """(number of terms, representative term) for every nonempty class
    (n1, beta1, l, S) of the terms whose insertions lie in ``live``, ordered
    by n1, beta1, l and S."""
    if m % 2 or m < 2:
        raise ValueError("dimension must be even and at least 2")
    top = m // 2
    p = partition_counts(top)
    n = delta_sum_counts(m)
    classes = []
    for n1 in range(len(live) + 1):
        subsets = comb(len(live), n1)
        for beta1 in range(top + 1):
            for l in range(beta1 + 1):
                if not p[l][beta1]:
                    continue
                mu = next(_partitions(beta1, l))
                for total, ways in enumerate(n[l]):
                    if ways:
                        term = DegenerationTerm(
                            m, live[:n1], beta1, l, mu, _deltas_with_sum(m, l, total)
                        )
                        classes.append((subsets * p[l][beta1] * ways, term))
    return classes


def main_correlator_report(m: int) -> dict:
    """Verdict census for the full enumeration and the resulting claim on
    the distinguished correlator.

    The insertion subsets holding a dead class are counted in closed form.
    Every other term is counted by its class: one representative per class
    goes through the screens, once for the verdict and once for their
    cross-check, and only the surviving classes are expanded into terms.
    """
    live = live_insertions(m)
    classes = census_classes(m, live)
    dead = 2 ** (m + 3) - 2 ** len(live)
    census = {REASON_ZERO_INSERTION: dead} if dead else {}
    total = dead
    surviving: dict[tuple[int, int, int], set[int]] = {}
    expected = 0
    for count, term in classes:
        total += count
        verdict = vanishing_check(term)
        if verdict.vanishes:
            census[verdict.reason] = census.get(verdict.reason, 0) + count
        else:
            surviving.setdefault((term.n1, term.beta1, term.l), set()).add(
                sum(term.delta_degrees)
            )
            expected += count
    survivors = list(_expand(m, live, surviving))
    if len(survivors) != expected:
        raise ArithmeticError(
            f"{len(survivors)} surviving terms expanded at m={m}, {expected} counted"
        )
    all_vanish = not survivors
    report = {
        "m": m,
        "curve_class": m // 2,
        "total_terms": total,
        "verdict_census": dict(sorted(census.items())),
        "surviving_terms": [
            {
                "n1": t.n1,
                "x1_insertions": list(t.x1_insertions),
                "beta1": t.beta1,
                "l": t.l,
                "mu": list(t.mu),
                "delta_degrees": list(t.delta_degrees),
            }
            for t in survivors
        ],
        "screens_consistent": screens_agree(term for _, term in classes),
        "notes": list(TERM_NOTES),
    }
    if m >= 4:
        report["status"] = "vanishes" if all_vanish else "contradicted"
        report["correlator_value"] = 0 if all_vanish else None
    else:
        report["status"] = "inconclusive"
        report["correlator_value"] = None
    return report
