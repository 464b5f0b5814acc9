"""The exhaustive route through the degeneration census, kept as a reference
for the streamed census in ``twoquadrics.gwcount``.

Here every one of the 2^{m+3} insertion subsets is visited and each of its
classes is restricted to the quadric side.  A subset holding a class that
restricts to zero becomes one dead entry with its verdict; every other
subset expands into all of its curve data.  The report is built from the
whole list and must equal the streamed one.
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from twoquadrics.gwcount import (
    REASON_ZERO_INSERTION,
    TERM_NOTES,
    DegenerationTerm,
    Verdict,
    _partitions,
    screen_results,
    vanishing_check,
)
from twoquadrics.specialfiber import x1_restriction


@dataclass(frozen=True)
class DeadSubset:
    """An insertion subset whose quadric-side factor is identically zero."""

    m: int
    x1_insertions: tuple[int, ...]
    verdict: Verdict


def all_subsets(m: int):
    """Every subset of the m+3 basis classes, by size, then in
    ``combinations`` order."""
    for n1 in range(m + 4):
        yield from combinations(range(1, m + 4), n1)


def dead_classes(subset, m: int) -> list[int]:
    return [i for i in subset if not any(x1_restriction(i, m))]


def curve_data(m: int, subset) -> list[DegenerationTerm]:
    """Every curve-class splitting and tangency datum for one subset."""
    return [
        DegenerationTerm(m, subset, beta1, l, mu, deltas)
        for beta1 in range(m // 2 + 1)
        for l in range(beta1 + 1)
        for mu in _partitions(beta1, l)
        for deltas in combinations_with_replacement(range(1, m), l)
    ]


def enumerate_terms(m: int) -> list:
    """One entry per dead subset and one term per curve datum of every other
    subset, in enumeration order."""
    if m % 2 or m < 2:
        raise ValueError("dimension must be even and at least 2")
    terms = []
    for subset in all_subsets(m):
        dead = dead_classes(subset, m)
        if dead:
            terms.append(
                DeadSubset(
                    m,
                    subset,
                    Verdict(
                        True,
                        REASON_ZERO_INSERTION,
                        f"classes {dead} restrict to zero on the quadric side",
                    ),
                )
            )
        else:
            terms.extend(curve_data(m, subset))
    return terms


def verdict(term) -> Verdict:
    return term.verdict if isinstance(term, DeadSubset) else vanishing_check(term)


def main_correlator_report(m: int) -> dict:
    terms = enumerate_terms(m)
    census: dict[str, int] = {}
    survivors = []
    for term in terms:
        v = verdict(term)
        if v.vanishes:
            census[v.reason] = census.get(v.reason, 0) + 1
        else:
            survivors.append(term)
    screened = [screen_results(t) for t in terms if isinstance(t, DegenerationTerm)]
    all_vanish = not survivors
    return {
        "m": m,
        "curve_class": m // 2,
        "total_terms": len(terms),
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
        "screens_consistent": not any(
            passes_bound is False and dim_ok for passes_bound, dim_ok in screened
        ),
        "notes": list(TERM_NOTES),
        "status": ("vanishes" if all_vanish else "contradicted") if m >= 4 else "inconclusive",
        "correlator_value": 0 if m >= 4 and all_vanish else None,
    }
