"""Two reference routes through the degeneration census, kept as oracles for
the counted census in ``twoquadrics.gwcount``.

``streamed_report`` is the term-by-term route: every term of the live
insertion subsets, built by ``gwcount.enumerate_terms``, goes through the
census's own screens, and the dead subsets are counted in closed form.

``main_correlator_report`` is the exhaustive route: every one of the
2^{m+3} insertion subsets is visited and each of its classes is restricted
to the quadric side.  A subset holding a class that restricts to zero
becomes one dead entry with its verdict; every other subset expands into
all of its curve data.  The report is built from the whole list.  Both
reports must equal the counted one.

The dimension screen here goes through the general genus-zero relative
virtual dimension of a target with given dimension, c1 pairing and divisor
pairing, with the tangency multiplicities of every term validated, rather
than through the closed form the census uses for the quadric piece.  The
verdicts apply the census's three screens in its order (stability, tangency
bound, dimension) to that reference screen, so the reference report shares
no screening code with the counted one.
"""

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from twoquadrics import gwcount
from twoquadrics.gwcount import (
    REASON_DIMENSION,
    REASON_L_BOUND,
    REASON_UNSTABLE,
    REASON_ZERO_INSERTION,
    TERM_NOTES,
    DegenerationTerm,
    Verdict,
    _partitions,
    degree_budget,
    l_bound,
)
from twoquadrics.specialfiber import x1_restriction


@dataclass(frozen=True)
class RelativeGeometry:
    """Numerical data of a relative target: complex dimension, first-Chern
    pairing per unit curve class, and divisor pairing per unit curve
    class."""

    dim: int
    c1_coeff: int
    divisor_deg: int


def quadric_component_geometry(m: int) -> RelativeGeometry:
    """The quadric piece of the special fiber: c1 pairs to m per unit
    curve class and the divisor to 1."""
    return RelativeGeometry(dim=m, c1_coeff=m, divisor_deg=1)


@dataclass(frozen=True)
class RelativeProblem:
    """Genus-zero relative counting data: interior markings, divisor
    markings, curve class, tangency multiplicities."""

    n: int
    l: int
    beta: int
    mu: tuple[int, ...]

    def __post_init__(self):
        if len(self.mu) != self.l:
            raise ValueError("need one tangency multiplicity per divisor marking")
        if any(x < 1 for x in self.mu):
            raise ValueError("tangency multiplicities are positive")
        if sum(self.mu) != self.beta:
            raise ValueError("tangency multiplicities must sum to the curve class")


def virdim_relative(problem: RelativeProblem, geom: RelativeGeometry) -> int:
    """Virtual dimension of the genus-zero relative moduli problem."""
    return (
        geom.dim
        - 3
        + (geom.c1_coeff - geom.divisor_deg) * problem.beta
        + problem.n
        + problem.l
    )


def screen_results(term: DegenerationTerm) -> tuple[bool | None, bool]:
    """Both screens of one term, the dimension one through a validated
    ``RelativeProblem`` on the quadric piece's geometry."""
    bound = l_bound(term.n1, term.m)
    passes_bound = None if bound is None else term.l <= bound
    problem = RelativeProblem(term.n1, term.l, term.beta1, term.mu)
    vd = virdim_relative(problem, quadric_component_geometry(term.m))
    return passes_bound, vd == degree_budget(term)


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
        if dead_classes(subset, m):
            terms.append(DeadSubset(m, subset, Verdict(True, REASON_ZERO_INSERTION)))
        else:
            terms.extend(curve_data(m, subset))
    return terms


def verdict(term: DegenerationTerm, passes_bound: bool | None, dim_ok: bool) -> Verdict:
    """Stability first, then the tangency bound, then the dimension."""
    if term.beta1 == 0 and term.n1 + term.l < 3:
        return Verdict(True, REASON_UNSTABLE)
    if passes_bound is False:
        return Verdict(True, REASON_L_BOUND)
    if not dim_ok:
        return Verdict(True, REASON_DIMENSION)
    return Verdict(False, None)


def main_correlator_report(m: int) -> dict:
    terms = enumerate_terms(m)
    census: dict[str, int] = {}
    survivors = []
    screened = []
    for term in terms:
        if isinstance(term, DeadSubset):
            v = term.verdict
        else:
            screened.append(screen_results(term))
            v = verdict(term, *screened[-1])
        if v.vanishes:
            census[v.reason] = census.get(v.reason, 0) + 1
        else:
            survivors.append(term)
    consistent = not any(passes_bound is False and dim_ok for passes_bound, dim_ok in screened)
    return _report(m, len(terms), census, survivors, consistent)


def streamed_report(m: int) -> dict:
    """The census with every live term built and screened, and the screens
    cross-checked over a second stream of the same terms."""
    dead = 2 ** (m + 3) - 2 ** len(gwcount.live_insertions(m))
    census = {REASON_ZERO_INSERTION: dead} if dead else {}
    total = dead
    survivors = []
    for term in gwcount.enumerate_terms(m):
        total += 1
        v = gwcount.vanishing_check(term)
        if v.vanishes:
            census[v.reason] = census.get(v.reason, 0) + 1
        else:
            survivors.append(term)
    consistent = gwcount.screens_agree(gwcount.enumerate_terms(m))
    return _report(m, total, census, survivors, consistent)


def _report(m: int, total: int, census: dict, survivors: list, consistent: bool) -> dict:
    all_vanish = not survivors
    return {
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
        "screens_consistent": consistent,
        "notes": list(TERM_NOTES),
        "status": ("vanishes" if all_vanish else "contradicted") if m >= 4 else "inconclusive",
        "correlator_value": 0 if m >= 4 and all_vanish else None,
    }
