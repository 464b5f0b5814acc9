"""Finite-field brute-force checks of the degeneration family's geometry.

The family lives in A^1 x P^{m+2}: a fixed quadric together with a moving
equation t*f2 + g1*g2, where f1 is a sum of squares, f2 a diagonal quadric
with weights lambda_i, and g1, g2 linear forms.  Scanning every F_p point
chart by chart verifies, at desk scale, that the rank-deficient locus of
the total space is exactly the base locus {t = f1 = f2 = g1 = g2 = 0},
that both blow-up charts are smooth of codimension 3, and that the divisor
and the blow-up center are themselves smooth.  A clean scan at several
primes is strong evidence for the characteristic-zero statement, not a
proof; reports say so.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from random import Random

from .exactmath import echelon, kernel_basis


class BudgetExceededError(RuntimeError):
    """Raised when a scan would touch more points than the budget allows."""


class DegenerateReductionError(ValueError):
    """Raised when the chosen data degenerates modulo the chosen prime."""


class Poly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("nvars", "terms", "_compiled")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    self.terms[tuple(exps)] = self.terms.get(tuple(exps), 0) + coeff
            self.terms = {e: c for e, c in self.terms.items() if c}
        # flat index lists make evaluation a plain product loop
        self._compiled = [
            (coeff, [i for i, e in enumerate(exps) for _ in range(e)])
            for exps, coeff in sorted(self.terms.items())
        ]

    @staticmethod
    def constant(nvars: int, value: int) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(index: int, nvars: int) -> "Poly":
        exps = [0] * nvars
        exps[index] = 1
        return Poly(nvars, {tuple(exps): 1})

    def __add__(self, other: "Poly") -> "Poly":
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return Poly(self.nvars, merged)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly(self.nvars, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def pad(self, nvars: int) -> "Poly":
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable count")
        return Poly(
            nvars, {e + (0,) * (nvars - self.nvars): c for e, c in self.terms.items()}
        )

    def partial(self, index: int) -> "Poly":
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                key = exps[:index] + (e - 1,) + exps[index + 1 :]
                out[key] = out.get(key, 0) + coeff * e
        return Poly(self.nvars, out)

    def eval_mod(self, point, p: int) -> int:
        acc = 0
        for coeff, idxs in self._compiled:
            v = coeff
            for i in idxs:
                v *= point[i]
            acc += v
        return acc % p

    def content_hash(self) -> str:
        blob = repr(sorted(self.terms.items())).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {dict(sorted(self.terms.items()))})"


def diagonal_quadric(weights) -> Poly:
    n = len(weights)
    terms = {}
    for i, w in enumerate(weights):
        exps = [0] * n
        exps[i] = 2
        terms[tuple(exps)] = int(w)
    return Poly(n, terms)


def linear_form(coeffs) -> Poly:
    n = len(coeffs)
    terms = {}
    for i, c in enumerate(coeffs):
        exps = [0] * n
        exps[i] = 1
        terms[tuple(exps)] = int(c)
    return Poly(n, terms)


@dataclass(frozen=True)
class PencilData:
    """Integer data defining the family: diagonal weights and the two
    linear forms, all in m+3 homogeneous variables."""

    m: int
    lambdas: tuple[int, ...]
    g1: tuple[int, ...]
    g2: tuple[int, ...]

    def __post_init__(self):
        n = self.m + 3
        if len(self.lambdas) != n or len(self.g1) != n or len(self.g2) != n:
            raise ValueError(f"need exactly {n} coefficients per datum")
        if len(set(self.lambdas)) != n:
            raise ValueError("diagonal weights must be pairwise distinct")

    def polys(self) -> dict[str, Poly]:
        n = self.m + 3
        return {
            "f1": diagonal_quadric([1] * n),
            "f2": diagonal_quadric(self.lambdas),
            "g1": linear_form(self.g1),
            "g2": linear_form(self.g2),
        }


def projective_reps(nvars: int, p: int):
    """Every F_p point of projective space exactly once: first nonzero
    coordinate normalized to 1, chart by chart."""
    for lead in range(nvars):
        prefix = (0,) * lead + (1,)
        for tail in product(range(p), repeat=nvars - 1 - lead):
            yield prefix + tail


def projective_count(nvars: int, p: int) -> int:
    return (p**nvars - 1) // (p - 1)


DEFAULT_BUDGET = 2_000_000


def _check_budget(nvars: int, p: int, budget: int) -> None:
    count = projective_count(nvars, p)
    if count > budget:
        raise BudgetExceededError(
            f"scan of {count} projective points exceeds the budget {budget}; "
            "use a smaller prime"
        )


def enumerate_points(system, p: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All projective F_p points satisfying every polynomial in the system."""
    nvars = system[0].nvars
    if any(poly.nvars != nvars for poly in system):
        raise ValueError("system polynomials disagree on the variable count")
    _check_budget(nvars, p, budget)
    return [
        pt
        for pt in projective_reps(nvars, p)
        if all(poly.eval_mod(pt, p) == 0 for poly in system)
    ]


def _rank_mod(rows, p: int) -> int:
    return len(echelon(rows, p)[1])


def jacobian_rank(system, point, p: int) -> int:
    """Rank over F_p of the matrix of formal partials at a point of the
    variety; rows are equations, columns variables."""
    if any(poly.eval_mod(point, p) != 0 for poly in system):
        raise ValueError("point does not satisfy the system")
    rows = [
        [poly.partial(i).eval_mod(point, p) for i in range(poly.nvars)]
        for poly in system
    ]
    return _rank_mod(rows, p)


def _lambda_collisions(lambdas, p: int) -> list[tuple[int, int]]:
    pairs = []
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            if (lambdas[i] - lambdas[j]) % p == 0:
                pairs.append((i, j))
    return pairs


def _forms_independent(g1, g2, p: int) -> bool:
    return _rank_mod([list(g1), list(g2)], p) == 2


def _validate(data: PencilData, p: int, allow_lambda_collisions: bool) -> list[tuple[int, int]]:
    if not _forms_independent(data.g1, data.g2, p):
        raise DegenerateReductionError(
            f"the two linear forms are dependent mod {p}; "
            "choose a different pair or another prime"
        )
    collisions = _lambda_collisions(data.lambdas, p)
    if collisions and not allow_lambda_collisions:
        raise DegenerateReductionError(
            f"diagonal weights collide mod {p} at index pairs {collisions}; "
            "retry with a larger prime or pass allow_lambda_collisions=True"
        )
    return collisions


def _scan_base(data: PencilData, p: int):
    """One pass over P^{m+2}(F_p) yielding each representative with the
    values of f1, f2, g1, g2."""
    polys = data.polys()
    f1, f2, g1, g2 = polys["f1"], polys["f2"], polys["g1"], polys["g2"]
    for pt in projective_reps(data.m + 3, p):
        yield pt, f1.eval_mod(pt, p), f2.eval_mod(pt, p), g1.eval_mod(pt, p), g2.eval_mod(pt, p)


def _equation_hashes(data: PencilData) -> dict[str, str]:
    return {name: poly.content_hash() for name, poly in data.polys().items()}


def singular_locus_check(
    data: PencilData,
    p: int,
    t_samples=None,
    allow_lambda_collisions: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Compare the rank-deficient locus of the total space with the base
    locus, fiber by fiber.

    At t = 0 the two sets must agree pointwise; that is the verdict.  At
    t != 0 rank-deficient points are possible for unlucky reductions and
    are reported as statistics only.
    """
    collisions = _validate(data, p, allow_lambda_collisions)
    _check_budget(data.m + 3, p, budget)
    if t_samples is None:
        t_samples = list(range(p))
    polys = data.polys()
    n = data.m + 3
    df1 = [polys["f1"].partial(i) for i in range(n)]
    df2 = [polys["f2"].partial(i) for i in range(n)]
    dg1 = list(data.g1)
    dg2 = list(data.g2)

    scanned = 0
    on_family = 0
    t_zero_expected: list[tuple[int, ...]] = []
    t_zero_deficient: list[tuple[int, ...]] = []
    nonzero_t_deficient: list[tuple[int, tuple[int, ...]]] = []
    for pt, v1, v2, w1, w2 in _scan_base(data, p):
        scanned += 1
        if v1:
            continue
        row1 = None
        for t in t_samples:
            if (t * v2 + w1 * w2) % p:
                continue
            on_family += 1
            if row1 is None:
                row1 = [d.eval_mod(pt, p) for d in df1] + [0]
            row2 = [
                (t * d.eval_mod(pt, p) + w1 * b + w2 * a) % p
                for d, a, b in zip(df2, dg1, dg2)
            ] + [v2]
            deficient = _rank_mod([row1, row2], p) < 2
            if t == 0:
                if v2 == 0 and w1 == 0 and w2 == 0:
                    t_zero_expected.append(pt)
                if deficient:
                    t_zero_deficient.append(pt)
            elif deficient:
                nonzero_t_deficient.append((t, pt))
    expected = set(t_zero_expected)
    deficient = set(t_zero_deficient)
    discrepancies = sorted(expected ^ deficient)
    return {
        "check": "singular-locus",
        "m": data.m,
        "prime": p,
        "equations": _equation_hashes(data),
        "lambda_collisions": collisions,
        "points_scanned": scanned,
        "points_on_family": on_family,
        "t_zero": {
            "base_locus_points": len(expected),
            "rank_deficient_points": len(deficient),
            "discrepancies": discrepancies,
            "sets_equal": not discrepancies,
        },
        "t_nonzero": {
            "fibers_checked": len([t for t in t_samples if t % p]),
            "rank_deficient_points": len(nonzero_t_deficient),
            "informational": True,
        },
        "evidence_note": (
            "finite-field scan: agreement at several primes is strong "
            "evidence, not a characteristic-zero proof"
        ),
        "ok": not discrepancies,
    }


def chart_systems(data: PencilData) -> dict[str, list[Poly]]:
    """The two affine blow-up charts; variables are the m+3 homogeneous
    coordinates, then t, then the chart coordinate."""
    n = data.m + 3
    total = n + 2
    polys = {k: v.pad(total) for k, v in data.polys().items()}
    t = Poly.variable(n, total)
    chart_var = Poly.variable(n + 1, total)
    return {
        "chart_T": [
            polys["f1"],
            polys["f2"] + polys["g1"] * chart_var,
            t * chart_var - polys["g2"],
        ],
        "chart_G2": [
            polys["f1"],
            chart_var * polys["f2"] + polys["g1"],
            t - polys["g2"] * chart_var,
        ],
    }


def _chart_t_solutions(a: int, b: int, c: int, p: int) -> list[tuple[int, int]]:
    # equations: a + b*G2 = 0 and t*G2 = c
    if b % p:
        g2_values = [(-a * pow(b, p - 2, p)) % p]
    elif a % p:
        return []
    else:
        g2_values = list(range(p))
    sols = []
    for gv in g2_values:
        if gv:
            sols.append(((c * pow(gv, p - 2, p)) % p, gv))
        elif c % p == 0:
            sols.extend((tv, 0) for tv in range(p))
    return sols


def _chart_g2_solutions(a: int, b: int, c: int, p: int) -> list[tuple[int, int]]:
    # equations: a*T + b = 0 and t = c*T
    if a % p:
        tv = (-b * pow(a, p - 2, p)) % p
        return [((c * tv) % p, tv)]
    if b % p:
        return []
    return [((c * tv) % p, tv) for tv in range(p)]


def chart_smoothness_check(
    data: PencilData,
    p: int,
    allow_lambda_collisions: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Every F_p point of each blow-up chart must have Jacobian rank 3;
    additionally the divisor must meet transversally (three differentials
    of rank 3) and the blow-up center must be smooth (four differentials
    of rank 4)."""
    collisions = _validate(data, p, allow_lambda_collisions)
    n = data.m + 3
    _check_budget(n, p, budget)
    charts = chart_systems(data)
    partials = {
        name: [[poly.partial(i) for i in range(n + 2)] for poly in system]
        for name, system in charts.items()
    }
    base_polys = data.polys()
    grads = {
        name: [poly.partial(i) for i in range(n)] for name, poly in base_polys.items()
    }

    chart_points = 0
    chart_failures: list[tuple[str, tuple[int, ...]]] = []
    divisor_points = 0
    divisor_failures: list[tuple[int, ...]] = []
    center_points = 0
    center_failures: list[tuple[int, ...]] = []

    for pt, v1, v2, w1, w2 in _scan_base(data, p):
        if v1:
            continue
        lead = next(i for i, x in enumerate(pt) if x)
        cols = [i for i in range(n + 2) if i != lead]
        for name, solver in (
            ("chart_T", _chart_t_solutions),
            ("chart_G2", _chart_g2_solutions),
        ):
            for t_val, cv in solver(v2, w1, w2, p):
                chart_points += 1
                full = pt + (t_val, cv)
                rows = [
                    [dp[i].eval_mod(full, p) for i in cols]
                    for dp in partials[name]
                ]
                if _rank_mod(rows, p) != 3:
                    chart_failures.append((name, full))
        if w1 == 0 and w2 == 0:
            divisor_points += 1
            rows = [
                [g.eval_mod(pt, p) for g in grads["f1"]],
                list(data.g1),
                list(data.g2),
            ]
            if _rank_mod(rows, p) != 3:
                divisor_failures.append(pt)
            if v2 == 0:
                center_points += 1
                rows.insert(1, [g.eval_mod(pt, p) for g in grads["f2"]])
                if _rank_mod(rows, p) != 4:
                    center_failures.append(pt)

    ok = not (chart_failures or divisor_failures or center_failures)
    t_index = n  # position of the base parameter inside a chart point
    return {
        "check": "chart-smoothness",
        "m": data.m,
        "prime": p,
        "equations": _equation_hashes(data),
        "lambda_collisions": collisions,
        "chart_points": chart_points,
        "chart_rank_failures": chart_failures,
        "chart_failures_over_t_zero": sum(
            1 for _, pt_ in chart_failures if pt_[t_index] == 0
        ),
        "chart_failures_over_t_nonzero": sum(
            1 for _, pt_ in chart_failures if pt_[t_index] != 0
        ),
        "divisor_points": divisor_points,
        "divisor_rank_failures": divisor_failures,
        "center_points": center_points,
        "center_rank_failures": center_failures,
        "evidence_note": (
            "finite-field scan: agreement at several primes is strong "
            "evidence, not a characteristic-zero proof"
        ),
        "ok": ok,
    }


def _center_singular_mod(m, lambdas, g1, g2, p: int) -> bool:
    """Whether the blow-up center {f1 = f2 = g1 = g2 = 0} is singular mod
    p, checked directly on the codimension-two linear subspace cut out by
    the forms."""
    span = kernel_basis([list(g1), list(g2)], p)
    n = m + 3
    for y in projective_reps(len(span), p):
        x = [sum(span[j][i] * y[j] for j in range(len(span))) % p for i in range(n)]
        if sum(v * v for v in x) % p:
            continue
        if sum(lam * v * v for lam, v in zip(lambdas, x)) % p:
            continue
        rows = [
            [2 * v % p for v in x],
            [2 * lam * v % p for lam, v in zip(lambdas, x)],
            list(g1),
            list(g2),
        ]
        if _rank_mod(rows, p) != 4:
            return True
    return False


def _form_degeneracies(m, lambdas, g1, g2, p: int) -> list[str]:
    """Genericity conditions modulo p that the family construction assumes:
    independent forms, smooth component quadrics, a smooth divisor
    section, and a smooth blow-up center."""
    problems = []
    if not _forms_independent(g1, g2, p):
        return ["linear forms dependent"]
    s11 = sum(a * a for a in g1) % p
    s22 = sum(b * b for b in g2) % p
    s12 = sum(a * b for a, b in zip(g1, g2)) % p
    if s11 == 0:
        problems.append("first component quadric singular")
    if s22 == 0:
        problems.append("second component quadric singular")
    if (s11 * s22 - s12 * s12) % p == 0:
        problems.append("divisor section degenerate")
    if _center_singular_mod(m, lambdas, g1, g2, p):
        problems.append("blow-up center singular")
    return problems


def default_pencil(m: int, primes=(5, 7, 11), seed: int = 0, lambdas=None) -> PencilData:
    """Deterministic family data: ascending weights unless overridden, a
    fixed arithmetic pattern for the first form when it survives the
    genericity screen, seeded redraws otherwise."""
    n = m + 3
    lambdas = tuple(range(n)) if lambdas is None else tuple(int(v) for v in lambdas)
    rng = Random(seed)
    g1 = tuple(range(1, n + 1))
    g2 = tuple(rng.randint(1, 40) for _ in range(n))
    for _ in range(500):
        if all(not _form_degeneracies(m, lambdas, g1, g2, p) for p in primes):
            return PencilData(m, lambdas, g1, g2)
        g1 = tuple(rng.randint(1, 40) for _ in range(n))
        g2 = tuple(rng.randint(1, 40) for _ in range(n))
    raise DegenerateReductionError(
        "no generic linear forms found; widen the coefficient range"
    )
