"""Finite-field brute-force checks of the degeneration family's geometry.

The family lives in A^1 x P^{m+2}: a fixed quadric together with a moving
equation t*f2 + g1*g2, where f1 is a sum of squares, f2 a diagonal quadric
with weights lambda_i, and g1, g2 linear forms.  Scanning every F_p point
of the quadric f1 = 0, with closed-form values and gradients, verifies at
desk scale that the rank-deficient locus of the total space is exactly the
base locus {t = f1 = f2 = g1 = g2 = 0}, that both blow-up charts are smooth
of codimension 3, and that the divisor and the blow-up center are
themselves smooth.  A clean scan at several
primes is strong evidence for the characteristic-zero statement, not a
proof; reports say so.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from operator import mul
from random import Random

from .exactmath import echelon, kernel_basis


class DegenerateReductionError(ValueError):
    """Raised when the chosen data degenerates modulo the chosen prime."""


class Poly:
    """Sparse multivariate polynomial with integer coefficients: the
    equations of the family, fingerprinted in every report."""

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


def _rank_mod(rows, p: int) -> int:
    return len(echelon(rows, p)[1])


def _lambda_collisions(lambdas, p: int) -> list[tuple[int, int]]:
    pairs = []
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            if (lambdas[i] - lambdas[j]) % p == 0:
                pairs.append((i, j))
    return pairs


def _forms_independent(g1, g2, p: int) -> bool:
    return _rank_mod([list(g1), list(g2)], p) == 2


def _validate(data: PencilData, p: int) -> list[tuple[int, int]]:
    """Rejects a reduction the scans cannot run on and returns the index
    pairs of weights that collide mod p, for the caller to label."""
    if p == 2:
        raise DegenerateReductionError("in characteristic 2 every quadric gradient vanishes")
    if not _forms_independent(data.g1, data.g2, p):
        raise DegenerateReductionError(
            f"the two linear forms are dependent mod {p}; "
            "choose a different pair or another prime"
        )
    return _lambda_collisions(data.lambdas, p)


def _square_roots(p: int) -> list[list[int]]:
    """The square roots of each residue mod p, ascending."""
    roots: list[list[int]] = [[] for _ in range(p)]
    for y in range(p):
        roots[y * y % p].append(y)
    return roots


def _quadric_count(n: int, p: int) -> int:
    """#{x_0^2 + ... + x_{n-1}^2 = 0} in P^{n-1}(F_p) for odd p: the
    parabolic count, plus chi((-1)^{n/2}) p^{(n-2)/2} when n is even."""
    count = projective_count(n - 1, p)
    if n % 2 == 0:
        chi = 1 if pow((-1) ** (n // 2) % p, (p - 1) // 2, p) == 1 else -1
        count += chi * p ** ((n - 2) // 2)
    return count


def _scan_base(data: PencilData, p: int):
    """Every point of the quadric f1 = 0 in P^{m+2}(F_p), in
    ``projective_reps`` order, with the values of f1 (zero), f2, g1 and g2.

    The first m+2 coordinates run over ``projective_reps``; the last one is
    solved from a table of square roots.  The number of points yielded is
    checked against the closed-form count of the quadric afterwards."""
    n = data.m + 3
    lam, a, b = data.lambdas, data.g1, data.g2
    roots = _square_roots(p)
    found = 0
    for head in projective_reps(n - 1, p):
        squares = list(map(mul, head, head))
        last = roots[-sum(squares) % p]
        if not last:
            continue
        v2 = sum(map(mul, lam, squares))
        w1 = sum(map(mul, a, head))
        w2 = sum(map(mul, b, head))
        for y in last:
            found += 1
            yield head + (y,), 0, (v2 + lam[-1] * y * y) % p, (w1 + a[-1] * y) % p, (w2 + b[-1] * y) % p
    expected = _quadric_count(n, p)
    if found != expected:
        raise ArithmeticError(
            f"the scan found {found} points on f1 = 0 mod {p}, the closed form {expected}"
        )


def _proportional(x, row, cols, j: int, p: int) -> bool:
    """Whether ``row`` is a multiple of ``x`` on the columns ``cols``,
    tested by the 2x2 minors against column j, where x[j] != 0."""
    xj, rj = x[j], row[j]
    return all((row[i] * xj - rj * x[i]) % p == 0 for i in cols)


def _equation_hashes(data: PencilData) -> dict[str, str]:
    return {name: poly.content_hash() for name, poly in data.polys().items()}


def singular_locus_check(data: PencilData, p: int) -> dict:
    """Compare the rank-deficient locus of the total space with the base
    locus, fiber by fiber over every t in F_p.

    At t = 0 the two sets must agree pointwise; that is the verdict.  At
    t != 0 rank-deficient points are possible for unlucky reductions and
    are reported as statistics only.
    """
    collisions = _validate(data, p)
    n = data.m + 3
    lam2 = [2 * v for v in data.lambdas]
    a, b = data.g1, data.g2

    on_family = 0
    t_zero_expected: list[tuple[int, ...]] = []
    t_zero_deficient: list[tuple[int, ...]] = []
    nonzero_t_deficient: list[tuple[int, tuple[int, ...]]] = []
    for pt, _, v2, w1, w2 in _scan_base(data, p):
        if v2:
            # one fiber, t = -g1*g2/f2, where the t column f2 gives rank 2
            on_family += 1
            continue
        if w1 and w2:  # f2 = 0 and g1*g2 != 0: on no fiber
            continue
        lead = pt.index(1)
        on_family += p
        for t in range(p):
            # [grad f1, 0] = [2x, 0] is nonzero, so with f2 = 0 the pair is
            # deficient exactly when [grad F2, 0] is a multiple of it: grad
            # F2 = c*x, with c read off the lead column, where x is 1
            grad = [t * l * x + w1 * bi + w2 * ai for l, x, ai, bi in zip(lam2, pt, a, b)]
            deficient = _proportional(pt, grad, range(n), lead, p)
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
        "points_scanned": projective_count(n, p),
        "points_on_family": on_family,
        "t_zero": {
            "base_locus_points": len(expected),
            "rank_deficient_points": len(deficient),
            "discrepancies": discrepancies,
            "sets_equal": not discrepancies,
        },
        "t_nonzero": {
            "fibers_checked": p - 1,
            "rank_deficient_points": len(nonzero_t_deficient),
            "informational": True,
        },
        "evidence_note": (
            "finite-field scan: agreement at several primes is strong "
            "evidence, not a characteristic-zero proof"
        ),
        "ok": not discrepancies,
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


def chart_smoothness_check(data: PencilData, p: int) -> dict:
    """Every F_p point of each blow-up chart must have Jacobian rank 3;
    additionally the divisor must meet transversally (three differentials
    of rank 3) and the blow-up center must be smooth (four differentials
    of rank 4)."""
    collisions = _validate(data, p)
    n = data.m + 3
    lam2 = [2 * v for v in data.lambdas]
    a, b = data.g1, data.g2

    chart_points = 0
    chart_failures: list[tuple[str, tuple[int, ...]]] = []
    divisor_points = 0
    divisor_failures: list[tuple[int, ...]] = []
    center_points = 0
    center_failures: list[tuple[int, ...]] = []

    # In the columns off the lead one, the chart rows are [2x, 0, 0], [grad
    # of the second equation, 0, e] and a third row whose t entry is G
    # (chart_T) or 1 (chart_G2).  Where that entry is nonzero, rank 3 means
    # the first two rows without the t column are independent: e != 0
    # (e is g1 on chart_T, f2 on chart_G2), or the gradient is no multiple
    # of x.
    for pt, _, v2, w1, w2 in _scan_base(data, p):
        if v2 and w1:
            # one point on each chart, at G = -f2/g1 != 0 on chart_T, and
            # both of rank 3; no divisor point
            chart_points += 2
            continue
        lead = pt.index(1)
        rest = [i for i in range(n) if i != lead]
        j = next(i for i in rest if pt[i])  # exists, since f1 = 0
        grad_f2 = [l * x for l, x in zip(lam2, pt)]
        for t_val, g in _chart_t_solutions(v2, w1, w2, p):
            chart_points += 1
            if g:  # G != 0 is left only where f2 = g1 = 0, so e = 0
                full_rank = not _proportional(
                    pt, [d + c * g for d, c in zip(grad_f2, a)], rest, j, p
                )
            else:
                rows = [
                    [2 * pt[i] for i in rest] + [0, 0],
                    [grad_f2[i] for i in rest] + [0, w1],
                    [-b[i] for i in rest] + [0, t_val],
                ]
                full_rank = _rank_mod(rows, p) == 3
            if not full_rank:
                chart_failures.append(("chart_T", pt + (t_val, g)))
        for t_val, g in _chart_g2_solutions(v2, w1, w2, p):
            chart_points += 1
            if not v2 and _proportional(
                pt, [g * d + c for d, c in zip(grad_f2, a)], rest, j, p
            ):
                chart_failures.append(("chart_G2", pt + (t_val, g)))
        if w1 == 0 and w2 == 0:
            divisor_points += 1
            rows = [[2 * x for x in pt], list(a), list(b)]
            if _rank_mod(rows, p) != 3:
                divisor_failures.append(pt)
            if v2 == 0:
                center_points += 1
                rows.insert(1, grad_f2)
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
