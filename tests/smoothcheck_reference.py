"""The generic route through the smoothness checks, kept as a reference for
the closed-form kernel in ``twoquadrics.smoothcheck``.

Here every equation is a ``Poly``, every point of projective space is
visited, every chart point is found by trying all (t, chart coordinate)
pairs, and every rank is the rank of the full matrix of formal partials.
The reports it builds must equal the kernel's, failure lists and their
order included.
"""

from twoquadrics import smoothcheck
from twoquadrics.exactmath import kernel_basis, rank
from twoquadrics.smoothcheck import (
    PencilData,
    _equation_hashes,
    _validate,
    projective_count,
    projective_reps,
)


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would touch more points than its budget."""


class Poly(smoothcheck.Poly):
    """The package's polynomial with the ring operations and formal
    partials of the generic route."""

    __slots__ = ()

    @staticmethod
    def of(poly: smoothcheck.Poly) -> "Poly":
        return Poly(poly.nvars, poly.terms)

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


def polys(data: PencilData, nvars: int) -> dict[str, Poly]:
    """f1, f2, g1 and g2 in the first m+3 of ``nvars`` variables."""
    return {k: Poly.of(v).pad(nvars) for k, v in data.polys().items()}


EVIDENCE_NOTE = (
    "finite-field scan: agreement at several primes is strong "
    "evidence, not a characteristic-zero proof"
)


def enumerate_points(system, p: int, budget: int = 2_000_000) -> list[tuple[int, ...]]:
    """All projective F_p points satisfying every polynomial in the system."""
    nvars = system[0].nvars
    if any(poly.nvars != nvars for poly in system):
        raise ValueError("system polynomials disagree on the variable count")
    if projective_count(nvars, p) > budget:
        raise BudgetExceededError(f"more than {budget} projective points")
    return [
        pt
        for pt in projective_reps(nvars, p)
        if all(poly.eval_mod(pt, p) == 0 for poly in system)
    ]


def jacobian_rank(system, point, p: int) -> int:
    """Rank over F_p of the matrix of formal partials at a point of the
    variety; rows are equations, columns variables."""
    if any(poly.eval_mod(point, p) != 0 for poly in system):
        raise ValueError("point does not satisfy the system")
    rows = [
        [poly.partial(i).eval_mod(point, p) for i in range(poly.nvars)]
        for poly in map(Poly.of, system)
    ]
    return rank(rows, p)


def chart_systems(data: PencilData) -> dict[str, list[Poly]]:
    """The two affine blow-up charts; variables are the m+3 homogeneous
    coordinates, then t, then the chart coordinate."""
    n = data.m + 3
    total = n + 2
    f = polys(data, total)
    t = Poly.variable(n, total)
    chart_var = Poly.variable(n + 1, total)
    return {
        "chart_T": [f["f1"], f["f2"] + f["g1"] * chart_var, t * chart_var - f["g2"]],
        "chart_G2": [f["f1"], chart_var * f["f2"] + f["g1"], t - f["g2"] * chart_var],
    }


def total_space(data: PencilData) -> list[Poly]:
    """f1 and t*f2 + g1*g2 in the m+3 coordinates followed by t."""
    n = data.m + 3
    f = polys(data, n + 1)
    return [f["f1"], Poly.variable(n, n + 1) * f["f2"] + f["g1"] * f["g2"]]


def singular_locus_check(data: PencilData, p: int) -> dict:
    collisions = _validate(data, p)
    system = total_space(data)
    base = data.polys()
    scanned = 0
    on_family = 0
    t_zero_expected = []
    t_zero_deficient = []
    nonzero_t_deficient = []
    for pt in projective_reps(data.m + 3, p):
        scanned += 1
        if base["f1"].eval_mod(pt, p):
            continue
        for t in range(p):
            full = pt + (t,)
            if system[1].eval_mod(full, p):
                continue
            on_family += 1
            deficient = jacobian_rank(system, full, p) < 2
            if t == 0:
                if all(base[k].eval_mod(pt, p) == 0 for k in ("f2", "g1", "g2")):
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
            "fibers_checked": len([t for t in range(p) if t]),
            "rank_deficient_points": len(nonzero_t_deficient),
            "informational": True,
        },
        "evidence_note": EVIDENCE_NOTE,
        "ok": not discrepancies,
    }


def chart_smoothness_check(data: PencilData, p: int) -> dict:
    collisions = _validate(data, p)
    n = data.m + 3
    charts = chart_systems(data)
    base = data.polys()
    f1, f2, g1, g2 = (base[k] for k in ("f1", "f2", "g1", "g2"))
    chart_points = 0
    chart_failures = []
    divisor_points = 0
    divisor_failures = []
    center_points = 0
    center_failures = []
    for pt in enumerate_points([f1], p):
        for name, system in charts.items():
            # chart coordinate outer, t inner: the order the kernel's
            # solvers list the points above one base point
            for cv in range(p):
                for tv in range(p):
                    full = pt + (tv, cv)
                    if any(eq.eval_mod(full, p) for eq in system):
                        continue
                    chart_points += 1
                    if jacobian_rank(system, full, p) != 3:
                        chart_failures.append((name, full))
        if g1.eval_mod(pt, p) == 0 and g2.eval_mod(pt, p) == 0:
            divisor_points += 1
            if jacobian_rank([f1, g1, g2], pt, p) != 3:
                divisor_failures.append(pt)
            if f2.eval_mod(pt, p) == 0:
                center_points += 1
                if jacobian_rank([f1, f2, g1, g2], pt, p) != 4:
                    center_failures.append(pt)
    return {
        "check": "chart-smoothness",
        "m": data.m,
        "prime": p,
        "equations": _equation_hashes(data),
        "lambda_collisions": collisions,
        "chart_points": chart_points,
        "chart_rank_failures": chart_failures,
        "chart_failures_over_t_zero": sum(1 for _, pt in chart_failures if pt[n] == 0),
        "chart_failures_over_t_nonzero": sum(1 for _, pt in chart_failures if pt[n] != 0),
        "divisor_points": divisor_points,
        "divisor_rank_failures": divisor_failures,
        "center_points": center_points,
        "center_rank_failures": center_failures,
        "evidence_note": EVIDENCE_NOTE,
        "ok": not (chart_failures or divisor_failures or center_failures),
    }


def center_singular_mod(lambdas, g1, g2, p: int) -> bool:
    """Whether the blow-up center {f1 = f2 = g1 = g2 = 0} is singular mod
    p, with every point of the subspace cut out by the forms computed as a
    dense combination of a kernel basis."""
    span = kernel_basis([list(g1), list(g2)], p)
    n = len(lambdas)
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
        if rank(rows, p) != 4:
            return True
    return False
