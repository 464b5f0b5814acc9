"""Finite-field brute-force checks of the degeneration family's geometry.

The family lives in A^1 x P^{m+2}: a fixed quadric together with a moving
equation t*f2 + g1*g2, where f1 is a sum of squares, f2 a diagonal quadric
with weights lambda_i, and g1, g2 linear forms.  One streamed walk per
prime feeds two reports: that the rank-deficient locus of the total space
is exactly the base locus {t = f1 = f2 = g1 = g2 = 0}, and that both
blow-up charts are smooth of codimension 3 and the divisor and the
blow-up center are themselves smooth.  The walk visits only the points of
f1 = 0 with g1*g2 = 0, the two hyperplane sections of the quadric, with
closed-form values and gradients.  Every other point of f1 = 0 lies on
one fiber and adds only to two counters, and those are counted in closed
form from #{f1 = 0} and #{f1 = f2 = 0}.  A clean scan at several primes
is strong evidence for the characteristic-zero statement, not a proof;
reports say so.
"""

from __future__ import annotations

from itertools import product
from operator import mul
from random import Random

from .exactmath import echelon, kernel_basis


class DegenerateReductionError(ValueError):
    """Raised when the chosen data degenerates modulo the chosen prime."""


class Poly:
    """Sparse multivariate polynomial with integer coefficients.  Nothing in
    the package builds one: it is the base of the tests' generic route and
    the benchmark counts its ``eval_mod`` calls.  It moves to the tests
    with ROADMAP item 2, once item 1 has changed the benchmark."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    self.terms[tuple(exps)] = self.terms.get(tuple(exps), 0) + coeff
            self.terms = {e: c for e, c in self.terms.items() if c}

    def eval_mod(self, point, p: int) -> int:
        acc = 0
        for exps, coeff in self.terms.items():
            for x, e in zip(point, exps):
                if e:
                    coeff *= x**e
            acc += coeff
        return acc % p

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {dict(sorted(self.terms.items()))})"


class PencilData:
    """Integer data defining the family: diagonal weights and the two
    linear forms, all in m+3 homogeneous variables."""

    __slots__ = ("m", "lambdas", "g1", "g2")

    def __init__(
        self, m: int, lambdas: tuple[int, ...], g1: tuple[int, ...], g2: tuple[int, ...]
    ):
        n = m + 3
        if len(lambdas) != n or len(g1) != n or len(g2) != n:
            raise ValueError(f"need exactly {n} coefficients per datum")
        if len(set(lambdas)) != n:
            raise ValueError("diagonal weights must be pairwise distinct")
        self.m = m
        self.lambdas = lambdas
        self.g1 = g1
        self.g2 = g2


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


def _pivot_minor(g1, g2, p: int):
    """(d, r, s): the first nonzero 2x2 minor d of the forms mod p, on the
    columns r < s, or None when the forms are dependent mod p."""
    n = len(g1)
    pairs = ((r, s) for r in range(n) for s in range(r + 1, n))
    minors = (((g1[r] * g2[s] - g1[s] * g2[r]) % p, r, s) for r, s in pairs)
    return next((minor for minor in minors if minor[0]), None)


def _validate(data: PencilData, p: int) -> list[tuple[int, int]]:
    """Rejects a reduction the scans cannot run on and returns the index
    pairs of weights that collide mod p, for the caller to label."""
    if p == 2:
        raise DegenerateReductionError("in characteristic 2 every quadric gradient vanishes")
    if _pivot_minor(data.g1, data.g2, p) is None:
        raise DegenerateReductionError(
            f"the two linear forms are dependent mod {p}; "
            "choose a different pair or another prime"
        )
    lam, n = data.lambdas, len(data.lambdas)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if (lam[i] - lam[j]) % p == 0]


def _quadric_count(n: int, p: int, disc: int = 1) -> int:
    """#{Q = 0} in P^{n-1}(F_p) for odd p and a nondegenerate quadratic
    form Q in n variables of discriminant ``disc`` (f1 itself by default):
    the parabolic count, plus chi((-1)^{n/2} disc) p^{(n-2)/2} when n is
    even."""
    count = projective_count(n - 1, p)
    if n % 2 == 0:
        chi = 1 if pow((-1) ** (n // 2) * disc % p, (p - 1) // 2, p) == 1 else -1
        count += chi * p ** ((n - 2) // 2)
    return count


def _section_count(g, p: int) -> int:
    """#{f1 = g = 0} in P^{n-1}(F_p) for a linear form g nonzero mod p.

    On the hyperplane g = 0, f1 restricts to a form of discriminant
    sum(g_i^2) when that is nonzero.  When it vanishes, g lies on its own
    hyperplane and spans the radical there: the section is a cone with
    vertex g over a smooth quadric in n-2 variables of discriminant -1."""
    n = len(g)
    disc = sum(v * v for v in g) % p
    if disc:
        return _quadric_count(n - 1, p, disc)
    return 1 + p * _quadric_count(n - 2, p, -1)


def _x0_count(lambdas, p: int) -> int:
    """#X0 = #{f1 = f2 = 0} in P^{n-1}(F_p) for odd p, from the character
    sum p^2 #{affine points} = sum over (a, b) of prod_i S(a + b*lambda_i),
    with the Gauss sums S(0) = p and S(c) = chi(c)*G.

    A term with k nonzero arguments carries G^k.  For b != 0 and a = b*u
    it is chi(b)^k times the term of (u, 1), and for b = 0 and a != 0 it
    is chi(a)^n times the term of (1, 0): the odd k cancel over b (or a),
    and the even k are rational through G^2 = chi(-1)*p.  That is O(n*p)
    work, and exact when weights collide mod p."""
    n = len(lambdas)
    nonresidue = [pow(c, (p - 1) // 2, p) == p - 1 for c in range(p)]
    gauss_square = -p if nonresidue[-1] else p

    def term(args) -> int:
        nonzero = [c for c in args if c]
        k = len(nonzero)
        if k % 2:
            return 0
        sign = -1 if sum(nonresidue[c] for c in nonzero) % 2 else 1
        return sign * p ** (n - k) * gauss_square ** (k // 2)

    total = p**n + (p - 1) * term([1] * n)  # a = b = 0, then b = 0 != a
    total += (p - 1) * sum(term([(u + lam) % p for lam in lambdas]) for u in range(p))
    return (total // (p * p) - 1) // (p - 1)


def _tails(lam, key, other, p: int):
    """tails[r][s]: the last two coordinates (z, y) in F_p^2, in
    lexicographic order, with z^2 + y^2 = r and key[-2]*z + key[-1]*y = s
    mod p, each with its terms of f2 and of the linear form ``other``."""
    (l1, l2), (k1, k2), (o1, o2) = lam[-2:], key[-2:], other[-2:]
    tails = [[[] for _ in range(p)] for _ in range(p)]
    for z, y in product(range(p), repeat=2):
        tails[(z * z + y * y) % p][(k1 * z + k2 * y) % p].append(
            ((z, y), l1 * z * z + l2 * y * y, o1 * z + o2 * y)
        )
    return tails


def _scan_base(data: PencilData, p: int):
    """Every point of f1 = 0 in P^{m+2}(F_p) with g1*g2 = 0, exactly once,
    with the values of f1 (zero), f2, g1 and g2: the points of the section
    g1 = 0, then those of g2 = 0 with g1 != 0, head by head.  Each section
    on its own comes in ``projective_reps`` order.

    A point is a head of m coordinates in projective order, a third-to-last
    coordinate u looped per head, and a tail (z, y).  The sums of squares,
    f2, g1 and g2 of a head are computed once, and u adds its terms.  The
    tails, with their terms, come from one table per section indexed by the
    residues that z^2 + y^2 and the section's form must add, so a head and
    u cost two lookups.  Each section's count, g1 = 0 alone and g2 = 0
    whether or not g1 = 0, is checked against ``_section_count``
    afterwards; a mismatch is an internal error."""
    n = data.m + 3
    lam, a, b = data.lambdas, data.g1, data.g2
    k = n - 3  # the head's length, and the index of u
    on_plane = (_tails(lam, a, b, p), _tails(lam, b, a, p))
    # with a zero head and u = 0 both residues are 0, and the tails are
    # (1, y) in order: (0, 1) never has z^2 + y^2 = 0
    on_line = tuple([[[tail for tail in tails[0][0] if tail[0][0] == 1]]] for tails in on_plane)
    zero = (0,) * k
    groups = (
        (projective_reps(k, p), range(p), on_plane),
        ((zero,), (1,), on_plane),
        ((zero,), (0,), on_line),
    )
    lu, au, bu = lam[k], a[k], b[k]
    walked_g1 = walked_g2 = 0
    for heads, us, (on_g1, on_g2) in groups:
        for head in heads:
            squares = list(map(mul, head, head))
            s1 = sum(squares)
            s2 = sum(map(mul, lam, squares))
            s3 = sum(map(mul, a, head))
            s4 = sum(map(mul, b, head))
            for u in us:
                uu = u * u
                r = -(s1 + uu) % p
                v2, w1, w2 = s2 + lu * uu, s3 + au * u, s4 + bu * u
                first = on_g1[r][-w1 % p]
                second = on_g2[r][-w2 % p]
                if not (first or second):
                    continue
                head_u = head + (u,)
                walked_g1 += len(first)
                for zy, t2, t4 in first:
                    yield head_u + zy, 0, (v2 + t2) % p, 0, (w2 + t4) % p
                walked_g2 += len(second)
                for zy, t2, t3 in second:
                    x1 = (w1 + t3) % p
                    if x1:
                        yield head_u + zy, 0, (v2 + t2) % p, x1, 0
    for name, g, walked in (("g1", a, walked_g1), ("g2", b, walked_g2)):
        expected = _section_count(g, p)
        if walked != expected:
            raise ArithmeticError(
                f"the scan found {walked} points on f1 = {name} = 0 mod {p}, "
                f"the closed form {expected}"
            )


def _pencil_root(x, lead, lam2, g, p: int):
    """The members alpha*grad f2 + beta*g of the pencil span(grad f2, g)
    that are multiples of the point x, where grad f2 = lam2*x and
    x[lead] = 1: None when no member is, (alpha, beta) up to scale when
    exactly one is, and (0, 0) when every member is.

    Against the lead column the member minus its lead entry times x has
    the entries alpha*u_i + beta*v_i, with u_i = x_i*(lam2_i - lam2_lead)
    and v_i = g_i - g_lead*x_i.  The first nonzero pair (u_i, v_i) fixes
    the one candidate (v_i : -u_i), and the first nonzero 2x2 minor
    against it leaves none."""
    l0, g0 = lam2[lead], g[lead]
    alpha = beta = 0
    for xi, li, gi in zip(x, lam2, g):
        u = xi * (li - l0) % p
        v = (gi - g0 * xi) % p
        if (alpha * u + beta * v) % p:
            return None
        if not (alpha or beta):
            alpha, beta = v, -u % p
    return alpha, beta


def _divisor_line(g1, g2, p: int) -> set[tuple[int, ...]]:
    """The points of the line P(span(g1, g2)) on f1 = g1 = g2 = 0 mod p,
    each with its first nonzero coordinate 1, for independent forms: the
    divisor points at which [2x, g1, g2] drops rank.

    x = s*g1 + t*g2 lies on g1 = g2 = 0 when (s, t) is in the kernel of the
    Gram matrix of the forms, and then f1(x) = s*g1(x) + t*g2(x) = 0 too:
    no point for a nonsingular Gram, one for rank 1, the whole line for 0."""
    s11, s12, s22 = (sum(map(mul, u, v)) % p for u, v in ((g1, g1), (g1, g2), (g2, g2)))
    points = set()
    for s, t in [(1, t) for t in range(p)] + [(0, 1)]:
        if (s * s11 + t * s12) % p or (s * s12 + t * s22) % p:
            continue
        v = [(s * c + t * d) % p for c, d in zip(g1, g2)]
        scale = pow(next(c for c in v if c), p - 2, p)
        points.add(tuple(c * scale % p for c in v))
    return points


def _equation_hashes(data: PencilData) -> dict[str, str]:
    """Each equation's fingerprint: the SHA-256 of the repr of its sorted
    nonzero (exponents, coefficient) pairs, to 12 hex digits, read off the
    coefficients c and power k of c_0 x_0^k + ... + c_{n-1} x_{n-1}^k."""
    import hashlib  # here, so that importing the package does not load it

    n = data.m + 3

    def fingerprint(coeffs, power: int) -> str:
        exps = [(0,) * i + (power,) + (0,) * (n - 1 - i) for i in range(n)]
        terms = sorted((e, c) for e, c in zip(exps, map(int, coeffs)) if c)
        return hashlib.sha256(repr(terms).encode()).hexdigest()[:12]

    return {
        "f1": fingerprint((1,) * n, 2),
        "f2": fingerprint(data.lambdas, 2),
        "g1": fingerprint(data.g1, 1),
        "g2": fingerprint(data.g2, 1),
    }


def smoothness_scan(data: PencilData, p: int) -> tuple[dict, dict]:
    """The singular-locus and chart-smoothness reports of one prime, from
    one streamed walk of the sections g1 = 0 and g2 = 0 of the quadric
    f1 = 0 that keeps only counters and the reports' failure lists.

    The locus report compares the rank-deficient locus of the total space
    with the base locus over every t in F_p: at t = 0 they must agree
    pointwise, which is its verdict; rank-deficient points at t != 0 are
    possible for unlucky reductions and are statistics only.  The chart
    report requires rank 3 at every F_p point of each blow-up chart, and a
    smooth divisor (rank 3) and blow-up center (rank 4).

    A point of f1 = 0 with g1*g2 != 0 can fail none of these, so it is not
    walked: if f2 != 0 there, it lies on one fiber and above one point of
    each chart, and if f2 = 0 on neither.  The N1 points of f1 = 0 with
    f2 != 0 number #{f1 = 0} - #X0, both in closed form, and the walk
    takes back what the counted points with g1 = 0 do not add.
    ``points_scanned`` is the size of P^{m+2}(F_p), walked or counted.

    At a walked point x of X0, every check asks which members
    alpha*grad f2 + beta*g of one pencil are multiples of x, for a form g
    that vanishes at x; ``_pencil_root`` solves this once per form, and
    where neither form has a root x only adds to the counters.  On X0
    with g = 0 every member v has v.x = 0, as x.x = f1(x), grad f2.x =
    2*f2(x) and g.x all vanish.  So a v that is c*x off the lead column,
    where x is 1, is c*x there too: the total space, which tests all
    columns, and the charts, which test the columns off the lead one, read
    the same roots.  The deficient t are the members (t : w), w the value
    of the other form; chart_T at G = 0 fails at the members (t : g1(x))
    of the g2 pencil, chart_T at G = g != 0 at (1 : g) and chart_G2 at
    G2 = g at (g : 1) of the g1 pencil.  Only the center needs a rank: a
    base point is a center failure when ``_rank_mod`` of [2x, grad f2,
    g1, g2] is below 4.  The divisor fails exactly on the points of the
    line P(span(g1, g2)) on f1 = g1 = g2 = 0, which ``_divisor_line``
    finds once per prime."""
    collisions = _validate(data, p)
    equations = _equation_hashes(data)
    n = data.m + 3
    lam2 = [2 * v for v in data.lambdas]
    a, b = data.g1, data.g2
    on_line = _divisor_line(a, b, p)

    def member(root, alpha, beta) -> bool:
        """Whether alpha*grad f2 + beta*g is among the multiples of x that
        ``_pencil_root`` returned as ``root``."""
        return root is not None and (alpha * root[1] - beta * root[0]) % p == 0

    # a point with f2 != 0 lies on one fiber, t = -g1*g2/f2, where the t
    # column f2 gives rank 2; chart_T has a point above it where g1 != 0,
    # at G = -f2/g1 != 0, and chart_G2 one at G2 = -g1/f2: all of rank 3
    off_x0 = _quadric_count(n, p) - _x0_count(data.lambdas, p)
    on_family = off_x0
    chart_points = 2 * off_x0
    base_points = 0  # the base locus at t = 0, which is also the center
    t_zero_deficient = 0
    discrepancies: list[tuple[int, ...]] = []
    nonzero_t_deficient = 0
    chart_failures: list[tuple[str, tuple[int, ...]]] = []
    divisor_points = 0
    divisor_failures: list[tuple[int, ...]] = []
    center_failures: list[tuple[int, ...]] = []

    # In the columns off the lead one, the chart rows are [2x, 0, 0], [grad
    # of the second equation, 0, e] and a third row whose t entry is G
    # (chart_T) or 1 (chart_G2).  Where that entry is nonzero, rank 3 means
    # the first two rows without the t column are independent: e != 0
    # (e is g1 on chart_T, f2 on chart_G2), or the gradient is no multiple
    # of x.
    for pt, _, v2, w1, w2 in _scan_base(data, p):
        on_divisor = not (w1 or w2)
        if on_divisor:
            # [2x, g1, g2] has rank 3 exactly when x is off the line
            # P(span(g1, g2))
            divisor_points += 1
            if pt in on_line:
                divisor_failures.append(pt)
        if v2:
            if not w1:  # counted with a chart_T point it does not have
                chart_points -= 1
            continue
        on_family += p  # a point of X0 lies on every fiber
        if not w2:  # chart_T at G = 0, one point per t
            chart_points += p
        if not w1:  # chart_T at G != 0 and chart_G2, one point per G or G2
            chart_points += 2 * p - 1
        lead = pt.index(1)
        if on_divisor:
            # the center point's rows [2x, grad f2, g1, g2] need rank 4
            base_points += 1
            grad_f2 = [l * x for l, x in zip(lam2, pt)]
            if _rank_mod([pt, grad_f2, a, b], p) < 4:
                center_failures.append(pt)
        root1 = None if w1 else _pencil_root(pt, lead, lam2, a, p)
        root2 = None if w2 else _pencil_root(pt, lead, lam2, b, p)
        if root1 is None and root2 is None:
            # nothing fails at x; over a base point grad F2 is 0 at t = 0
            t_zero_deficient += on_divisor
            continue

        # [grad f1, 0] = [2x, 0] is nonzero, so with f2 = 0 the pair is
        # deficient exactly when grad F2 = t*grad f2 + g2(x)*g1 + g1(x)*g2
        # is a multiple of x: the member (t : w) of the pencil of the form
        # that vanishes at x, w the other form's value.  At a base point
        # grad F2 = t*grad f2: t = 0 is deficient, and t != 0 where grad f2
        # is a member, of the g1 pencil as of the g2 pencil
        root, w = (root2, w1) if w1 else (root1, w2)
        t_zero = on_divisor or member(root, 0, w)
        t_zero_deficient += t_zero
        nonzero_t_deficient += sum(member(root, t, w) for t in range(1, p))
        if t_zero != on_divisor:  # with f2 = 0, the base locus is g1 = g2 = 0
            discrepancies.append(pt)

        # chart_T is g1*G = 0 and t*G = g2; chart_G2 is g1 = 0 and t =
        # g2*G2.  The failing t and chart coordinates are read off the roots
        if not w2:
            # chart_T at G = 0, over every t: the rows are [2x, 0], [grad
            # f2, g1] and [-g2, t], which fail where t*grad f2 + g1(x)*g2
            # is a multiple of x.  At a base point t = 0 leaves the rows 2x,
            # grad f2 and -g2, which any member of the g2 pencil fails
            chart_failures.extend(
                ("chart_T", pt + (t, 0)) for t in range(p) if member(root2, t, w1)
            )
        if not w1:
            # chart_T at G = g != 0, t = g2/g, and chart_G2 at G2 = g, t =
            # g2*g: e = g1 = 0, so rank 3 means the gradient of the second
            # equation, grad f2 + g*g1 or g*grad f2 + g1, is no multiple of x
            chart_failures.extend(
                ("chart_T", pt + (w2 * pow(g, -1, p) % p, g))
                for g in range(1, p)
                if member(root1, 1, g)
            )
            chart_failures.extend(
                ("chart_G2", pt + (w2 * g % p, g)) for g in range(p) if member(root1, g, 1)
            )

    evidence_note = (
        "finite-field scan: agreement at several primes is strong "
        "evidence, not a characteristic-zero proof"
    )
    discrepancies.sort()
    # the walk takes a head's points on g1 = 0 before those on g2 = 0; the
    # stable sort puts the base points back in projective_reps order and
    # keeps the order of each one's own chart failures
    chart_failures.sort(key=lambda failure: (failure[1].index(1), failure[1][:n]))
    locus = {
        "check": "singular-locus",
        "m": data.m,
        "prime": p,
        "equations": equations,
        "lambda_collisions": collisions,
        "points_scanned": projective_count(n, p),
        "points_on_family": on_family,
        "t_zero": {
            "base_locus_points": base_points,
            "rank_deficient_points": t_zero_deficient,
            "discrepancies": discrepancies,
            "sets_equal": not discrepancies,
        },
        "t_nonzero": {
            "fibers_checked": p - 1,
            "rank_deficient_points": nonzero_t_deficient,
            "informational": True,
        },
        "evidence_note": evidence_note,
        "ok": not discrepancies,
    }
    over_t_zero = sum(1 for _, pt in chart_failures if pt[n] == 0)  # pt[n] is t
    charts = {
        "check": "chart-smoothness",
        "m": data.m,
        "prime": p,
        "equations": equations,
        "lambda_collisions": collisions,
        "chart_points": chart_points,
        "chart_rank_failures": chart_failures,
        "chart_failures_over_t_zero": over_t_zero,
        "chart_failures_over_t_nonzero": len(chart_failures) - over_t_zero,
        "divisor_points": divisor_points,
        "divisor_rank_failures": divisor_failures,
        "center_points": base_points,
        "center_rank_failures": center_failures,
        "evidence_note": evidence_note,
        "ok": not (chart_failures or divisor_failures or center_failures),
    }
    return locus, charts


# The two halves keep their own names because the benchmark's traced run
# (bench/layers.py) wraps them by name, and an absent name fails its smoke
# run; they go once the benchmark traces smoothness_scan instead.
def singular_locus_check(data: PencilData, p: int) -> dict:
    """The singular-locus report of ``smoothness_scan``."""
    return smoothness_scan(data, p)[0]


def chart_smoothness_check(data: PencilData, p: int) -> dict:
    """The chart-smoothness report of ``smoothness_scan``."""
    return smoothness_scan(data, p)[1]


def _center_singular_mod(lambdas, g1, g2, p: int) -> bool:
    """Whether the blow-up center {f1 = f2 = g1 = g2 = 0} is singular mod
    p, decided on the pencil of the two quadrics restricted to the
    subspace x = By cut out by the forms.

    The forms are independent, so the rows [2x, 2*lambda*x, g1, g2] drop
    rank exactly when (2a + 2b*lambda)x lies in span(g1, g2) for some
    (a:b) in P^1(F_p), that is when B^T (2a + 2b*lambda) B y = 0.  Only
    the points of the p+1 kernels of that restricted pencil, usually of
    dimension 0 or 1, are tested for f1 = f2 = 0.  (In characteristic 2
    every kernel is the whole subspace, as every gradient vanishes.)"""
    span = kernel_basis([list(g1), list(g2)], p)
    doubled = [2 * lam for lam in lambdas]
    gram_1 = [[2 * sum(map(mul, u, v)) % p for v in span] for u in span]
    gram_2 = [[sum(map(mul, doubled, map(mul, u, v))) % p for v in span] for u in span]
    for a, b in [(1, b) for b in range(p)] + [(0, 1)]:
        member = [[(a * x + b * y) % p for x, y in zip(r1, r2)] for r1, r2 in zip(gram_1, gram_2)]
        # the kernel vectors in the coordinates of P^{m+2}
        kernel = [
            [sum(map(mul, col, y)) % p for col in zip(*span)] for y in kernel_basis(member, p)
        ]
        for z in projective_reps(len(kernel), p):
            x = [sum(map(mul, col, z)) for col in zip(*kernel)]
            squares = list(map(mul, x, x))
            if sum(squares) % p == 0 and sum(map(mul, lambdas, squares)) % p == 0:
                return True
    return False


def _form_degeneracies(lambdas, g1, g2, p: int) -> list[str]:
    """Genericity conditions modulo p that the family construction assumes:
    independent forms, smooth component quadrics, a smooth divisor
    section, and a smooth blow-up center."""
    problems = []
    if _pivot_minor(g1, g2, p) is None:
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
    if _center_singular_mod(lambdas, g1, g2, p):
        problems.append("blow-up center singular")
    return problems


def default_pencil(m: int, primes, seed: int = 0, lambdas=None) -> PencilData:
    """Deterministic family data, screened modulo each of ``primes``:
    ascending weights unless overridden, a fixed arithmetic pattern for
    the first form when it survives the genericity screen, seeded redraws
    otherwise."""
    n = m + 3
    lambdas = tuple(range(n)) if lambdas is None else tuple(int(v) for v in lambdas)
    rng = Random(seed)
    g1 = tuple(range(1, n + 1))
    g2 = tuple(rng.randint(1, 40) for _ in range(n))
    for _ in range(500):
        if all(not _form_degeneracies(lambdas, g1, g2, p) for p in primes):
            return PencilData(m, lambdas, g1, g2)
        g1 = tuple(rng.randint(1, 40) for _ in range(n))
        g2 = tuple(rng.randint(1, 40) for _ in range(n))
    raise DegenerateReductionError(
        "no generic linear forms found; widen the coefficient range"
    )
