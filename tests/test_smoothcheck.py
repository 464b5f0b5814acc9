from itertools import product
from math import prod
from operator import mul
from random import Random

import pytest

import smoothcheck_reference as reference
from smoothcheck_reference import (
    BudgetExceededError,
    Poly,
    chart_systems,
    diagonal_quadric,
    enumerate_points,
    jacobian_rank,
    linear_form,
)
from twoquadrics import smoothcheck
from twoquadrics.smoothcheck import (
    DegenerateReductionError,
    PencilData,
    _center_singular_mod,
    _equation_hashes,
    _pivot_minor,
    _rank_mod,
    _scan_base,
    chart_smoothness_check,
    default_pencil,
    projective_count,
    projective_reps,
    singular_locus_check,
    smoothness_scan,
)


def test_poly_arithmetic_and_partials():
    x0 = Poly.variable(0, 2)
    x1 = Poly.variable(1, 2)
    f = x0 * x0 + x1 * x1.scale(3)
    assert f.eval_mod((2, 1), 7) == 0
    assert f.partial(0).eval_mod((2, 1), 7) == 4
    assert f.partial(1).eval_mod((2, 1), 7) == 6
    assert (f - f).terms == {}
    assert f.pad(3).nvars == 3
    with pytest.raises(ValueError):
        f.pad(1)


def test_projective_reps_cover_space_once():
    reps = list(projective_reps(2, 3))
    assert len(reps) == projective_count(2, 3) == 4
    assert reps[0] == (1, 0)
    assert (0, 1) in reps


def test_enumerate_line_in_projective_line():
    line = linear_form([1, 0])
    assert enumerate_points([line], 3) == [(0, 1)]


def test_quadric_point_counts_against_both_formulas():
    q = 5
    # seven variables: the count is the odd-dimensional (parabolic) one,
    # equal to the affine count q^6 collapsed by scaling
    pts7 = enumerate_points([diagonal_quadric([1] * 7)], q)
    assert len(pts7) == (q**6 - 1) // (q - 1) == 3906
    # six variables: even-dimensional type, base count plus q^(d/2)
    pts6 = enumerate_points([diagonal_quadric([1] * 6)], q)
    base = (q**5 - 1) // (q - 1)
    assert len(pts6) in (base + q**2, base - q**2)
    assert len(pts6) == base + q**2  # the all-ones form is hyperbolic mod 5


def test_center_nonempty_over_seven():
    data = default_pencil(4, primes=(5, 7, 11), seed=0)
    polys = reference.equations(data)
    pts = enumerate_points(
        [polys["f1"], polys["f2"], polys["g1"], polys["g2"]], 7
    )
    assert len(pts) > 0


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_points([diagonal_quadric([1] * 7)], 11, budget=1000)


def test_jacobian_rank_linear():
    line = linear_form([1, 0])
    assert jacobian_rank([line], (0, 1), 3) == 1
    with pytest.raises(ValueError):
        jacobian_rank([line], (1, 1), 3)


def _total_space_system(data, t_value, p):
    n = data.m + 3
    polys = reference.polys(data, n + 1)
    t_const = Poly.constant(n + 1, t_value)
    moving = t_const * polys["f2"] + polys["g1"] * polys["g2"]
    return [polys["f1"], moving]


def test_jacobian_rank_on_family_points():
    data = default_pencil(2, primes=(5,), seed=0)
    p = 5
    polys = reference.equations(data)
    center = enumerate_points(
        [polys["f1"], polys["f2"], polys["g1"], polys["g2"]], p
    )
    assert center
    system0 = _total_space_system(data, 0, p)
    z_point = center[0] + (0,)
    # over the base locus the moving row vanishes entirely
    assert jacobian_rank(system0, z_point, p) == 1
    # a point with both linear forms nonzero lives over t != 0 and is smooth
    found = None
    for t_value in range(1, p):
        system = _total_space_system(data, t_value, p)
        for pt in enumerate_points(system, p):
            g1v = polys["g1"].eval_mod(pt, p)
            g2v = polys["g2"].eval_mod(pt, p)
            if g1v and g2v:
                found = (system, pt + (t_value,))
                break
        if found:
            break
    assert found is not None
    system, pt = found
    assert jacobian_rank(system, pt, p) == 2


def test_singular_locus_smoke():
    data = default_pencil(2, primes=(5,), seed=0)
    report = singular_locus_check(data, 5)
    assert report["ok"]
    assert report["t_zero"]["sets_equal"]
    assert report["t_zero"]["base_locus_points"] > 0
    assert report["points_scanned"] == projective_count(5, 5)
    assert "evidence" in report["evidence_note"]


def test_singular_locus_dimension_four_small_prime():
    data = default_pencil(4, primes=(5, 7, 11), seed=0)
    report = singular_locus_check(data, 5)
    assert report["ok"]
    assert report["lambda_collisions"] == [(0, 5), (1, 6)]


def test_chart_smoothness_smoke():
    data = default_pencil(2, primes=(5,), seed=0)
    report = chart_smoothness_check(data, 5)
    assert report["ok"]
    assert report["chart_points"] > 0
    assert report["divisor_points"] > 0
    assert report["center_points"] > 0
    assert report["chart_rank_failures"] == []
    assert report["divisor_rank_failures"] == []
    assert report["center_rank_failures"] == []


def test_chart_systems_shape():
    data = default_pencil(2, primes=(5,), seed=0)
    systems = chart_systems(data)
    assert set(systems) == {"chart_T", "chart_G2"}
    for polys in systems.values():
        assert len(polys) == 3
        assert all(p.nvars == data.m + 5 for p in polys)


def test_dependent_forms_detected():
    data = PencilData(2, (0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (2, 4, 6, 8, 10))
    with pytest.raises(DegenerateReductionError):
        smoothness_scan(data, 5)


def test_lambda_collisions_are_returned_not_raised():
    # the scans compute; whether a colliding prime counts is the CLI's call
    data = default_pencil(4, primes=(5, 7, 11), seed=0)
    for report in smoothness_scan(data, 5):
        assert report["lambda_collisions"] == [(0, 5), (1, 6)]


def test_default_pencil_screens_reductions():
    data = default_pencil(4, primes=(5, 7), seed=0)
    assert len(data.lambdas) == len(data.g1) == len(data.g2) == 7
    # deterministic for a fixed seed
    again = default_pencil(4, primes=(5, 7), seed=0)
    assert (again.lambdas, again.g1, again.g2) == (data.lambdas, data.g1, data.g2)


@pytest.mark.parametrize(
    "data",
    [
        *(
            default_pencil(m, primes=(5, 7, 11), seed=seed)
            for m in (2, 4, 6, 10)
            for seed in (0, 3)
        ),
        PencilData(2, (7, -10, 3, -19, 8), (0, 2, 0, 2, 1), (2, 0, 1, 2, 0)),
    ],
)
def test_equation_fingerprints_equal_the_hashes_of_the_built_terms(data):
    # zero coefficients drop out of the terms, negative weights keep their sign
    assert _equation_hashes(data) == reference.equation_hashes(data)


def test_pivot_minor_decides_independence_as_the_rank_does():
    verdicts = set()
    for seed in range(200):
        rng = Random(seed)
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, 6)
        g1 = [rng.randrange(-p, p) if rng.random() < 0.6 else 0 for _ in range(n)]
        g2 = [rng.randrange(-p, p) if rng.random() < 0.6 else 0 for _ in range(n)]
        if seed % 3 == 0:  # a multiple of the first form
            g2 = [rng.randrange(p) * v for v in g1]
        minor = _pivot_minor(g1, g2, p)
        assert (minor is not None) == (_rank_mod([g1, g2], p) == 2), seed
        if minor is not None:
            d, r, s = minor
            assert d == (g1[r] * g2[s] - g1[s] * g2[r]) % p != 0
        verdicts.add(minor is None)
    assert verdicts == {True, False}


def test_pencil_data_validation():
    with pytest.raises(ValueError):
        PencilData(2, (0, 1, 2, 3), (1, 1, 1, 1, 1), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        PencilData(2, (0, 1, 2, 3, 0), (1, 1, 1, 1, 1), (1, 2, 3, 4, 5))


def _generic_data(m):
    n = m + 3
    return PencilData(m, tuple(range(n)), tuple(range(1, n + 1)), (1,) * n)


def _isotropic(n, p):
    """A form in n >= 3 variables, nonzero mod p, with sum(g_i^2) = 0 mod p."""
    g = next(v for v in product(range(p), repeat=3) if any(v) and sum(x * x for x in v) % p == 0)
    return g + (0,) * (n - 3)


def _walk_cases(m, p):
    # the plain forms; forms whose last two coefficients vanish mod p, so
    # that every tail sits in one column of the table; and an isotropic
    # form on either side, whose section is a cone
    n = m + 3
    lambdas = tuple(range(n))
    vanishing = (*range(1, n - 1), p, -2 * p), (*(1,) * (n - 2), 0, p)
    iso = _isotropic(n, p)
    other = (0, 0, 0, 1) + (0,) * (n - 4)
    return [
        _generic_data(m),
        PencilData(m, lambdas, *vanishing),
        PencilData(m, lambdas, iso, other),
        PencilData(m, lambdas, other, iso),
    ]


WALK_GRID = [(1, 3), (2, 3), (3, 3), (6, 3), (1, 5), (2, 5), (3, 5), (4, 5), (1, 7), (2, 7), (1, 11)]


@pytest.mark.parametrize("m,p", WALK_GRID)
def test_scan_base_walks_exactly_the_quadric(m, p):
    # the walk is the part of the quadric f1 = 0 where g1*g2 = 0, each
    # point once; both parities of m+3, and each section in projective
    # order.  The walk also checks its counts against the closed forms
    # and raises on a mismatch
    for data in _walk_cases(m, p):
        assert _pivot_minor(data.g1, data.g2, p) is not None
        polys = reference.equations(data)
        on_g1, on_g2 = [], []
        for pt in enumerate_points([polys["f1"]], p):
            if polys["g1"].eval_mod(pt, p) == 0:
                on_g1.append(pt)
            elif polys["g2"].eval_mod(pt, p) == 0:
                on_g2.append(pt)
        scanned = list(_scan_base(data, p))
        assert sorted(item[0] for item in scanned) == sorted(on_g1 + on_g2)
        assert [pt for pt, _, _, w1, _ in scanned if not w1] == on_g1
        assert [pt for pt, _, _, w1, _ in scanned if w1] == on_g2
        for pt, v1, v2, w1, w2 in scanned:
            assert (v1, v2, w1, w2) == tuple(
                polys[k].eval_mod(pt, p) for k in ("f1", "f2", "g1", "g2")
            )


def test_scan_base_count_mismatch_is_an_internal_error(monkeypatch):
    # one tail dropped from each table: the walk misses the points that
    # tail completes, and the section count no longer matches
    real = smoothcheck._tails

    def dropping(*args):
        tails = real(*args)
        next(entry for row in tails for entry in row if entry).pop()
        return tails

    monkeypatch.setattr(smoothcheck, "_tails", dropping)
    with pytest.raises(ArithmeticError, match="closed form"):
        list(_scan_base(_generic_data(2), 5))
    with pytest.raises(ArithmeticError, match="closed form"):
        smoothness_scan(default_pencil(2, primes=(5,), seed=0), 5)


def test_x0_and_section_counts_equal_brute_force():
    # ascending, random, colliding and all-equal weights mod p; random,
    # isotropic and vanishing-tail forms
    isotropic = set()
    for m, p in [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3)]:
        n = m + 3
        rng = Random(n * p)
        f1 = diagonal_quadric([1] * n)
        weights = [
            tuple(range(n)),
            tuple(rng.randint(-6, 6) for _ in range(n)),
            (0, p) + tuple(range(2, n)),
            (3,) * n,
        ]
        for lambdas in weights:
            points = enumerate_points([f1, diagonal_quadric(lambdas)], p)
            assert smoothcheck._x0_count(lambdas, p) == len(points), (m, p, lambdas)
        forms = [
            *(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(2)),
            _isotropic(n, p),
            (*range(1, n - 1), p, 0),
        ]
        for g in forms:
            if any(v % p for v in g):
                points = enumerate_points([f1, linear_form(g)], p)
                assert smoothcheck._section_count(g, p) == len(points), (m, p, g)
                isotropic.add(sum(v * v for v in g) % p == 0)
    assert isotropic == {True, False}


@pytest.mark.parametrize("m,primes", [(2, (5, 7, 11)), (4, (7, 11, 13)), (6, (11, 13)), (10, (13, 17))])
def test_x0_count_equals_the_trace_formula(m, primes):
    # #X0 = #P^m + p^{m/2} * sum_i chi((-1)^{(m+2)/2} prod_{j != i} (l_j - l_i))
    # wherever no two weights collide mod p: a second route to the count
    n = m + 3
    sign = (-1) ** ((m + 2) // 2)
    for p in primes:
        for seed in range(5):
            lambdas = tuple(Random(seed).sample(range(p), n))
            trace = 0
            for li in lambdas:
                c = sign * prod(lj - li for lj in lambdas if lj != li)
                trace += 1 if pow(c, (p - 1) // 2, p) == 1 else -1
            expected = projective_count(m + 1, p) + p ** (m // 2) * trace
            assert smoothcheck._x0_count(lambdas, p) == expected, (m, p, lambdas)


# every (m, p) with m in {1, 2, 3} and p in {3, 5} but (3, 5), whose
# generic reference run alone takes most of a second
SWEEP_SHAPES = [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)]


def _sweep_pencil(seed):
    m, p = SWEEP_SHAPES[seed % len(SWEEP_SHAPES)]
    n = m + 3
    rng = Random(seed)
    while True:
        lambdas = tuple(rng.sample(range(-4, 5), n))
        g1, g2 = (tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(2))
        if _pivot_minor(g1, g2, p) is not None:
            return PencilData(m, lambdas, g1, g2), p


@pytest.mark.parametrize("seed", range(25))
def test_random_pencils_scan_as_the_generic_reference(seed):
    data, p = _sweep_pencil(seed)
    locus, charts = smoothness_scan(data, p)
    assert locus == reference.singular_locus_check(data, p)
    assert charts == reference.chart_smoothness_check(data, p)


# (data, prime): seeds 1, 31 and 18 have chart failures and rank-deficient
# points at t != 0; the hand-made forms fail the divisor, the center and
# chart_T at G = 0, the pair at m = 4 puts a t = 0 discrepancy in the
# locus, the next pair two, which the walk meets out of sorted order, and
# the last pair spans a totally isotropic plane mod 5, so that every point
# of the line P(span(g1, g2)) is a divisor failure
ORACLE_CASES = [
    *((default_pencil(2, primes=(5,), seed=s), 5) for s in (0, 1, 31)),
    (default_pencil(2, primes=(7,), seed=18), 7),
    *(
        (PencilData(2, (0, 1, 2, 3, 4), g1, g2), 5)
        for g1, g2 in (
            ((2, 4, 1, 2, 2), (3, 2, 3, 3, 0)),
            ((0, 2, 3, 2, 3), (1, 2, 0, 2, 4)),
            ((3, 1, 0, 4, 2), (0, 4, 1, 1, 1)),
            ((3, 3, 0, 2, 4), (3, 3, 2, 3, 2)),
        )
    ),
    (default_pencil(4, primes=(5, 7, 11), seed=0), 3),
    (PencilData(2, (7, -10, 3, -19, 8), (0, 2, 0, 2, 1), (2, 0, 1, 2, 0)), 3),
    (PencilData(2, (0, 1, 2, 3, 4), (1, 2, 0, 0, 0), (0, 0, 1, 2, 0)), 5),
]


@pytest.mark.parametrize("data,p", ORACLE_CASES)
def test_kernel_reports_equal_the_generic_reference(data, p):
    locus, charts = smoothness_scan(data, p)
    assert locus == reference.singular_locus_check(data, p)
    assert charts == reference.chart_smoothness_check(data, p)
    # the old names are the two halves of the one scan
    assert singular_locus_check(data, p) == locus
    assert chart_smoothness_check(data, p) == charts


def test_oracle_cases_reach_every_failure_branch():
    reports = [smoothness_scan(data, p) for data, p in ORACLE_CASES]
    assert any(len(locus["t_zero"]["discrepancies"]) > 1 for locus, _ in reports)
    assert any(locus["t_nonzero"]["rank_deficient_points"] for locus, _ in reports)
    failures = [f for _, charts in reports for f in charts["chart_rank_failures"]]
    assert {name for name, _ in failures} == {"chart_T", "chart_G2"}
    # the chart coordinate comes last in a chart point, after t
    assert any(name == "chart_T" and pt[-1] != 0 for name, pt in failures)
    # chart_T at G = 0 is solved in closed form in three cases: t != 0,
    # t = 0 with g1 != 0, and t = 0 at a base point
    g_zero_cases = {
        "t != 0" if pt[-2] else "g1 != 0" if sum(map(mul, data.g1, pt[:-2])) % p else "base point"
        for (data, p), (_, charts) in zip(ORACLE_CASES, reports)
        for name, pt in charts["chart_rank_failures"]
        if name == "chart_T" and pt[-1] == 0
    }
    assert g_zero_cases == {"t != 0", "g1 != 0", "base point"}
    # at a base point, chart_T at t = 0 fails when g2 is a multiple of x off
    # the lead column, or else when some grad f2 + c*g2 is: both occur
    causes = []
    for (data, p), (_, charts) in zip(ORACLE_CASES, reports):
        for name, pt in charts["chart_rank_failures"]:
            x = pt[:-2]
            if name != "chart_T" or pt[-2:] != (0, 0) or sum(map(mul, data.g1, x)) % p:
                continue
            rest = [i for i in range(len(x)) if i != x.index(1)]
            grad_f2 = [2 * lam * v for lam, v in zip(data.lambdas, x)]

            def multiple_of_x(row):
                return _rank_mod([[x[i] for i in rest], [row[i] for i in rest]], p) < 2

            if multiple_of_x(data.g2):
                causes.append("g2")
            else:
                assert any(
                    multiple_of_x([u + c * v for u, v in zip(grad_f2, data.g2)])
                    for c in range(p)
                ), (data.g1, data.g2, p, x)
                causes.append("grad f2 + c*g2")
    assert set(causes) == {"g2", "grad f2 + c*g2"}, causes
    assert any(charts["divisor_rank_failures"] for _, charts in reports)
    # the whole line P(span(g1, g2)) fails when the forms span a totally
    # isotropic plane
    assert any(
        len(charts["divisor_rank_failures"]) == p + 1
        for (_, p), (_, charts) in zip(ORACLE_CASES, reports)
    )
    assert any(charts["center_rank_failures"] for _, charts in reports)


def _screened_cases():
    """ORACLE_CASES, the sweep pencils and the walk cases of every shape in
    WALK_GRID, as (data, p)."""
    yield from ORACLE_CASES
    yield from (_sweep_pencil(seed) for seed in range(25))
    yield from ((data, p) for m, p in WALK_GRID for data in _walk_cases(m, p))


def test_screen_settles_only_points_the_exact_route_clears(monkeypatch):
    # at a non-divisor point of X0 with g the form that vanishes there, a
    # screen that finds x, lambda*x and g independent off the lead column
    # leaves the exact route nothing to find: no deficient t, no chart_T
    # or chart_G2 root, and g no multiple of x
    calls = []
    real = smoothcheck._screen

    def recording(x, g, triples, p):
        verdict = real(x, g, triples, p)
        calls.append((x, g, triples, verdict))
        return verdict

    monkeypatch.setattr(smoothcheck, "_screen", recording)
    verdicts = set()
    for data, p in _screened_cases():
        n = data.m + 3
        inv = [0] + [pow(c, p - 2, p) for c in range(1, p)]
        calls.clear()
        smoothness_scan(data, p)
        x0 = [(pt, w1, w2) for pt, _, v2, w1, w2 in _scan_base(data, p) if not v2 and (w1 or w2)]
        assert [x for x, *_ in calls] == [pt for pt, _, _ in x0]
        for (pt, w1, w2), (_, g, triples, verdict) in zip(x0, calls):
            assert g is (data.g2 if w1 else data.g1)
            verdicts.add(verdict)
            if not verdict:
                continue
            lead = pt.index(1)
            rest = [i for i in range(n) if i != lead]
            assert {i for triple in triples for i in triple[:3]} <= set(rest)
            j = next(i for i in rest if pt[i])
            grad_f2 = [2 * lam * x for lam, x in zip(data.lambdas, pt)]
            grad_1 = [w1 * c + w2 * d for c, d in zip(data.g2, data.g1)]
            roots = [
                smoothcheck._common_roots(pt, grad_f2, grad_1, range(n), lead, p, inv),
                smoothcheck._common_roots(pt, g, grad_f2, rest, j, p, inv),
                smoothcheck._common_roots(pt, grad_f2, g, rest, j, p, inv),
            ]
            assert all(len(r) == 0 for r in roots), (data.g1, data.g2, p, pt)
            assert any(smoothcheck._minors(pt, g, rest, j, p)), (data.g1, data.g2, p, pt)
            rows = [[row[i] for i in rest] for row in (pt, grad_f2, g)]
            assert _rank_mod(rows, p) == 3
    assert verdicts == {True, False}


def test_scan_without_the_screen_equals_the_scan_with_it(monkeypatch):
    cases = [*ORACLE_CASES, *(_sweep_pencil(seed) for seed in range(25))]
    screened = [smoothness_scan(data, p) for data, p in cases]
    monkeypatch.setattr(smoothcheck, "_screen", lambda *args: False)
    assert [smoothness_scan(data, p) for data, p in cases] == screened


def test_screen_settles_most_x0_points(monkeypatch):
    # the points that reach the exact route are the base points and the
    # X0 points the screen leaves; at m = 4, p = 7 that is 15 of 763
    data, p = default_pencil(4, primes=(7,), seed=0), 7
    exact = set()
    real = smoothcheck._common_roots

    def recording(x, *args):
        exact.add(x)
        return real(x, *args)

    monkeypatch.setattr(smoothcheck, "_common_roots", recording)
    _, charts = smoothness_scan(data, p)
    x0 = sum(1 for _, _, v2, w1, w2 in _scan_base(data, p) if not v2 and (w1 or w2))
    fallen_back = len(exact) - charts["center_points"]
    assert x0 == 763
    assert 0 <= fallen_back <= 0.05 * x0


def test_divisor_line_is_where_the_divisor_drops_rank():
    # the points of f1 = g1 = g2 = 0 at which [x, g1, g2] has rank 2, by
    # brute force, for Gram matrices of the forms of rank 2, 1 and 0
    sizes = set()
    for seed in range(40):
        rng = Random(seed)
        p = rng.choice((5, 13))
        n = 4 if p == 13 else rng.randint(4, 6)
        iso = (1, 2) if p == 5 else (2, 3)  # 1 + 4 = 5 and 4 + 9 = 13
        g1 = [rng.randint(-4, 4) for _ in range(n)]
        g2 = [rng.randint(-4, 4) for _ in range(n)]
        if seed % 3:
            g1 = [*iso, *(0,) * (n - 2)]
        if seed % 3 == 2:
            g2 = [0, 0, *iso, *(0,) * (n - 4)]
        if _pivot_minor(g1, g2, p) is None:
            continue
        expected = {
            x
            for x in projective_reps(n, p)
            if not any(sum(map(mul, x, v)) % p for v in (x, g1, g2))
            and _rank_mod([list(x), g1, g2], p) == 2
        }
        assert smoothcheck._divisor_line(g1, g2, p) == expected, (g1, g2, p)
        sizes.add(min(len(expected), 2))
    assert sizes == {0, 1, 2}


def test_characteristic_two_is_rejected():
    data = PencilData(2, (0, 1, 2, 3, 4), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    with pytest.raises(DegenerateReductionError, match="characteristic 2"):
        smoothness_scan(data, 2)


def _counting_reps(monkeypatch, limit=None):
    """Patch ``smoothcheck.projective_reps`` to record the dimension of
    every space it is asked to walk and the number of points it yields,
    failing once the points exceed ``limit``."""
    seen = {"points": 0, "dims": []}
    real = smoothcheck.projective_reps

    def counting(nvars, p):
        seen["dims"].append(nvars)
        for pt in real(nvars, p):
            seen["points"] += 1
            if limit is not None and seen["points"] > limit:
                pytest.fail(f"the screen walked more than {limit} points")
            yield pt

    monkeypatch.setattr(smoothcheck, "projective_reps", counting)
    return seen


@pytest.mark.parametrize(
    "m,p,draws",
    [
        (0, 5, 12), (0, 7, 24), (2, 3, 12), (2, 5, 12), (2, 7, 12), (2, 11, 12),
        (4, 3, 6), (4, 5, 6), (4, 7, 6), (4, 11, 4), (6, 3, 4), (6, 5, 3),
    ],
)
def test_center_screen_equals_the_dense_reference(m, p, draws, monkeypatch):
    # seeded forms mod p, dense or sparse, against ascending, random and
    # colliding weights; the draws include singular and smooth centers,
    # and for m >= 2 kernels of the restricted pencil of dimension >= 2
    seen = _counting_reps(monkeypatch)
    n = m + 3
    verdicts = []
    for seed in range(draws):
        rng = Random(seed)
        g1, g2 = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(2))
        sparse = [
            tuple(rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(n))
            for _ in range(2)
        ]
        cases = [
            (tuple(range(n)), g1, g2),
            (tuple(rng.sample(range(-50, 50), n)), g1, g2),
            (tuple(rng.randrange(p) for _ in range(n)), g1, g2),
            (tuple(range(n)), *sparse),
            (tuple(rng.randrange(p) for _ in range(n)), *sparse),
        ]
        for lambdas, f1, f2 in cases:
            if _pivot_minor(f1, f2, p) is None:
                continue
            verdict = _center_singular_mod(lambdas, f1, f2, p)
            assert verdict == reference.center_singular_mod(lambdas, f1, f2, p), (
                seed, lambdas, f1, f2,
            )
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}
    if m >= 2:
        assert max(seen["dims"]) >= 2


def test_center_screen_in_characteristic_two_equals_the_dense_reference():
    # every gradient vanishes mod 2, so a center is singular exactly where
    # it has a point, and every member of the pencil must see all of them
    verdicts = []
    for m in (0, 1, 2):
        n = m + 3
        for seed in range(24):
            rng = Random(seed)
            lambdas = tuple(rng.sample(range(-50, 50), n))
            g1, g2 = (tuple(rng.randrange(2) for _ in range(n)) for _ in range(2))
            if _pivot_minor(g1, g2, 2) is None:
                continue
            verdict = _center_singular_mod(lambdas, g1, g2, 2)
            assert verdict == reference.center_singular_mod(lambdas, g1, g2, 2), (m, seed)
            verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_center_screen_walks_only_the_pencil_kernels(monkeypatch):
    # at m = 6, p = 11 the walk of P^6(F_11) had 1,948,717 points; the
    # kernels of the restricted pencil hold fewer than p^2 between them
    p = 11
    seen = _counting_reps(monkeypatch, limit=p * p)
    for seed in range(6):
        rng = Random(seed)
        g1, g2 = (tuple(rng.randint(1, 40) for _ in range(9)) for _ in range(2))
        seen["points"] = 0
        _center_singular_mod(tuple(range(9)), g1, g2, p)
    seen["points"] = 0
    default_pencil(6, primes=(p,))
