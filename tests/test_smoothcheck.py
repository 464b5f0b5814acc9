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
        *(default_pencil(m, seed=seed) for m in (2, 4, 6, 10) for seed in (0, 3)),
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


@pytest.mark.parametrize(
    "m,p", [(1, 3), (2, 3), (3, 3), (6, 3), (1, 5), (2, 5), (3, 5), (4, 5), (1, 7), (2, 7), (1, 11)]
)
def test_scan_base_walks_exactly_the_quadric(m, p):
    # both parities of m+3; the scan also checks its count against the
    # closed form and raises on a mismatch
    data = _generic_data(m)
    polys = reference.equations(data)
    scanned = list(_scan_base(data, p))
    assert [item[0] for item in scanned] == enumerate_points([polys["f1"]], p)
    for pt, v1, v2, w1, w2 in scanned:
        assert (v1, v2, w1, w2) == tuple(polys[k].eval_mod(pt, p) for k in ("f1", "f2", "g1", "g2"))


def test_scan_base_count_mismatch_is_an_internal_error(monkeypatch):
    real = smoothcheck._square_roots
    monkeypatch.setattr(smoothcheck, "_square_roots", lambda p: [r[:1] for r in real(p)])
    with pytest.raises(ArithmeticError, match="closed form"):
        list(_scan_base(_generic_data(2), 5))
    with pytest.raises(ArithmeticError):
        smoothness_scan(default_pencil(2, primes=(5,), seed=0), 5)


# (data, prime): seeds 1, 31 and 18 have chart failures and rank-deficient
# points at t != 0; the hand-made forms fail the divisor, the center and
# chart_T at G = 0, the pair at m = 4 puts a t = 0 discrepancy in the
# locus, and the last pair two, which the walk meets out of sorted order
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
    assert any(charts["divisor_rank_failures"] for _, charts in reports)
    assert any(charts["center_rank_failures"] for _, charts in reports)


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


def test_span_projection_decides_the_divisor_and_center_ranks():
    # pi(x) = 0 exactly where [x, g1, g2] drops rank, and pi(x), pi(lambda
    # x) are independent exactly where [x, lambda x, g1, g2] has rank 4
    kinds = set()
    for seed in range(300):
        rng = Random(seed)
        p = rng.choice((3, 5, 7, 11))
        n = rng.randint(3, 9)
        lambdas = [rng.randrange(p) for _ in range(n)]
        x = [rng.randrange(p) for _ in range(n)]
        g1, g2 = ([rng.randrange(p) for _ in range(n)] for _ in range(2))
        kind = seed % 4
        if kind == 1:  # x inside span(g1, g2)
            a, b = rng.randrange(p), rng.randrange(p)
            x = [a * u + b * v for u, v in zip(g1, g2)]
        elif kind == 2:  # lambda x = c x + g1
            c = rng.randrange(p)
            g1 = [(lam * v - c * v) % p for lam, v in zip(lambdas, x)]
        elif kind == 3:  # x an eigenvector of lambda
            i = rng.randrange(n)
            x = [v if lambdas[j] == lambdas[i] else 0 for j, v in enumerate(x)]
        if _pivot_minor(g1, g2, p) is None or not any(v % p for v in x):
            continue
        lx = [lam * v for lam, v in zip(lambdas, x)]
        project = smoothcheck._span_projection(g1, g2, p)
        on_x = project(x)
        assert (not any(on_x)) == (_rank_mod([x, g1, g2], p) == 2), seed
        independent = _rank_mod([on_x, project(lx)], p) == 2
        assert independent == (_rank_mod([x, lx, g1, g2], p) == 4), seed
        kinds.add((kind, not any(on_x), independent))
    assert {(0, False, True), (1, True, False), (2, False, False), (3, False, False)} <= kinds
