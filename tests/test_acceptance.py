"""Acceptance suite: every headline claim at its stated tolerance, one
printed pass/fail line per criterion.  Run with ``pytest -s`` to see the
lines."""

import random
import time
from fractions import Fraction

from twoquadrics.chern import CIDescriptor, euler_char, primitive_middle_dim
from twoquadrics.cli import EXIT_INCONCLUSIVE, main as cli_main
from twoquadrics.cohomology import integral_gram_det, lattice_index
from twoquadrics.exactmath import rank
from twoquadrics.geombasis import (
    LambdaConfig,
    default_config,
    power_sum,
    verify_plane_in_x,
)
from twoquadrics.gwcount import main_correlator_report
from twoquadrics.smoothcheck import default_pencil, smoothness_scan
from twoquadrics.specialfiber import (
    fiber_gram_on_kernel,
    gamma_matrix,
    mv_kernel,
    restriction_map,
)


def _record(number, label, ok):
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_euler_characteristic():
    start = time.monotonic()
    ok = all(
        euler_char(CIDescriptor(m + 2, (2, 2))) == 2 * m + 4
        for m in (2, 4, 6, 8, 10, 12)
    )
    elapsed = time.monotonic() - start
    _record(1, "euler characteristic 2m+4 in under a second", ok and elapsed < 1.0)


def test_criterion_02_primitive_rank():
    ok = all(
        primitive_middle_dim(CIDescriptor(m + 2, (2, 2))) == m + 3
        for m in (2, 4, 6, 8, 10, 12)
    )
    _record(2, "primitive middle rank m+3", ok)


def test_criterion_03_integral_gram_determinant():
    ok = all(
        integral_gram_det(m) == Fraction(-1 if m % 4 else 1)
        for m in (4, 6, 8, 10, 12)
    )
    _record(3, "integral basis Gram determinant is the stated unit", ok)


def test_criterion_04_lattice_index():
    ok = all(lattice_index(m) == 4 for m in (4, 6, 8, 10))
    _record(4, "ambient-plus-primitive sublattice has index 4", ok)


def test_criterion_05_mayer_vietoris_kernel_and_gram():
    ok = True
    for m in (4, 6, 8):
        basis = mv_kernel(m)  # raises if the named classes fail to span
        # m+5 classes: the middle rank of the smooth fiber plus the one
        # class the restriction kills
        ok = ok and len(basis) == m + 5
        ok = ok and len(kernel_rows := [list(v.coeffs) for v in basis]) == rank(
            kernel_rows
        )
        gram = fiber_gram_on_kernel(m)
        n = m + 5
        expected = [[Fraction(0)] * n for _ in range(n)]
        expected[0][0] = Fraction(4)
        expected[2][2] = Fraction(1)
        expected[3][3] = Fraction(1)
        for i in range(4, n):
            expected[i][i] = Fraction(-1)
        ok = ok and gram == expected
        ok = ok and rank(gamma_matrix(m)) == 1
    _record(5, "glued-fiber kernel basis and pairing table", ok)


def test_criterion_06_restriction_map():
    ok = True
    for m in (4, 6, 8):
        rmap = restriction_map(m)
        ok = ok and rmap.is_pairing_preserving()
        kernel = rmap.kernel()
        ok = ok and len(kernel) == 1
        ok = ok and bool(kernel[0][1]) and not any(
            kernel[0][j] for j in range(len(kernel[0])) if j != 1
        )
        ok = ok and rank(rmap.matrix) == m + 4
    _record(6, "restriction map is pairing-compatible with the stated kernel", ok)


def test_criterion_07_lagrange_identities():
    start = time.monotonic()
    rng = random.Random(99)
    ok = True
    for m in (4, 6, 8, 10):
        configs = [default_config(m)]
        while len(configs) < 21:
            nodes = set()
            while len(nodes) < m + 3:
                nodes.add(Fraction(rng.randint(-40, 40), rng.randint(1, 4)))
            configs.append(LambdaConfig(tuple(sorted(nodes))))
        for cfg in configs:
            for p in range(m + 2):
                ok = ok and power_sum(cfg, p) == 0
            ok = ok and power_sum(cfg, m + 2) == 1
        ok = ok and verify_plane_in_x(default_config(m), trials=100, seed=42)
    elapsed = time.monotonic() - start
    _record(7, "power-sum identities and plane membership in under 5 s", ok and elapsed < 5.0)


def test_criterion_08_smoothness_scans():
    data = default_pencil(4, primes=(5, 7, 11), seed=0)
    ok = True
    for p in (5, 7):
        start = time.monotonic()
        locus, charts = smoothness_scan(data, p)
        elapsed = time.monotonic() - start
        ok = ok and locus["t_zero"]["sets_equal"]
        ok = ok and not charts["chart_rank_failures"]
        ok = ok and elapsed < 120.0
    _record(8, "singular locus matches the base locus and charts are smooth", ok)


def test_criterion_09_main_correlator_vanishes():
    start = time.monotonic()
    ok = True
    for m in (4, 6, 8, 10):
        report = main_correlator_report(m)
        ok = ok and report["status"] == "vanishes"
        ok = ok and report["correlator_value"] == 0
        ok = ok and not report["surviving_terms"]
        ok = ok and report["screens_consistent"]
    elapsed = time.monotonic() - start
    _record(9, "all degeneration terms vanish in under 10 s", ok and elapsed < 10.0)


def test_criterion_10_surface_control(capsys):
    report = main_correlator_report(2)
    ok = report["status"] == "inconclusive"
    ok = ok and len(report["surviving_terms"]) >= 1
    code = cli_main(["degeneration", "--m", "2"])
    capsys.readouterr()
    ok = ok and code == EXIT_INCONCLUSIVE
    with capsys.disabled():
        _record(10, "surface case reports survivors and exits inconclusive", ok)
