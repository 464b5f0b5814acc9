import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twoquadrics
from twoquadrics import cli, exactmath, geombasis, smoothcheck, specialfiber
from twoquadrics.cli import (
    EXIT_CONFIG,
    EXIT_DISCREPANCY,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_euler_section(capsys):
    code, out, _ = run_cli(capsys, "euler", "--m", "10")
    assert code == EXIT_OK
    assert "chi: 24" in out
    assert "prim_rank: 13" in out
    assert "overall: pass" in out


def test_full_run_dimension_four(capsys):
    # 7 is the smallest prime at which the weights 0..6 stay distinct
    code, out, _ = run_cli(capsys, "full", "--m", "4", "--primes", "7")
    assert code == EXIT_OK
    assert "overall: pass" in out
    assert out.rstrip().endswith("correlator = 0")


def test_surface_case_exit_is_inconclusive_not_failure(capsys):
    code, out, _ = run_cli(capsys, "degeneration", "--m", "2")
    assert code == EXIT_INCONCLUSIVE
    assert code != EXIT_DISCREPANCY
    assert "overall: inconclusive" in out


def test_odd_dimension_is_config_error(capsys):
    code, _, err = run_cli(capsys, "euler", "--m", "5")
    assert code == EXIT_CONFIG
    assert "even" in err


def test_bad_primes_is_config_error(capsys):
    for primes in ("4", "2", "5,2", "5,x"):
        code, _, err = run_cli(capsys, "smoothness", "--m", "2", "--primes", primes)
        assert code == EXIT_CONFIG, primes
        assert "--primes" in err
    assert "characteristic 2" in run_cli(capsys, "smoothness", "--m", "4", "--primes", "2")[2]


def test_bad_lambda_count_is_config_error(capsys):
    for lambdas in ("0,1,2", "1/0,1,2,3,4,5,6", "a,1,2,3,4,5,6"):
        code, _, err = run_cli(capsys, "geombasis", "--m", "4", "--lambdas", lambdas)
        assert code == EXIT_CONFIG, lambdas
        assert "--lambdas" in err


def test_unreadable_lambda_is_named_as_written(capsys):
    cases = (
        ("1/0,1,2,3,4,5,6", "1/0"),
        ("0,x,2,3,4,5,6", "x"),
        ("0,,2,3,4,5,6", "an empty entry"),
    )
    for lambdas, entry in cases:
        code, _, err = run_cli(capsys, "geombasis", "--m", "4", "--lambdas", lambdas)
        assert code == EXIT_CONFIG, lambdas
        assert err == f"configuration error: --lambdas must list rationals: {entry} is not one\n"


def test_unreadable_prime_is_named_as_written(capsys):
    for primes, entry in (("5,x", "x"), ("7, 1/2 ,11", "1/2"), ("5.0", "5.0")):
        code, out, err = run_cli(capsys, "smoothness", "--m", "4", "--primes", primes)
        assert code == EXIT_CONFIG, primes
        assert out == ""
        assert err == f"configuration error: --primes must list primes: {entry} is not one\n"


def test_repeated_prime_is_config_error(capsys, monkeypatch):
    def scan(*args, **kwargs):
        pytest.fail("a scan ran for a repeated prime")

    monkeypatch.setattr(smoothcheck, "smoothness_scan", scan)
    for primes in ("7,7", "5,7,5"):
        code, out, err = run_cli(capsys, "smoothness", "--m", "4", "--primes", primes)
        assert code == EXIT_CONFIG, primes
        assert out == ""
        assert err == "configuration error: --primes must list distinct primes\n"


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(1, 10**5 + 1) if cli._is_prime(n)] == [
        n for n in range(1, 10**5 + 1) if _trial_division(n)
    ]


def test_strong_pseudoprimes_are_refused(capsys):
    # 3825123056546413051 is a strong pseudoprime to the bases 2..23, and
    # the bound is the least one to all twelve bases the test uses;
    # 211*421*631 is a Carmichael number with a^((n-1)/2) = 1 for every a
    # prime to it, so a test that accepts a 1 after a squaring passes it
    cases = (
        ("3825123056546413051", "--primes must list primes"),
        (str(211 * 421 * 631), "--primes must list primes"),
        (str(cli.PRIME_BOUND), f"--primes must list primes below {cli.PRIME_BOUND}"),
    )
    for primes, message in cases:
        code, out, err = run_cli(capsys, "euler", "--primes", primes)
        assert code == EXIT_CONFIG, primes
        assert out == ""
        assert err == f"configuration error: {message}\n"


def test_large_prime_is_checked_without_stalling(capsys):
    # trial division up to the square root of 10^18 would not finish
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "euler", "--primes", "1000000000000000003")
    assert code == EXIT_OK
    assert "overall: pass" in out
    code, _, err = run_cli(capsys, "smoothness", "--m", "4", "--primes", "1000000000000000003")
    assert code == EXIT_CONFIG
    assert "exceeds the budget" in err
    assert time.monotonic() - start < 1


def test_smoothness_walks_each_prime_once(capsys, monkeypatch):
    walks = []
    real = smoothcheck._scan_base

    def counting(data, p):
        walks.append(p)
        return real(data, p)

    monkeypatch.setattr(smoothcheck, "_scan_base", counting)
    code, _, _ = run_cli(capsys, "smoothness", "--m", "4", "--primes", "7,11")
    assert code == EXIT_OK
    assert walks == [7, 11]


def test_geombasis_clears_denominators_as_often_at_every_m(capsys, monkeypatch):
    # the power sums are built by running products from one clearing, so
    # the moment arithmetic of a report does not grow with m
    calls = []
    real = geombasis._cleared

    def counting(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(geombasis, "_cleared", counting)
    per_report = []
    for m in (4, 40):
        calls.clear()
        code, _, _ = run_cli(capsys, "geombasis", "--m", str(m))
        assert code == EXIT_OK
        per_report.append(len(calls))
    assert per_report[0] == per_report[1], per_report


def test_fiber_eliminates_the_restriction_matrix_once(capsys, monkeypatch):
    # the rank is read off the kernel's elimination, not run again
    m = 6
    target = specialfiber.restriction_map(m).matrix
    runs = []
    real = exactmath.echelon

    def counting(mat, p=None):
        runs.append(tuple(map(tuple, mat)) == target)
        return real(mat, p)

    monkeypatch.setattr(exactmath, "echelon", counting)
    code, _, _ = run_cli(capsys, "fiber", "--m", str(m))
    assert code == EXIT_OK
    assert runs.count(True) == 1


def test_nonpositive_budget_is_config_error(capsys):
    for budget in ("0", "-5"):
        code, _, err = run_cli(capsys, "smoothness", "--m", "4", "--primes", "7", "--budget", budget)
        assert code == EXIT_CONFIG, budget
        assert err == "configuration error: --budget must be positive\n"


def test_rational_lambdas_pass_the_geombasis_section(capsys):
    lambdas = "1/2,-3/4,5/6,7,-2/3,11/5,0"
    code, out, _ = run_cli(capsys, "geombasis", "--m", "4", "--lambdas", lambdas, "--format", "json")
    assert code == EXIT_OK
    (section,) = json.loads(out)["sections"]
    assert section["nodes"] == lambdas.split(",")
    assert section["claims"] and all(c["ok"] is True for c in section["claims"])


def test_internal_value_error_is_not_a_config_error(monkeypatch):
    def broken(cfg):
        raise ValueError("point does not satisfy the system")

    monkeypatch.setitem(cli._RUNNERS, "euler", broken)
    with pytest.raises(ValueError, match="does not satisfy"):
        main(["euler", "--m", "4"])


def test_failing_fiber_kernel_is_an_internal_error_not_a_report(monkeypatch):
    # a gamma that kills none of the named classes: mv_kernel raises
    monkeypatch.setattr(specialfiber, "gamma_matrix", lambda m: [[Fraction(1)] * (m + 6)])
    with pytest.raises(ArithmeticError, match="does not lie in the kernel"):
        main(["fiber", "--m", "4"])


def test_unknown_section_is_config_error(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == EXIT_CONFIG


def test_json_output_round_trips(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "degeneration",
        "--m",
        "4",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == EXIT_OK
    text = target.read_text()
    report = json.loads(text)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == text
    assert report["verdict"] == "pass"
    assert report["correlator"] == 0


def test_unwritable_output_is_config_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(
            capsys, "euler", "--m", "4", "--format", "json", "--output", str(target)
        )
        assert code == EXIT_CONFIG, target
        assert "configuration error: cannot write --output" in err
        assert "Traceback" not in err
        assert out == ""


def test_json_output_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code, _, _ = run_cli(
            capsys,
            "full",
            "--m",
            "4",
            "--primes",
            "7",
            "--seed",
            "3",
            "--format",
            "json",
            "--output",
            str(target),
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_budget_maps_to_config_error(capsys):
    code, _, err = run_cli(
        capsys, "smoothness", "--m", "4", "--primes", "11", "--budget", "1000"
    )
    assert code == EXIT_CONFIG
    assert "budget" in err


def test_budget_is_checked_before_the_genericity_screen(capsys, monkeypatch):
    # the screen scans P^12(F_3) for every draw; it must not start at all
    def screen(*args, **kwargs):
        pytest.fail("default_pencil ran before the budget check")

    monkeypatch.setattr(smoothcheck, "default_pencil", screen)
    start = time.monotonic()
    code, _, err = run_cli(capsys, "smoothness", "--m", "12", "--primes", "3")
    assert code == EXIT_CONFIG
    assert "budget" in err
    assert time.monotonic() - start < 5


COLLISIONS_MOD_3 = [[0, 3], [0, 6], [1, 4], [2, 5], [3, 6]]  # weights 0..6


def test_colliding_weights_are_labelled_degenerate_and_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "smoothness", "--m", "4", "--primes", "3")
    assert code == EXIT_INCONCLUSIVE
    assert "overall: inconclusive" in out
    assert "overall: pass" not in out
    assert out.count("mod-3: degenerate, not counted (scan: pass)") == 3
    code, out, _ = run_cli(capsys, "smoothness", "--m", "4", "--primes", "3", "--format", "json")
    assert code == EXIT_INCONCLUSIVE
    section = json.loads(out)["sections"][0]
    assert section["inconclusive"] is True
    assert all(c["degenerate"] and c["lambda_collisions"] == COLLISIONS_MOD_3 for c in section["claims"])


def test_colliding_prime_is_not_evidence_either_way(capsys, monkeypatch):
    real = smoothcheck.smoothness_scan

    def failing_at_3(data, p):
        locus, charts = real(data, p)
        return {**locus, "ok": locus["ok"] and p != 3}, charts

    monkeypatch.setattr(smoothcheck, "smoothness_scan", failing_at_3)
    # a failed scan at a colliding prime is no discrepancy
    code, out, _ = run_cli(capsys, "smoothness", "--m", "4", "--primes", "3")
    assert code == EXIT_INCONCLUSIVE
    assert "degenerate, not counted (scan: fail)" in out
    # a clean prime carries the verdict, and its claims carry no label
    code, out, _ = run_cli(capsys, "smoothness", "--m", "4", "--primes", "3,7", "--format", "json")
    assert code == EXIT_OK
    section = json.loads(out)["sections"][0]
    assert "inconclusive" not in section
    for claim in section["claims"]:
        assert claim.get("degenerate", False) == claim["claim"].endswith("mod-3")


def test_sections_report_claims(capsys):
    for section in ("cohomology", "fiber", "geombasis"):
        code, out, _ = run_cli(capsys, section, "--m", "4")
        assert code == EXIT_OK
        assert ": pass" in out


def test_text_report_has_no_python_reprs(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--m", "4")
    assert code == EXIT_OK
    assert "Fraction(" not in out
    assert "pass determinant=1, expected=1" in out


# SHA-256 of `degeneration --m M --format json` with the default seed; the
# census report must stay byte-identical across rewrites of the enumeration
DEGENERATION_JSON_SHA256 = {
    2: "0f01a44e4c65386324b23b954de58b679596e5883ba5dcfbf5d04acc474a22f5",
    4: "88b196b04efa291bf67101840bad9ff16e1c51b84fe042c6cde38c84d72c5d39",
    6: "3cc641c839cf4b9489a4ec5316ef2a57271a4fc5dce2521cdb59cf8b25b625e9",
    8: "e87164e944b967cbbb83a047bb4bfd51545608c1f4b74c7b412fe5f16e273155",
    10: "7240a69f55ab1fba92b8c888af6e52b54ca041acf3ddb72e8c4cc7be621215f9",
    12: "b01076f6d0c9a7db76f44ff72c8be233a8c0de1d5e1a682cca348af930bf74d6",
    14: "9beccf885b5ebb30c9160f62ca553f6747e50793695cf239a37fde0cabbabf13",
}


def test_degeneration_json_matches_golden_digests(capsys):
    for m, digest in DEGENERATION_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, "degeneration", "--m", str(m), "--format", "json")
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, m


# SHA-256 of `SECTION --m M --seed 0 --format json` for the exact-algebra
# sections; rewrites of the linear algebra must keep these reports
# byte-identical
ALGEBRA_JSON_SHA256 = {
    ("euler", 4): "a671309325e32916fbabf99edd0c8e8c09b76bc3bef0abf8da74cba3ff7482b5",
    ("euler", 12): "fd62c25da4d64350064805e8760f80a2b0134c72e049eea054e2b297b1b8d071",
    ("euler", 40): "09b8d86743e7c70184cf8e618b96671e9750c94361ca9f86a7a628a936c45122",
    ("cohomology", 4): "f8724fa8db6b5f4083a68117ce13c33517debd56b4d88cffbcf11bb0ab29ff32",
    ("cohomology", 12): "056b9d71c572e96fd2d26ba4817dcf4e8c01922e1756cbac983bad32e68b1889",
    ("cohomology", 40): "f8d084e694309d147a1cde6d0a53943aec571943557bc2059f6ad9842d0b24b0",
    ("fiber", 4): "b2878c6b3d54c5c7cde14be7980812a6ab8e2e812032e841bf9430ac38c0be25",
    ("fiber", 12): "44febff8e565d58af7df60f3a8e2823b1e88ea79ab5092d5845fa48c1e86520b",
    ("fiber", 40): "bb42f74969a137529e59bc2088b83b6575d73eb0ef70091b0fab91fa59487f0d",
    ("geombasis", 4): "7f4a47f9eb68330615d125985e469ff72f9098c23fa13fd9811c38b7956d6b21",
    ("geombasis", 12): "1423dc1fc20ba087c7070c29412c8e5a1293edf129ed5c7891c4c2caaf5ccb5b",
    ("geombasis", 40): "1c1a9a9abc1e35d39b201d81a8d3f4a1d95044be5c00977b5749da51f1a30786",
}


def test_algebra_json_matches_golden_digests(capsys):
    for (section, m), digest in ALGEBRA_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, section, "--m", str(m), "--seed", "0", "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (section, m)


# SHA-256 of the JSON report of runs that reach the finite-field scans,
# with their exit codes (smoothness at m = 4 mod 3 has colliding weights)
SCAN_JSON_SHA256 = {
    ("full", "--m", "4", "--seed", "0"): (
        EXIT_OK,
        "4050bf290934c60c441b108022f319e2196521022d6d41d85f97e7bff66ea483",
    ),
    ("smoothness", "--m", "4", "--primes", "3"): (
        EXIT_INCONCLUSIVE,
        "f55ea0fae66962463433e84da1a6636569ecf879b2b14fee646cee0e3360ff9d",
    ),
    ("smoothness", "--m", "6", "--primes", "5", "--seed", "2"): (
        EXIT_INCONCLUSIVE,
        "219e79dffe41831598cc3656d61652932e472b47fa04336a7fa5b18141d60afd",
    ),
    # singular total spaces at t != 0: every chart failure is a chart_T point
    # at G = 0 and t != 0, where the failing t are solved in closed form
    ("smoothness", "--m", "4", "--primes", "7", "--seed", "7"): (
        EXIT_DISCREPANCY,
        "bc325301362d24ffe56993f10689bb3b6b036d053ee622493e6321e52c0db276",
    ),
    ("smoothness", "--m", "4", "--primes", "11", "--seed", "2"): (
        EXIT_DISCREPANCY,
        "033b09acaf3774f12ab9212b1ad6b42025654f502c9bf7a8b28fb2351e784dcb",
    ),
}


def test_scan_json_matches_golden_digests(capsys):
    for argv, (exit_code, digest) in SCAN_JSON_SHA256.items():
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == exit_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    # compared before and after the import in a fresh interpreter, because
    # site hooks may preload modules of their own; argparse and json are
    # loaded only when a command line is parsed or a report rendered
    probe = (
        "import sys; before = set(sys.modules); import twoquadrics.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(twoquadrics.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(done.stdout.split())
    assert "twoquadrics.cli" in added
    assert not added & {"dataclasses", "inspect", "hashlib", "_hashlib", "argparse", "json"}
