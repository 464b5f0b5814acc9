import hashlib
import json
import time

import pytest

from twoquadrics import cli, smoothcheck
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
    code, out, _ = run_cli(capsys, "full", "--m", "4", "--primes", "5")
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


def test_internal_value_error_is_not_a_config_error(monkeypatch):
    def broken(cfg):
        raise ValueError("point does not satisfy the system")

    monkeypatch.setitem(cli._RUNNERS, "euler", broken)
    with pytest.raises(ValueError, match="does not satisfy"):
        main(["euler", "--m", "4"])


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
            "5",
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
