"""The benchmark's workloads and the correctness check for every report.

A workload is a fixed list of CLI calls; one sample makes all of them
back to back.  The seed is the only input that varies between runs, and
it reaches the program only through the CLI's ``--seed``.  Every workload
stays off the known defect paths (weight collisions at p <= m+2,
characteristic 2, the unbudgeted genericity screen at large m, and the
non-generic scan pencils below), so a report that fails here is a
regression, never a known defect.
"""

from __future__ import annotations

import hashlib
import json


# Each sample makes these CLI calls back to back; see BENCHMARK.json for
# why each workload exists.
WORKLOADS = {
    "scan": (("full", "--m", "4", "--primes", "7"),),
    "census": (("degeneration", "--m", "14"),),
    "algebra": tuple(
        (section, "--m", "40") for section in ("euler", "cohomology", "fiber", "geombasis")
    ),
}


# For some CLI seeds the scan's pencil is not generic mod 7: its total space
# is singular at points with t != 0, so the chart claim fails (exit 2).  The
# genericity screen in smoothcheck.default_pencil misses that condition; it
# is a program defect, not a regression.  Of the seeds 0..25, 7, 11, 13 and
# 19 hit it, so the scan draws its CLI seed from the others.
SCAN_SEEDS = tuple(s for s in range(26) if s not in (7, 11, 13, 19))


def argvs(workload: str, seed: int) -> list[list[str]]:
    """The argument lists of one sample; the seed reaches the program only
    through the CLI's ``--seed``."""
    if workload == "scan":
        seed = SCAN_SEEDS[seed % len(SCAN_SEEDS)]
    tail = ["--seed", str(seed), "--format", "json"]
    return [list(call) + tail for call in WORKLOADS[workload]]


# #P^6(F_7): the scan at m = 4 visits every point of P^{m+2} once per check.
SCAN_POINTS = (7**7 - 1) // 6
CENSUS = {
    "inequality-l-bound": 262_392,
    "unstable-configuration": 2,
    "zero-insertion-restriction": 131_070,
}


def _expect(problems: list[str], label: str, value, expected) -> None:
    if value != expected:
        problems.append(f"{label} is {value!r}, expected {expected!r}")


def _scan_invariants(sections: dict, problems: list[str]) -> None:
    runs = sections["smoothness"]["runs"]
    _expect(problems, "number of scanned primes", len(runs), 1)
    for run in runs:
        _expect(problems, "points_scanned", run["locus"]["points_scanned"], SCAN_POINTS)
        for part in ("locus", "charts"):
            _expect(problems, f"{part} lambda_collisions", run[part]["lambda_collisions"], [])


def _census_invariants(sections: dict, problems: list[str]) -> None:
    report = sections["degeneration"]["report"]
    _expect(problems, "total_terms", report["total_terms"], 393_464)
    _expect(problems, "verdict_census", report["verdict_census"], CENSUS)
    _expect(problems, "correlator_value", report["correlator_value"], 0)


def _algebra_invariants(sections: dict, problems: list[str]) -> None:
    # one call per section: check whichever section this report holds
    if "euler" in sections:
        _expect(problems, "chi", sections["euler"]["chi"], 84)
        _expect(problems, "prim_rank", sections["euler"]["prim_rank"], 43)
    if "cohomology" in sections:
        coh = sections["cohomology"]
        _expect(problems, "determinant", coh["determinant"], "1")
        _expect(problems, "lattice_index", coh["lattice_index"], 4)
        if coh["primitive_signature"] not in ([43, 0, 0], [0, 43, 0]):
            problems.append(
                f"primitive_signature is {coh['primitive_signature']!r}, "
                "expected definite of rank 43"
            )
    if "fiber" in sections:
        _expect(problems, "kernel_dimension", sections["fiber"]["kernel_dimension"], 45)
        _expect(problems, "restriction_rank", sections["fiber"]["restriction_rank"], 44)


INVARIANTS = {
    "scan": _scan_invariants,
    "census": _census_invariants,
    "algebra": _algebra_invariants,
}


def check_report(workload: str, exit_code: int, text: str) -> list[str]:
    """Every reason this report counts as failed: a non-zero exit code, a
    claim that is not ok, or a broken seed-independent invariant."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        report = json.loads(text)
        sections = {s["name"]: s for s in report["sections"]}
        for name in report["config"]["sections"]:
            if name not in sections:
                problems.append(f"section {name} is missing")
        for section in sections.values():
            for claim in section["claims"]:
                if claim["ok"] is not True:
                    problems.append(f"claim {claim['claim']} is not ok")
        INVARIANTS[workload](sections, problems)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
