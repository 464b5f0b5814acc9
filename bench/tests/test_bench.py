"""Tests of the benchmark itself: self-time arithmetic, the report check,
wrapping and restoring every binding site, and byte-identical reports.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from twoquadrics import cli, smoothcheck, specialfiber

import child
import layers
import run
import workloads
from tracer import Patches, Span, Tracer, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_self_time_of_a_span_nest():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)
    left = tracer.span("left", lambda: inner())
    right = tracer.span("right", lambda: None)
    tracer.span("root", lambda: (left(), right()))()

    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("root", 0.0, 10.0, -1),
        ("left", 1.0, 4.0, 0),
        ("inner", 2.0, 3.0, 1),
        ("right", 5.0, 9.0, 0),
    ]
    assert self_times(tracer.spans) == {"root": 3.0, "left": 2.0, "inner": 1.0, "right": 4.0}


def test_self_time_sums_repeated_names():
    spans = [Span("a", 0.0, 4.0, -1, 0), Span("b", 1.0, 2.0, 0, 0), Span("a", 5.0, 6.0, -1, 1)]
    assert self_times(spans) == {"a": 4.0, "b": 1.0}


def _report(argv):
    _, code, text = child.run_sample(cli.main, [argv])[2][0]
    return code, text


def test_check_accepts_a_genuine_report_and_flags_tampering():
    code, text = _report(["euler", "--m", "40", "--format", "json"])
    assert workloads.check_report("algebra", code, text) == []
    assert workloads.check_report("algebra", 2, text) == ["exit code 2"]

    flipped = json.loads(text)
    flipped["sections"][0]["claims"][1]["ok"] = False
    problems = workloads.check_report("algebra", 0, json.dumps(flipped))
    assert problems == ["claim primitive-rank-is-m-plus-3 is not ok"]

    wrong = json.loads(text)
    wrong["sections"][0]["chi"] = 86
    assert workloads.check_report("algebra", 0, json.dumps(wrong)) == ["chi is 86, expected 84"]


def _census_report(**changes):
    report = {
        "total_terms": 393_464,
        "verdict_census": dict(workloads.CENSUS),
        "correlator_value": 0,
    }
    report.update(changes)
    section = {"name": "degeneration", "claims": [{"claim": "c", "ok": True}], "report": report}
    return json.dumps({"config": {"sections": ["degeneration"]}, "sections": [section]})


def test_check_flags_a_wrong_census_invariant():
    assert workloads.check_report("census", 0, _census_report()) == []
    census = dict(workloads.CENSUS, **{"unstable-configuration": 3})
    assert workloads.check_report("census", 0, _census_report(verdict_census=census))
    assert workloads.check_report("census", 0, _census_report(correlator_value=None))


def test_check_flags_a_wrong_scan_invariant():
    run_ = {"locus": {"points_scanned": workloads.SCAN_POINTS, "lambda_collisions": []},
            "charts": {"lambda_collisions": [[0, 3]]}}
    section = {"name": "smoothness", "claims": [], "runs": [run_]}
    text = json.dumps({"config": {"sections": ["smoothness"]}, "sections": [section]})
    assert workloads.check_report("scan", 0, text) == ["charts lambda_collisions is [[0, 3]], expected []"]


def test_check_flags_a_malformed_or_incomplete_report():
    assert workloads.check_report("census", 0, "not json")[0].startswith("malformed report")
    text = json.dumps({"config": {"sections": ["fiber"]}, "sections": []})
    assert workloads.check_report("algebra", 0, text) == ["section fiber is missing"]


def _bindings():
    """Every binding the traced run may replace."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "twoquadrics"]
    found = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    found["_RUNNERS"] = dict(cli._RUNNERS)
    found["is_pairing_preserving"] = vars(specialfiber.RestrictionMap)["is_pairing_preserving"]
    return found


def test_absent_names_are_reported_and_every_wrapper_is_restored(monkeypatch):
    monkeypatch.delattr(smoothcheck, "_rank_mod")
    monkeypatch.delattr(smoothcheck, "Poly")
    before = _bindings()
    patches = Patches()
    absent = layers.install(Tracer(), patches, spanned=layers.SPANNED + ("nosuchmodule.f",))
    assert sorted(absent) == ["nosuchmodule.f", "smoothcheck.Poly.eval_mod", "smoothcheck._rank_mod"]
    assert cli._RUNNERS["fiber"] is not before["_RUNNERS"]["fiber"]
    patches.restore()
    assert _bindings() == before


def test_tracing_sees_every_binding_kind_and_keeps_the_report():
    argv = ["fiber", "--m", "6", "--format", "json"]
    plain = child.run_sample(cli.main, [argv])[2][0][2]
    tracer, patches = Tracer(), Patches()
    try:
        assert layers.install(tracer, patches) == []
        traced = child.run_sample(tracer.span(layers.ROOT_SPAN, cli.main), [argv])[2][0][2]
    finally:
        patches.restore()
    assert traced == plain

    names = [s.name for s in tracer.spans]
    assert names.count("specialfiber.mv_kernel") == 3
    assert names.count("cli.section.fiber") == 1
    # the module-level copy in specialfiber
    assert "exactmath.kernel_basis" in names
    # the call-time import inside is_pairing_preserving
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "exactmath.mat_mul"}
    assert parents == {"specialfiber.RestrictionMap.is_pairing_preserving"}


def test_in_process_report_is_byte_identical_to_the_cli():
    argv = ["euler", "--m", "40", "--seed", "5", "--format", "json"]
    in_process = child.run_sample(cli.main, [argv])[2][0][2]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain = subprocess.run(
        [sys.executable, "-m", "twoquadrics", *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert in_process == plain


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = layers.layer_metrics(Tracer(), [1.0], [1.0], [], [])
    assert sorted(emitted) == sorted(m["name"] for m in declared["per_layer"])
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]}


def test_tail_needs_ten_samples_beyond_and_lies_above_the_median():
    assert run.tail([float(i) for i in range(19)]) is None
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 100 * 20 / 30)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
