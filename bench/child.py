"""One workload run inside a fresh interpreter.

Calls ``twoquadrics.cli.main`` in-process, one sample after another, until
the next sample would overrun ``--seconds``; checks every report; prints
the raw measurements as one JSON line.  With ``--trace 1`` the samples
alternate between untraced and traced, so that the traced run also gives
its own overhead.  ``bench/run.py`` starts this script; it is not meant to
be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import time

from layers import ROOT_SPAN, install, layer_metrics
from tracer import Patches, Tracer
from workloads import WORKLOADS, argvs, check_report, sha256

MAX_PROBLEMS = 20


def run_sample(main, calls: list[list[str]]):
    """Wall and CPU seconds of the calls back to back, and each call's
    argv, exit code and output."""
    outputs = []
    wall, cpu = time.perf_counter(), time.process_time()
    for argv in calls:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        outputs.append((argv, code, buffer.getvalue()))
    return time.perf_counter() - wall, time.process_time() - cpu, outputs


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from twoquadrics import cli

    calls = argvs(workload, seed)
    tracer, patches = Tracer(), Patches()
    traced_main = tracer.span(ROOT_SPAN, cli.main)
    samples, problems, digests = [], [], {}
    reports = failed = 0
    absent: list[str] = []
    parsed: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        if traced:
            tracer.report = len(samples)
            try:
                absent = install(tracer, patches)
                wall, cpu, outputs = run_sample(traced_main, calls)
            finally:
                patches.restore()
        else:
            wall, cpu, outputs = run_sample(cli.main, calls)
        samples.append({"wall": wall, "cpu": cpu, "traced": traced})
        sample_ok = True
        for argv, code, text in outputs:
            found = check_report(workload, code, text)
            reports += 1
            failed += bool(found)
            sample_ok = sample_ok and not found
            problems.extend(found[: MAX_PROBLEMS - len(problems)])
            digests.setdefault(" ".join(argv[:-2]), set()).add(sha256(text))
        if sample_ok and not parsed:
            parsed = [json.loads(text) for _, _, text in outputs]
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall"] for s in samples)
        if len(samples) >= (2 if trace else 1) and elapsed + typical > seconds:
            break

    result = {
        "samples": samples,
        "reports": reports,
        "failed": failed,
        "problems": problems,
        "sha256": {argv: sorted(d) for argv, d in digests.items()},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        walls = {flag: [s["wall"] for s in samples if s["traced"] is flag] for flag in (True, False)}
        result["absent"] = absent
        result["layers"] = layer_metrics(tracer, walls[True], walls[False], parsed, absent)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
