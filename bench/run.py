"""Repo-owned benchmark for twoquadrics.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Builds nothing: it imports ``twoquadrics`` from ``src/`` of the checkout
it sits in.  Set-up time is measured first, as the median of several fresh
interpreters importing ``twoquadrics.cli``.  The workload then runs in one
fresh child interpreter (``bench/child.py``), single-threaded, for
``--seconds``.  Every report is checked (see ``bench/workloads.py``).

Standard output is a human-readable block (every metric with its unit, the
environment and each report's SHA-256) followed by one JSON line: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  The exit code is non-zero, and no
JSON line is printed, when the program cannot be imported or a run
crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TIME_LIMIT = 170  # seconds for the whole run, set-up included
TAIL_BEYOND = 10


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # time imports from cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds(env) -> float:
    """Median wall seconds from starting an interpreter to the end of
    ``import twoquadrics.cli``."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import twoquadrics.cli"], env=env, cwd=ROOT, check=True, timeout=60
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(values: list[float]):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None when that would not lie above the median."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < (len(ordered) + 1) / 2:
        return None
    return ordered[rank - 1], 100 * rank / len(ordered)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "twoquadrics" / "cli.py").is_file():
        print(f"bench: no twoquadrics sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = _env()
    try:
        setup_s = None if args.trace else setup_seconds(env)
        child = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=TIME_LIMIT - (time.perf_counter() - started),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"bench: the workload run exited with code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.splitlines()[-1])

    walls = [s["wall"] for s in result["samples"] if not s["traced"]]
    cpus = [s["cpu"] for s in result["samples"] if not s["traced"]]
    print(f"workload {args.workload}: {len(result['samples'])} samples in {args.seconds} s, trace {args.trace}")
    print(f"env: git_sha={git_sha()} python={platform.python_version()} nproc={os.cpu_count()} seed={args.seed}")
    if args.trace:
        values = result["layers"]
        if result["absent"]:
            print("absent names (their metrics read 0): " + ", ".join(result["absent"]))
    else:
        values = {
            "report_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_kib"] / 1024,
        }
        high = tail(walls)
        print(
            f"report_s_tail: p{high[1]:.0f} = {high[0]!r} s of {len(walls)} samples" if high
            else f"report_s_tail: undefined, {len(walls)} samples "
                 f"(a tail above the median needs at least {2 * TAIL_BEYOND})"
        )
        print(f"cpu_s/wall_s: {sum(cpus) / sum(walls)!r}")
        print("sample wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"failed_frac: {result['failed']}/{result['reports']} = {result['failed'] / result['reports']!r} ratio")
    for problem in result["problems"]:
        print(f"  failed: {problem}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")
    for argv, digests in result["sha256"].items():
        print(f"sha256 [{argv}]: {' '.join(digests)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["reports"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
