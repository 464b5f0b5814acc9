"""Which twoquadrics names the traced run wraps, and the per-layer metrics
derived from its spans, counters and reports.

Three kinds of binding have to be wrapped for the trace to see every call:
module-level copies made by ``from .exactmath import ...`` (cohomology,
specialfiber), the defining module's own name (``is_pairing_preserving``
imports ``mat_mul`` at call time) and the entries of ``cli._RUNNERS``,
through which the CLI dispatches.  A name the program no longer has is
reported as absent and its metrics read 0.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter

from tracer import Patches, Tracer, inclusive_times, self_times

PACKAGE = "twoquadrics"
# kept here rather than read from the CLI, so metric names survive a rename
SECTIONS = ("euler", "cohomology", "fiber", "geombasis", "smoothness", "degeneration")
EXACTMATH = tuple(
    f"exactmath.{name}"
    for name in (
        "mat_mul", "det", "smith_normal_form", "gram_diagonalize", "kernel_basis", "rank", "solve_exact"
    )
)
# spans, named by the path of the wrapped name below the package
SPANNED = (
    "smoothcheck.default_pencil",
    "smoothcheck.singular_locus_check",
    "smoothcheck.chart_smoothness_check",
    "gwcount.main_correlator_report",
    "gwcount.enumerate_terms",
    "gwcount.screens_agree",
    "cohomology.integral_gram_det",
    "cohomology.lattice_index",
    "cohomology.primitive_gram",
    "specialfiber.mv_kernel",
    "specialfiber.fiber_gram_on_kernel",
    "specialfiber.RestrictionMap.is_pairing_preserving",
    "geombasis.power_sum",
    "geombasis.verify_points_on_quadrics",
    "geombasis.verify_plane_in_x",
) + EXACTMATH
# spans whose call count is reported as well as their self time
CALLS_REPORTED = ("specialfiber.mv_kernel", "specialfiber.fiber_gram_on_kernel") + EXACTMATH
# counter -> wrapped name; these run too often to time per call
COUNTED = {
    "smoothcheck.eval_mod": "smoothcheck.Poly.eval_mod",
    "smoothcheck.rank_mod": "smoothcheck._rank_mod",
    "gwcount.vanishing_check": "gwcount.vanishing_check",
    "geombasis.lagrange_weights": "geombasis.lagrange_weights",
}
SCAN_BASE = "smoothcheck._scan_base"
RUNNERS = "cli._RUNNERS"
ROOT_SPAN = "cli"


def _resolve(path: str):
    """(owner, attribute, value) of ``module.name`` or ``module.Class.name``
    inside the package, or None when any part of the path is gone."""
    module, *attrs = path.split(".")
    try:
        value = importlib.import_module(f"{PACKAGE}.{module}")
    except ModuleNotFoundError:
        return None
    for attr in attrs:
        owner = value
        value = getattr(owner, attr, None)
        if value is None:
            return None
    return owner, attrs[-1], value


def _binding_sites(owner, attr: str, value) -> list[tuple[object, str]]:
    """A method has one binding; a module-level function is bound under
    every package module's global that holds it."""
    if isinstance(owner, type):
        return [(owner, attr)]
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE]
    return [(m, name) for m in modules for name, bound in vars(m).items() if bound is value]


def _count_scan(counts, scan):
    """Counts ``_scan_base``'s yields and those with f1 = 0."""

    def counting(*args, **kwargs):
        for item in scan(*args, **kwargs):
            counts["smoothcheck.scan.points"] += 1
            if not item[1]:
                counts["smoothcheck.scan.on_quadric"] += 1
            yield item

    return counting


def install(tracer: Tracer, patches: Patches, spanned=SPANNED, counted=COUNTED) -> list[str]:
    """Wrap every binding site of the traced names; return the absent ones."""
    absent = []

    def wrap(path, make):
        found = _resolve(path)
        if found is None:
            absent.append(path)
            return
        wrapper = make(found[2])
        for owner, attr in _binding_sites(*found):
            patches.set(owner, attr, wrapper)

    for path in spanned:
        wrap(path, lambda fn, path=path: tracer.span(path, fn))
    for name, path in counted.items():
        wrap(path, lambda fn, name=name: tracer.counted(name, fn))
    wrap(SCAN_BASE, lambda fn: _count_scan(tracer.counts, fn))
    found = _resolve(RUNNERS)
    if found is None:
        absent.append(RUNNERS)
    else:
        runners = found[2]
        for section, fn in list(runners.items()):
            patches.set(runners, section, tracer.span(f"cli.section.{section}", fn))
    return absent


def _sections(reports: list[dict], name: str) -> list[dict]:
    return [s for r in reports for s in r["sections"] if s["name"] == name]


def layer_metrics(
    tracer: Tracer,
    traced_walls: list[float],
    untraced_walls: list[float],
    reports: list[dict],
    absent: list[str],
) -> dict[str, float]:
    """Per-layer metrics, each per sample: self seconds (``.s``), calls
    (``.calls``), rates and ratios.  ``reports`` are the parsed reports of
    one sample."""
    n = len(traced_walls)
    own = self_times(tracer.spans)
    incl = inclusive_times(tracer.spans)
    calls = Counter(span.name for span in tracer.spans)
    counts = tracer.counts

    metrics = {f"cli.section.{s}.s": own.get(f"cli.section.{s}", 0.0) / n for s in SECTIONS}
    metrics["cli.self.s"] = own.get(ROOT_SPAN, 0.0) / n
    for path in SPANNED:
        metrics[f"{path}.s"] = own.get(path, 0.0) / n
    for path in CALLS_REPORTED:
        metrics[f"{path}.calls"] = calls[path] / n
    for name in COUNTED:
        metrics[f"{name}.calls"] = counts[name] / n

    # effective rate: every point of P^{m+2}(F_p) over both checks' seconds
    points = sum(
        run["locus"]["points_scanned"] for s in _sections(reports, "smoothness") for run in s["runs"]
    )
    scan_s = (
        incl.get("smoothcheck.singular_locus_check", 0.0)
        + incl.get("smoothcheck.chart_smoothness_check", 0.0)
    ) / n
    metrics["smoothcheck.points_per_s"] = points / scan_s if scan_s else 0.0
    scanned = counts["smoothcheck.scan.points"]
    metrics["smoothcheck.on_quadric_ratio"] = (
        counts["smoothcheck.scan.on_quadric"] / scanned if scanned else 0.0
    )

    censuses = [s["report"] for s in _sections(reports, "degeneration")]
    census_s = incl.get("gwcount.main_correlator_report", 0.0) / n
    terms = sum(c["total_terms"] for c in censuses)
    metrics["gwcount.terms_per_s"] = terms / census_s if census_s else 0.0
    # live subsets over all 2^{m+3} insertion subsets, from the census
    subsets = sum(2 ** (c["m"] + 3) for c in censuses)
    dead = sum(c["verdict_census"].get("zero-insertion-restriction", 0) for c in censuses)
    metrics["gwcount.live_subset_ratio"] = (subsets - dead) / subsets if subsets else 0.0

    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["trace.absent_names"] = float(len(absent))
    return metrics
