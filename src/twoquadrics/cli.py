"""Command-line front end: run any verification section or all of them,
emit a deterministic text or JSON report, and exit with a CI-friendly
status code.

Exit codes: 0 all checks pass, 2 a reproduced statement failed, 3 the
run is inconclusive by design (the surface case of the enumeration, or a
section with no claim that counts as evidence, such as a smoothness run
whose every prime has colliding weights), 4 configuration error.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import chern, cohomology, geombasis, gwcount, smoothcheck, specialfiber

EXIT_OK = 0
EXIT_DISCREPANCY = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 4
DEFAULT_BUDGET = 2_000_000  # projective points per finite-field scan


class _UsageError(Exception):
    pass


def _usage_error(message):
    raise _UsageError(message)


def _claim(claim_id: str, ok: bool, **payload) -> dict:
    entry = {"claim": claim_id, "ok": bool(ok)}
    entry.update(payload)
    return entry


def _section(name: str, claims: list[dict], **fields) -> dict:
    """A section report: its fields, its claims, and ok when every claim
    that counts as evidence passes; degenerate claims do not count.  A
    section with no claim that counts is inconclusive, never a plain pass."""
    evidence = [c["ok"] for c in claims if not c.get("degenerate")]
    if not evidence:
        fields["inconclusive"] = True
    return {"name": name, **fields, "claims": claims, "ok": all(evidence)}


def _json_default(value):
    """The JSON form of a report value that ``json`` has none for: a
    Fraction is written as its str, and any other type is an error."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"a report holds a {type(value).__name__}, which has no JSON form")


def run_euler(cfg: dict) -> dict:
    m = cfg["m"]
    ci = chern.CIDescriptor(m + 2, (2, 2))
    chi = chern.euler_char(ci)
    prim = chern.primitive_middle_dim(ci)
    claims = [
        _claim("euler-characteristic-is-2m-plus-4", chi == 2 * m + 4, chi=chi),
        _claim("primitive-rank-is-m-plus-3", prim == m + 3, prim_rank=prim),
    ]
    return _section("euler", claims, chi=chi, prim_rank=prim)


def run_cohomology(cfg: dict) -> dict:
    m = cfg["m"]
    if m < 4:
        return _section("cohomology", [], skipped="lattice claims start in dimension 4")
    det_value = cohomology.integral_gram_det(m)
    expected_det = Fraction(-1 if m % 4 else 1)
    index = cohomology.lattice_index(m)
    _, sig = cohomology.primitive_gram(m)
    pos, neg, zero = sig
    definite = zero == 0 and (pos == 0 or neg == 0) and pos + neg == m + 3
    claims = [
        _claim(
            "integral-gram-determinant-is-unit",
            det_value == expected_det,
            determinant=det_value,
            expected=expected_det,
        ),
        _claim("ambient-plus-primitive-index-is-4", index == 4, index=index),
        _claim(
            "primitive-pairing-is-definite-of-rank-m-plus-3",
            definite,
            signature=list(sig),
        ),
    ]
    return _section(
        "cohomology",
        claims,
        determinant=det_value,
        lattice_index=index,
        primitive_signature=list(sig),
    )


def run_fiber(cfg: dict) -> dict:
    m = cfg["m"]
    if m < 4:
        return _section("fiber", [], skipped="the fiber model starts in dimension 4")
    basis = specialfiber.mv_kernel(m)
    gram = specialfiber.fiber_gram_on_kernel(m)
    expected = [[Fraction(0)] * len(basis) for _ in range(len(basis))]
    expected[0][0] = Fraction(4)
    expected[2][2] = Fraction(1)
    expected[3][3] = Fraction(1)
    for i in range(4, len(basis)):
        expected[i][i] = Fraction(-1)
    rmap = specialfiber.restriction_map(m)
    kernel = rmap.kernel()
    kernel_ok = len(kernel) == 1 and all(
        not c for j, c in enumerate(kernel[0]) if j != 1
    )
    # rank-nullity on the elimination the kernel already ran
    rank = len(rmap.matrix[0]) - len(kernel)
    claims = [
        _claim(
            "glued-fiber-kernel-matches-named-basis",
            len(basis) == m + 5,
            dimension=len(basis),
        ),
        _claim("fiber-pairing-matches-block-table", gram == expected),
        _claim(
            "restriction-is-pairing-compatible", rmap.is_pairing_preserving()
        ),
        _claim(
            "restriction-kernel-is-the-null-block",
            kernel_ok,
            rank=rank,
        ),
    ]
    return _section(
        "fiber",
        claims,
        kernel_dimension=len(basis),
        kernel_basis={
            "labels": list(specialfiber.mv_kernel_labels(m)),
            "coordinates": [
                [str(c) for c in v.coeffs] for v in basis
            ],
            "over": list(specialfiber.fiber_basis_labels(m)),
        },
        fiber_gram=[[str(x) for x in row] for row in gram],
        restriction_matrix={
            "rows": list(rmap.target_labels),
            "columns": list(rmap.source_labels),
            "entries": [[str(x) for x in row] for row in rmap.matrix],
        },
        restriction_rank=rank,
    )


def run_geombasis(cfg: dict) -> dict:
    m = cfg["m"]
    lambdas = cfg["lambdas"]
    config = (
        geombasis.LambdaConfig(tuple(lambdas))
        if lambdas
        else geombasis.default_config(m)
    )
    sums = geombasis.power_sums(config, m + 3)
    # at the spanning points the two quadrics are the sums s_0 .. s_{m+1}
    on_quadrics = not any(sums[: m + 2])
    sums_ok = on_quadrics and sums[m + 2] == 1
    plane = geombasis.verify_plane_in_x(config, trials=cfg["trials"], seed=cfg["seed"])
    claims = [
        _claim("weighted-power-sums-vanish-below-node-count", sums_ok),
        _claim("spanning-points-lie-on-both-quadrics", on_quadrics),
        _claim(
            "plane-lies-inside-the-intersection",
            plane,
            trials=cfg["trials"],
            seed=cfg["seed"],
        ),
    ]
    return _section("geombasis", claims, nodes=[str(v) for v in config.lambdas])


def run_smoothness(cfg: dict) -> dict:
    m = cfg["m"]
    primes = cfg["primes"]
    lambdas = cfg["lambdas"] or None
    if lambdas is not None:
        if any(v.denominator != 1 for v in lambdas):
            raise _UsageError("the finite-field scans need integer --lambdas")
        lambdas = [int(v) for v in lambdas]
    # the only budget check, before the genericity screen and the scans,
    # which do not check it; it counts #P^{m+2}(F_p), although the scan
    # walks only the two sections g1 = 0 and g2 = 0 (ROADMAP item 8)
    for p in primes:
        count = smoothcheck.projective_count(m + 3, p)
        if count > cfg["budget"]:
            raise _UsageError(
                f"scan of {count} projective points exceeds the budget "
                f"{cfg['budget']}; use a smaller prime"
            )
    data = smoothcheck.default_pencil(
        m, primes=tuple(primes), seed=cfg["seed"], lambdas=lambdas
    )
    claims = []
    per_prime = []
    for p in primes:
        locus, charts = smoothcheck.smoothness_scan(data, p)
        # weights that collide mod p put the reduction outside the
        # construction: its claims are reported but are not evidence
        collisions = locus["lambda_collisions"]
        label = {"degenerate": True, "lambda_collisions": collisions} if collisions else {}
        claims.append(
            _claim(
                f"singular-locus-equals-base-locus-mod-{p}",
                locus["ok"],
                discrepancies=len(locus["t_zero"]["discrepancies"]),
                **label,
            )
        )
        claims.append(
            _claim(
                f"blowup-charts-have-uniform-rank-3-mod-{p}",
                not charts["chart_rank_failures"],
                chart_points=charts["chart_points"],
                **label,
            )
        )
        claims.append(
            _claim(
                f"divisor-and-center-are-smooth-mod-{p}",
                not charts["divisor_rank_failures"]
                and not charts["center_rank_failures"],
                **label,
            )
        )
        per_prime.append({"prime": p, "locus": locus, "charts": charts})
    return _section(
        "smoothness",
        claims,
        pencil={
            "lambdas": list(data.lambdas),
            "g1": list(data.g1),
            "g2": list(data.g2),
        },
        runs=per_prime,
    )


def run_degeneration(cfg: dict) -> dict:
    m = cfg["m"]
    report = gwcount.main_correlator_report(m)
    claims = [
        _claim(
            "tangency-bound-and-dimension-screen-agree",
            report["screens_consistent"],
        )
    ]
    if m >= 4:
        claims.append(
            _claim(
                "every-degeneration-term-vanishes",
                report["status"] == "vanishes",
                survivors=len(report["surviving_terms"]),
            )
        )
        claims.append(
            _claim(
                "main-correlator-is-zero",
                report["correlator_value"] == 0,
                correlator=report["correlator_value"],
            )
        )
    else:
        claims.append(
            _claim(
                "surface-case-reports-surviving-candidates",
                report["status"] == "inconclusive"
                and len(report["surviving_terms"]) >= 1,
                survivors=len(report["surviving_terms"]),
            )
        )
    return _section(
        "degeneration",
        claims,
        report=report,
        inconclusive=report["status"] == "inconclusive",
    )


_RUNNERS = {
    "euler": run_euler,
    "cohomology": run_cohomology,
    "fiber": run_fiber,
    "geombasis": run_geombasis,
    "smoothness": run_smoothness,
    "degeneration": run_degeneration,
}
SECTIONS = tuple(_RUNNERS)


def build_parser():
    # argparse is imported here, so that importing the CLI does not load it
    import argparse

    parser = argparse.ArgumentParser(prog="twoquadrics", description=__doc__)
    parser.error = _usage_error  # a usage error is a configuration error
    parser.add_argument("section", choices=SECTIONS + ("full",))
    parser.add_argument("--m", type=int, default=4, help="even dimension, at least 2")
    parser.add_argument(
        "--lambdas",
        type=str,
        default="",
        help="comma-separated distinct rational nodes (default 0..m+2)",
    )
    parser.add_argument(
        "--primes", type=str, default="5,7,11", help="comma-separated scan primes"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="maximum projective points per finite-field scan",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", type=str, default="", help="write the report here")
    return parser


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _WITNESSES: below it the
# Miller-Rabin test on those bases decides primality exactly
PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2 or any(n % q == 0 for q in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _config_from_args(args) -> dict:
    if args.m % 2 or args.m < 2:
        raise _UsageError("--m must be even and at least 2")
    lambdas = []
    if args.lambdas:
        for part in args.lambdas.split(","):
            try:
                lambdas.append(Fraction(part))
            except (ValueError, ZeroDivisionError) as exc:
                entry = part.strip() or "an empty entry"
                raise _UsageError(f"--lambdas must list rationals: {entry} is not one") from exc
        if len(set(lambdas)) != len(lambdas):
            raise _UsageError("--lambdas must be pairwise distinct")
        if len(lambdas) != args.m + 3:
            raise _UsageError(f"--lambdas needs exactly {args.m + 3} nodes")
    primes = []
    for part in args.primes.split(","):
        if part.strip():
            try:
                primes.append(int(part))
            except ValueError as exc:
                raise _UsageError(f"--primes must list primes: {part.strip()} is not one") from exc
    if any(p >= PRIME_BOUND for p in primes):
        raise _UsageError(f"--primes must list primes below {PRIME_BOUND}")
    if not primes or any(not _is_prime(p) for p in primes):
        raise _UsageError("--primes must list primes")
    if len(set(primes)) != len(primes):
        raise _UsageError("--primes must list distinct primes")
    if 2 in primes:
        raise _UsageError(
            "--primes cannot include 2: in characteristic 2 every quadric "
            "gradient vanishes, so the smoothness scans are meaningless"
        )
    if args.trials < 1:
        raise _UsageError("--trials must be positive")
    if args.budget < 1:
        raise _UsageError("--budget must be positive")
    return {
        "m": args.m,
        "lambdas": lambdas,
        "primes": primes,
        "seed": args.seed,
        "trials": args.trials,
        "budget": args.budget,
    }


def _prose(value) -> str:
    """A report value as text, with rationals written as the JSON writes
    them: mappings as ``key=value`` pairs, never Python reprs."""
    if isinstance(value, dict):
        return ", ".join(f"{k}={_prose(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_prose(v) for v in value) + "]"
    if isinstance(value, (str, Fraction)):
        return str(value)
    import json  # here, so that importing the CLI does not load it

    return json.dumps(value)


def _render_text(report: dict) -> str:
    lines = []
    for key in ("m", "seed"):
        lines.append(f"{key}: {report['config'][key]}")
    skip = ("claims", "name", "runs", "report", "kernel_basis", "fiber_gram",
            "restriction_matrix", "pencil")
    for section in report["sections"]:
        name = section["name"]
        for key, value in section.items():
            if key in skip:
                continue
            lines.append(f"[{name}] {key}: {_prose(value)}")
        for claim in section["claims"]:
            status = "pass" if claim["ok"] else "FAIL"
            if claim.get("degenerate"):
                status = f"degenerate, not counted (scan: {status.lower()})"
            extras = {
                k: v for k, v in claim.items() if k not in ("claim", "ok", "degenerate")
            }
            suffix = f" {_prose(extras)}" if extras else ""
            lines.append(f"[{name}] {claim['claim']}: {status}{suffix}")
        if name == "degeneration" and "report" in section:
            rep = section["report"]
            lines.append(f"[{name}] total_terms: {rep['total_terms']}")
            lines.append(f"[{name}] verdict_census: {_prose(rep['verdict_census'])}")
            lines.append(f"[{name}] survivors: {len(rep['surviving_terms'])}")
    lines.append(f"overall: {report['verdict']}")
    if report.get("correlator") is not None:
        lines.append(f"correlator = {report['correlator']}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        names = SECTIONS if args.section == "full" else (args.section,)
        sections = [_RUNNERS[name](cfg) for name in names]
    except (_UsageError, smoothcheck.DegenerateReductionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    ok = all(section["ok"] for section in sections)
    inconclusive = any(section.get("inconclusive") for section in sections)
    correlator = None
    for section in sections:
        if section["name"] == "degeneration":
            correlator = section["report"]["correlator_value"]
    report = {
        "config": {
            "m": cfg["m"],
            "seed": cfg["seed"],
            "primes": cfg["primes"],
            "trials": cfg["trials"],
            "sections": list(names),
        },
        "sections": sections,
        "verdict": "pass" if ok else "discrepancy",
        "inconclusive": bool(inconclusive),
        "correlator": correlator,
    }
    if ok and inconclusive:
        report["verdict"] = "inconclusive"

    if args.format == "json":
        import json

        rendered = json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    else:
        rendered = _render_text(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            reason = exc.strerror or exc
            print(
                f"configuration error: cannot write --output {args.output}: {reason}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
    else:
        sys.stdout.write(rendered)

    if not ok:
        return EXIT_DISCREPANCY
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
