"""Command-line front end: runs certification suites and emits reports.

Exit codes: 0 when every check passed or was diff-recorded, 1 when any
check failed, 2 on usage errors.  Reports are deterministic: fixed seeds,
stable ordering, byte-identical output for identical invocations.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks, claims, orders
from . import lattice as lat
from .report import exit_code, serialize

ENV_FORMAT = "OKUBO_E8_FORMAT"

KNOWN_CONVENTIONS = (claims.CONVENTION,)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default=None,
        help="report format (default: text, or the OKUBO_E8_FORMAT variable)",
    )
    parser.add_argument(
        "--fano",
        default=claims.CONVENTION,
        metavar="CONVENTION",
        help="basis convention id (only %(default)s is built in)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okubo-e8",
        description="exact certification of the para-octonion and Okubo "
        "integral structures and their E8-related lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a certification suite")
    p_verify.add_argument(
        "suite",
        choices=(
            "all",
            "para-closure",
            "okubo-obstruction",
            "scaled-order",
            "scaling-search",
            "bridges",
            "matrix-laws",
        ),
    )
    p_verify.add_argument(
        "--constants",
        metavar="FILE",
        default=None,
        help="structure-constant dump to certify instead of the computed one "
        "(para-closure and okubo-obstruction suites)",
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="seed for sampled identity checks"
    )
    _common_flags(p_verify)

    p_lat = sub.add_parser("lattice", help="lattice-level checks")
    p_lat.add_argument(
        "what", choices=("invariants", "shells", "glue", "saturate", "trace16")
    )
    p_lat.add_argument("--max", type=int, default=4, dest="max_n",
                       help="largest shell for `shells` (1 to 6)")
    p_lat.add_argument("--fixture", metavar="FILE", default=None,
                       help="lattice fixture to analyse with `invariants`")
    _common_flags(p_lat)

    p_stab = sub.add_parser("stabilizer", help="arithmetic stabilizer search")
    p_stab.add_argument("what", choices=("search",))
    _common_flags(p_stab)

    p_cat = sub.add_parser("catalog", help="classical integral sets")
    p_cat.add_argument("what", choices=("verify",))
    p_cat.add_argument("name", nargs="?", default="all")
    _common_flags(p_cat)

    return parser


def _fixture_reports(path: str):
    from .report import compare

    with open(path, "r", encoding="utf-8") as fh:
        lattice = lat.lattice_from_fixture(fh.read())
    det = lattice.det()
    smith = lat.smith_invariants(
        [[int(v) for v in row] for row in lattice.gram()]
    )
    prod = 1
    for s in smith:
        prod *= s
    group = lat.discriminant_group(lattice)
    return [
        compare("fixture-det-vs-smith", "fixture-analysis", claims.CONVENTION,
                int(det), "derived", prod,
                details=f"label={lattice.label!r} smith={list(smith)}"),
        compare("fixture-discriminant-order", "fixture-analysis",
                claims.CONVENTION, int(abs(det)), "derived", group.order),
    ]


def _verify_reports(args) -> list:
    override = None
    if args.constants:
        with open(args.constants, "r", encoding="utf-8") as fh:
            override = orders.parse_structure_constants(fh.read())
    if args.suite == "all":
        if override is not None:
            raise SystemExit("--constants applies only to single closure suites")
        return checks.run_all(seed=args.seed)
    if args.suite == "para-closure":
        return checks.check_para_closure(override)
    if args.suite == "okubo-obstruction":
        reports = checks.check_okubo_obstruction(override)
        if override is None:
            reports += checks.check_denominators()
        return reports
    if args.suite == "scaled-order":
        return checks.check_scaled_order()
    if args.suite == "scaling-search":
        return checks.check_scaling_search()
    if args.suite == "bridges":
        return checks.check_bridges(seed=args.seed)
    return checks.check_matrix_laws(seed=args.seed)


def _lattice_reports(args) -> list:
    if args.what == "invariants":
        if args.fixture:
            return _fixture_reports(args.fixture)
        return checks.check_conductor() + checks.check_discriminant()
    if args.what == "shells":
        return checks.check_shells(args.max_n)
    if args.what in ("glue", "saturate"):
        reports = checks.check_saturation_gluing()
        if args.what == "saturate":
            keep = ("saturation-recovers-e8", "saturated-okubo-closure-fails")
            return [r for r in reports if r.check in keep]
        return [r for r in reports if r.check.startswith("glue-")]
    return checks.check_trace16()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.fano not in KNOWN_CONVENTIONS:
        parser.print_usage(sys.stderr)
        print(
            f"okubo-e8: unknown convention {args.fano!r}; "
            f"known: {', '.join(KNOWN_CONVENTIONS)}",
            file=sys.stderr,
        )
        return 2

    fmt = args.format or os.environ.get(ENV_FORMAT) or "text"
    if fmt not in ("json", "text"):
        parser.print_usage(sys.stderr)
        print(f"okubo-e8: bad {ENV_FORMAT} value {fmt!r}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            reports = _verify_reports(args)
        elif args.command == "lattice":
            reports = _lattice_reports(args)
        elif args.command == "stabilizer":
            reports = checks.check_stabilizer()
        else:
            if args.name != "all" and args.name not in claims.CLASSICAL_TABLE:
                parser.print_usage(sys.stderr)
                known = ", ".join(claims.CLASSICAL_TABLE)
                print(
                    f"okubo-e8: unknown catalog name {args.name!r}; "
                    f"known: {known} (or 'all')",
                    file=sys.stderr,
                )
                return 2
            reports = checks.check_catalog(args.name)
    except (OSError, ValueError) as exc:
        parser.print_usage(sys.stderr)
        print(f"okubo-e8: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(serialize(reports, fmt))
    if fmt == "json":
        sys.stdout.write("\n")
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
