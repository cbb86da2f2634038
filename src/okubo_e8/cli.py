"""Command-line front end: runs certification suites and emits reports.

Exit codes: 0 when every check passed or was diff-recorded, 1 when any
check failed, 2 on usage errors.  Reports are deterministic: fixed seeds,
stable ordering, byte-identical output for identical invocations.

``main(argv)`` can be called repeatedly in one process: every call parses
with the one parser that ``build_parser()`` builds on first use and then
returns, shared and unchanged.  Callers must not mutate that parser.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache

from . import checks, claims, orders
from . import lattice as lat
from .report import compare, exit_code, serialize

ENV_FORMAT = "OKUBO_E8_FORMAT"

KNOWN_CONVENTIONS = (claims.CONVENTION,)

#: the verify suites whose check group takes a ``constants`` dump
CONSTANTS_SUITES = tuple(
    name for name, group in checks.REGISTRY.items() if "constants" in group.params
)


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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on first use; it is
    shared by every caller and must not be mutated."""
    parser = argparse.ArgumentParser(
        prog="okubo-e8",
        description="exact certification of the para-octonion and Okubo "
        "integral structures and their E8-related lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a certification suite")
    p_verify.add_argument("suite", choices=("all", *checks.REGISTRY))
    p_verify.add_argument(
        "--constants",
        metavar="FILE",
        default=None,
        help="structure-constant dump to certify instead of the computed one "
        f"({' and '.join(CONSTANTS_SUITES)} suites)",
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="seed for sampled identity checks"
    )
    _common_flags(p_verify)

    p_lat = sub.add_parser("lattice", help="lattice-level checks")
    p_lat.add_argument(
        "what", choices=("invariants", "shells", "glue", "saturate", "trace16")
    )
    p_lat.add_argument("--max", type=int, default=None, dest="max_n",
                       help="largest shell for `shells` (1 to 6, default 4)")
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
    """Determinant against the Smith factors, and |det| against the order of
    the discriminant group (the product of the Smith factors > 1), from one
    integer Gram matrix and one Smith normal form; the parser has checked
    that Gram against the basis."""
    with open(path, "r", encoding="utf-8") as fh:
        label, gram = lat.lattice_from_fixture(fh.read())
    det = lat.mat_det(gram)
    if det == 0:
        raise lat.LatticeError("fixture Gram is singular")
    # the report renders det in decimal; refuse one past the digit limit
    # (0: none) before the Smith form, not after it
    limit, digits = sys.get_int_max_str_digits(), math.log10(abs(det))
    if limit and digits >= limit:
        raise ValueError(f"the fixture determinant has about {int(digits) + 1:,} digits, "
                         f"more than the {limit:,} a report can show")
    smith = lat.smith_invariants(gram)
    return [
        compare("fixture-det-vs-smith", "fixture-analysis", det, "derived",
                math.prod(smith), details=f"label={label!r} smith={list(smith)}"),
        compare("fixture-discriminant-order", "fixture-analysis", abs(det),
                "derived", math.prod(s for s in smith if s > 1)),
    ]


def _verify_reports(args) -> list:
    run = checks.run_all if args.suite == "all" else checks.REGISTRY[args.suite]
    kwargs = {"seed": args.seed}
    if args.constants is not None:
        if args.suite not in CONSTANTS_SUITES:
            raise ValueError("--constants applies only to the "
                             f"{' and '.join(CONSTANTS_SUITES)} suites")
        with open(args.constants, "r", encoding="utf-8") as fh:
            kwargs["constants"] = orders.parse_structure_constants(fh.read())
    reports = run(**kwargs)
    if args.suite == "okubo-obstruction" and args.constants is None:
        reports += checks.REGISTRY["denominators"]()
    return reports


def _lattice_reports(args) -> list:
    if args.fixture is not None and args.what != "invariants":
        raise ValueError("--fixture applies only to `lattice invariants`")
    if args.max_n is not None and args.what != "shells":
        raise ValueError("--max applies only to `lattice shells`")
    if args.what == "invariants":
        if args.fixture is not None:
            return _fixture_reports(args.fixture)
        return checks.check_conductor() + checks.check_discriminant()
    if args.what == "shells":
        if args.max_n is None:
            return checks.check_shells()
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
    fmt = args.format or os.environ.get(ENV_FORMAT) or "text"
    try:
        if args.fano not in KNOWN_CONVENTIONS:
            raise ValueError(f"unknown convention {args.fano!r}; "
                             f"known: {', '.join(KNOWN_CONVENTIONS)}")
        if fmt not in ("json", "text"):
            raise ValueError(f"bad {ENV_FORMAT} value {fmt!r}")
        if args.command == "verify":
            reports = _verify_reports(args)
        elif args.command == "lattice":
            reports = _lattice_reports(args)
        elif args.command == "stabilizer":
            reports = checks.check_stabilizer()
        else:
            if args.name != "all" and args.name not in claims.CLASSICAL_TABLE:
                raise ValueError(f"unknown catalog name {args.name!r}; known: "
                                 f"{', '.join(claims.CLASSICAL_TABLE)} (or 'all')")
            reports = checks.check_catalog(args.name)
        # inside the try: an int longer than the interpreter's int-to-str
        # digit limit raises ValueError while it is rendered
        text = serialize(reports, fmt)
    except (OSError, ValueError) as exc:
        parser.print_usage(sys.stderr)
        print(f"okubo-e8: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(text)
    if fmt == "json":
        sys.stdout.write("\n")
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
