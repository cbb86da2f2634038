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
import sys
from functools import lru_cache

from . import checks, claims, orders
from . import lattice as lat
from .report import compare, exit_code, serialize

#: each ``verify`` flag -> the group parameter it sets, its help and its
#: other argparse options
FLAGS = {
    "--constants": ("constants", "structure-constant dump to certify instead of the "
                    "computed one", {"metavar": "FILE"}),
    "--seed": ("seed", "seed for sampled identity checks; default 0",
               {"type": int, "metavar": "N"}),
    "--max": ("maxn", "largest shell, 1 to 6; default 4", {"type": int, "metavar": "N"}),
    "--name": ("name", "one catalog row; default: every row",
               {"choices": tuple(claims.CLASSICAL_TABLE)}),
}

#: suite -> the parameters it takes: its group's, and the seed for ``all``
#: (``checks.run_all``)
SUITE_PARAMS = {"all": frozenset({"seed"}),
                **{suite: group.params for suite, group in checks.REGISTRY.items()}}

#: each flag -> the suites that accept it, built once per process
SUITES_OF = {flag: tuple(suite for suite, params in SUITE_PARAMS.items() if param in params)
             for flag, (param, *_) in FLAGS.items()}


def _listed(suites) -> str:
    """``a``, ``a and b``, ``a, b and c``"""
    return " and ".join(filter(None, (", ".join(suites[:-1]), suites[-1])))


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on first use; it is
    shared by every caller and must not be mutated."""
    parser = argparse.ArgumentParser(
        prog="okubo-e8",
        description="exact certification of the para-octonion and Okubo "
        "integral structures and their E8-related lattices",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a certification suite", allow_abbrev=False)
    p_verify.add_argument("suite", choices=tuple(SUITE_PARAMS))
    for flag, (param, help_text, options) in FLAGS.items():
        p_verify.add_argument(flag, dest=param, **options,
                              help=f"{help_text} ({_listed(SUITES_OF[flag])} only)")

    p_lat = sub.add_parser("lattice", help="audit a lattice fixture", allow_abbrev=False)
    p_lat.add_argument("what", choices=("invariants",))
    p_lat.add_argument("--fixture", metavar="FILE", required=True,
                       help="lattice fixture to analyse")

    for p in (p_verify, p_lat):
        p.add_argument("--format", choices=("json", "text"), default="text",
                       help="report format (default: %(default)s)")
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
    """The suite run with the parameters its flags set; a flag its suite
    does not take is refused before any file is read."""
    kwargs = {}
    for flag, (param, *_) in FLAGS.items():
        value = getattr(args, param)
        if value is None:
            continue
        if args.suite not in SUITES_OF[flag]:
            suites = SUITES_OF[flag]
            raise ValueError(f"{flag} applies only to the {_listed(suites)} "
                             f"suite{'s' * (len(suites) > 1)}")
        kwargs[param] = value
    if "constants" in kwargs:
        with open(kwargs["constants"], "r", encoding="utf-8") as fh:
            kwargs["constants"] = orders.parse_structure_constants(fh.read())
    run = checks.run_all if args.suite == "all" else checks.REGISTRY[args.suite]
    return run(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            reports = _verify_reports(args)
        else:
            reports = _fixture_reports(args.fixture)
        # inside the try: an int longer than the interpreter's int-to-str
        # digit limit raises ValueError while it is rendered
        text = serialize(reports, args.format)
    except (OSError, ValueError) as exc:
        parser.print_usage(sys.stderr)
        print(f"okubo-e8: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(text)
    if args.format == "json":
        sys.stdout.write("\n")
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
