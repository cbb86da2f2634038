"""Machine-readable certification records.

A CheckReport captures one verified claim: its stable check id, the claim
anchor it certifies, the pinned basis convention, a status, the expected
value with a provenance tag, the computed value, and free-form details.

Provenance tags: ``claimed`` values come from the material under
certification, ``trivial`` ones are immediate from definitions, and
``derived`` ones were produced by an independent oracle inside this
package.  ``status`` is ``pass`` (exact equality), ``fail``, or
``diff-recorded`` for convention-sensitive comparisons that are reported
rather than asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import QuadExt

PASS = "pass"
FAIL = "fail"
DIFF = "diff-recorded"

TAGS = ("claimed", "trivial", "derived")


@dataclass(frozen=True)
class CheckReport:
    check: str
    anchor: str
    convention: str
    status: str
    expected: object
    expected_tag: str
    actual: object
    details: object = None

    def __post_init__(self):
        if self.status not in (PASS, FAIL, DIFF):
            raise ValueError(f"bad status {self.status!r}")
        if self.expected_tag not in TAGS:
            raise ValueError(f"bad provenance tag {self.expected_tag!r}")

    @property
    def ok(self) -> bool:
        return self.status in (PASS, DIFF)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "anchor": self.anchor,
            "convention": self.convention,
            "status": self.status,
            "expected": {"value": jsonable(self.expected), "tag": self.expected_tag},
            "actual": jsonable(self.actual),
            "details": jsonable(self.details),
        }


def jsonable(value):
    """Exact values rendered to JSON-stable primitives (strings for
    anything with a denominator)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QuadExt):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda t: str(t[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return repr(value)


def compare(check, anchor, convention, expected, tag, actual,
            details=None, record_only=False) -> CheckReport:
    """Build a report whose status is exact equality, or a recorded diff
    for convention-sensitive comparisons."""
    if jsonable(expected) == jsonable(actual):
        status = PASS
    elif record_only:
        status = DIFF
    else:
        status = FAIL
    return CheckReport(
        check=check,
        anchor=anchor,
        convention=convention,
        status=status,
        expected=expected,
        expected_tag=tag,
        actual=actual,
        details=details,
    )


def serialize(reports, fmt: str = "text") -> str:
    """Stable serialization: JSON sorted by check id, or one line per
    check in text form."""
    reports = sorted(reports, key=lambda r: r.check)
    if fmt == "json":
        return json.dumps(
            [r.to_dict() for r in reports],
            sort_keys=True,
            indent=1,
            separators=(",", ": "),
        )
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for r in reports:
        line = (
            f"{r.check} {r.status} "
            f"expected={_compact(r.expected)} actual={_compact(r.actual)}"
        )
        if isinstance(r.details, str) and r.details:
            line += f" {r.details}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def _compact(value) -> str:
    enc = jsonable(value)
    text = json.dumps(enc, sort_keys=True, separators=(",", ":"))
    if len(text) > 60:
        return text[:57] + "..."
    return text


def exit_code(reports) -> int:
    """0 when everything passed or was diff-recorded, 1 otherwise."""
    return 0 if all(r.ok for r in reports) else 1
