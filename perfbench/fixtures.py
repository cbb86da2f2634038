"""Seeded inputs for the fixture-audit workload, with their expected reports.

Every expected value follows from how the input was made, not from
running the program on it:

* a lattice fixture is a random unimodular change of basis of the
  conductor lattice D*E8 or of E8, so its determinant is 2^24 or 1, and
  its discriminant group has that order;
* a constant dump under a signed relabelling ``b'_a = s_a b_p(a)`` has
  ``c'_abc = s_a s_b s_c c_p(a)p(b)p(c)``; signs and a permutation keep
  integrality, so the para dumps stay closed and the Okubo dumps keep
  exactly the original violations, moved to the new indices.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from okubo_e8 import lattice, orders

#: elementary row operations per fixture; the entry size of the Gram
#: matrix, which drives the cost of the Smith normal form, grows with it
ROW_OPS = 40
#: fixtures per pass, alternating conductor lattice and E8
FIXTURES = 48
#: relabelled dumps per pass, of each product
DUMPS = 2

CONDUCTOR_DET = 2 ** 24
E8_DET = 1
#: how many violations ``check_okubo_obstruction`` lists in its details
LISTED_VIOLATIONS = 6
LISTED_HALF_ODD = 4


def _unimodular_change(rng: random.Random, rows, ops: int):
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _render(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _quad(rat: Fraction, irr: Fraction) -> str:
    return f"{_render(rat)} + {_render(irr)}*s3"


def _parse_dump(text: str):
    c = {}
    for line in text.splitlines():
        i, j, k, rat, irr = line.split()
        c[int(i), int(j), int(k)] = (Fraction(rat), Fraction(irr))
    return c


def _relabel(c, perm, signs):
    out = {}
    for (a, b, k) in c:
        s = signs[a] * signs[b] * signs[k]
        rat, irr = c[perm[a], perm[b], perm[k]]
        out[a, b, k] = (s * rat, s * irr)
    return out


def _dump(c) -> str:
    return "".join(
        f"{i} {j} {k} {_render(rat)} {_render(irr)}\n"
        for (i, j, k), (rat, irr) in sorted(c.items())
    )


class Inputs:
    """Writes the generated inputs of one pass and checks their reports."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"fixture-audit:{seed}")
        self.bases = [
            ("conductor", orders.conductor_lattice(), CONDUCTOR_DET),
            ("e8", orders.cd_lattice(), E8_DET),
        ]
        self.constants = {
            name: _parse_dump(orders.dump_structure_constants(orders.structure_constants(name)))
            for name in ("para", "okubo")
        }
        self.gram_digits = 0

    def steps(self, directory: str):
        """(argv, checker) pairs for one pass, inputs written to ``directory``."""
        out = []
        for n in range(FIXTURES):
            label, base, det = self.bases[n % 2]
            rows = _unimodular_change(self.rng, base.basis, ROW_OPS)
            fixture = lattice.LatticeZ.from_rows(rows, base.ambient_gram, label)
            text = lattice.lattice_to_fixture(fixture)
            gram = json.loads(text)["gram"]
            self.gram_digits = max(
                self.gram_digits, max(len(v.lstrip("-")) for row in gram for v in row)
            )
            path = os.path.join(directory, f"fixture-{n:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out.append((
                ["lattice", "invariants", "--fixture", path, "--format", "json"],
                _fixture_checker(label, det),
            ))
        for product, suite in (("para", "para-closure"), ("okubo", "okubo-obstruction")):
            for n in range(DUMPS):
                perm = list(range(8))
                self.rng.shuffle(perm)
                signs = [self.rng.choice((-1, 1)) for _ in range(8)]
                c = _relabel(self.constants[product], perm, signs)
                path = os.path.join(directory, f"{product}-{n}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_dump(c))
                checker = _para_checker() if product == "para" else _okubo_checker(c)
                out.append((
                    ["verify", suite, "--constants", path, "--format", "json"],
                    checker,
                ))
        return out


def _reports(out: bytes):
    return {r["check"]: r for r in json.loads(out)}


def _fixture_checker(label: str, det: int):
    def check(code, out):
        r = _reports(out)
        smith, order = r["fixture-det-vs-smith"], r["fixture-discriminant-order"]
        return (
            code == 0
            and set(r) == {"fixture-det-vs-smith", "fixture-discriminant-order"}
            and smith["status"] == "pass"
            and smith["expected"]["value"] == det
            and smith["actual"] == det
            and f"label={label!r}" in smith["details"]
            and order["status"] == "pass"
            and order["expected"]["value"] == det
            and order["actual"] == det
        )

    return check


def _para_checker():
    def check(code, out):
        r = _reports(out)
        return (
            code == 0
            and set(r) == {"para-closure", "para-trace-norm-integral"}
            and r["para-closure"]["status"] == "pass"
            and r["para-closure"]["actual"] == 0
            and r["para-closure"]["details"] == []
            and r["para-trace-norm-integral"]["status"] == "pass"
            and r["para-trace-norm-integral"]["actual"] is True
        )

    return check


def _okubo_checker(c):
    def listed(entries, limit):
        return [[i, j, k, _quad(rat, irr)] for (i, j, k), (rat, irr) in entries[:limit]]

    entries = sorted(c.items())
    not_z = [e for e in entries if e[1][0].denominator != 1 or e[1][1] != 0]
    not_zsqrt3 = [e for e in entries if e[1][0].denominator != 1 or e[1][1].denominator != 1]
    half_odd = [e for e in not_zsqrt3 if e[1][1].denominator == 2]
    b0b2 = [_quad(*c[0, 2, k]) for k in range(8)]

    def check(code, out):
        r = _reports(out)
        return (
            code == 0
            and len(r) == 4
            and r["okubo-not-closed-z"]["actual"] is bool(not_z)
            and r["okubo-not-closed-zsqrt3"]["actual"] is bool(not_zsqrt3)
            and r["okubo-not-closed-zsqrt3"]["details"] == listed(not_zsqrt3, LISTED_VIOLATIONS)
            and r["okubo-halfodd-witness"]["actual"] is bool(half_odd)
            and r["okubo-halfodd-witness"]["details"] == listed(half_odd, LISTED_HALF_ODD)
            and all(r[k]["status"] == "pass" for k in (
                "okubo-not-closed-z", "okubo-not-closed-zsqrt3", "okubo-halfodd-witness"))
            and r["okubo-counterexample-diff"]["actual"] == b0b2
            and r["okubo-counterexample-diff"]["status"] in ("pass", "diff-recorded")
        )

    return check
