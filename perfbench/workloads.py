"""The workloads: which CLI steps one pass runs, and how each report is
checked.

* ``certify-all``: ``verify all --format json --seed S``, the certificate
  users produce.  It calls every layer; ``exact`` and ``okubomatrix`` do
  most of the work.
* ``fixture-audit``: seeded outside inputs (lattice fixtures and relabelled
  constant dumps).  The Smith normal form does almost all of the work, and
  ``exact`` and ``okubomatrix`` do none, so it is the workload on which a
  change to those layers should show no effect.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def _reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _digest_checker(exit_code: int, sha256: str):
    def check(code, out):
        return code == exit_code and hashlib.sha256(out).hexdigest() == sha256

    return check


class CertifyAll:
    name = "certify-all"
    gram_digits = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.ref = _reference()[self.name]

    def steps(self, directory: str):
        argv = ["verify", "all", "--format", "json", "--seed", str(self.seed)]
        return [(argv, _digest_checker(self.ref["exit"], self.ref["sha256"]))]


class FixtureAudit:
    name = "fixture-audit"

    def __init__(self, seed: int):
        from fixtures import Inputs  # needs okubo_e8 on sys.path

        self.inputs = Inputs(seed)

    @property
    def gram_digits(self) -> int:
        return self.inputs.gram_digits

    def steps(self, directory: str):
        return self.inputs.steps(directory)


WORKLOADS = {w.name: w for w in (CertifyAll, FixtureAudit)}
