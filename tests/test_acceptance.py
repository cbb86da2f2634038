"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  All arithmetic is exact, so every comparison is equality
at zero tolerance; convention-sensitive comparisons are diff-recorded and
asserted as such.  Stated runtime budgets are enforced."""

import json
import subprocess
import sys
import time
from okubo_e8 import checks
from okubo_e8 import lattice as lat
from okubo_e8.algebras import DIM, basis_element, okubo_mul, tau_apply
from okubo_e8.exact import QuadExt, RingTag
from okubo_e8.okubomatrix import kaplansky_report, sample_pool, verify_laws
from okubo_e8.orders import (
    cd_gram,
    cd_lattice,
    closure_test,
    conductor_lattice,
    denominator_profile,
    scaled_basis,
    scaled_order_verify,
    scaling_search,
    structure_constants,
    units240,
)
from okubo_e8.report import DIFF, PASS
from okubo_e8.stabilizer import search, tau_membership


#: (number, name, ok) collected for the terminal summary hook in conftest
RESULTS: list[tuple[int, str, bool]] = []


def announce(number, name, ok):
    RESULTS.append((number, name, ok))
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over budget {self.limit}s"


def test_01_para_closure():
    budget = Budget(1.0)
    rep = closure_test(structure_constants("para"), RingTag.Z)
    budget.check()
    announce(1, "para closure over Z", rep.violations == () and rep.trace_norm_ok)


def test_02_okubo_obstruction():
    constants = structure_constants("okubo")
    over_z = closure_test(constants, RingTag.Z)
    over_r = closure_test(constants, RingTag.ZSQRT3)
    witness = [
        v for (_, _, _, v) in over_r.violations
        if v.irr.denominator == 2 and v.irr.numerator % 2 == 1
    ]
    reports = checks.check_okubo_obstruction()
    by_id = {r.check: r for r in reports}
    ok = (
        bool(over_z.violations)
        and bool(over_r.violations)
        and bool(witness)
        and by_id["okubo-counterexample-diff"].status in (PASS, DIFF)
        and by_id["okubo-not-closed-z"].status == PASS
        and by_id["okubo-not-closed-zsqrt3"].status == PASS
    )
    announce(2, "okubo obstruction with odd half-sqrt3 witness", ok)


def test_03_denominators():
    profile = denominator_profile(structure_constants("okubo"))
    ok = set(profile) <= {1, 2, 4} and sum(profile.values()) == 512
    announce(3, "okubo denominators in {1,2,4} over all 512 constants", ok)


def test_04_minimal_scaling():
    budget = Budget(30.0)
    res = scaling_search(structure_constants("okubo"))
    budget.check()
    ok = res.minimal == ((1, 1, 1, 1, 2, 2, 2, 2),)
    announce(4, "unique componentwise minimal scaling", ok)


def test_05_scaled_order():
    rep = scaled_order_verify()
    inners = [v for row in scaled_basis().inner_products for v in row]
    ok = (rep.violations == () and len(inners) == 64
          and all(RingTag.ZSQRT3.contains(v) for v in inners) and rep.all_integral)
    announce(5, "scaled order closes over Z[sqrt3] with integral values", ok)


def test_06_conductor_invariants():
    budget = Budget(10.0)
    inv = lat.sublattice_invariants(conductor_lattice(), cd_lattice())
    no_roots = lat.short_vectors(conductor_lattice(), 7)
    at8 = lat.short_vectors(conductor_lattice(), 8)
    budget.check()
    ok = (
        inv.index == 4096
        and inv.det_sub == 16777216
        and inv.smith == (2, 2, 2, 2, 4, 4, 4, 4)
        and inv.inclusions["4sup_in_sub"]
        and inv.inclusions["sub_in_2sup"]
        and no_roots == []
        and any(c == (1, 0, 0, 0, 0, 0, 0, 0) for c, _ in at8)
        and min(n for _, n in at8) == 8
    )
    announce(6, "conductor index/det/smith/chain/minimum", ok)


def test_07_e8_facts():
    budget = Budget(30.0)
    gram = cd_gram()
    det = lat.mat_det([list(r) for r in gram])
    roots = lat.short_vectors(cd_lattice(), 2)
    _, rep = units240()
    budget.check()
    ok = (
        det == 1
        and all(gram[i][i] % 2 == 0 for i in range(DIM))
        and len(roots) == 240
        and rep.count == 240
        and rep.closure_failures == 0
        and rep.norm_failures == 0
    )
    announce(7, "even unimodular Gram with 240 product-closed units", ok)


def test_08_shells():
    budget = Budget(60.0)
    shells = lat.shell_counts_vs_sigma3(cd_lattice(), 4)
    budget.check()
    ok = [(s.n, s.count, s.formula) for s in shells] == [
        (1, 240, 240), (2, 2160, 2160), (3, 6720, 6720), (4, 17520, 17520),
    ] and all(s.count == s.formula for s in shells)
    announce(8, "shell counts equal 240*sigma3(n) for n=1..4", ok)


def test_09_saturation_gluing():
    rep = lat.glue_and_saturate(conductor_lattice(), cd_lattice())
    sat_reports = {r.check: r for r in checks.check_saturation_gluing()}
    ok = (
        rep.saturation_equals_sup
        and rep.quotient_invariants == (2, 2, 2, 2, 4, 4, 4, 4)
        and rep.quotient_order == 4096
        and rep.q_values_all_zero
        and rep.maximal_isotropic
        and rep.glued_even
        and rep.glued_unimodular
        and rep.glued_equals_sup
        and sat_reports["saturated-okubo-closure-fails"].status == PASS
    )
    announce(9, "saturation and maximal isotropic gluing recover the lattice", ok)


def test_10_trace16():
    budget = Budget(300.0)
    rep = lat.trace_lattice_16(scaled_basis().inner_products)
    budget.check()
    ok = rep.even and rep.positive_definite and rep.minimum == 16
    announce(10, "rank-16 trace lattice even, positive definite, minimum 16", ok)


def test_11_stabilizer():
    budget = Budget(60.0)
    rep = search()
    budget.check()
    reports = {r.check: r for r in checks.check_stabilizer()}
    identity = tuple(range(8))
    ok = (
        rep.candidates == 147456
        and rep.product_subset_of_metric
        and rep.metric_closed_under_group_ops
        and len(rep.product) == 1
        and rep.product[0][0] == identity
        and all(s == 1 for s in rep.product[0][1])
        and reports["stabilizer-metric-count"].status in (PASS, DIFF)
        and reports["stabilizer-product-set"].status in (PASS, DIFF)
        and reports["stabilizer-candidates"].status == PASS
    )
    announce(11, "exhaustive stabilizer search with product set {identity}", ok)


def test_12_tau():
    x = basis_element(2)
    order3 = tau_apply(tau_apply(tau_apply(x))) == x
    autom = all(
        tau_apply(okubo_mul(basis_element(i), basis_element(j)))
        == okubo_mul(tau_apply(basis_element(i)), tau_apply(basis_element(j)))
        for i in range(DIM) for j in range(DIM)
    )
    isometry = all(
        tau_apply(basis_element(i)).norm() == QuadExt(1) for i in range(DIM)
    )
    mem = tau_membership()
    reports = {r.check: r for r in checks.check_tau_membership()}
    ok = (
        order3
        and autom
        and isometry
        and not mem.tau_u2_integral
        and reports["tau-u2-u0-coefficient"].status in (PASS, DIFF)
    )
    announce(12, "rotation automorphism laws and scaled-order obstruction", ok)


def test_13_matrix_realization():
    pool = sample_pool(0)
    rep = verify_laws(pool)
    krep = kaplansky_report(pool)
    ok = (
        rep.idempotent_ok
        and rep.flexibility_failures == 0
        and rep.composition_failures == 0
        and rep.gram_pivots_positive
        and krep.unit_left_ok
        and krep.unit_right_ok
        and krep.alternativity_failures == 0
    )
    announce(13, "matrix realization laws and Kaplansky unit", ok)


def test_14_bridges():
    reports = checks.check_bridges(seed=0)
    ok = all(r.status == PASS for r in reports) and len(reports) == 8
    announce(14, "all product conversion identities on all basis pairs", ok)


def test_15_catalog():
    reports = checks.check_catalog()
    ok = all(r.status == PASS for r in reports) and len(reports) == 6
    announce(15, "classical catalog rows with closure and lattice triples", ok)


def test_16_determinism():
    cmd = [sys.executable, "-m", "okubo_e8.cli", "verify", "all", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and json.loads(first.stdout.decode())
    )
    announce(16, "verify all is byte-identical across runs", bool(ok))
