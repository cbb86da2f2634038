"""The certification suite: every claim mapped to executable checks.

Each function returns a list of CheckReports; ``run_all`` executes the
whole suite deterministically.  CHECK_MAP records which check ids certify
which claim anchor; the docs table and the coverage test are generated
from it.
"""

from __future__ import annotations

from . import catalog as cat
from . import claims
from . import lattice as lat
from . import okubomatrix as om
from . import orders
from . import stabilizer as stab
from .algebras import (
    DIM,
    TAU,
    TAU2,
    AlgebraElem,
    basis_element,
    bridge_identities,
    oct_mul,
    tau_apply,
)
from .claims import CONVENTION
from .exact import QuadExt, RingTag
from .report import CheckReport, compare


def _cmp(check, anchor, expected, tag, actual, details=None, record_only=False):
    return compare(
        check, anchor, CONVENTION, expected, tag, actual,
        details=details, record_only=record_only,
    )


# ---------------------------------------------------------------------------
# basis formulas and the unit loop
# ---------------------------------------------------------------------------


def check_basis_forms() -> list[CheckReport]:
    anchor = "order-basis-formulas"
    basis, gram, cmp_rec = orders.cd_basis_and_gram()
    out = [
        _cmp("basis-gram-det", anchor, 1, "claimed", int(lat.mat_det(
            [list(r) for r in gram]))),
        _cmp("basis-gram-even-diagonal", anchor, True, "trivial",
             all(gram[i][i] % 2 == 0 for i in range(DIM))),
        _cmp("basis-trace-formula", anchor,
             [QuadExt(v) for v in claims.TRACE_PATTERN], "claimed",
             list(cmp_rec.trace_computed), record_only=True),
        _cmp("basis-norm-formula", anchor, [], "claimed",
             list(cmp_rec.norm_mismatches),
             details="mismatching cross terms ((i,j), computed, claimed)",
             record_only=True),
    ]
    return out


def check_unit_loop() -> list[CheckReport]:
    anchor = "unit-loop-240"
    _, rep = orders.units240()
    return [
        _cmp("units-count", anchor, claims.UNIT_COUNT, "claimed", rep.count),
        _cmp("units-shapes-present", anchor, True, "claimed",
             rep.shapes_all_present,
             details=f"catalogued shapes: {rep.shape_count}"),
        _cmp("units-closure", anchor, [0, 0], "derived",
             [rep.closure_failures, rep.norm_failures],
             details="57600 pairwise products checked"),
        _cmp("units-inverses", anchor, True, "trivial", rep.inverses_present),
    ]


# ---------------------------------------------------------------------------
# closure theorems
# ---------------------------------------------------------------------------


def _violation_summary(violations, limit=6):
    return [
        [i, j, k, str(v)] for (i, j, k, v) in violations[:limit]
    ]


def check_para_closure(constants=None) -> list[CheckReport]:
    anchor = "para-closure-theorem"
    if constants is None:
        constants = orders.structure_constants("para")
    rep = orders.closure_test(constants, RingTag.Z)
    return [
        _cmp("para-closure", anchor, 0, "claimed", len(rep.violations),
             details=_violation_summary(rep.violations)),
        _cmp("para-trace-norm-integral", anchor, True, "claimed",
             rep.trace_norm_ok),
    ]


def check_octonion_closure() -> list[CheckReport]:
    anchor = "octonion-order-closure"
    rep = orders.closure_test(orders.structure_constants("octonion"), RingTag.Z)
    return [
        _cmp("octonion-closure", anchor, 0, "claimed", len(rep.violations)),
    ]


def check_okubo_obstruction(constants=None) -> list[CheckReport]:
    anchor = "okubo-obstruction-theorem"
    if constants is None:
        constants = orders.structure_constants("okubo")
    over_z = orders.closure_test(constants, RingTag.Z)
    over_r = orders.closure_test(constants, RingTag.ZSQRT3)
    half_odd = [
        (i, j, k, v)
        for (i, j, k, v) in over_r.violations
        if v.irr.denominator == 2
    ]
    b0b2 = list(constants.c[0][2])
    diff = [
        [k, str(b0b2[k]), str(claims.B0_STAR_B2[k])]
        for k in range(DIM)
        if b0b2[k] != claims.B0_STAR_B2[k]
    ]
    return [
        _cmp("okubo-not-closed-z", anchor, True, "claimed",
             len(over_z.violations) > 0),
        _cmp("okubo-not-closed-zsqrt3", anchor, True, "claimed",
             len(over_r.violations) > 0,
             details=_violation_summary(over_r.violations)),
        _cmp("okubo-halfodd-witness", anchor, True, "claimed",
             len(half_odd) > 0,
             details=_violation_summary(half_odd, limit=4)),
        _cmp("okubo-counterexample-diff", anchor,
             [str(v) for v in claims.B0_STAR_B2], "claimed",
             [str(v) for v in b0b2],
             details={"coefficient_diffs": diff}, record_only=True),
    ]


def check_denominators() -> list[CheckReport]:
    anchor = "denominator-claim"
    profile = orders.denominator_profile(orders.structure_constants("okubo"))
    ok = set(profile) <= set(claims.OKUBO_DENOMINATORS)
    return [
        _cmp("okubo-denominators", anchor, True, "claimed", ok,
             details={"histogram": profile, "entries": 512}),
    ]


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def check_scaling_search(max_exp: int = 3) -> list[CheckReport]:
    anchor = "minimal-scaling-remark"
    constants = orders.structure_constants("okubo")
    res = orders.scaling_search(constants, max_exp)
    minimal = [list(m.exponents) for m in res.minimal]
    decrements_infeasible = all(
        not orders.scaling_feasible(
            constants,
            tuple(
                v - (1 if t == m else 0)
                for t, v in enumerate(claims.SCALING_EXPONENTS)
            ),
        )
        for m in range(DIM)
    )
    oct_res = orders.scaling_search(orders.structure_constants("octonion"), max_exp)
    return [
        _cmp("scaling-minimal-unique", anchor,
             [list(claims.SCALING_EXPONENTS)], "claimed", minimal,
             details={"feasible_vectors": res.feasible_count,
                      "max_exp": max_exp}),
        _cmp("scaling-minimality-certificate", anchor, True, "derived",
             decrements_infeasible,
             details="every single decrement breaks integrality"),
        _cmp("scaling-octonion-integral-basis", anchor,
             [[0] * DIM], "derived",
             [list(m.exponents) for m in oct_res.minimal],
             details="unital product constants are already integers"),
    ]


def check_scaled_order() -> list[CheckReport]:
    anchor = "scaled-order-theorem"
    rep = orders.scaled_order_verify(claims.SCALING_EXPONENTS)
    return [
        _cmp("scaled-constants-integral", anchor, 0, "claimed",
             len(rep.violations), details="512 scaled structure constants"),
        _cmp("scaled-values-integral", anchor, True, "claimed",
             rep.all_integral,
             details="trace, norm, Gram, and product traces over the scaled basis"),
    ]


# ---------------------------------------------------------------------------
# conductor lattice
# ---------------------------------------------------------------------------


def check_conductor() -> list[CheckReport]:
    anchor = "conductor-theorem"
    cd = orders.cd_lattice()
    cond = orders.conductor_lattice()
    inv = lat.sublattice_invariants(cond, cd)
    no_roots = lat.short_vectors(cond, 7)
    at8 = lat.short_vectors(cond, 8)
    mins = [nrm for _, nrm in at8]
    witness = tuple([1] + [0] * 7)  # u0 = 2 b0 in conductor coordinates
    witness_found = any(coords == witness for coords, _ in at8)
    return [
        _cmp("conductor-index", anchor, claims.CONDUCTOR_INDEX, "claimed",
             inv.index),
        _cmp("conductor-determinant", anchor, claims.CONDUCTOR_DET, "claimed",
             int(inv.det_sub)),
        _cmp("conductor-smith", anchor, list(claims.CONDUCTOR_SMITH), "claimed",
             list(inv.smith)),
        _cmp("conductor-chain", anchor,
             {"4sup_in_sub": True, "sub_in_2sup": True, "sub_in_sup": True},
             "claimed", inv.inclusions),
        _cmp("conductor-no-short-roots", anchor, 0, "claimed", len(no_roots),
             details="no nonzero vectors of norm <= 7"),
        _cmp("conductor-minimum", anchor, claims.CONDUCTOR_MIN, "claimed",
             int(min(mins)) if mins else None,
             details=f"{len(at8)} vectors of norm 8"),
        _cmp("conductor-minimum-witness", anchor, True, "derived",
             witness_found, details="doubled first basis vector has norm 8"),
    ]


def check_discriminant() -> list[CheckReport]:
    anchor = "discriminant-group"
    cond = orders.conductor_lattice()
    group = lat.discriminant_group(cond)
    return [
        _cmp("discriminant-order", anchor, claims.DISCRIMINANT_ORDER, "claimed",
             group.order),
        _cmp("discriminant-invariants", anchor,
             list(claims.DISCRIMINANT_INVARIANTS), "derived",
             list(group.invariants),
             details={
                 "refuted_candidate": list(claims.REFUTED_DISCRIMINANT_INVARIANTS),
                 "note": "confirmed by two independent normal-form routes",
             }),
    ]


def check_shells(maxn: int = 4) -> list[CheckReport]:
    anchor = "shell-formula"
    shells = lat.shell_counts_vs_sigma3(orders.cd_lattice(), maxn)
    out = []
    for s in shells:
        out.append(
            _cmp(f"shell-n{s.n}", anchor, s.formula, "claimed", s.count,
                 details=f"n={s.n} count={s.count} formula={s.formula}")
        )
    return out


def check_saturation_gluing() -> list[CheckReport]:
    anchor = "saturation-gluing-theorem"
    cd = orders.cd_lattice()
    cond = orders.conductor_lattice()
    rep = lat.glue_and_saturate(cond, cd, 2)

    # re-run the closure test over the saturated (recovered) basis
    sat_basis_elems = []
    basis = orders.cd_basis()
    for row in rep.saturation.basis:
        acc = AlgebraElem.zero()
        for c, b in zip(row, basis):
            if c:
                acc = acc + b.scale(c)
        sat_basis_elems.append(acc)
    sat_basis = orders.OrderBasis(tuple(sat_basis_elems), "saturated")
    sat_const = orders.structure_constants("okubo", sat_basis)
    sat_closure = orders.closure_test(sat_const, RingTag.ZSQRT3, sat_basis)

    return [
        _cmp("saturation-recovers-e8", anchor, True, "claimed",
             rep.saturation_equals_sup,
             details="equality certified by mutual containment"),
        _cmp("glue-quotient-invariants", anchor,
             list(claims.QUOTIENT_INVARIANTS), "claimed",
             list(rep.quotient_invariants)),
        _cmp("glue-quotient-order", anchor, claims.CONDUCTOR_INDEX, "claimed",
             rep.quotient_order),
        _cmp("glue-isotropy", anchor, True, "claimed", rep.q_values_all_zero,
             details=f"q(h) = 0 for all {rep.quotient_order} classes"),
        _cmp("glue-maximal-isotropic", anchor, True, "claimed",
             rep.maximal_isotropic, details="|H|^2 equals the discriminant order"),
        _cmp("glue-overlattice-even-unimodular", anchor, [True, True],
             "claimed", [rep.glued_even, rep.glued_unimodular]),
        _cmp("glue-overlattice-equals-e8", anchor, True, "claimed",
             rep.glued_equals_sup),
        _cmp("saturated-okubo-closure-fails", anchor, True, "claimed",
             len(sat_closure.violations) > 0,
             details=_violation_summary(sat_closure.violations, limit=3)),
    ]


def check_trace16() -> list[CheckReport]:
    anchor = "trace-lattice-remark"
    rep = lat.trace_lattice_16(orders.u_gram_quadext())
    return [
        _cmp("trace16-even", anchor, True, "claimed", rep.even),
        _cmp("trace16-positive-definite", anchor, True, "claimed",
             rep.positive_definite, details="exact LDL pivots all positive"),
        _cmp("trace16-minimum", anchor, claims.TRACE16_MIN, "claimed",
             int(rep.minimum), details=f"{rep.minimum_count} minimal vectors"),
        _cmp("trace16-u0-diagonal", anchor, 16, "derived", rep.gram[0][0],
             details="field trace doubles the norm-8 diagonal entry"),
    ]


# ---------------------------------------------------------------------------
# stabilizer and the rotation automorphism
# ---------------------------------------------------------------------------


def _perm_sign_list(items):
    return [[list(c.perm), list(c.signs)] for c in items]


def check_stabilizer() -> list[CheckReport]:
    anchor = "stabilizer-remark"
    rep = stab.search()
    identity = [[list(range(DIM)), [1] * DIM]]
    return [
        _cmp("stabilizer-candidates", anchor, claims.STABILIZER_CANDIDATES,
             "claimed", rep.candidates),
        _cmp("stabilizer-metric-count", anchor,
             claims.METRIC_PRESERVING_COUNT, "claimed", len(rep.metric),
             details={"metric_preserving": _perm_sign_list(rep.metric)},
             record_only=True),
        _cmp("stabilizer-product-set", anchor, identity, "claimed",
             _perm_sign_list(rep.product), record_only=True),
        _cmp("stabilizer-product-subset", anchor, True, "derived",
             rep.product_subset_of_metric),
        _cmp("stabilizer-metric-group", anchor, True, "derived",
             rep.metric_closed_under_group_ops,
             details="closed under composition and inverse"),
    ]


def check_tau() -> list[CheckReport]:
    anchor = "rotation-automorphism"
    # order three and exact isometry, on the matrix itself
    tau3 = TAU2.compose(TAU, 1)
    is_identity = all(
        tau3.matrix[r][c] == QuadExt(int(r == c))
        for r in range(DIM) for c in range(DIM)
    )
    isometry = all(
        tau_apply(basis_element(i)).inner(tau_apply(basis_element(j)))
        == basis_element(i).inner(basis_element(j))
        for i in range(DIM)
        for j in range(DIM)
    )
    automorphism = all(
        tau_apply(oct_mul(basis_element(i), basis_element(j)))
        == oct_mul(tau_apply(basis_element(i)), tau_apply(basis_element(j)))
        for i in range(DIM)
        for j in range(DIM)
    )
    nontrivial = tau_apply(basis_element(2)) != basis_element(2) and tau_apply(
        basis_element(2), 2) != basis_element(2)
    return [
        _cmp("tau-order-three", anchor, True, "derived", is_identity,
             details="matrix cube equals the identity"),
        _cmp("tau-isometry", anchor, True, "claimed", isometry),
        _cmp("tau-octonion-automorphism", anchor, True, "claimed", automorphism),
        _cmp("tau-nontrivial", anchor, True, "trivial", nontrivial),
    ]


def check_tau_membership() -> list[CheckReport]:
    anchor = "tau-arithmetic-remark"
    rep = stab.tau_membership()
    return [
        _cmp("tau-okubo-automorphism", anchor,
             rep.automorphism_pairs_total, "derived",
             rep.automorphism_pairs_ok,
             details="exact on all basis pairs over K"),
        _cmp("tau-u2-nonintegral", anchor, True, "claimed",
             not rep.tau_u2_integral,
             details={"tau_u2": [str(c) for c in rep.tau_u2_coords]}),
        _cmp("tau2-u2-nonintegral", anchor, True, "claimed",
             not rep.tau2_u2_integral),
        _cmp("tau-u2-u0-coefficient", anchor, str(claims.TAU_U2_U0),
             "claimed", str(rep.tau_u2_u0_coefficient), record_only=True),
        _cmp("tau2-u2-u0-coefficient", anchor, str(claims.TAU2_U2_U0),
             "claimed", str(rep.tau2_u2_u0_coefficient), record_only=True),
    ]


# ---------------------------------------------------------------------------
# bridges and the matrix realization
# ---------------------------------------------------------------------------


def check_bridges(seed: int = 0) -> list[CheckReport]:
    anchor = "product-bridge-table"
    rep = bridge_identities(seed=seed)
    out = []
    for name, data in sorted(rep.items()):
        out.append(
            _cmp(f"bridge-{name}", anchor, 0, "claimed",
                 len(data["failures"]),
                 details=f"{data['checked']} comparisons")
        )
    return out


def check_matrix_laws(seed: int = 0, samples: int = 100) -> list[CheckReport]:
    anchor = "matrix-realization"
    rep = om.verify_laws(samples=samples, seed=seed)
    krep = om.kaplansky_report(samples=samples, seed=seed)
    xrep = om.cross_realization_report()

    import random

    rng = random.Random(seed)
    x, y = om.random_matrix(rng), om.random_matrix(rng)
    jordan_comm = om.jordan_product(x, y) == om.jordan_product(y, x)

    return [
        _cmp("matrix-idempotent", anchor, True, "claimed", rep.idempotent_ok,
             details="reference idempotent squares to itself with norm one"),
        _cmp("matrix-flexibility", anchor, 0, "claimed",
             rep.flexibility_failures, details=f"{rep.samples} seeded samples"),
        _cmp("matrix-composition", anchor, 0, "derived",
             rep.composition_failures),
        _cmp("matrix-form-associativity", anchor, 0, "claimed",
             rep.form_associativity_failures),
        _cmp("matrix-type-closure", anchor, 0, "trivial",
             rep.hermitian_traceless_failures,
             details="products stay Hermitian traceless"),
        _cmp("matrix-signature", anchor, True, "claimed",
             rep.gram_pivots_positive,
             details="all eight exact pivots positive: signature (8,0)"),
        _cmp("matrix-no-unit", anchor, True, "claimed", rep.no_two_sided_unit,
             details="searched class: plus/minus the eight basis matrices"),
        _cmp("kaplansky-unit", anchor, [True, True], "claimed",
             [krep.unit_left_ok, krep.unit_right_ok]),
        _cmp("kaplansky-alternative", anchor, 0, "derived",
             krep.alternativity_failures, details=f"{krep.samples} samples"),
        _cmp("kaplansky-composition", anchor, 0, "derived",
             krep.composition_failures),
        _cmp("matrix-jordan-commutative", anchor, True, "derived", jordan_comm,
             details="symmetrized product with real coefficient is commutative"),
        _cmp("matrix-cross-realization", anchor, 0, "claimed",
             xrep.identity_mismatches,
             details={
                 "total": xrep.total,
                 "best_signs": list(xrep.best_signs),
                 "best_mismatches": xrep.best_mismatches,
             },
             record_only=True),
    ]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def check_catalog(name: str = "all") -> list[CheckReport]:
    anchor = "classical-catalog-table"
    names = cat.catalog_names() if name == "all" else (name,)
    out = []
    for n in names:
        rep = cat.verify_classical(cat.build_classical(n))
        expected = {
            "units": rep.expected_units,
            "closed": True,
            "det": claims.CLASSICAL_TABLE[n][2],
            "min": claims.CLASSICAL_TABLE[n][3],
            "kissing": claims.CLASSICAL_TABLE[n][4],
            "integral": True,
        }
        actual = {
            "units": rep.unit_count,
            "closed": rep.units_closed and rep.inverses_present,
            "det": int(rep.det),
            "min": int(rep.minimum),
            "kissing": rep.kissing,
            "integral": rep.constants_integral and rep.trace_norm_integral,
        }
        out.append(_cmp(f"catalog-{n}", anchor, expected, "claimed", actual))
    return out


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------


def run_all(seed: int = 0, shell_max: int = 4) -> list[CheckReport]:
    """Run the whole certification suite and return reports sorted by id."""
    reports = []
    reports += check_basis_forms()
    reports += check_unit_loop()
    reports += check_para_closure()
    reports += check_octonion_closure()
    reports += check_okubo_obstruction()
    reports += check_denominators()
    reports += check_scaling_search()
    reports += check_scaled_order()
    reports += check_conductor()
    reports += check_discriminant()
    reports += check_shells(shell_max)
    reports += check_saturation_gluing()
    reports += check_trace16()
    reports += check_stabilizer()
    reports += check_tau()
    reports += check_tau_membership()
    reports += check_bridges(seed)
    reports += check_matrix_laws(seed)
    reports += check_catalog("all")
    return sorted(reports, key=lambda r: r.check)


#: claim anchor -> check ids certifying it (documented in docs/checks.md)
CHECK_MAP = {
    "order-basis-formulas": (
        "basis-gram-det", "basis-gram-even-diagonal",
        "basis-trace-formula", "basis-norm-formula",
    ),
    "unit-loop-240": (
        "units-count", "units-shapes-present", "units-closure",
        "units-inverses",
    ),
    "para-closure-theorem": ("para-closure", "para-trace-norm-integral"),
    "octonion-order-closure": ("octonion-closure",),
    "okubo-obstruction-theorem": (
        "okubo-not-closed-z", "okubo-not-closed-zsqrt3",
        "okubo-halfodd-witness", "okubo-counterexample-diff",
    ),
    "denominator-claim": ("okubo-denominators",),
    "minimal-scaling-remark": (
        "scaling-minimal-unique", "scaling-minimality-certificate",
        "scaling-octonion-integral-basis",
    ),
    "scaled-order-theorem": (
        "scaled-constants-integral", "scaled-values-integral",
    ),
    "conductor-theorem": (
        "conductor-index", "conductor-determinant", "conductor-smith",
        "conductor-chain", "conductor-no-short-roots", "conductor-minimum",
        "conductor-minimum-witness",
    ),
    "discriminant-group": ("discriminant-order", "discriminant-invariants"),
    "shell-formula": tuple(f"shell-n{n}" for n in range(1, 5)),
    "saturation-gluing-theorem": (
        "saturation-recovers-e8", "glue-quotient-invariants",
        "glue-quotient-order", "glue-isotropy", "glue-maximal-isotropic",
        "glue-overlattice-even-unimodular", "glue-overlattice-equals-e8",
        "saturated-okubo-closure-fails",
    ),
    "trace-lattice-remark": (
        "trace16-even", "trace16-positive-definite", "trace16-minimum",
        "trace16-u0-diagonal",
    ),
    "stabilizer-remark": (
        "stabilizer-candidates", "stabilizer-metric-count",
        "stabilizer-product-set", "stabilizer-product-subset",
        "stabilizer-metric-group",
    ),
    "rotation-automorphism": (
        "tau-order-three", "tau-isometry", "tau-octonion-automorphism",
        "tau-nontrivial",
    ),
    "tau-arithmetic-remark": (
        "tau-okubo-automorphism", "tau-u2-nonintegral", "tau2-u2-nonintegral",
        "tau-u2-u0-coefficient", "tau2-u2-u0-coefficient",
    ),
    "product-bridge-table": (
        "bridge-conjugation-via-okubo", "bridge-conjugation-via-stars",
        "bridge-octonion-from-okubo", "bridge-octonion-from-para",
        "bridge-okubo-from-para", "bridge-para-from-okubo",
        "bridge-tau-via-okubo", "bridge-tau-via-stars",
    ),
    "matrix-realization": (
        "matrix-idempotent", "matrix-flexibility", "matrix-composition",
        "matrix-form-associativity", "matrix-type-closure",
        "matrix-signature", "matrix-no-unit", "kaplansky-unit",
        "kaplansky-alternative", "kaplansky-composition",
        "matrix-jordan-commutative", "matrix-cross-realization",
    ),
    "classical-catalog-table": tuple(
        f"catalog-{n}" for n in (
            "gaussian", "eisenstein", "hamilton", "hurwitz",
            "cayley-graves", "coxeter-dickson",
        )
    ),
}


def mapped_check_ids() -> set[str]:
    out = set()
    for ids in CHECK_MAP.values():
        out.update(ids)
    return out
