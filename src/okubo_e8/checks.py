"""The certification suite: every claim mapped to executable checks.

Each ``check_*`` group certifies one claim anchor and is declared once,
with ``@check(anchor, claim, ids)``; it returns CheckReports whose ids
come from its declaration (``_cmp`` looks the anchor up from the id).
Everything else is derived from the declarations in ``REGISTRY``:
``run_all`` runs the groups in declaration order, the CLI offers one
``verify`` suite per group, and ``docs/checks.md``, the map from each
anchor to its ids, is the output of :func:`docs_markdown`.  After changing
a declaration, regenerate that file with

    PYTHONPATH=src python -m okubo_e8.checks > docs/checks.md
"""

from __future__ import annotations

from math import prod

from . import catalog as cat
from . import claims
from . import lattice as lat
from . import okubomatrix as om
from . import orders
from . import stabilizer as stab
from ._record import record
from .algebras import (
    BRIDGE_PAIR_IDENTITIES,
    BRIDGE_UNARY_IDENTITIES,
    DIM,
    TAU,
    TAU2,
    basis_element,
    bridge_identities,
    oct_mul,
)
from .exact import QuadExt, RingTag
from .report import CheckReport, compare


@record
class CheckGroup:
    """A declared group: its function's name and parameter names, the claim
    anchor and claim it certifies, and the ids ``verify all`` emits for it."""

    name: str
    params: frozenset
    anchor: str
    claim: str
    ids: tuple

    def __call__(self, **kwargs) -> list[CheckReport]:
        """Run the group with the keyword arguments it takes.  It is called
        through its module attribute, so that a rebinding (a profiler's
        wrapper) is what runs."""
        run = globals()[self.name]
        return run(**{k: v for k, v in kwargs.items() if k in self.params})


#: suite name (``check_para_closure`` -> ``para-closure``) -> group, in
#: declaration order
REGISTRY: dict[str, CheckGroup] = {}
_ANCHOR_OF: dict[str, str] = {}  # check id -> anchor, extra ids included


def check(anchor, claim, ids, extra_ids=()):
    """Declare a check group; ``extra_ids`` are ids it emits only when it is
    called with non-default arguments, outside ``verify all``."""

    def declare(fn):
        declared = (*ids, *extra_ids)
        if anchor in _ANCHOR_OF.values() or _ANCHOR_OF.keys() & set(declared):
            raise ValueError(f"{fn.__name__}: anchor or check id declared twice")
        _ANCHOR_OF.update(dict.fromkeys(declared, anchor))
        code = fn.__code__
        params = frozenset(code.co_varnames[:code.co_argcount + code.co_kwonlyargcount])
        group = CheckGroup(fn.__name__, params, anchor, claim, tuple(ids))
        REGISTRY[fn.__name__.removeprefix("check_").replace("_", "-")] = group
        return fn

    return declare


def _cmp(cid, expected, tag, actual, details=None, record_only=False):
    """The report of a declared id; an undeclared id raises KeyError."""
    return compare(cid, _ANCHOR_OF[cid], expected, tag, actual,
                   details=details, record_only=record_only)


# ---------------------------------------------------------------------------
# basis formulas and the unit loop
# ---------------------------------------------------------------------------


@check("order-basis-formulas",
       "Explicit trace and norm polynomials and the even unimodular Gram of the "
       "order basis",
       ["basis-gram-det", "basis-gram-even-diagonal", "basis-trace-formula",
        "basis-norm-formula"])
def check_basis_forms() -> list[CheckReport]:
    gram = orders.cd_gram()
    claimed = claims.NORM_CROSS_TERMS
    # for i < j, gram[i][j] is the coefficient of a_i a_j in n(sum a_k b_k)
    norm_mismatches = [
        ((i, j), gram[i][j], claimed.get((i, j), 0))
        for i in range(DIM) for j in range(i + 1, DIM)
        if gram[i][j] != claimed.get((i, j), 0)
    ]
    return [
        _cmp("basis-gram-det", 1, "claimed", orders.cd_lattice().det),
        _cmp("basis-gram-even-diagonal", True, "trivial",
             all(gram[i][i] % 2 == 0 for i in range(DIM))),
        _cmp("basis-trace-formula",
             [QuadExt(v) for v in claims.TRACE_PATTERN], "claimed",
             [b.trace() for b in orders.cd_basis()]),
        _cmp("basis-norm-formula", [], "claimed", norm_mismatches,
             details="mismatching cross terms ((i,j), computed, claimed)",
             record_only=True),
    ]


@check("unit-loop-240",
       "The 240 norm-one elements, their catalogued shapes, and loop closure",
       ["units-count", "units-shapes-present", "units-closure", "units-inverses"])
def check_unit_loop() -> list[CheckReport]:
    _, rep = orders.units240()
    return [
        _cmp("units-count", claims.UNIT_COUNT, "claimed", rep.count),
        _cmp("units-shapes-present", True, "claimed", rep.shapes_all_present,
             details=f"catalogued shapes: {rep.shape_count}"),
        _cmp("units-closure", [0, 0], "derived",
             [rep.closure_failures, rep.norm_failures],
             details="57600 pairwise products checked"),
        _cmp("units-inverses", True, "trivial", rep.inverses_present),
    ]


# ---------------------------------------------------------------------------
# closure theorems
# ---------------------------------------------------------------------------


def _violation_summary(violations, limit=6):
    return [[i, j, k, str(v)] for (i, j, k, v) in violations[:limit]]


@check("para-closure-theorem",
       "The order is closed under the para product with integral trace and norm",
       ["para-closure", "para-trace-norm-integral"])
def check_para_closure(constants=None) -> list[CheckReport]:
    if constants is None:
        constants = orders.structure_constants("para")
    rep = orders.closure_test(constants, RingTag.Z)
    return [
        _cmp("para-closure", 0, "claimed", len(rep.violations),
             details=_violation_summary(rep.violations)),
        _cmp("para-trace-norm-integral", True, "claimed", rep.trace_norm_ok),
    ]


@check("octonion-order-closure",
       "The order is closed under the unital product", ["octonion-closure"])
def check_octonion_closure() -> list[CheckReport]:
    rep = orders.closure_test(orders.structure_constants("octonion"), RingTag.Z)
    return [_cmp("octonion-closure", 0, "claimed", len(rep.violations))]


@check("okubo-obstruction-theorem",
       "The order is not closed under the Okubo product over Z (nor Z[sqrt3])",
       ["okubo-not-closed-z", "okubo-not-closed-zsqrt3", "okubo-halfodd-witness",
        "okubo-counterexample-diff"])
def check_okubo_obstruction(constants=None) -> list[CheckReport]:
    if constants is None:
        constants = orders.structure_constants("okubo")
    over_z = orders.closure_test(constants, RingTag.Z)
    over_r = orders.closure_test(constants, RingTag.ZSQRT3)
    half_odd = [t for t in over_r.violations if t[3].irr.denominator == 2]
    b0b2 = list(constants.c[0][2])
    diff = [
        [k, str(b0b2[k]), str(claims.B0_STAR_B2[k])]
        for k in range(DIM)
        if b0b2[k] != claims.B0_STAR_B2[k]
    ]
    return [
        _cmp("okubo-not-closed-z", True, "claimed", len(over_z.violations) > 0),
        _cmp("okubo-not-closed-zsqrt3", True, "claimed",
             len(over_r.violations) > 0,
             details=_violation_summary(over_r.violations)),
        _cmp("okubo-halfodd-witness", True, "claimed", len(half_odd) > 0,
             details=_violation_summary(half_odd, limit=4)),
        _cmp("okubo-counterexample-diff",
             [str(v) for v in claims.B0_STAR_B2], "claimed",
             [str(v) for v in b0b2],
             details={"coefficient_diffs": diff}, record_only=True),
    ]


@check("denominator-claim",
       "Okubo structure constants have denominators only in {1, 2, 4}",
       ["okubo-denominators"])
def check_denominators() -> list[CheckReport]:
    profile = orders.denominator_profile(orders.structure_constants("okubo"))
    ok = set(profile) <= set(claims.OKUBO_DENOMINATORS)
    return [
        _cmp("okubo-denominators", True, "claimed", ok,
             details={"histogram": profile, "entries": 512}),
    ]


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


@check("minimal-scaling-remark",
       "The diagonal scaling exponents (1,1,1,1,2,2,2,2) are the unique "
       "componentwise minimum",
       ["scaling-minimal-unique", "scaling-minimality-certificate",
        "scaling-octonion-integral-basis"])
def check_scaling_search() -> list[CheckReport]:
    constants = orders.structure_constants("okubo")
    res = orders.scaling_search(constants)
    minimal = [list(m) for m in res.minimal]
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
    oct_res = orders.scaling_search(orders.structure_constants("octonion"))
    return [
        _cmp("scaling-minimal-unique", [list(claims.SCALING_EXPONENTS)],
             "claimed", minimal,
             details={"feasible_vectors": res.feasible_count,
                      "max_exp": orders.SCALING_MAX_EXP}),
        _cmp("scaling-minimality-certificate", True, "derived",
             decrements_infeasible,
             details="every single decrement breaks integrality"),
        _cmp("scaling-octonion-integral-basis", [[0] * DIM], "derived",
             [list(m) for m in oct_res.minimal],
             details="unital product constants are already integers"),
    ]


@check("scaled-order-theorem",
       "The scaled basis closes over Z[sqrt3] with integral trace, norm, and Gram",
       ["scaled-constants-integral", "scaled-values-integral"])
def check_scaled_order() -> list[CheckReport]:
    rep = orders.scaled_order_verify()
    return [
        _cmp("scaled-constants-integral", 0, "claimed",
             len(rep.violations), details="512 scaled structure constants"),
        _cmp("scaled-values-integral", True, "claimed", rep.all_integral,
             details="trace, norm, Gram, and product traces over the scaled basis"),
    ]


# ---------------------------------------------------------------------------
# conductor lattice
# ---------------------------------------------------------------------------


@check("conductor-theorem",
       "Index 2^12, determinant 2^24, Smith chain, inclusions, minimum 8, no roots",
       ["conductor-index", "conductor-determinant", "conductor-smith",
        "conductor-chain", "conductor-no-short-roots", "conductor-minimum",
        "conductor-minimum-witness"])
def check_conductor() -> list[CheckReport]:
    rep = orders.conductor_in_e8()
    at8 = lat.short_vectors(orders.conductor_lattice(), 8)
    mins = [nrm for _, nrm in at8]
    no_roots = [nrm for nrm in mins if nrm <= 7]
    witness = tuple([1] + [0] * 7)  # u0 = 2 b0 in conductor coordinates
    witness_found = any(coords == witness for coords, _ in at8)
    return [
        _cmp("conductor-index", claims.CONDUCTOR_INDEX, "claimed", rep.index),
        _cmp("conductor-determinant", claims.CONDUCTOR_DET, "claimed",
             rep.det_sub),
        _cmp("conductor-smith", list(claims.CONDUCTOR_SMITH), "claimed",
             list(rep.smith)),
        _cmp("conductor-chain",
             {"4sup_in_sub": True, "sub_in_2sup": True, "sub_in_sup": True},
             "claimed", rep.inclusions),
        _cmp("conductor-no-short-roots", 0, "claimed", len(no_roots),
             details="no nonzero vectors of norm <= 7"),
        _cmp("conductor-minimum", claims.CONDUCTOR_MIN, "claimed",
             min(mins, default=None),
             details=f"{len(at8)} vectors of norm 8"),
        _cmp("conductor-minimum-witness", True, "derived",
             witness_found, details="doubled first basis vector has norm 8"),
    ]


@check("discriminant-group",
       "Order and invariant factors of the discriminant group of the conductor "
       "lattice",
       ["discriminant-order", "discriminant-invariants"])
def check_discriminant() -> list[CheckReport]:
    cond = orders.conductor_lattice()
    group = lat.discriminant_group(cond)
    # the second route: |L*/L| = |det G| is also the product of the Hermite
    # diagonal of the Gram; if the routes disagree, neither value is reported
    # as the result and both checks fail
    hermite = lat.hermite_form(cond.gram)
    hermite_order = prod(hermite[i][i] for i in range(len(hermite)))
    order, invariants = group.order, list(group.invariants)
    if hermite_order != order:
        order = invariants = {"smith_order": order, "hermite_order": hermite_order}
    return [
        _cmp("discriminant-order", claims.DISCRIMINANT_ORDER, "claimed", order),
        _cmp("discriminant-invariants", list(claims.DISCRIMINANT_INVARIANTS),
             "derived", invariants,
             details={
                 "refuted_candidate": list(claims.REFUTED_DISCRIMINANT_INVARIANTS),
                 "note": "confirmed by two independent normal-form routes",
             }),
    ]


@check("shell-formula", "Shell sizes equal 240 * sigma_3(n)",
       [f"shell-n{n}" for n in range(1, 5)], extra_ids=["shell-n5", "shell-n6"])
def check_shells(maxn: int = 4) -> list[CheckReport]:
    # a count that differs from 240 sigma_3(n) is not reported as the
    # result: both values are, and the id fails
    return [
        _cmp(f"shell-n{s.n}", claims.SHELL_VALUES[s.n - 1], "claimed",
             s.count if s.count == s.formula else {"count": s.count, "formula": s.formula},
             details=f"n={s.n} count={s.count} formula={s.formula}")
        for s in lat.shell_counts_vs_sigma3(orders.cd_lattice(), maxn)
    ]


@check("saturation-gluing-theorem",
       "2-adic saturation and maximal isotropic gluing both recover the "
       "unimodular lattice",
       ["saturation-recovers-e8", "glue-quotient-invariants",
        "glue-quotient-order", "glue-isotropy", "glue-maximal-isotropic",
        "glue-overlattice-even-unimodular", "glue-overlattice-equals-e8",
        "saturated-okubo-closure-fails"])
def check_saturation_gluing() -> list[CheckReport]:
    rep = orders.conductor_in_e8()

    # re-run the closure test over the saturated (recovered) basis
    basis = orders.cd_basis()
    sat_basis = orders.OrderBasis(
        tuple(basis.element(row) for row in rep.saturation.basis), "saturated")
    sat_const = orders.structure_constants("okubo", sat_basis)
    sat_closure = orders.closure_test(sat_const, RingTag.ZSQRT3, sat_basis)

    return [
        _cmp("saturation-recovers-e8", True, "claimed",
             rep.saturation_equals_sup,
             details="equality certified by mutual containment"),
        _cmp("glue-quotient-invariants", list(claims.QUOTIENT_INVARIANTS),
             "claimed", [d for d in rep.smith if d > 1]),
        _cmp("glue-quotient-order", claims.CONDUCTOR_INDEX, "claimed", rep.index),
        _cmp("glue-isotropy", True, "claimed", rep.q_values_all_zero,
             details=f"q(h) = 0 for all {rep.index} classes"),
        _cmp("glue-maximal-isotropic", True, "claimed",
             rep.maximal_isotropic, details="|H|^2 equals the discriminant order"),
        _cmp("glue-overlattice-even-unimodular", [True, True], "claimed",
             [rep.glued_even, rep.glued_unimodular]),
        _cmp("glue-overlattice-equals-e8", True, "claimed", rep.glued_equals_sup),
        _cmp("saturated-okubo-closure-fails", True, "claimed",
             len(sat_closure.violations) > 0,
             details=_violation_summary(sat_closure.violations, limit=3)),
    ]


@check("trace-lattice-remark",
       "The rank-16 restriction-of-scalars form is even, positive definite, of "
       "minimum 16",
       ["trace16-even", "trace16-positive-definite", "trace16-minimum",
        "trace16-u0-diagonal"])
def check_trace16() -> list[CheckReport]:
    rep = lat.trace_lattice_16(orders.scaled_basis().inner_products)
    return [
        _cmp("trace16-even", True, "claimed", rep.even),
        _cmp("trace16-positive-definite", True, "claimed",
             rep.positive_definite, details="exact LDL pivots all positive"),
        _cmp("trace16-minimum", claims.TRACE16_MIN, "claimed",
             rep.minimum, details=f"{rep.minimum_count} minimal vectors"),
        _cmp("trace16-u0-diagonal", 16, "derived", rep.gram[0][0],
             details="field trace doubles the norm-8 diagonal entry"),
    ]


# ---------------------------------------------------------------------------
# stabilizer and the rotation automorphism
# ---------------------------------------------------------------------------


def _perm_sign_list(items):
    return [[list(perm), list(signs)] for perm, signs in items]


@check("stabilizer-remark",
       "Exhaustive signed block-permutation search: counts and the "
       "product-preserving set",
       ["stabilizer-candidates", "stabilizer-metric-count",
        "stabilizer-product-set", "stabilizer-product-subset",
        "stabilizer-metric-group"])
def check_stabilizer() -> list[CheckReport]:
    rep = stab.search()
    identity = [[list(range(DIM)), [1] * DIM]]
    return [
        _cmp("stabilizer-candidates", claims.STABILIZER_CANDIDATES,
             "claimed", rep.candidates),
        _cmp("stabilizer-metric-count", claims.METRIC_PRESERVING_COUNT,
             "claimed", len(rep.metric),
             details={"metric_preserving": _perm_sign_list(rep.metric)},
             record_only=True),
        _cmp("stabilizer-product-set", identity, "claimed",
             _perm_sign_list(rep.product)),
        _cmp("stabilizer-product-subset", True, "derived",
             rep.product_subset_of_metric),
        _cmp("stabilizer-metric-group", True, "derived",
             rep.metric_closed_under_group_ops,
             details="closed under composition and inverse"),
    ]


@check("rotation-automorphism",
       "The rotation map is an exact order-three isometric algebra automorphism",
       ["tau-order-three", "tau-isometry", "tau-octonion-automorphism",
        "tau-nontrivial"])
def check_tau() -> list[CheckReport]:
    # on the matrices themselves: tau^3 = 1, and the images of the basis
    # keep all 64 inner products
    basis = tuple(basis_element(k) for k in range(DIM))
    is_identity = TAU2.compose(TAU).images == basis
    isometry = all(gx.inner(gy) == x.inner(y)
                   for x, gx in zip(basis, TAU.images) for y, gy in zip(basis, TAU.images))
    automorphism = TAU.preserved_pairs(oct_mul) == DIM * DIM
    nontrivial = TAU.images[2] != basis[2] and TAU2.images[2] != basis[2]
    return [
        _cmp("tau-order-three", True, "derived", is_identity,
             details="matrix cube equals the identity"),
        _cmp("tau-isometry", True, "claimed", isometry),
        _cmp("tau-octonion-automorphism", True, "claimed", automorphism),
        _cmp("tau-nontrivial", True, "trivial", nontrivial),
    ]


@check("tau-arithmetic-remark",
       "The rotation map is an Okubo automorphism over K but not a stabilizer of "
       "the scaled order",
       ["tau-okubo-automorphism", "tau-u2-nonintegral", "tau2-u2-nonintegral",
        "tau-u2-u0-coefficient", "tau2-u2-u0-coefficient"])
def check_tau_membership() -> list[CheckReport]:
    rep = stab.tau_membership()
    return [
        _cmp("tau-okubo-automorphism", rep.automorphism_pairs_total,
             "derived", rep.automorphism_pairs_ok,
             details="exact on all basis pairs over K"),
        _cmp("tau-u2-nonintegral", True, "claimed", not rep.tau_u2_integral,
             details={"tau_u2": [str(c) for c in rep.tau_u2_coords]}),
        _cmp("tau2-u2-nonintegral", True, "claimed", not rep.tau2_u2_integral),
        _cmp("tau-u2-u0-coefficient", str(claims.TAU_U2_U0),
             "claimed", str(rep.tau_u2_u0_coefficient), record_only=True),
        _cmp("tau2-u2-u0-coefficient", str(claims.TAU2_U2_U0),
             "claimed", str(rep.tau2_u2_u0_coefficient), record_only=True),
    ]


# ---------------------------------------------------------------------------
# bridges and the matrix realization
# ---------------------------------------------------------------------------


@check("product-bridge-table",
       "All conversion identities between the three products",
       [f"bridge-{name}"
        for name in sorted([*BRIDGE_PAIR_IDENTITIES, *BRIDGE_UNARY_IDENTITIES])])
def check_bridges(seed: int = 0) -> list[CheckReport]:
    return [
        _cmp(f"bridge-{name}", 0, "claimed", len(data["failures"]),
             details=f"{data['checked']} comparisons")
        for name, data in sorted(bridge_identities(seed=seed).items())
    ]


@check("matrix-realization",
       "The Hermitian-matrix product: idempotent, laws, signature, Kaplansky "
       "recovery",
       ["matrix-idempotent", "matrix-flexibility", "matrix-composition",
        "matrix-form-associativity", "matrix-type-closure", "matrix-signature",
        "matrix-no-unit", "kaplansky-unit", "kaplansky-alternative",
        "kaplansky-composition", "matrix-jordan-commutative",
        "matrix-cross-realization"])
def check_matrix_laws(seed: int = 0) -> list[CheckReport]:
    pool = om.sample_pool(seed)
    rep = om.verify_laws(pool)
    krep = om.kaplansky_report(pool)
    xrep = om.cross_realization_report()
    x, y = pool.matrices[0], pool.matrices[1]
    jordan_comm = om.jordan_product(x, y) == om.jordan_product(y, x)

    return [
        _cmp("matrix-idempotent", True, "claimed", rep.idempotent_ok,
             details="reference idempotent squares to itself with norm one"),
        _cmp("matrix-flexibility", 0, "claimed",
             rep.flexibility_failures, details=f"{om.SAMPLES} seeded samples"),
        _cmp("matrix-composition", 0, "derived", rep.composition_failures),
        _cmp("matrix-form-associativity", 0, "claimed",
             rep.form_associativity_failures),
        _cmp("matrix-type-closure", 0, "trivial",
             rep.hermitian_traceless_failures,
             details="products stay Hermitian traceless"),
        _cmp("matrix-signature", True, "claimed", rep.gram_pivots_positive,
             details="all eight exact pivots positive: signature (8,0)"),
        _cmp("matrix-no-unit", True, "claimed", rep.no_two_sided_unit,
             details="searched class: plus/minus the eight basis matrices"),
        _cmp("kaplansky-unit", [True, True], "claimed",
             [krep.unit_left_ok, krep.unit_right_ok]),
        _cmp("kaplansky-alternative", 0, "derived",
             krep.alternativity_failures, details=f"{om.SAMPLES} samples"),
        _cmp("kaplansky-composition", 0, "derived", krep.composition_failures),
        _cmp("matrix-jordan-commutative", True, "derived", jordan_comm,
             details="symmetrized product with real coefficient is commutative"),
        _cmp("matrix-cross-realization", 0, "claimed", xrep.identity_mismatches,
             details={"total": xrep.total, "best_signs": list(xrep.best_signs),
                      "best_mismatches": xrep.best_mismatches},
             record_only=True),
    ]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@check("classical-catalog-table",
       "Unit counts and lattice invariants of the classical integral sets",
       [f"catalog-{n}" for n in claims.CLASSICAL_TABLE])
def check_catalog(name: str | None = None) -> list[CheckReport]:
    names = claims.CLASSICAL_TABLE if name is None else (name,)
    out = []
    for n in names:
        rep = cat.verify_classical(cat.build_classical(n))
        units, _, det, mn, kissing = claims.CLASSICAL_TABLE[n]
        expected = {
            "units": units,
            "closed": True,
            "det": det,
            "min": mn,
            "kissing": kissing,
            "integral": True,
        }
        actual = {
            "units": rep.unit_count,
            "closed": rep.units_closed and rep.inverses_present,
            "det": rep.det,
            "min": rep.minimum,
            "kissing": rep.kissing,
            "integral": rep.constants_integral and rep.trace_norm_integral,
        }
        out.append(_cmp(f"catalog-{n}", expected, "claimed", actual))
    return out


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------


def run_all(seed: int = 0) -> list[CheckReport]:
    """Run every declared group and return reports sorted by id."""
    reports = []
    for group in REGISTRY.values():
        reports += group(seed=seed)
    return sorted(reports, key=lambda r: r.check)


_DOCS_HEADER = """\
# Claim-to-check mapping

Every certified claim (anchor) maps to the check ids that certify it.
Each row is one `@check` group of `src/okubo_e8/checks.py`, and this file
is rendered from them (`python -m okubo_e8.checks > docs/checks.md`).
The map is read from `okubo_e8.checks.REGISTRY`; the test suite
verifies that this file is current and that `verify all` emits exactly
these checks.  `verify shells --max 6` adds `shell-n5` and `shell-n6`.

| Anchor | Claim | Check ids |
|---|---|---|
"""


def docs_markdown() -> str:
    """The text of docs/checks.md: one table row per group, by anchor."""
    rows = [
        f"| `{g.anchor}` | {g.claim} | "
        + ", ".join(f"`{cid}`" for cid in sorted(g.ids)) + " |\n"
        for g in sorted(REGISTRY.values(), key=lambda g: g.anchor)
    ]
    return _DOCS_HEADER + "".join(rows)


if __name__ == "__main__":
    print(docs_markdown(), end="")
