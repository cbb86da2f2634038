"""The Coxeter-Dickson order: Gram, units, structure constants, closure,
and the diagonal scaling."""

import random
from fractions import Fraction

import pytest

from okubo_e8 import claims
from okubo_e8.algebras import DIM, PRODUCTS, AlgebraElem
from okubo_e8.exact import QuadExt, RingTag
from okubo_e8.lattice import mat_det
from okubo_e8.orders import (
    cd_basis,
    cd_basis_and_gram,
    cd_gram,
    cd_lattice,
    closure_test,
    coords_in_order_basis,
    denominator_profile,
    dump_structure_constants,
    letters,
    parse_structure_constants,
    scaled_constants,
    scaled_order_verify,
    scaling_feasible,
    scaling_search,
    structure_constants,
    unit_shapes,
    units240,
)

HALF = Fraction(1, 2)

#: frozen mismatching norm cross terms under the pinned convention:
#: ((i, j), computed coefficient, claimed coefficient)
EXPECTED_NORM_MISMATCHES = (
    ((1, 7), -1, 0),
    ((2, 5), -1, 1),
    ((2, 7), 1, 0),
    ((3, 5), 1, 0),
    ((3, 6), -1, 0),
)

#: frozen expansion of b0 * b2 under the pinned convention
EXPECTED_B0B2 = (
    QuadExt(0, HALF),
    QuadExt(0, HALF),
    QuadExt(HALF, -HALF),
    QuadExt(0),
    QuadExt(0),
    QuadExt(0),
    QuadExt(0),
    QuadExt(0, 1),
)


class TestBasisAndGram:
    def test_gram_is_e8(self):
        basis, gram, _ = cd_basis_and_gram()
        assert gram[0][0] == 2
        assert all(gram[i][i] == 2 for i in range(DIM))
        assert mat_det([list(r) for r in gram]) == 1
        assert gram == tuple(tuple(r) for r in zip(*gram))  # symmetric

    def test_trace_formula_matches(self):
        _, _, cmp_rec = cd_basis_and_gram()
        assert cmp_rec.trace_matches
        assert cmp_rec.trace_computed[4] == QuadExt(0)  # tr(h) = 0

    def test_norm_formula_mismatches_recorded(self):
        _, _, cmp_rec = cd_basis_and_gram()
        assert cmp_rec.norm_mismatches == EXPECTED_NORM_MISMATCHES

    def test_letters_are_units(self):
        for name, el in letters().items():
            assert el.norm() == QuadExt(1), name


class TestUnits240:
    def test_report(self):
        _, rep = units240()
        assert rep.count == 240
        assert rep.shape_count == 240
        assert rep.shapes_all_present
        assert rep.closure_failures == 0
        assert rep.norm_failures == 0
        assert rep.inverses_present

    def test_half_unit_example(self):
        lt = letters()
        candidate = (lt["1"] + lt["j"] + lt["k"] + lt["il"]).scale(HALF)
        els, _ = units240()
        assert candidate in set(els)

    def test_shapes_distinct(self):
        shapes = unit_shapes()
        assert len(set(shapes)) == 240


class TestStructureConstants:
    @pytest.mark.parametrize("product", ["octonion", "para", "okubo"])
    def test_reconstruction(self, product):
        basis = cd_basis()
        constants = structure_constants(product)
        mul = PRODUCTS[product]
        for i in range(DIM):
            for j in range(DIM):
                assert basis.element(constants.c[i][j]) == mul(basis[i], basis[j])

    def test_octonion_constants_integral(self):
        profile = denominator_profile(structure_constants("octonion"))
        assert profile == {1: 512}

    def test_para_constants_rational(self):
        constants = structure_constants("para")
        assert all(v.irr == 0 for _, _, _, v in constants.all_entries())

    def test_okubo_constants_have_irrational_part(self):
        constants = structure_constants("okubo")
        assert any(v.irr != 0 for _, _, _, v in constants.all_entries())

    def test_okubo_denominators(self):
        profile = denominator_profile(structure_constants("okubo"))
        assert set(profile) <= {1, 2, 4}
        assert sum(profile.values()) == 512

    def test_b0_b2_expansion_frozen(self):
        constants = structure_constants("okubo")
        assert constants.c[0][2] == EXPECTED_B0B2

    def test_singular_basis_rejected(self):
        from okubo_e8.orders import OrderBasis, SingularBasisError

        bad = OrderBasis((AlgebraElem.one(),) * DIM, "degenerate")
        with pytest.raises(SingularBasisError):
            structure_constants("octonion", bad)

    def test_coords_in_order_basis(self):
        basis = cd_basis()
        x = basis[5] + basis[0].scale(QuadExt(0, 2))
        coords = coords_in_order_basis(x, basis)
        assert coords[5] == QuadExt(1)
        assert coords[0] == QuadExt(0, 2)


class TestDumpFormat:
    def test_round_trip(self):
        constants = structure_constants("okubo")
        text = dump_structure_constants(constants)
        parsed = parse_structure_constants(text, product="okubo")
        assert parsed.c == constants.c
        line = text.splitlines()[0].split()
        assert len(line) == 5

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ValueError):
            parse_structure_constants("0 0 0 1/1\n")

    def test_parse_requires_all_entries(self):
        with pytest.raises(ValueError):
            parse_structure_constants("0 0 0 1/1 0/1\n")

    @staticmethod
    def _tampered(first_line):
        lines = dump_structure_constants(structure_constants("para")).splitlines()
        return "\n".join([first_line] + lines[1:]) + "\n"

    def test_parse_rejects_negative_index(self):
        # -8 would otherwise wrap around to c[0]
        with pytest.raises(ValueError, match="out of range"):
            parse_structure_constants(self._tampered("-8 0 0 1/1 0/1"))

    def test_parse_rejects_index_past_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_structure_constants(self._tampered("9 0 0 1/1 0/1"))

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_structure_constants(self._tampered("0 0 0 1/0 0/1"))

    def test_parse_rejects_duplicate_entry(self):
        text = dump_structure_constants(structure_constants("para"))
        with pytest.raises(ValueError, match="duplicate"):
            parse_structure_constants(text + "0 0 0 1/1 0/1\n")


class TestClosure:
    def test_para_closed_over_z(self):
        rep = closure_test(structure_constants("para"), RingTag.Z)
        assert rep.violations == () and rep.trace_norm_ok

    def test_octonion_closed_over_z(self):
        rep = closure_test(structure_constants("octonion"), RingTag.Z)
        assert rep.violations == () and rep.trace_norm_ok

    def test_okubo_obstruction(self):
        rep_r = closure_test(structure_constants("okubo"), RingTag.ZSQRT3)
        assert rep_r.violations
        halves = [v for (_, _, _, v) in rep_r.violations if v.irr.denominator == 2]
        assert halves  # odd/2 * sqrt(3) witnesses
        assert all(v.irr.numerator % 2 == 1 for v in halves)
        rep_z = closure_test(structure_constants("okubo"), RingTag.Z)
        assert rep_z.violations

    def test_okubo_b0_witness(self):
        # the b0-coefficient of b0 * b2 is neither in Z nor in Z[sqrt3]
        v = structure_constants("okubo").c[0][2][0]
        assert not RingTag.Z.contains(v)
        assert not RingTag.ZSQRT3.contains(v)
        assert v.irr.denominator == 2


class TestScaling:
    def test_minimal_unique(self):
        res = scaling_search(structure_constants("okubo"), 3)
        assert [m.exponents for m in res.minimal] == [claims.SCALING_EXPONENTS]
        assert res.feasible_count > 0

    def test_minimality_certificate(self):
        constants = structure_constants("okubo")
        ref = claims.SCALING_EXPONENTS
        assert scaling_feasible(constants, ref)
        for m in range(DIM):
            dec = tuple(v - (1 if t == m else 0) for t, v in enumerate(ref))
            assert not scaling_feasible(constants, dec)

    def test_octonion_identity_scaling(self):
        # the unital constants are already integral, so the zero vector is
        # feasible and is the unique minimum (exercises the trivial branch)
        constants = structure_constants("octonion")
        assert scaling_feasible(constants, (0,) * DIM)
        res = scaling_search(constants, 3)
        assert [m.exponents for m in res.minimal] == [(0,) * DIM]

    def test_max_exp_guard(self):
        with pytest.raises(ValueError):
            scaling_search(structure_constants("okubo"), 1)

    def test_scaling_covariance(self):
        # oracle: structure constants of the rescaled basis computed from
        # scratch agree with the transformation formula
        from okubo_e8.orders import OrderBasis

        rng = random.Random(6)
        constants = structure_constants("okubo")
        basis = cd_basis()
        for _ in range(3):
            diag = tuple(2 ** rng.randint(0, 2) for _ in range(DIM))
            scaled = scaled_constants(constants, diag)
            rescaled_basis = OrderBasis(
                tuple(b.scale(d) for b, d in zip(basis.elements, diag)),
                f"rescaled-{diag}",
            )
            direct = structure_constants("okubo", rescaled_basis)
            assert direct.c == scaled

    def test_scaled_order_verify(self):
        rep = scaled_order_verify(claims.SCALING_EXPONENTS)
        assert rep.violations == () and rep.all_integral
        assert rep.norm_values[0] == QuadExt(4)  # n(2 b0) = 4
        # <u4, u4> = 16 * <b4, b4> = 32
        assert rep.inner_values[4 * DIM + 4] == QuadExt(32)

    def test_unscaled_fails(self):
        rep = scaled_order_verify((0,) * DIM)
        assert rep.violations or not rep.all_integral


def _two_adic(q):
    """Exponent of 2 in the denominator of the Fraction q."""
    d, e = q.denominator, 0
    while d % 2 == 0:
        d //= 2
        e += 1
    return e


def ref_valuation_constraints(constants):
    """valuation_constraints from the Fraction parts: v is the larger
    2-adic denominator exponent of the two, and an odd denominator factor
    in either part gives None."""
    cons = []
    for i, j, k, v in constants.all_entries():
        if not v:
            continue
        if any(f.denominator >> _two_adic(f) != 1 for f in (v.rat, v.irr)):
            return None
        val = max(_two_adic(v.rat), _two_adic(v.irr))
        if val > 0:
            cons.append((i, j, k, val))
    cons.sort(key=lambda t: -t[3])
    return tuple(cons)


class TestValuationConstraints:
    @pytest.mark.parametrize("product", ["octonion", "para", "okubo"])
    def test_against_fraction_formula(self, product):
        constants = structure_constants(product)
        assert constants.valuation_constraints == ref_valuation_constraints(constants)

    def test_okubo_has_constraints_of_both_sizes(self):
        cons = structure_constants("okubo").valuation_constraints
        assert {v for *_, v in cons} == {1, 2}

    def test_saturated_basis_okubo_constants(self):
        from okubo_e8.lattice import glue_and_saturate
        from okubo_e8.orders import OrderBasis, conductor_lattice

        cd = cd_basis()
        sat = glue_and_saturate(conductor_lattice(), cd_lattice(), 2).saturation
        saturated = OrderBasis(tuple(cd.element(r) for r in sat.basis), "saturated")
        constants = structure_constants("okubo", saturated)
        assert constants.valuation_constraints == ref_valuation_constraints(constants)

    @pytest.mark.parametrize("entry", ["0/1 1/3", "1/12 0/1"])
    def test_odd_denominator_is_none(self, entry):
        lines = dump_structure_constants(structure_constants("okubo")).splitlines()
        lines[5] = " ".join(lines[5].split()[:3]) + " " + entry
        constants = parse_structure_constants("\n".join(lines) + "\n")
        assert ref_valuation_constraints(constants) is None
        assert constants.valuation_constraints is None


class TestLatticeHooks:
    def test_cd_lattice_gram(self):
        assert cd_lattice().gram() == [
            [Fraction(v) for v in row] for row in cd_gram()
        ]

    def test_okubo_product_of_units_leaves_order(self):
        # multiplicativity failure is visible on elements too: b0 * b2 has
        # a coordinate outside Z over the order basis
        from okubo_e8.algebras import okubo_mul

        basis = cd_basis()
        prod = okubo_mul(basis[0], basis[2])
        coords = coords_in_order_basis(prod, basis)
        assert any(not RingTag.ZSQRT3.contains(c) for c in coords)


# -- oracles for the one coordinate map -----------------------------------------


def _units240_reference():
    """The unit enumeration as it stood before the integer path: algebra
    element sums of the enumerated order vectors, sorted by (rat, irr)."""
    from okubo_e8._kernels import unit_closure_failures
    from okubo_e8.algebras import OCT_TABLE
    from okubo_e8.lattice import short_vectors

    basis = cd_basis()
    elements = []
    for coords, _ in short_vectors(cd_lattice(), 2):
        acc = AlgebraElem.zero()
        for c, b in zip(coords, basis):
            if c:
                acc = acc + b.scale(c)
        elements.append(acc)
    elements = tuple(sorted(elements, key=lambda e: tuple(
        (c.rat, c.irr) for c in e.coords)))
    elem_set = set(elements)
    shapes = unit_shapes()
    vecs2 = [tuple(int(2 * c.rat) for c in el.coords) for el in elements]
    bad_member, bad_norm = unit_closure_failures(vecs2, OCT_TABLE.idx, OCT_TABLE.sgn)
    report = dict(
        count=len(elements),
        shape_count=len(shapes),
        shapes_all_present=all(s in elem_set for s in shapes),
        closure_failures=bad_member,
        norm_failures=bad_norm,
        inverses_present=all(el.conjugate() in elem_set for el in elements),
    )
    return elements, report


def _gram_solve(x, basis):
    """Coordinates of x by the Gram formula G^-1 (<x, b_m>)_m."""
    from okubo_e8.lattice import mat_inv

    elems = list(basis)
    ginv = mat_inv([[bi.inner(bj) for bj in elems] for bi in elems])
    inners = [x.inner(b) for b in elems]
    return tuple(
        sum((inners[m] * ginv[m][k] for m in range(len(elems))), QuadExt(0))
        for k in range(len(elems))
    )


class TestCoordinateMap:
    def test_units240_matches_element_path(self):
        from dataclasses import asdict

        ref_elements, ref_report = _units240_reference()
        elements, report = units240()
        assert len(elements) == len(ref_elements) == 240
        for got, want in zip(elements, ref_elements):
            assert got == want
        assert asdict(report) == ref_report

    def test_solve_matches_gram_formula_on_catalog_rows(self):
        from okubo_e8.algebras import oct_mul
        from okubo_e8.catalog import build_classical, catalog_names

        for name in catalog_names():
            basis = build_classical(name).basis
            for bi in basis:
                for bj in basis:
                    x = oct_mul(bi, bj)
                    assert coords_in_order_basis(x, basis) == _gram_solve(x, basis), name

    @pytest.mark.parametrize("product", ["octonion", "para", "okubo"])
    def test_solve_matches_gram_formula_on_products(self, product):
        basis = cd_basis()
        mul = PRODUCTS[product]
        for bi in basis:
            for bj in basis:
                x = mul(bi, bj)
                assert coords_in_order_basis(x, basis) == _gram_solve(x, basis)

    def test_solve_matches_gram_formula_on_saturated_and_scaled(self):
        from okubo_e8.algebras import okubo_mul, tau_apply
        from okubo_e8.lattice import glue_and_saturate
        from okubo_e8.orders import OrderBasis, conductor_lattice, scaled_basis

        cd = cd_basis()
        sat = glue_and_saturate(conductor_lattice(), cd_lattice(), 2).saturation
        saturated = OrderBasis(tuple(cd.element(r) for r in sat.basis), "saturated")
        for basis in (saturated, scaled_basis()):
            xs = [okubo_mul(bi, bj) for bi in basis for bj in basis]
            xs += [tau_apply(b, 1) for b in basis] + [tau_apply(b, 2) for b in basis]
            for x in xs:
                assert coords_in_order_basis(x, basis) == _gram_solve(x, basis), basis.label

    def test_full_rank_solve_matrix_is_the_inverse(self):
        from okubo_e8.lattice import mat_inv

        basis = cd_basis()
        assert all(not c.irr for b in basis for c in b.coords)
        inverse = mat_inv([[c.rat for c in b.coords] for b in basis])
        assert basis.solve_matrix == tuple(
            tuple(QuadExt(v) for v in row) for row in inverse)
        assert all(type(v) is QuadExt for row in basis.solve_matrix for v in row)

    def test_outside_span_is_none(self):
        from okubo_e8.algebras import basis_element
        from okubo_e8.catalog import build_classical, coords_in_span

        assert coords_in_span(basis_element(7), build_classical("gaussian")) is None

    def test_element_inverts_the_solve(self):
        basis = cd_basis()
        rng = random.Random(11)
        for _ in range(10):
            coords = tuple(QuadExt(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(DIM))
            assert coords_in_order_basis(basis.element(coords), basis) == coords

    def test_gram(self):
        from okubo_e8.orders import OrderBasis

        assert cd_basis().gram() == cd_gram()
        half = OrderBasis((AlgebraElem.one().scale(HALF),), "half")
        with pytest.raises(ArithmeticError):
            half.gram()
