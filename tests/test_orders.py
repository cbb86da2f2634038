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
    reconstruct_product,
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
                assert reconstruct_product(constants, basis, i, j) == mul(
                    basis[i], basis[j]
                )

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
        assert rep.passed
        assert rep.violations == ()

    def test_octonion_closed_over_z(self):
        rep = closure_test(structure_constants("octonion"), RingTag.Z)
        assert rep.passed

    def test_okubo_obstruction(self):
        rep_r = closure_test(structure_constants("okubo"), RingTag.ZSQRT3)
        assert not rep_r.passed
        halves = [v for (_, _, _, v) in rep_r.violations if v.irr.denominator == 2]
        assert halves  # odd/2 * sqrt(3) witnesses
        assert all(v.irr.numerator % 2 == 1 for v in halves)
        rep_z = closure_test(structure_constants("okubo"), RingTag.Z)
        assert not rep_z.passed

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
        assert rep.passed
        assert rep.violations == ()
        assert rep.norm_values[0] == QuadExt(4)  # n(2 b0) = 4
        # <u4, u4> = 16 * <b4, b4> = 32
        assert rep.inner_values[4 * DIM + 4] == QuadExt(32)

    def test_unscaled_fails(self):
        rep = scaled_order_verify((0,) * DIM)
        assert not rep.passed


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
