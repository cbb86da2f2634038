"""The three composition products, the rotation automorphism, and the
conversion identities, all checked exactly."""

import random
from fractions import Fraction

import pytest

from okubo_e8.algebras import (
    DIM,
    OCT_TABLE,
    TAU,
    TAU2,
    AlgebraElem,
    PRODUCTS,
    basis_element,
    bridge_identities,
    inner_via_products,
    oct_mul,
    okubo_mul,
    para_idempotent_check,
    para_mul,
    random_element,
    random_nonzero,
    tau_apply,
)
from okubo_e8.exact import QUAD_ZERO, QuadExt

HALF = Fraction(1, 2)


def seeded(n=30, seed=11):
    rng = random.Random(seed)
    return [random_element(rng) for _ in range(n)]


# -- naive QuadExt-object references for the integer kernels -----------------


def ref_oct_mul(x, y):
    """The octonion product as one QuadExt multiply and add per table entry."""
    acc = [QUAD_ZERO] * DIM
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            if xi and yj:
                k, s = OCT_TABLE.mul_basis(i, j)
                acc[k] = acc[k] + xi * yj if s == 1 else acc[k] - xi * yj
    return AlgebraElem(acc)


def ref_apply(aut, x):
    """The matrix of ``aut`` times the coordinate column of x."""
    return AlgebraElem(
        sum((aut.matrix[r][c] * x.coords[c] for c in range(DIM)), QUAD_ZERO)
        for r in range(DIM)
    )


def ref_para_mul(x, y):
    return ref_oct_mul(x.conjugate(), y.conjugate())


def ref_okubo_mul(x, y):
    return ref_oct_mul(ref_apply(TAU, x.conjugate()), ref_apply(TAU2, y.conjugate()))


REF_PRODUCTS = {"octonion": ref_oct_mul, "para": ref_para_mul, "okubo": ref_okubo_mul}


def oracle_inputs():
    """Elements with mixed denominators, within an element and between
    elements: seeded samples at several denominators, scaled samples, a
    hand-made element, and products of products."""
    rng = random.Random(31)
    pool = [random_element(rng, span=3, denominator=d, with_irrational=d % 2 == 0)
            for d in (1, 2, 3, 4, 5, 6, 7, 12)]
    pool += [x.scale(QuadExt(Fraction(2, 5), Fraction(1, 7))) for x in pool[:3]]
    pool.append(AlgebraElem([Fraction(1, 3), QuadExt(0, Fraction(1, 5)), 7,
                             QuadExt(Fraction(-5, 4), 2), 0, Fraction(9, 8), -1,
                             QuadExt(Fraction(1, 6), Fraction(1, 10))]))
    for x, y in list(zip(pool, pool[1:]))[:5]:
        pool.append(ref_okubo_mul(ref_oct_mul(x, y), ref_para_mul(y, x)))
    return pool


ORACLE_INPUTS = oracle_inputs()


class TestKernelOracle:
    def test_inputs_have_mixed_denominators(self):
        dens = {c.triple[2] for x in ORACLE_INPUTS for c in x.coords}
        assert len(dens) > 10 and max(dens) > 100
        assert any(len({c.triple[2] for c in x.coords}) > 3 for x in ORACLE_INPUTS)

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_basis_pairs(self, name):
        mul, ref = PRODUCTS[name], REF_PRODUCTS[name]
        for i in range(DIM):
            for j in range(DIM):
                x, y = basis_element(i), basis_element(j)
                assert mul(x, y) == ref(x, y), (name, i, j)

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_mixed_denominators(self, name):
        mul, ref = PRODUCTS[name], REF_PRODUCTS[name]
        for x in ORACLE_INPUTS:
            for y in ORACLE_INPUTS[::3]:
                assert mul(x, y) == ref(x, y), name

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_products_of_products(self, name):
        mul, ref = PRODUCTS[name], REF_PRODUCTS[name]
        for x, y in zip(ORACLE_INPUTS, ORACLE_INPUTS[1:]):
            xy, yx = ref(x, y), ref(y, x)
            assert mul(mul(x, y), mul(y, x)) == ref(xy, yx), name
            assert mul(mul(xy, x), yx) == ref(ref(xy, x), yx), name

    def test_rotation(self):
        for x in [basis_element(k) for k in range(DIM)] + ORACLE_INPUTS:
            assert TAU.apply(x) == tau_apply(x) == ref_apply(TAU, x)
            assert TAU2.apply(x) == tau_apply(x, 2) == ref_apply(TAU2, x)

    def test_integer_columns_rebuild_the_matrix(self):
        for aut in (TAU, TAU2):
            cols, den = aut.columns
            rebuilt = [[QUAD_ZERO] * DIM for _ in range(DIM)]
            for c, col in enumerate(cols):
                for r, p, q in col:
                    rebuilt[r][c] = QuadExt(Fraction(p, den), Fraction(q, den))
            assert [list(row) for row in aut.matrix] == rebuilt

    def test_results_are_fresh_canonical_values(self):
        x, y = ORACLE_INPUTS[3], ORACLE_INPUTS[-1]
        for mul in PRODUCTS.values():
            z = mul(x, y)
            assert all(type(c) is QuadExt for c in z.coords) and len(z.coords) == DIM
            assert z == AlgebraElem(z.coords) and hash(z) == hash(AlgebraElem(z.coords))


class TestMultTable:
    def test_table_valid(self):
        assert OCT_TABLE.verify() == []

    def test_convention_id(self):
        assert OCT_TABLE.convention == "cd1946"

    def test_unit_and_squares(self):
        x = seeded(1)[0]
        assert oct_mul(AlgebraElem.one(), x) == x
        assert oct_mul(x, AlgebraElem.one()) == x
        assert oct_mul(basis_element(1), basis_element(1)) == -AlgebraElem.one()

    def test_octonion_alternative_on_samples(self):
        pool = seeded(8)
        for x in pool:
            for y in pool[:4]:
                assert oct_mul(x, oct_mul(x, y)) == oct_mul(oct_mul(x, x), y)
                assert oct_mul(oct_mul(y, x), x) == oct_mul(y, oct_mul(x, x))


class TestNormAndInner:
    def test_composition_on_basis_pairs(self):
        for name, mul in PRODUCTS.items():
            for i in range(DIM):
                for j in range(DIM):
                    x, y = basis_element(i), basis_element(j)
                    assert mul(x, y).norm() == x.norm() * y.norm(), name

    def test_composition_on_samples(self):
        pool = seeded(102, seed=5)
        for name, mul in PRODUCTS.items():
            for idx, x in enumerate(pool):
                y = pool[(idx * 7 + 1) % len(pool)]
                assert mul(x, y).norm() == x.norm() * y.norm(), name

    def test_polarization(self):
        pool = seeded(20, seed=7)
        for x in pool:
            assert x.inner(x) == 2 * x.norm()
        for x, y in zip(pool, pool[1:]):
            assert x.inner(y) == inner_via_products(x, y)

    def test_conjugation(self):
        for x in seeded(10, seed=9):
            # <x,1> 1 - x agrees with coordinate negation
            formula = AlgebraElem.one().scale(x.inner(AlgebraElem.one())) - x
            assert formula == x.conjugate()
            # conj(x) * x = n(x) e0
            assert oct_mul(x.conjugate(), x) == AlgebraElem.scalar(x.norm())

    def test_unit_conj_norm_trace_inner(self):
        e0 = basis_element(0)
        assert e0.conjugate() == e0
        assert e0.norm() == QuadExt(1)
        assert e0.trace() == QuadExt(2)
        assert e0.inner(e0) == QuadExt(2)
        e3 = basis_element(3)
        assert e3.conjugate() == -e3
        assert e3.norm() == QuadExt(1)
        assert e3.trace() == QuadExt(0)
        assert e3.inner(e3) == QuadExt(2)

    def test_zero_divisor_freeness(self):
        rng = random.Random(23)
        for _ in range(25):
            x, y = random_nonzero(rng), random_nonzero(rng)
            for mul in PRODUCTS.values():
                assert not mul(x, y).is_zero()


class TestTau:
    def test_matrix_shape(self):
        s3half = QuadExt(0, HALF)
        assert tau_apply(basis_element(2)) == basis_element(2).scale(-HALF) + (
            basis_element(5).scale(s3half)
        )
        for k in (0, 1, 3, 7):
            assert tau_apply(basis_element(k)) == basis_element(k)

    def test_order_three(self):
        for x in seeded(6, seed=13):
            assert tau_apply(tau_apply(tau_apply(x))) == x
            assert tau_apply(tau_apply(x)) == tau_apply(x, 2)
        assert tau_apply(basis_element(2)) != basis_element(2)
        assert tau_apply(basis_element(2), 2) != basis_element(2)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            tau_apply(basis_element(1), 3)

    def test_automorphism_and_isometry(self):
        for i in range(DIM):
            for j in range(DIM):
                x, y = basis_element(i), basis_element(j)
                assert tau_apply(oct_mul(x, y)) == oct_mul(tau_apply(x), tau_apply(y))
        for x in seeded(8, seed=17):
            assert tau_apply(x).norm() == x.norm()

    def test_aut_matrix_invariant(self):
        cube = TAU2.compose(TAU, 1)
        ident = [[QuadExt(int(r == c)) for c in range(DIM)] for r in range(DIM)]
        assert [list(r) for r in cube.matrix] == ident
        assert TAU.order == 3


class TestPara:
    def test_paraunit_conjugates(self):
        one = AlgebraElem.one()
        assert para_mul(one, basis_element(2)) == -basis_element(2)
        assert para_mul(one, one) == one

    def test_no_two_sided_unit(self):
        one = AlgebraElem.one()
        assert any(
            para_mul(one, basis_element(k)) != basis_element(k) for k in range(DIM)
        )

    def test_idempotent_sphere(self):
        v = (basis_element(1) + basis_element(2) + basis_element(3)).scale(HALF)
        assert para_idempotent_check(v)
        assert not para_idempotent_check(basis_element(1))
        assert para_idempotent_check(basis_element(5).scale(QuadExt(0, HALF)))

    def test_imaginary_precondition(self):
        with pytest.raises(ValueError):
            para_idempotent_check(AlgebraElem.one())


class TestOkubo:
    def test_unit_is_idempotent(self):
        one = AlgebraElem.one()
        assert okubo_mul(one, one) == one

    def test_flexible(self):
        pool = seeded(24, seed=29)
        for x, y in zip(pool, pool[1:]):
            assert okubo_mul(x, okubo_mul(y, x)) == okubo_mul(okubo_mul(x, y), x)

    def test_not_alternative_witness(self):
        # frozen witness pair: left alternativity fails on (e1, e2)
        x, y = basis_element(1), basis_element(2)
        assert okubo_mul(x, okubo_mul(x, y)) != okubo_mul(okubo_mul(x, x), y)

    def test_no_unit_no_paraunit(self):
        # no basis candidate acts as a two-sided unit, and the octonion
        # unit is not a paraunit for the Okubo product
        for k in range(DIM):
            cand = basis_element(k)
            assert any(
                okubo_mul(cand, basis_element(m)) != basis_element(m)
                or okubo_mul(basis_element(m), cand) != basis_element(m)
                for m in range(DIM)
            )
        one = AlgebraElem.one()
        assert any(
            okubo_mul(one, basis_element(m)) != basis_element(m).conjugate()
            for m in range(DIM)
        )


class TestBridges:
    def test_all_identities_hold(self):
        rep = bridge_identities(seed=3, samples=10)
        for name, data in rep.items():
            assert data["failures"] == [], name
        # the pair identities cover all 64 basis pairs
        assert rep["okubo-from-para"]["checked"] >= 64

    def test_determinism(self):
        assert bridge_identities(seed=1) == bridge_identities(seed=1)


class TestRandomElements:
    def test_seeded_reproducible(self):
        a = random_element(random.Random(42))
        b = random_element(random.Random(42))
        assert a == b
