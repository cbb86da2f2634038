"""The three composition products, the rotation automorphism, and the
conversion identities, all checked exactly."""

import random
from fractions import Fraction
from math import gcd

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
    oct_mul,
    okubo_mul,
    para_mul,
    random_element,
    tau_apply,
)
from okubo_e8.exact import QUAD_ZERO, QuadExt

HALF = Fraction(1, 2)


def seeded(n=30, seed=11):
    rng = random.Random(seed)
    return [random_element(rng) for _ in range(n)]


def random_nonzero(rng):
    while True:
        x = random_element(rng)
        if x != AlgebraElem.zero():
            return x


# -- naive QuadExt-object references for the integer kernels -----------------


def ref_oct_mul(x, y):
    """The octonion product as one QuadExt multiply and add per table entry."""
    acc = [QUAD_ZERO] * DIM
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            if xi and yj:
                k, s = OCT_TABLE.idx[i][j], OCT_TABLE.sgn[i][j]
                acc[k] = acc[k] + xi * yj if s == 1 else acc[k] - xi * yj
    return AlgebraElem(acc)


def ref_mat_mul(m, n):
    return [[sum((m[r][k] * n[k][c] for k in range(DIM)), QUAD_ZERO)
             for c in range(DIM)] for r in range(DIM)]


def ref_tau_matrix():
    """tau as a QuadExt matrix, column c the image of e_c, from the
    formula of the algebras module docstring: e0, e1, e3, e7 fixed,
    tau(e_a) = -(e_a - sqrt3 e_b)/2 and tau(e_b) = -(e_b + sqrt3 e_a)/2
    on the planes (a, b) = (2, 5) and (4, 6)."""
    m = [[QuadExt(int(r == c)) for c in range(DIM)] for r in range(DIM)]
    for a, b in ((2, 5), (4, 6)):
        m[a][a] = m[b][b] = QuadExt(-HALF)
        m[b][a] = QuadExt(0, HALF)
        m[a][b] = QuadExt(0, -HALF)
    return m


TAU_MATRIX = ref_tau_matrix()
TAU2_MATRIX = ref_mat_mul(TAU_MATRIX, TAU_MATRIX)


def ref_apply(matrix, x):
    """The QuadExt matrix ``matrix`` times the coordinate column of x."""
    return AlgebraElem(
        sum((matrix[r][c] * x.coords[c] for c in range(DIM)), QUAD_ZERO)
        for r in range(DIM)
    )


def ref_para_mul(x, y):
    return ref_oct_mul(x.conjugate(), y.conjugate())


def ref_okubo_mul(x, y):
    return ref_oct_mul(ref_apply(TAU_MATRIX, x.conjugate()),
                       ref_apply(TAU2_MATRIX, y.conjugate()))


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
            assert TAU.apply(x) == tau_apply(x) == ref_apply(TAU_MATRIX, x)
            assert TAU2.apply(x) == tau_apply(x, 2) == ref_apply(TAU2_MATRIX, x)

    def test_integer_columns_rebuild_the_matrix(self):
        for aut, matrix in ((TAU, TAU_MATRIX), (TAU2, TAU2_MATRIX)):
            cols, den = aut.columns
            rebuilt = [[QUAD_ZERO] * DIM for _ in range(DIM)]
            for c, col in enumerate(cols):
                for r, p, q in col:
                    rebuilt[r][c] = QuadExt(Fraction(p, den), Fraction(q, den))
            assert rebuilt == matrix
            assert [list(x.coords) for x in aut.images] == [list(c) for c in zip(*matrix)]

    def test_results_are_fresh_canonical_values(self):
        x, y = ORACLE_INPUTS[3], ORACLE_INPUTS[-1]
        for mul in PRODUCTS.values():
            z = mul(x, y)
            assert all(type(c) is QuadExt for c in z.coords) and len(z.coords) == DIM
            assert z == AlgebraElem(z.coords) and hash(z) == hash(AlgebraElem(z.coords))


# -- QuadExt-object references for the element's own operations -------------

SCALE_FACTORS = (3, Fraction(-3, 4), QuadExt(0, 1), QuadExt(Fraction(2, 5), Fraction(-1, 7)))


def ref_scale(x, factor):
    return AlgebraElem(QuadExt.coerce(factor) * c for c in x.coords)


def ref_inner(x, y):
    return 2 * sum((a * b for a, b in zip(x.coords, y.coords)), QUAD_ZERO)


class TestStoredIntegers:
    def test_operations_against_coordinates(self):
        for x in ORACLE_INPUTS:
            c = x.coords
            assert (-x).coords == tuple(-v for v in c)
            assert x.conjugate().coords == (c[0],) + tuple(-v for v in c[1:])
            assert x.norm() == sum((v * v for v in c), QUAD_ZERO)
            assert x.trace() == 2 * c[0]
            for factor in SCALE_FACTORS:
                assert x.scale(factor) == ref_scale(x, factor)
            for y in ORACLE_INPUTS[::4]:
                assert (x + y).coords == tuple(a + b for a, b in zip(c, y.coords))
                assert x.inner(y) == ref_inner(x, y)

    def test_results_are_canonical(self):
        for x in ORACLE_INPUTS:
            for y in (x + x, -x, x.conjugate(), x.scale(Fraction(2, 3)), x + -x,
                      oct_mul(x, x), okubo_mul(x, x), tau_apply(x)):
                ints = [v for pair in y._p for v in pair]
                assert y._d > 0 and gcd(y._d, *ints) == 1
                assert all(type(v) is int for v in ints) and len(y._p) == DIM
        assert (ORACLE_INPUTS[0] + -ORACLE_INPUTS[0])._d == 1

    def test_equal_values_built_different_ways(self):
        x = ORACLE_INPUTS[-1]
        ways = [
            x,
            AlgebraElem(x.coords),
            AlgebraElem(QuadExt(v.rat, v.irr) for v in x.coords),
            x.scale(6).scale(Fraction(1, 6)),
            (x + x).scale(HALF),
            -(-x),
            x.conjugate().conjugate(),
            x + AlgebraElem.zero(),
            tau_apply(tau_apply(tau_apply(x))),
        ]
        for y in ways:
            assert y == x and hash(y) == hash(x) and y.coords == x.coords
        one = [AlgebraElem([1] + [0] * 7), AlgebraElem([Fraction(4, 4)] + [0] * 7),
               AlgebraElem([QuadExt(1)] + [QuadExt(0)] * 7),
               basis_element(3) + -basis_element(3) + basis_element(0)]
        assert len(set(one)) == 1 and one[0] == AlgebraElem.one()
        assert x != x.scale(2) and x != x.conjugate()

    def test_immutable(self):
        x = ORACLE_INPUTS[0]
        for name in ("_p", "_d", "coords", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)

    def test_wrong_length(self):
        for n in (0, 7, 9):
            with pytest.raises(ValueError, match="need 8 coordinates"):
                AlgebraElem([1] * n)


def table_violations(table):
    """Unit law, imaginary squares, anticommutativity and alternativity of
    a sign/index table; the list of violations, empty for a valid
    alternative composition table."""

    def entry(i, j):  # (k, s) with e_i * e_j = s * e_k
        return table.idx[i][j], table.sgn[i][j]

    bad = []
    for j in range(DIM):
        if entry(0, j) != (j, 1) or entry(j, 0) != (j, 1):
            bad.append(f"unit law fails at {j}")
    for i in range(1, DIM):
        if entry(i, i) != (0, -1):
            bad.append(f"square law fails at {i}")
        for j in range(1, DIM):
            (k, s), (k2, s2) = entry(i, j), entry(j, i)
            if i != j and (k2 != k or s2 != -s):
                bad.append(f"anticommutativity fails at ({i},{j})")
    for i in range(DIM):
        for j in range(DIM):
            x, y = basis_element(i), basis_element(j)
            if oct_mul(x, oct_mul(x, y)) != oct_mul(oct_mul(x, x), y):
                bad.append(f"left alternativity fails at ({i},{j})")
            if oct_mul(oct_mul(y, x), x) != oct_mul(y, oct_mul(x, x)):
                bad.append(f"right alternativity fails at ({i},{j})")
    return bad


class TestMultTable:
    def test_table_valid(self):
        assert table_violations(OCT_TABLE) == []

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


def inner_via_products(x, y):
    """<x,y> from x*conj(y) + y*conj(x); ArithmeticError if not scalar."""
    z = oct_mul(x, y.conjugate()) + oct_mul(y, x.conjugate())
    if any(z.coords[1:]):
        raise ArithmeticError("polarization did not produce a scalar")
    return z.coords[0]


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
            formula = AlgebraElem.one().scale(x.inner(AlgebraElem.one())) + -x
            assert formula == x.conjugate()
            # conj(x) * x = n(x) e0
            assert oct_mul(x.conjugate(), x) == AlgebraElem.one().scale(x.norm())

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
                assert mul(x, y) != AlgebraElem.zero()


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
        ident = [[QuadExt(int(r == c)) for c in range(DIM)] for r in range(DIM)]
        assert ref_mat_mul(TAU2_MATRIX, TAU_MATRIX) == ident
        assert TAU2.compose(TAU).images == tuple(basis_element(k) for k in range(DIM))
        assert TAU.compose(TAU) == TAU2
        assert TAU.compose(TAU2.compose(TAU)) == TAU


def para_idempotent(v):
    """Whether -1/2 + v is idempotent for the para product, for v
    imaginary; it is exactly when n(v) = 3/4."""
    if v.coords[0]:
        raise ValueError("v must be imaginary (zero coordinate on e0)")
    x = AlgebraElem.one().scale(-HALF) + v
    return para_mul(x, x) == x


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
        assert para_idempotent(v)
        assert not para_idempotent(basis_element(1))
        assert para_idempotent(basis_element(5).scale(QuadExt(0, HALF)))

    def test_imaginary_precondition(self):
        # off the imaginary hyperplane the idempotent 1 = -1/2 + (3/2) e0
        # has no norm 3/4, so the sphere statement needs v imaginary
        one = AlgebraElem.one()
        assert para_mul(one, one) == one
        with pytest.raises(ValueError):
            para_idempotent(one.scale(3 * HALF))


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
