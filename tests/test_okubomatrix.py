"""The Hermitian-matrix realization: products, laws, Kaplansky recovery,
and the cross-realization diff."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from okubo_e8.algebras import DIM, basis_element, okubo_mul
from okubo_e8 import okubomatrix
from okubo_e8.exact import ComplexQuad, QuadExt, eliminate
from okubo_e8.okubomatrix import (
    HermTraceless3,
    _sign_search,
    build_basis,
    cross_realization_report,
    gram_pivots,
    inner,
    jordan_product,
    kaplansky,
    kaplansky_report,
    matrix_coordinates,
    matrix_mul,
    norm,
    random_matrix,
    verify_laws,
)

# -- a naive ComplexQuad reference for the integer kernel ---------------------

#: mu = 1/2 + (sqrt(3)/6) i of the product formula
MU = ComplexQuad(QuadExt(Fraction(1, 2)), QuadExt(0, Fraction(1, 6)))


def ref_mat_product(x, y):
    return [[sum((x.rows[i][m] * y.rows[m][j] for m in range(3)), ComplexQuad(0))
             for j in range(3)] for i in range(3)]


def ref_trace(rows):
    return rows[0][0] + rows[1][1] + rows[2][2]


def ref_matrix_mul(x, y):
    """MU xy + conj(MU) yx - Tr(xy)/3 I, validated by the constructor."""
    xy, yx = ref_mat_product(x, y), ref_mat_product(y, x)
    third = ComplexQuad(Fraction(1, 3)) * ref_trace(xy)
    return HermTraceless3(
        [[MU * xy[i][j] + MU.conjugate() * yx[i][j] - (third if i == j else 0)
          for j in range(3)] for i in range(3)]
    )


def ref_real_trace(x, y, message):
    tr = ref_trace(ref_mat_product(x, y))
    if tr.im:
        raise ArithmeticError(message)
    return tr.re


def ref_norm(x):
    return ref_real_trace(x, x, "trace of a Hermitian square must be real") * Fraction(1, 6)


def ref_inner(x, y):
    return ref_real_trace(x, y, "polarized trace must be real") * Fraction(1, 3)


def ref_jordan(x, y):
    half = ComplexQuad(Fraction(1, 2))
    return [[half * (a + b) for a, b in zip(ra, rb)]
            for ra, rb in zip(ref_mat_product(x, y), ref_mat_product(y, x))]


def combine(coeffs, mats):
    """sum_k coeffs[k] mats[k] on the ComplexQuad entries, validated by the
    constructor: the coefficients must be real."""
    acc = [[ComplexQuad(0)] * 3 for _ in range(3)]
    for c, m in zip(coeffs, mats):
        c = ComplexQuad.coerce(c)
        acc = [[u + c * v for u, v in zip(ra, rb)] for ra, rb in zip(acc, m.rows)]
    return HermTraceless3(acc)


def unchecked(rows):
    """A 3x3 matrix of any entries, through the integer layout without the
    constructor's check."""
    quints = [ComplexQuad.coerce(v).quintuple for r in rows for v in r]
    den = lcm(*[q[4] for q in quints])
    return okubomatrix._matrix([v * (den // q[4]) for q in quints for v in q[:4]], den)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def kernel_inputs():
    """Pairs (x, y): all basis pairs, seeded samples, and products of
    products, scaled so that the denominators differ."""
    basis = build_basis()
    pairs = [(x, y) for x in basis for y in basis]
    rng = random.Random(11)
    samples = [random_matrix(rng, span=3) for _ in range(12)]
    pairs += list(zip(samples, samples[1:]))
    for x, y in list(zip(samples, samples[1:]))[:6]:
        xy = matrix_mul(x, y)
        big = matrix_mul(matrix_mul(xy, x), combine([QuadExt(Fraction(2, 5), Fraction(1, 7))], [y]))
        pairs += [(xy, big), (big, combine([Fraction(3, 11)], [x])), (big, big)]
    return pairs


KERNEL_INPUTS = kernel_inputs()


class TestKernelOracle:
    def test_inputs_have_mixed_denominators(self):
        dens = {v.quintuple[4] for x, _ in KERNEL_INPUTS for row in x.rows for v in row}
        assert len(dens) > 5 and max(dens) > 100

    def test_matrix_mul(self):
        for x, y in KERNEL_INPUTS:
            assert matrix_mul(x, y) == ref_matrix_mul(x, y)

    def test_norm_and_inner(self):
        for x, y in KERNEL_INPUTS:
            assert norm(x) == ref_norm(x)
            assert inner(x, y) == ref_inner(x, y)

    def test_associative_and_jordan_products(self):
        for x, y in KERNEL_INPUTS:
            rows = okubomatrix._rows(okubomatrix._product(x._q, y._q), x._d * y._d)
            assert [list(r) for r in rows] == ref_mat_product(x, y)
            assert jordan_product(x, y) == ref_jordan(x, y)

    def test_invalid_inputs_rejected_like_reference(self):
        # 3x3 matrices that need be neither Hermitian nor traceless
        rng = random.Random(4)

        def entry():
            return ComplexQuad(QuadExt(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                       rng.randint(-1, 1)),
                               QuadExt(rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 2)))

        basis = build_basis()
        raised = 0
        for n in range(40):
            rows = [[entry() for _ in range(3)] for _ in range(3)]
            if n % 2 == 0:  # a real diagonal, so that Tr(xy) can be real
                for i in range(3):
                    rows[i][i] = ComplexQuad(rows[i][i].re)
            if n % 4 == 0:  # Hermitian, but not traceless
                rows = [[rows[i][j] if i <= j else rows[j][i].conjugate()
                         for j in range(3)] for i in range(3)]
            x = unchecked(rows)
            for y in (basis[0], basis[n % 8], x):
                for a, b in ((x, y), (y, x)):
                    got = outcome(matrix_mul, a, b)
                    assert got == outcome(ref_matrix_mul, a, b)
                    raised += got == (ValueError, "matrix is not Hermitian")
                    assert outcome(inner, a, b) == outcome(ref_inner, a, b)
            assert outcome(norm, x) == outcome(ref_norm, x)
        assert raised > 20


# -- the stored integers against the ComplexQuad entries ----------------------


def ref_validated(rows):
    """The rows as ComplexQuad values, validated as the constructor once did
    on the entries: the shape, then Hermitian, then traceless."""
    rows = tuple(tuple(ComplexQuad.coerce(v) for v in r) for r in rows)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("need a 3x3 matrix")
    if not all(rows[i][j] == rows[j][i].conjugate() for i in range(3) for j in range(3)):
        raise ValueError("matrix is not Hermitian")
    if ref_trace(rows) != ComplexQuad(0):
        raise ValueError("matrix is not traceless")
    return rows


def ref_random_matrix(rng, span):
    """sum_k (c_k/2) basis[k] with one draw per basis matrix in order, on
    ComplexQuad entries."""
    basis = build_basis()
    return combine([Fraction(rng.randint(-span, span), 2) for _ in basis], basis)


def matrix_pool():
    """Matrices with mixed denominators, with equal values built in
    different ways among them."""
    pool = [x for x, _ in KERNEL_INPUTS[::7]] + [y for _, y in KERNEL_INPUTS[-12:]]
    x, e = pool[-1], build_basis()[0]
    pool += [combine([Fraction(1, 3)], [combine([3], [x])]), combine([2, -1], [x, x]),
             -(-x), combine([1, -1], [x, x]), -combine([0], [x]), combine([QuadExt(1)], [e])]
    return pool


class TestStoredIntegers:
    def test_equality_and_hash_follow_the_entries(self):
        pool = matrix_pool()
        equal_pairs = 0
        for a in pool:
            for b in pool:
                same = a.rows == b.rows
                assert (a == b) == same
                if same:
                    assert hash(a) == hash(b)
                    equal_pairs += a is not b
        assert equal_pairs >= 6
        assert len(set(pool)) == len({m.rows for m in pool})

    def test_rows_round_trip(self):
        for m in matrix_pool():
            assert HermTraceless3(m.rows) == m
            assert HermTraceless3(m.rows).rows == m.rows

    def test_linear_structure_against_entries(self):
        for a in matrix_pool():
            assert [list(r) for r in (-a).rows] == [[-v for v in r] for r in a.rows]
            assert -(-a) == a and (-a == a) == (a == combine([0], [a]))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_matrix_against_old_constructions(self, seed):
        for span in (1, 2, 3):
            got = random_matrix(random.Random(seed), span)
            assert got == ref_random_matrix(random.Random(seed), span)
            assert got.rows == ref_random_matrix(random.Random(seed), span).rows
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3):  # the draws stay in step
            assert random_matrix(rng) == ref_random_matrix(ref, 2)

    def test_invalid_matrices_raise_as_before(self):
        rng = random.Random(6)

        def entry():
            return ComplexQuad(QuadExt(Fraction(rng.randint(-2, 2), rng.randint(1, 4)),
                                       rng.randint(-1, 1)),
                               QuadExt(rng.randint(-1, 1), Fraction(rng.randint(-1, 1), 3)))

        seen = set()
        for n in range(120):
            rows = [[entry() for _ in range(3)] for _ in range(3)]
            if n % 3:  # Hermitian, traceless only when the diagonal is fixed up
                rows = [[rows[i][j] if i < j else rows[j][i].conjugate() if i > j
                         else ComplexQuad(rows[i][i].re) for j in range(3)] for i in range(3)]
            if n % 3 == 2:
                rows[2][2] = -(rows[0][0] + rows[1][1])
            if n % 10 == 9:
                rows = rows[:2] if n % 20 == 9 else [r[:2] for r in rows]
            got = outcome(HermTraceless3, rows)
            want = outcome(ref_validated, rows)
            if isinstance(want[0], type):
                assert got == want
                seen.add(want[1])
            else:
                assert got.rows == want
                seen.add("valid")
        assert seen == {"valid", "need a 3x3 matrix", "matrix is not Hermitian",
                        "matrix is not traceless"}


class TestBasis:
    def test_mu(self):
        # the reference product's mu: mu + conj(mu) = 1 and |mu|^2 = 1/3
        assert MU + MU.conjugate() == ComplexQuad(1)
        assert MU * MU.conjugate() == ComplexQuad(QuadExt(Fraction(1, 3)))

    def test_types(self):
        basis = build_basis()
        assert len(basis) == 8
        for m in basis:
            assert ref_validated(m.rows) == m.rows

    def test_idempotent(self):
        e = build_basis()[0]
        assert matrix_mul(e, e) == e
        assert norm(e) == QuadExt(1)

    def test_norms_one(self):
        for m in build_basis():
            assert norm(m) == QuadExt(1)

    def test_gram_not_orthogonal(self):
        basis = build_basis()
        assert inner(basis[0], basis[4]) == QuadExt(0, 1)  # <e, e4> = sqrt(3)

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            HermTraceless3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # trace 3
        bad = ComplexQuad(0, 1)
        with pytest.raises(ValueError):
            HermTraceless3([[0, bad, 0], [bad, 0, 0], [0, 0, 0]])  # not Hermitian


class TestProduct:
    def test_products_stay_in_type(self):
        rng = random.Random(2)
        for _ in range(20):
            x, y = random_matrix(rng), random_matrix(rng)
            z = matrix_mul(x, y)  # the product validates
            assert ref_validated(z.rows) == z.rows

    def test_e1_e2_hermitian(self):
        basis = build_basis()
        z = matrix_mul(basis[1], basis[2])
        assert all(z.rows[i][j] == z.rows[j][i].conjugate()
                   for i in range(3) for j in range(3))

    def test_laws(self):
        rep = verify_laws(samples=100, seed=0)
        assert rep.idempotent_ok
        assert rep.flexibility_failures == 0
        assert rep.composition_failures == 0
        assert rep.form_associativity_failures == 0
        assert rep.hermitian_traceless_failures == 0
        assert rep.no_two_sided_unit
        assert rep.gram_pivots_positive

    def test_signature(self):
        pivots = gram_pivots()
        assert len(pivots) == 8
        assert all(p.sign_real() > 0 for p in pivots)

    def test_samples_guard(self):
        with pytest.raises(ValueError):
            verify_laws(samples=0)


class TestKaplansky:
    def test_unit_laws(self):
        basis = build_basis()
        e = basis[0]
        for m in basis:
            assert kaplansky(m, e) == m
            assert kaplansky(e, m) == m

    def test_report(self):
        rep = kaplansky_report(samples=60, seed=1)
        assert rep.unit_left_ok and rep.unit_right_ok
        assert rep.alternativity_failures == 0
        assert rep.composition_failures == 0


class TestJordanFixture:
    def test_commutative(self):
        rng = random.Random(5)
        x, y = random_matrix(rng), random_matrix(rng)
        assert jordan_product(x, y) == jordan_product(y, x)

    def test_not_traceless(self):
        # the symmetrized product leaves the traceless space, which is why
        # the trace correction term exists
        basis = build_basis()
        rows = jordan_product(basis[1], basis[1])
        assert rows[0][0] + rows[1][1] + rows[2][2] != ComplexQuad(0)


def naive_matrix_coordinates(m):
    """Reference: one elimination of the 8x9 system of eight functionals
    per call, the solve that the cached inverse replaced."""
    funcs = [
        lambda x: x.rows[0][0].re,
        lambda x: x.rows[1][1].re,
        lambda x: x.rows[0][1].re,
        lambda x: x.rows[0][1].im,
        lambda x: x.rows[0][2].re,
        lambda x: x.rows[0][2].im,
        lambda x: x.rows[1][2].re,
        lambda x: x.rows[1][2].im,
    ]
    work, pivots, _ = eliminate(
        [[f(bm) for bm in build_basis()] + [f(m)] for f in funcs], reduced=True)
    assert all(pivots)
    return tuple(QuadExt.coerce(row[-1]) for row in work)


class TestCoordinates:
    def test_basis_products_against_elimination(self):
        basis = build_basis()
        for a, b in product(range(DIM), repeat=2):
            m = matrix_mul(basis[a], basis[b])
            assert matrix_coordinates(m) == naive_matrix_coordinates(m)

    def test_random_against_elimination(self):
        rng = random.Random(12)
        for span in (1, 2, 5):
            for _ in range(10):
                m = random_matrix(rng, span)
                assert matrix_coordinates(m) == naive_matrix_coordinates(m)

    def test_basis_coordinates_are_unit_vectors(self):
        for k, bm in enumerate(build_basis()):
            assert matrix_coordinates(bm) == tuple(QuadExt(int(j == k)) for j in range(DIM))

    def test_corrupted_inverse_is_caught(self, monkeypatch):
        inv, den = okubomatrix._coordinate_inverse()
        rows = [list(row) for row in inv]
        p, q = rows[3][0]
        rows[3][0] = (p + 1, q)
        monkeypatch.setattr(okubomatrix, "_coordinate_inverse",
                            lambda: (tuple(map(tuple, rows)), den))
        e = build_basis()[0]  # Re e00 = 2, so coordinate 3 turns nonzero
        with pytest.raises(ArithmeticError, match="reconstruct"):
            matrix_coordinates(e)

    def test_round_trip(self):
        rng = random.Random(8)
        basis = build_basis()
        for _ in range(5):
            m = random_matrix(rng)
            assert combine(matrix_coordinates(m), basis) == m


class TestCrossRealization:
    def test_diff_recorded(self):
        rep = cross_realization_report()
        assert rep.total == 512
        # frozen under the pinned convention: the naive coordinate-wise
        # identification is not an isomorphism, and no sign flip fixes it
        assert rep.identity_mismatches == 180
        assert rep.best_mismatches == 180

    def test_sign_search_against_naive_loop(self):
        # the rotation-side table under a sign pattern that is not the
        # identity, with a few entries perturbed
        alg_c = [[okubo_mul(basis_element(a), basis_element(b)).coords
                  for b in range(DIM)] for a in range(DIM)]
        target = (1, -1, 1, 1, -1, 1, -1, 1)
        mat_c = [[[alg_c[a][b][k] * (target[a] * target[b] * target[k])
                   for k in range(DIM)] for b in range(DIM)] for a in range(DIM)]
        for a, b, k in ((0, 1, 2), (3, 3, 0), (5, 2, 7), (7, 7, 7)):
            mat_c[a][b][k] = mat_c[a][b][k] + QuadExt(0, 7)

        def naive(signs):
            return sum(mat_c[a][b][k] != alg_c[a][b][k] * (signs[a] * signs[b] * signs[k])
                       for a, b, k in product(range(DIM), repeat=3))

        best_signs = (1,) * DIM
        best = ident = naive(best_signs)
        for tail in product((1, -1), repeat=DIM - 1):
            if naive((1,) + tail) < best:
                best, best_signs = naive((1,) + tail), (1,) + tail
        rep = _sign_search(mat_c, alg_c)
        assert (rep.identity_mismatches, rep.best_signs, rep.best_mismatches, rep.total) \
            == (ident, best_signs, best, 512)
        assert rep.best_signs == target and rep.best_mismatches == 4
