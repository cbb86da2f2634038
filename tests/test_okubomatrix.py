"""The Hermitian-matrix realization: products, laws, Kaplansky recovery,
and the cross-realization diff."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import Phase, given, settings, strategies as st
from matrix_oracle import inverse, mat_product

from okubo_e8.algebras import DIM, basis_element, oct_mul, okubo_mul
from okubo_e8 import checks, exact, okubomatrix
from okubo_e8.catalog import build_classical
from okubo_e8.exact import ComplexQuad, QuadExt, _complex, apply_map
from okubo_e8.orders import OrderBasis, coords_in_order_basis, product_table, structure_constants
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
    matrix_mul,
    matrix_mul_pair,
    norm,
    random_matrix,
    sample_pool,
    verify_laws,
)

# -- a naive ComplexQuad reference for the integer kernel ---------------------

#: mu = 1/2 + (sqrt(3)/6) i of the product formula
MU = ComplexQuad(QuadExt(Fraction(1, 2)), QuadExt(0, Fraction(1, 6)))


def ref_mat_product(x, y):
    return [[sum((x.rows[i][m] * y.rows[m][j] for m in range(3)), ComplexQuad(0, 0))
             for j in range(3)] for i in range(3)]


def ref_trace(rows):
    return rows[0][0] + rows[1][1] + rows[2][2]


def ref_matrix_mul(x, y):
    """MU xy + conj(MU) yx - Tr(xy)/3 I, validated by the constructor."""
    xy, yx = ref_mat_product(x, y), ref_mat_product(y, x)
    third = ComplexQuad(Fraction(1, 3), 0) * ref_trace(xy)
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
    half = ComplexQuad(Fraction(1, 2), 0)
    return [[half * (a + b) for a, b in zip(ra, rb)]
            for ra, rb in zip(ref_mat_product(x, y), ref_mat_product(y, x))]


def entry_rows(ints, den):
    """The 3x3 ComplexQuad rows of 36 integers over ``den``, in the layout
    of ``HermTraceless3._q``."""
    return [[_complex(*ints[k:k + 4], den) for k in range(12 * i, 12 * i + 12, 4)]
            for i in range(3)]


def combine(coeffs, mats):
    """sum_k coeffs[k] mats[k] on the ComplexQuad entries, validated by the
    constructor: the coefficients must be real."""
    acc = [[ComplexQuad(0, 0)] * 3 for _ in range(3)]
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

    def test_matrix_mul_pair(self):
        """Both orders from one associative product, against the reference
        computed from xy and yx separately."""
        for x, y in KERNEL_INPUTS:
            assert matrix_mul_pair(x, y) == (ref_matrix_mul(x, y), ref_matrix_mul(y, x))

    def test_norm_and_inner(self):
        for x, y in KERNEL_INPUTS:
            assert norm(x) == ref_norm(x)
            assert inner(x, y) == ref_inner(x, y)

    def test_associative_and_jordan_products(self):
        """The Jordan product, (S + 2 Tr(xy) I)/6 from the one associative
        product xy, against (xy + yx)/2 on the reference entries."""
        for x, y in KERNEL_INPUTS:
            assert entry_rows(*jordan_product(x, y)) == ref_jordan(x, y)

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
                    rows[i][i] = ComplexQuad(rows[i][i].re, 0)
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


#: a K = Q(sqrt 3) value with parts of up to 40 digits over denominators
#: up to 10^6
big_quads = st.builds(
    lambda a, d, b, e: QuadExt(Fraction(a, d), Fraction(b, e)),
    st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 6),
    st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 6))


@st.composite
def big_hermitian(draw):
    """A Hermitian traceless matrix with big_quads parts: three free
    entries above the diagonal, two free real diagonal entries."""
    above = {cell: ComplexQuad(draw(big_quads), draw(big_quads))
             for cell in ((0, 1), (0, 2), (1, 2))}
    d0, d1 = draw(big_quads), draw(big_quads)
    diag = [ComplexQuad(d0, 0), ComplexQuad(d1, 0), ComplexQuad(-(d0 + d1), 0)]
    return HermTraceless3([[diag[i] if i == j else above[i, j] if i < j
                            else above[j, i].conjugate() for j in range(3)] for i in range(3)])


# no shrink phase: shrinking some 50 integers of 40 digits, at about 17 ms
# of reference arithmetic per example, outlasts the per-test time limit,
# so a failure is reported as first found
@settings(derandomize=True, max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(big_hermitian(), big_hermitian())
def test_kernel_matches_reference_on_large_entries(x, y):
    """The written-out kernels against the ComplexQuad reference, on
    Hermitian matrices with 40-digit parts and mixed denominators."""
    assert matrix_mul(x, y) == ref_matrix_mul(x, y)
    assert matrix_mul_pair(x, y) == (matrix_mul(x, y), ref_matrix_mul(y, x))
    assert norm(x) == ref_norm(x)
    assert inner(x, y) == ref_inner(x, y)


def bumped_matrices(m):
    """``m`` with one of its 36 integers raised by 1, for each of them, as
    (position, matrix) pairs, through the integer layout unchecked."""
    for k in range(36):
        ints = list(m._q)
        ints[k] += 1
        yield k, okubomatrix._matrix(ints, m._d)


class TestOperandContract:
    """``matrix_mul`` reads yx off xy as (xy)^H, which holds only for
    Hermitian operands, so it checks both operands before it multiplies;
    so do ``matrix_mul_pair`` and ``jordan_product``, which share its
    associative product."""

    PRODUCTS = (matrix_mul, matrix_mul_pair, jordan_product)

    #: the integers of the diagonal real parts: raising one leaves a
    #: matrix Hermitian, raising any other integer does not
    DIAGONAL_REAL = {0, 1, 16, 17, 32, 33}

    def test_either_position_raises(self):
        zero = HermTraceless3([[0] * 3] * 3)
        basis = build_basis()
        pool = sample_pool(0).matrices
        bad = [m for k, m in bumped_matrices(pool[0]) if k not in self.DIAGONAL_REAL]
        assert len(bad) == 30
        for x in bad:
            for good in (zero, basis[0], basis[5], pool[1]):
                for a, b in ((x, good), (good, x)):
                    for mul in self.PRODUCTS:
                        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
                            mul(a, b)
            for mul in self.PRODUCTS:
                with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
                    mul(x, x)

    def test_zero_matrix_does_not_hide_a_bad_operand(self):
        # the Okubo product with 0 is 0 whatever the other operand is; the
        # check on the operand still comes first
        zero = HermTraceless3([[0] * 3] * 3)
        assert matrix_mul(zero, zero) == zero
        bad = unchecked([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert ref_matrix_mul(bad, zero) == ref_matrix_mul(zero, bad) == zero
        for a, b in ((bad, zero), (zero, bad)):
            with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
                matrix_mul(a, b)


#: runs in a fresh interpreter: counts the Okubo products, single and
#: paired, and the associative products of Hermitian operands behind them
#: with their callers, of one ``run_all``
PRODUCT_CENSUS = r"""
import json
import sys
from collections import Counter
from okubo_e8 import checks, okubomatrix

calls = Counter()
callers = Counter()

def counting(name, fn):
    def counted(*args):
        calls[name] += 1
        if name == "_okubo_parts":
            callers[sys._getframe(1).f_code.co_name] += 1
        return fn(*args)
    return counted

wrapped = {}
for name in ("matrix_mul", "matrix_mul_pair", "_okubo_parts"):
    fn = getattr(okubomatrix, name)
    wrapped[fn] = counting(name, fn)
for name, mod in list(sys.modules.items()):
    if name.startswith("okubo_e8"):
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
checks.run_all(0)
print(json.dumps({"calls": calls, "callers": callers}))
"""


def test_one_run_computes_one_associative_product_per_okubo_product():
    """One run_all computes one associative product of Hermitian operands
    per Okubo product, one per pair x * y, y * x that ``matrix_mul_pair``
    returns together, and one per Jordan product: 1,249 single and 353
    paired products and the two Jordan products of the matrix group's
    commutativity check.  The parent of the paired product made 2,031
    single ones; before each sample of the laws read z * y from the next
    sample's pair, 1,349; and the Jordan products had a general associative
    product of their own."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", PRODUCT_CENSUS], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    counts = json.loads(proc.stdout)
    assert counts["calls"] == {"matrix_mul": 1249, "matrix_mul_pair": 353,
                               "_okubo_parts": 1604}
    assert counts["callers"] == {"matrix_mul": 1249, "matrix_mul_pair": 353,
                                 "jordan_product": 2}


# -- the stored integers against the ComplexQuad entries ----------------------


def ref_validated(rows):
    """The rows as ComplexQuad values, validated as the constructor once did
    on the entries: the shape, then Hermitian, then traceless."""
    rows = tuple(tuple(ComplexQuad.coerce(v) for v in r) for r in rows)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("need a 3x3 matrix")
    if not all(rows[i][j] == rows[j][i].conjugate() for i in range(3) for j in range(3)):
        raise ValueError("matrix is not Hermitian")
    if ref_trace(rows) != ComplexQuad(0, 0):
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
                         else ComplexQuad(rows[i][i].re, 0) for j in range(3)] for i in range(3)]
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
        assert MU + MU.conjugate() == ComplexQuad(1, 0)
        assert MU * MU.conjugate() == ComplexQuad(QuadExt(Fraction(1, 3)), 0)

    def test_types(self):
        basis = build_basis()
        assert len(basis) == 8
        for m in basis:
            assert ref_validated(m.rows) == m.rows

    def test_integers_match_the_entry_route(self):
        # the basis written as integers over 1 is the basis built from its
        # ComplexQuad entries by the public constructor
        s3 = QuadExt(0, 1)
        z, r3, i_pos = ComplexQuad(0, 0), ComplexQuad(s3, 0), ComplexQuad(0, s3)
        i_neg = -i_pos
        want = (
            HermTraceless3([[2, 0, 0], [0, -1, 0], [0, 0, -1]]),
            HermTraceless3([[z, r3, z], [r3, z, z], [z, z, z]]),
            HermTraceless3([[z, z, r3], [z, z, z], [r3, z, z]]),
            HermTraceless3([[z, z, z], [z, z, r3], [z, r3, z]]),
            HermTraceless3([[r3, z, z], [z, -r3, z], [z, z, z]]),
            HermTraceless3([[z, i_neg, z], [i_pos, z, z], [z, z, z]]),
            HermTraceless3([[z, z, i_neg], [z, z, z], [i_pos, z, z]]),
            HermTraceless3([[z, z, z], [z, z, i_neg], [z, i_pos, z]]),
        )
        assert build_basis() == want
        assert all(m._d == 1 for m in build_basis())

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
        rep = verify_laws(sample_pool(0))
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


class TestKaplansky:
    def test_unit_laws(self):
        basis = build_basis()
        e = basis[0]
        for m in basis:
            assert kaplansky(m, e) == m
            assert kaplansky(e, m) == m

    def test_report(self):
        rep = kaplansky_report(sample_pool(1))
        assert rep.unit_left_ok and rep.unit_right_ok
        assert rep.alternativity_failures == 0
        assert rep.composition_failures == 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sample_pool_is_the_seeded_draws(seed):
    """The pool is the first SAMPLES draws of random_matrix from
    random.Random(seed), the matrices each sampled law was drawn from."""
    rng = random.Random(seed)
    pool = sample_pool(seed)
    assert len(pool.matrices) == okubomatrix.SAMPLES
    assert pool.matrices == tuple(random_matrix(rng) for _ in range(okubomatrix.SAMPLES))
    assert pool.norms == tuple(norm(m) for m in pool.matrices)


class TestJordanFixture:
    def test_commutative(self):
        rng = random.Random(5)
        x, y = random_matrix(rng), random_matrix(rng)
        assert jordan_product(x, y) == jordan_product(y, x)

    def test_not_traceless(self):
        # the symmetrized product leaves the traceless space, which is why
        # the trace correction term exists
        basis = build_basis()
        rows = entry_rows(*jordan_product(basis[1], basis[1]))
        assert rows[0][0] + rows[1][1] + rows[2][2] != ComplexQuad(0, 0)

    def test_canonical_integers(self):
        # one gcd: the Jordan square of e is diag(4, 1, 1), over 1
        e = build_basis()[0]
        ints, den = jordan_product(e, e)
        assert den == 1 and entry_rows(ints, den) == [
            [ComplexQuad(4, 0), ComplexQuad(0, 0), ComplexQuad(0, 0)],
            [ComplexQuad(0, 0), ComplexQuad(1, 0), ComplexQuad(0, 0)],
            [ComplexQuad(0, 0), ComplexQuad(0, 0), ComplexQuad(1, 0)]]


#: the shared coordinate solve on the matrix basis
coordinates = okubomatrix._coordinates


def naive_matrix_coordinates(m):
    """Reference: the 8x8 system of eight real functionals on the basis,
    inverted by the test oracle per call, independent of the shared
    solve."""
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
    system = inverse([[f(bm) for bm in build_basis()] for f in funcs])
    return tuple(QuadExt.coerce(v) for v, in mat_product(system, [[f(m)] for f in funcs]))


def bumped(int_map, column, row):
    """An integer map as ``exact.integer_map`` gives it, with 1 added to
    its entry in ``row`` of ``column``."""
    cols, den = int_map
    entries = {r: (p, q) for r, p, q in cols[column]}
    p, q = entries.get(row, (0, 0))
    entries[row] = (p + 1, q)
    col = tuple((r, *entries[r]) for r in sorted(entries))
    return cols[:column] + (col,) + cols[column + 1:], den


class TestCoordinates:
    def test_basis_products_against_elimination(self):
        basis = build_basis()
        for a, b in product(range(DIM), repeat=2):
            m = matrix_mul(basis[a], basis[b])
            assert coordinates(m) == naive_matrix_coordinates(m)

    def test_random_against_elimination(self):
        rng = random.Random(12)
        for span in (1, 2, 5):
            for _ in range(10):
                m = random_matrix(rng, span)
                assert coordinates(m) == naive_matrix_coordinates(m)

    def test_basis_coordinates_are_unit_vectors(self):
        for k, bm in enumerate(build_basis()):
            assert coordinates(bm) == tuple(QuadExt(int(j == k)) for j in range(DIM))

    def test_corrupted_inverse_is_caught(self, monkeypatch):
        """A wrong solve map gives wrong coordinates, which the rebuild
        through the combine map refuses: for a matrix, and for the
        rank-two gaussian order."""
        span = okubomatrix._basis_span()
        monkeypatch.setattr(span, "solve", bumped(span.solve, 0, 3))
        e = build_basis()[0]  # Re e00 = 2, so coordinate 3 turns wrong
        with pytest.raises(ArithmeticError, match="outside the K-span of 'matrix-basis'"):
            coordinates(e)

        gaussian = build_classical("gaussian")
        monkeypatch.setattr(gaussian.span, "solve", bumped(gaussian.span.solve, 0, 1))
        minus_one = oct_mul(basis_element(1), basis_element(1))  # e-coordinate 0 is -1
        with pytest.raises(ArithmeticError, match="outside the K-span of 'gaussian'"):
            coords_in_order_basis(minus_one, gaussian)

    def test_basis_map_rebuilds_the_basis(self):
        cols, den = okubomatrix._basis_span().combine
        for k, bm in enumerate(build_basis()):
            unit = [(int(j == k), 0) for j in range(DIM)]
            ints = [v for pair in apply_map(cols, unit, 18) for v in pair]
            entries = [ComplexQuad(QuadExt(Fraction(a, den), Fraction(b, den)),
                                   QuadExt(Fraction(c, den), Fraction(e, den)))
                       for a, b, c, e in zip(*[iter(ints)] * 4)]
            assert HermTraceless3([entries[i:i + 3] for i in (0, 3, 6)]) == bm

    def test_corrupted_basis_map_is_caught(self, monkeypatch):
        """A wrong combine map rebuilds a vector that is not the input,
        for a matrix and for the rank-two gaussian order."""
        span = okubomatrix._basis_span()
        monkeypatch.setattr(span, "combine", bumped(span.combine, 1, 0))
        with pytest.raises(ArithmeticError, match="outside the K-span of 'matrix-basis'"):
            coordinates(build_basis()[1])

        gaussian = build_classical("gaussian")
        monkeypatch.setattr(gaussian.span, "combine", bumped(gaussian.span.combine, 1, 0))
        e1 = basis_element(1)  # the second basis vector of the order
        with pytest.raises(ArithmeticError, match="outside the K-span of 'gaussian'"):
            coords_in_order_basis(e1, gaussian)

    def test_round_trip(self):
        rng = random.Random(8)
        basis = build_basis()
        for _ in range(5):
            m = random_matrix(rng)
            assert combine(coordinates(m), basis) == m


class TestCrossRealization:
    def test_tables_against_direct_products(self, monkeypatch):
        """The two tables the diff reads, against products solved
        independently: the rotation-side table is the e-coordinates of the
        Okubo products, as the coordinate solve of the basis e_0..e_7 finds
        them too, and the matrix table the eliminated coordinates of the
        matrix products."""
        tables = []
        monkeypatch.setattr(okubomatrix, "_sign_search", lambda *args: tables.append(args))
        cross_realization_report()
        [(mat_c, alg_c)] = tables
        e = [basis_element(k) for k in range(DIM)]
        assert alg_c == tuple(tuple(okubo_mul(x, y).coords for y in e) for x in e)
        assert alg_c == structure_constants("okubo", OrderBasis(tuple(e), "e-basis")).c
        basis = build_basis()
        assert mat_c == tuple(tuple(naive_matrix_coordinates(matrix_mul(x, y)) for y in basis)
                              for x in basis)

    def test_diff_recorded(self):
        rep = cross_realization_report()
        assert rep.total == 512
        # frozen under the pinned convention: the naive coordinate-wise
        # identification is not an isomorphism, and no sign flip fixes it
        assert rep.identity_mismatches == 180
        assert rep.best_mismatches == 180

    def test_sign_search_against_naive_loop(self):
        def naive(mat_c, alg_c):
            """(identity mismatches, best signs, best mismatches, number of
            patterns at the best), every cell compared under every pattern."""
            def bad(signs):
                return sum(mat_c[a][b][k] != alg_c[a][b][k] * (signs[a] * signs[b] * signs[k])
                           for a, b, k in product(range(DIM), repeat=3))

            best_signs = (1,) * DIM
            best = ident = bad(best_signs)
            scores = [ident]
            for tail in product((1, -1), repeat=DIM - 1):
                scores.append(bad((1,) + tail))
                if scores[-1] < best:
                    best, best_signs = scores[-1], (1,) + tail
            return ident, best_signs, best, scores.count(best)

        def signed(table, pattern):
            return [[[table[a][b][k] * (pattern[a] * pattern[b] * pattern[k])
                      for k in range(DIM)] for b in range(DIM)] for a in range(DIM)]

        def check(mat_c, alg_c):
            ident, best_signs, best, ties = naive(mat_c, alg_c)
            rep = _sign_search(mat_c, alg_c)
            assert (rep.identity_mismatches, rep.best_signs, rep.best_mismatches, rep.total) \
                == (ident, best_signs, best, 512)
            return ties

        # the rotation-side table under a sign pattern that is not the
        # identity, with a few entries perturbed
        e = [basis_element(k) for k in range(DIM)]
        alg_c = product_table(okubo_mul, e, lambda x: x.coords)
        target = (1, -1, 1, 1, -1, 1, -1, 1)
        mat_c = signed(alg_c, target)
        for a, b, k in ((0, 1, 2), (3, 3, 0), (5, 2, 7), (7, 7, 7)):
            mat_c[a][b][k] = mat_c[a][b][k] + QuadExt(0, 7)
        check(mat_c, alg_c)
        rep = _sign_search(mat_c, alg_c)
        assert rep.best_signs == target and rep.best_mismatches == 4

        # a tie: with the entries (a, b, k) whose sign product differs between
        # two patterns set to zero, both patterns match every entry, and the
        # first of them in the search order wins
        rng = random.Random(14)
        first, second = (1, 1, -1, 1, 1, -1, 1, 1), (1, -1, 1, 1, -1, 1, 1, -1)
        table = [[[rng.choice((-2, -1, 1, 2))
                   if first[a] * first[b] * first[k] == second[a] * second[b] * second[k]
                   else 0 for k in range(DIM)] for b in range(DIM)] for a in range(DIM)]
        assert check(signed(table, second), table) >= 2
        assert _sign_search(signed(table, second), table).best_signs == first

        # seeded random tables: a random pattern, then about a third of the
        # entries redrawn
        for seed in range(3):
            rng = random.Random(seed)
            table = [[[rng.randint(-2, 2) for _ in range(DIM)] for _ in range(DIM)]
                     for _ in range(DIM)]
            mat_c = signed(table, (1,) + tuple(rng.choice((1, -1)) for _ in range(DIM - 1)))
            for a, b, k in product(range(DIM), repeat=3):
                if rng.random() < 0.3:
                    mat_c[a][b][k] = rng.randint(-2, 2)
            check(mat_c, table)


def test_certificate_builds_no_complex_entry(monkeypatch):
    """One ``run_all`` from cold basis caches makes no ComplexQuad: the
    matrix realization computes on integers from its basis to its reports.
    Every ComplexQuad is made by ``object.__new__`` through ``exact._new``,
    which is counted."""
    made = []
    real_new = exact._new

    def counted(cls):
        if cls is ComplexQuad:
            made.append(cls)
        return real_new(cls)

    monkeypatch.setattr(exact, "_new", counted)
    okubomatrix.build_basis.cache_clear()
    okubomatrix._basis_span.cache_clear()
    assert ComplexQuad(1, 0) and len(made) == 1  # the counter sees a construction
    checks.run_all(seed=0)
    assert len(made) == 1
