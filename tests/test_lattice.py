"""Lattice machinery: normal forms, invariants, enumeration, discriminant
groups, gluing, saturation.  Independent oracles: naive box-search
enumeration, sympy normal forms, determinant/gcd identities."""

import itertools
import json
import random
from fractions import Fraction
from math import isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st
from matrix_oracle import inverse

from okubo_e8 import claims, cli, lattice
from okubo_e8._kernels import NotPositiveDefinite, prepare_enumeration
from okubo_e8.catalog import build_classical, order_lattice
from okubo_e8.exact import QuadExt
from okubo_e8.lattice import (
    _inclusion_matrix,
    _smith_rows,
    _snf_reduce,
    InclusionError,
    LatticeError,
    LatticeZ,
    contains,
    discriminant_group,
    glue_and_saturate,
    hermite_form,
    hnf_snf,
    lattice_from_fixture,
    lattice_to_fixture,
    lattices_equal,
    mat_det,
    minimum_and_kissing,
    norm_counts,
    shell_counts_vs_sigma3,
    short_vectors,
    sigma3,
    smith_invariants,
    sublattice_invariants,
    trace_lattice_16,
)
from okubo_e8.orders import cd_lattice, conductor_lattice, scaled_basis

A2 = [[2, -1], [-1, 2]]
D4 = [[2, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]]  # det 4


def box_search(gram, bound):
    """Independent brute-force enumeration from dual diagonal bounds.

    Every integer vector of the box is visited.  The norm of a symmetric
    Gram is built up one coordinate at a time,
    x^T G x = sum_i x_i (x_i g_ii + 2 sum_{j<i} g_ij x_j),
    so each level adds its own term to the partial norm handed down.
    """
    n = len(gram)
    ginv = inverse(gram)
    limits = []
    for i in range(n):
        # x_i^2 <= bound * (G^-1)_ii
        val = Fraction(bound) * ginv[i][i]
        limits.append(isqrt(val.numerator // val.denominator) + 1)
    out = []
    def rec(i, vec, partial, nonzero):
        row = gram[i]
        gii = row[i]
        cross = 2 * sum(row[j] * vec[j] for j in range(i))
        values = range(-limits[i], limits[i] + 1)
        if i < n - 1:
            for v in values:
                rec(i + 1, vec + [v], partial + v * (v * gii + cross), nonzero or v != 0)
            return
        for v in values:
            nrm = partial + v * (v * gii + cross)
            if (nonzero or v != 0) and nrm <= bound:
                out.append((tuple(vec) + (v,), nrm))
    rec(0, [], 0, False)
    return sorted(out)


#: rectangular and rank-deficient integer matrices
RECTANGULAR_AND_DEFICIENT = [
    [[2, 4, 6]],
    [[3], [6], [-9]],
    [[0, 0, 0], [0, 0, 0]],
    [[6, 4, 2, 8], [3, 2, 1, 4]],  # rank 1
    [[2, 0], [0, 4], [6, 8], [0, 0]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # rank 2
    [[0, 12, 18], [0, 8, 12], [0, 0, 0]],
    [[4, 6, 0, 2], [2, 3, 5, 1], [6, 9, 5, 3]],  # row 3 = row 1 + row 2
]


def fixture_grams(seeds=range(4), ops=40):
    """(Gram, Smith invariants) pairs in the shape of lattice fixtures: the
    conductor lattice D*E8 (det 2^24 = 8^8) and E8 after ``ops`` random
    unimodular row operations each."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        for base, smith in ((conductor_lattice(), (8,) * 8), (cd_lattice(), (1,) * 8)):
            rows = [list(r) for r in base.basis]
            for _ in range(ops):
                i, j = rng.sample(range(8), 2)
                c = rng.choice((-1, 1))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            gram = LatticeZ.from_rows(rows, base.ambient_gram).gram
            out.append(([list(row) for row in gram], smith))
    return out


class TestNormalForms:
    def test_examples(self):
        assert hnf_snf([[2, 1], [0, 3]]) == ([[2, 1], [0, 3]], (1, 6))
        assert hnf_snf([[0, 3], [2, 1]]) == ([[2, 1], [0, 3]], (1, 6))
        diag = [[2 if i == j and i < 4 else (4 if i == j else 0) for j in range(8)]
                for i in range(8)]
        assert smith_invariants(diag) == (2, 2, 2, 2, 4, 4, 4, 4)
        ident = [[int(i == j) for j in range(8)] for i in range(8)]
        assert smith_invariants(ident) == (1,) * 8

    def test_gcd_det_oracle(self):
        # smith (1, 6): first invariant is the gcd of entries, product is |det|
        smith = smith_invariants([[2, 1], [0, 3]])
        assert smith[0] == 1  # gcd(2, 1, 0, 3)
        assert smith[0] * smith[1] == 6  # |det|

    def test_reconstruction(self):
        rng = random.Random(4)
        for _ in range(12):
            n = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert_smith_form(m, *_snf_reduce(m))

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(9)
        for _ in range(8):
            n = rng.randint(2, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            ours = [v for v in smith_invariants(m) if v != 0]
            theirs = smith_normal_form(sympy.Matrix(m))
            ref = sorted(abs(theirs[i, i]) for i in range(min(theirs.shape))
                         if theirs[i, i] != 0)
            assert sorted(ours) == ref
        # rectangular and rank-deficient inputs, against the full S as well
        for m in RECTANGULAR_AND_DEFICIENT:
            theirs = smith_normal_form(sympy.Matrix(m))
            ref = tuple(abs(int(theirs[i, i])) for i in range(min(theirs.shape)))
            assert smith_invariants(m) == ref
            s, _ = _snf_reduce(m)
            assert tuple(s[i][i] for i in range(min(len(m), len(m[0])))) == ref


def _reduces_to_zero(v, h):
    """Whether the integer vector v is an integer combination of the
    nonzero echelon rows h, by back-substitution on their pivots."""
    v = list(v)
    for row in h:
        c = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[c], row[c])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(m):
    """Laplace expansion along the first row (tiny matrices only)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def assert_smith_form(m, s, right):
    """What the callers of ``_snf_reduce`` read: S is diagonal with
    entries >= 0, each dividing the next; R is unimodular; and the rows of
    S*R span the row lattice of M, so the Hermite forms of S*R and of M
    have the same nonzero rows."""
    nr, nc = len(m), len(m[0])
    assert len(s) == nr and all(len(row) == nc for row in s)
    assert all(s[i][j] == 0 for i in range(nr) for j in range(nc) if i != j)
    diag = [s[i][i] for i in range(min(nr, nc))]
    assert all(v >= 0 for v in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    assert len(right) == nc and all(len(row) == nc for row in right)
    assert abs((_det if nc <= 4 else mat_det)(right)) == 1

    def nonzero(h):
        return [row for row in h if any(row)]

    assert nonzero(hermite_form(_int_mul(s, right))) == nonzero(hermite_form(m))


def _rows(nr, nc):
    return st.lists(
        st.lists(st.integers(-6, 6), min_size=nc, max_size=nc), min_size=nr, max_size=nr
    )


@st.composite
def _any_shape(draw):
    return draw(_rows(draw(st.integers(1, 4)), draw(st.integers(1, 4))))


@st.composite
def _square(draw):
    n = draw(st.integers(1, 4))
    return draw(_rows(n, n))


@st.composite
def _singular(draw):
    """A square matrix with one row an integer combination of the others."""
    n = draw(st.integers(2, 4))
    rows = draw(_rows(n - 1, n))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    dependent = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    rows.insert(draw(st.integers(0, n - 1)), dependent)
    return rows


int_matrices = st.one_of(_square(), _any_shape(), _singular())


class TestSmithProperties:
    """Random square, non-square and singular integer matrices."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(int_matrices)
    def test_transforms(self, m):
        assert_smith_form(m, *_snf_reduce(m))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(int_matrices)
    def test_divisibility_chain(self, m):
        inv = smith_invariants(m)
        assert all(v >= 0 for v in inv)
        for a, b in zip(inv, inv[1:]):
            assert b == 0 if a == 0 else b % a == 0

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(int_matrices)
    def test_sympy_invariants(self, m):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        theirs = smith_normal_form(sympy.Matrix(m))
        ref = tuple(abs(int(theirs[i, i])) for i in range(min(theirs.shape)))
        assert smith_invariants(m) == ref

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(int_matrices)
    def test_hermite_form(self, m):
        h = hermite_form(m)
        assert len(h) == len(m) and all(len(row) == len(m[0]) for row in h)
        # row Hermite form: the pivot columns strictly increase, each pivot
        # is positive with the entries above it in [0, pivot), zero rows last
        pivots = [next((c for c, v in enumerate(row) if v), None) for row in h]
        rank = sum(c is not None for c in pivots)
        assert all(c is None for c in pivots[rank:])
        assert all(a < b for a, b in zip(pivots[:rank], pivots[1:rank]))
        for r, c in enumerate(pivots[:rank]):
            assert h[r][c] > 0
            assert all(0 <= h[i][c] < h[r][c] for i in range(r))
        # H spans the row lattice of M: every row of M reduces to zero
        # against H, and stacking H under M changes no nonzero Smith invariant
        assert all(_reduces_to_zero(row, h[:rank]) for row in m)
        nonzero = [v for v in smith_invariants(m) if v]
        assert [v for v in smith_invariants(m + h) if v] == nonzero
        assert hnf_snf(m) == (h, smith_invariants(m))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(int_matrices)
    def test_without_transforms_same_form(self, m):
        # the transform-free reduction takes the same pivots to the same S
        s = _snf_reduce(m)[0]
        assert _snf_reduce(m, False) == (s, None)
        assert smith_invariants(m) == tuple(s[i][i] for i in range(min(len(s), len(s[0]))))

    def test_fixture_grams(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        for gram, smith in fixture_grams():
            assert_smith_form(gram, *_snf_reduce(gram))
            theirs = smith_normal_form(sympy.Matrix(gram))
            assert smith_invariants(gram) == smith == tuple(
                abs(int(theirs[i, i])) for i in range(8))


def reference_pivot(s, k):
    """The pivot rule of the Smith form as first written: the least
    (|v|, i, j) over the nonzero entries of the trailing block, from a list
    of all of them."""
    trailing = [(abs(v), i, j) for i, row in enumerate(s[k:], k)
                for j, v in enumerate(row[k:], k) if v]
    return min(trailing)[1:] if trailing else None


def pivot_matrices(seed=24, count=160):
    """Seeded integer matrices, by turns rich in +-1, with larger entries,
    singular (a row the sum of two others, or a repeated column) and with
    zero rows; square and not, 1 to 7 rows and columns."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        span = (-1, 0, 1, 1, -1, 2) if n % 4 == 0 else range(-40, 41)
        m = [[rng.choice(span) for _ in range(nc)] for _ in range(nr)]
        if n % 4 == 2 and nr >= 3:
            m[-1] = [a + b for a, b in zip(m[0], m[1])]
        elif n % 4 == 2 and nc >= 2:
            for row in m:
                row[-1] = row[0]
        elif n % 4 == 3:
            for i in rng.sample(range(nr), rng.randint(1, nr)):
                m[i] = [0] * nc
        out.append(m)
    return out + [gram for gram, _ in fixture_grams(range(2))]


class TestSmithPivot:
    """The pivot scan that stops at the first unit picks the pivots of the
    rule it replaced, so S and R are unchanged, with and without the
    transform."""

    def test_same_pivot_at_every_step(self):
        for m in pivot_matrices():
            for k in range(min(len(m), len(m[0]))):
                assert lattice._snf_pivot(m, k) == reference_pivot(m, k)

    def test_same_reduction(self, monkeypatch):
        matrices = pivot_matrices()
        ours = [(_snf_reduce(m), _snf_reduce(m, False)) for m in matrices]
        monkeypatch.setattr(lattice, "_snf_pivot", reference_pivot)
        theirs = [(_snf_reduce(m), _snf_reduce(m, False)) for m in matrices]
        assert ours == theirs
        assert any(s[0][0] == 0 for (s, _), _ in ours)  # a zero matrix was drawn
        assert {len(m) == len(m[0]) for m in matrices} == {True, False}


def reference_snf_reduce(m, transforms=True):
    """The Smith form loop as it was before the left transform went:
    (S, L, R) with M = L*S*R, L kept transposed (``lt``), and after every
    round a second scan of column k and row k for a remainder; the pivots
    come from :func:`reference_pivot`."""
    s = [[int(v) for v in row] for row in m]
    nr, nc = len(s), len(s[0])
    if transforms:
        lt = [[int(i == j) for j in range(nr)] for i in range(nr)]
        right = [[int(i == j) for j in range(nc)] for i in range(nc)]
    for k in range(min(nr, nc)):
        while True:
            pivot_at = reference_pivot(s, k)
            if pivot_at is None:
                break
            i, j = pivot_at
            s[k], s[i] = s[i], s[k]
            for row in s[k:]:
                row[k], row[j] = row[j], row[k]
            if transforms:
                lt[k], lt[i] = lt[i], lt[k]
                right[k], right[j] = right[j], right[k]
            pivot = s[k][k]
            for i in range(k + 1, nr):
                f = s[i][k] // pivot
                if f:
                    s[i] = [a - f * b for a, b in zip(s[i], s[k])]
                    if transforms:
                        lt[k] = [a + f * b for a, b in zip(lt[k], lt[i])]
            for j in range(k + 1, nc):
                f = s[k][j] // pivot
                if f:
                    for row in s[k:]:
                        row[j] -= f * row[k]
                    if transforms:
                        right[k] = [a + f * b for a, b in zip(right[k], right[j])]
            if any(s[i][k] for i in range(k + 1, nr)) or any(s[k][k + 1:]):
                continue
            bad = None if pivot in (1, -1) else next(
                (i for i in range(k + 1, nr) if any(v % pivot for v in s[i][k + 1:])), None)
            if bad is None:
                break
            s[k] = [a + b for a, b in zip(s[k], s[bad])]
            if transforms:
                lt[bad] = [a - b for a, b in zip(lt[bad], lt[k])]
        if s[k][k] < 0:
            s[k] = [-a for a in s[k]]
            if transforms:
                lt[k] = [-a for a in lt[k]]
    if not transforms:
        return s, None, None
    return s, [list(r) for r in zip(*lt)], right


class TestSmithWithoutLeftTransform:
    """Dropping L and the second scan of column k and row k changes no
    pivot, so S and R are those of the loop that kept both."""

    def test_reference_keeps_its_contract(self):
        for m in pivot_matrices(count=40):
            s, left, right = reference_snf_reduce(m)
            assert _int_mul(_int_mul(left, s), right) == m

    @pytest.mark.parametrize("transforms", [True, False])
    def test_same_s_and_r(self, transforms):
        matrices = pivot_matrices() + [gram for gram, _ in fixture_grams()]
        for m in matrices:
            s, _, right = reference_snf_reduce(m, transforms)
            assert _snf_reduce(m, transforms) == (s, right)


class TestSublattice:
    def test_conductor_in_e8(self):
        inv = sublattice_invariants(conductor_lattice(), cd_lattice())
        assert inv.index == claims.CONDUCTOR_INDEX
        assert inv.det_sub == claims.CONDUCTOR_DET
        assert cd_lattice().det() == 1
        assert inv.smith == claims.CONDUCTOR_SMITH
        assert inv.inclusions == {
            "4sup_in_sub": True, "sub_in_2sup": True, "sub_in_sup": True,
        }

    def test_identity_inclusion(self):
        cd = cd_lattice()
        inv = sublattice_invariants(cd, cd)
        assert inv.index == 1
        assert inv.smith == (1,) * 8

    def test_doubling(self):
        cd = cd_lattice()
        inv = sublattice_invariants(cd.scaled(2), cd)
        assert inv.index == 256  # |det 2I| = 2^8
        assert inv.det_sub == 65536  # index^2 * det
        assert inv.smith == (2,) * 8

    def test_non_inclusion_witness(self):
        cd = cd_lattice()
        double = cd.scaled(2)
        for run in (sublattice_invariants, glue_and_saturate):
            with pytest.raises(InclusionError) as err:
                run(cd, double)
            assert err.value.witness == cd.basis[0]

    def test_singular_outer_basis(self):
        # the solve's ArithmeticError reaches callers as a LatticeError
        ident = [[1, 0], [0, 1]]
        flat = LatticeZ.from_rows([[1, 1], [2, 2]], ident)
        assert not contains(flat, LatticeZ.from_gram(ident))
        with pytest.raises(LatticeError, match="singular matrix"):
            glue_and_saturate(LatticeZ.from_gram(ident), flat)

    def test_constructors_refuse_a_non_square_shape(self):
        # a 2x3 basis in Z^3 once made contains() answer True for a vector
        # outside it, and a 2x3 Gram was read as its 2x2 corner
        i3 = [[int(i == j) for j in range(3)] for i in range(3)]
        with pytest.raises(LatticeError, match="basis is 2x3, not 3x3"):
            contains(LatticeZ.from_rows([[1, 0, 0], [0, 1, 0]], i3),
                     LatticeZ.from_rows([[1, 0, 5], [0, 1, 0]], i3))
        with pytest.raises(LatticeError, match="gram is 2x3, not 2x2"):
            LatticeZ.from_gram([[1, 2, 3], [2, 1, 0]]).gram
        with pytest.raises(LatticeError, match="ambient gram is 2x2/3, not 2x2"):
            LatticeZ.from_rows(i3[:2], [[1, 0, 0], [0, 1]])

    def test_constructors_refuse_an_asymmetric_gram(self):
        """The Gram of a lattice is computed as a mirrored upper triangle,
        so a Gram that is not symmetric is refused where it enters."""
        with pytest.raises(LatticeError, match="^gram is not symmetric$"):
            LatticeZ.from_gram([[2, 1], [0, 2]])
        with pytest.raises(LatticeError, match="^ambient gram is not symmetric$"):
            LatticeZ.from_rows([[1, 0], [1, 1]], [[2, 1], [-1, 2]])

    def test_integer_gram_is_the_full_product(self):
        """B A B^T from the mirrored upper triangle equals the full product
        on seeded symmetric A, for square B and for fewer rows than A."""
        rng = random.Random(28)
        for _ in range(40):
            n, k = rng.randint(1, 9), rng.randint(1, 9)
            k, span = min(k, n), 10 ** rng.randint(1, 30)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-span, span)
            b = [[rng.randint(-span, span) for _ in range(n)] for _ in range(k)]
            full = tuple(tuple(sum(b[i][p] * a[p][q] * b[j][q]
                                   for p in range(n) for q in range(n))
                               for j in range(k)) for i in range(k))
            assert lattice._integer_gram(b, a) == full

    def test_scaled_takes_an_int(self):
        with pytest.raises(TypeError):
            cd_lattice().scaled(Fraction(1, 2))

    def test_index_squared_law_random(self):
        rng = random.Random(12)
        cd = cd_lattice()
        for _ in range(4):
            rows = [[rng.randint(0, 2) + (2 if i == j else 0) for j in range(8)]
                    for i in range(8)]
            sub = LatticeZ.from_rows(rows, cd.ambient_gram, "random-sub")
            if mat_det(sub.basis) == 0:
                continue
            inv = sublattice_invariants(sub, cd)
            assert inv.det_sub == inv.index ** 2 * cd.det()


class TestShortVectors:
    def test_e8_roots(self):
        assert len(short_vectors(cd_lattice(), 2)) == 240

    def test_box_oracle_a2(self):
        lat = LatticeZ.from_gram(A2)
        for bound in (2, 4, 6, 8):
            assert short_vectors(lat, bound) == box_search(A2, bound)

    def test_box_oracle_d4(self):
        lat = LatticeZ.from_gram(D4)
        assert short_vectors(lat, 4) == box_search(D4, 4)

    def test_box_oracle_e8_small(self):
        assert short_vectors(cd_lattice(), 2) == box_search(cd_lattice().gram, 2)

    def test_conductor_minimum(self):
        cond = conductor_lattice()
        assert short_vectors(cond, 7) == []
        at8 = short_vectors(cond, 8)
        assert any(coords == (1, 0, 0, 0, 0, 0, 0, 0) for coords, _ in at8)
        mn, kiss = minimum_and_kissing(at8, 8)
        assert mn == 8
        assert kiss == len(at8)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            short_vectors(LatticeZ.from_gram([[1, 0], [0, -1]]), 3)

    def test_norms_are_ints(self):
        assert all(type(nrm) is int for _, nrm in short_vectors(cd_lattice(), 4))

    def test_empty_bound(self):
        assert short_vectors(cd_lattice(), 1) == []
        with pytest.raises(LatticeError, match="no nonzero vectors of norm <= 1"):
            minimum_and_kissing(short_vectors(cd_lattice(), 1), 1)


class TestShells:
    def test_sigma3(self):
        assert [sigma3(n) for n in range(1, 7)] == [1, 9, 28, 73, 126, 252]

    def test_counts_vs_formula(self):
        shells = shell_counts_vs_sigma3(cd_lattice(), 4)
        assert [(s.n, s.count) for s in shells] == [
            (1, 240), (2, 2160), (3, 6720), (4, 17520),
        ]
        assert all(s.count == s.formula for s in shells)
        assert [s.formula for s in shells] == list(claims.SHELL_VALUES[:4])

    def test_counts_even(self):
        # +-x pairing makes every nonzero shell even
        shells = shell_counts_vs_sigma3(cd_lattice(), 4)
        assert all(s.count % 2 == 0 for s in shells)

    def test_guard(self):
        with pytest.raises(ValueError):
            shell_counts_vs_sigma3(cd_lattice(), 7)
        for maxn in (0, -1):  # an empty shell range must not pass vacuously
            with pytest.raises(ValueError):
                shell_counts_vs_sigma3(cd_lattice(), maxn)


def _counts_of(vectors):
    counts = {}
    for _, nrm in vectors:
        counts[nrm] = counts.get(nrm, 0) + 1
    return dict(sorted(counts.items()))


class TestNormCounts:
    """The counting mode of the enumeration against the vectors that
    short_vectors returns (norms recomputed from the Gram) and against the
    brute-force box."""

    @pytest.mark.parametrize("lattice, bound", [
        (cd_lattice, 8),
        (conductor_lattice, 16),
        (lambda: LatticeZ.from_gram(A2), 8),
        (lambda: LatticeZ.from_gram(D4), 6),
        (lambda: LatticeZ.from_gram([[1, 0], [0, 3]]), 5),  # odd norms
    ])
    def test_against_short_vectors(self, lattice, bound):
        lat = lattice()
        assert norm_counts(lat, bound) == _counts_of(short_vectors(lat, bound))

    @pytest.mark.parametrize("name", sorted(
        n for n in claims.CLASSICAL_TABLE if n not in claims.UNSPECIFIED_CLASSICAL))
    def test_catalog_lattices(self, name):
        lat = order_lattice(build_classical(name))
        for bound in (2, 4):
            assert norm_counts(lat, bound) == _counts_of(short_vectors(lat, bound))

    def test_against_box(self):
        for gram, bound in ((A2, 8), (D4, 4)):
            assert norm_counts(LatticeZ.from_gram(gram), bound) == _counts_of(
                box_search(gram, bound))

    def test_norm_keys(self):
        counts = norm_counts(cd_lattice(), 6)
        assert counts == {2: 240, 4: 2160, 6: 6720}
        assert all(type(k) is int for k in counts)
        assert norm_counts(cd_lattice(), 1) == {}


class TestDiscriminantGroup:
    def test_e8_trivial(self):
        assert discriminant_group(cd_lattice()).invariants == ()

    def test_conductor_group(self):
        group = discriminant_group(conductor_lattice())
        assert group.invariants == claims.DISCRIMINANT_INVARIANTS
        assert group.order == claims.DISCRIMINANT_ORDER

    def test_singular_and_non_integral_grams_rejected(self):
        with pytest.raises(LatticeError):
            discriminant_group(LatticeZ.from_gram([[2, 2], [2, 2]]))
        # a non-integral Gram never makes a lattice
        with pytest.raises(TypeError):
            half = Fraction(1, 2)
            LatticeZ.from_gram([[2, half], [half, 2]])

    def test_one_smith_form_and_no_rational_inverse(self, monkeypatch):
        import okubo_e8.lattice as lattice_module

        lat = conductor_lattice()
        lat.gram  # the basis Gram is cached before counting
        calls = {"_snf_reduce": 0, "solve": 0}
        for name in calls:
            original = getattr(lattice_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lattice_module, name, counted)
        assert discriminant_group(lat).invariants == claims.DISCRIMINANT_INVARIANTS
        assert calls == {"_snf_reduce": 1, "solve": 0}

    def test_conductor_group_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        gram = [list(row) for row in conductor_lattice().gram]
        s = smith_normal_form(sympy.Matrix(gram))
        diag = sorted(abs(s[i, i]) for i in range(8))
        assert tuple(d for d in diag if d > 1) == claims.DISCRIMINANT_INVARIANTS

    def test_q_well_defined(self):
        # q read from the dual Gram of the conductor lattice vanishes on
        # every class of H and on a second lift of each, as glue-isotropy says
        sub, sup = conductor_lattice(), cd_lattice()
        values, shifted = dual_form_values(sub, sup, shift=0)
        assert len(values) == claims.CONDUCTOR_INDEX
        assert values == shifted
        assert glue_and_saturate(sub, sup).q_values_all_zero
        assert all(q == 0 for q, _ in values.values())

    def test_q_polarization(self):
        # q(a + b) - q(a) - q(b) = 2 b(a, b) mod 2 on the dual-Gram values,
        # and they vanish exactly when glue_and_saturate finds H isotropic
        found = set()
        for sub_rows, sup_gram in (
            ([[2]], [[1]]),
            ([[2, 0], [0, 2]], [[2, 1], [1, 4]]),
            ([[2, 0], [0, 2]], [[1, 0], [0, 2]]),
            ([[2, 0, 0], [0, 4, 0], [1, 1, 2]], [[2, 1, 0], [1, 3, 1], [0, 1, 6]]),
        ):
            sub = LatticeZ.from_rows(sub_rows, sup_gram)
            sup = LatticeZ.from_gram(sup_gram)
            values, _ = dual_form_values(sub, sup)
            ginv = inverse(sub.gram)
            orders = glue_and_saturate(sub, sup).quotient_invariants
            for a, (qa, ya) in values.items():
                for b, (qb, yb) in values.items():
                    ab = tuple((x + y) % t for x, y, t in zip(a, b, orders))
                    pair = sum(u * ginv[i][j] * v for i, u in enumerate(ya)
                               for j, v in enumerate(yb))
                    assert (values[ab][0] - qa - qb - 2 * pair) % 2 == 0
            isotropic = all(q == 0 for q, _ in values.values())
            assert glue_and_saturate(sub, sup).q_values_all_zero is isotropic
            found.add(isotropic)
        assert found == {True, False}


def quotient_generators(sub, sup):
    """(invariants, generators) of H = sup/sub: the Smith factors d_i > 1 of
    the inclusion matrix and their rows r_i in sup coordinates, from the
    one decomposition ``glue_and_saturate`` reads."""
    factors = [(d, r) for d, r in _smith_rows(_inclusion_matrix(sub, sup)) if d > 1]
    return tuple(d for d, _ in factors), tuple(r for _, r in factors)


def dual_form_values(sub, sup, shift=None):
    """q(h) = <v, v> mod 2 on every class h of H = sup/sub inside
    A_sub = sub*/sub, read from the dual Gram of sub alone: a lift v in sup
    has the dual coordinates y_j = <v, b_j> over the basis b of sub, and
    <v, v> = y G^-1 y^T for G the Gram of sub.

    Returns {coefficients of h: (q(h), y)} and, with ``shift`` = j, the
    values of q on the lifts moved by b_j (whose dual coordinates are row
    j of G), else None.
    """
    invariants, generators = quotient_generators(sub, sup)
    g, amb = sub.gram, sub.ambient_gram
    ginv = inverse(g)
    den = lcm(*(v.denominator for row in ginv for v in row))
    dual_int = [[int(v * den) for v in row] for row in ginv]
    n = len(g)

    def dual(v):
        return [sum(v[r] * amb[r][c] * b[c] for r in range(n) for c in range(n))
                for b in sub.basis]

    def q(y):
        val = sum(u * dual_int[i][j] * w for i, u in enumerate(y) if u
                  for j, w in enumerate(y) if w)
        return Fraction(val % (2 * den), den)

    gens = [dual(sup.vector(h)) for h in generators]
    assert all(v.denominator == 1 for row in gens for v in row), "sup is not in sub*"
    values, shifted = {}, None if shift is None else {}
    for coeffs in itertools.product(*(range(t) for t in invariants)):
        y = [sum(c * row[j] for c, row in zip(coeffs, gens)) for j in range(n)]
        values[coeffs] = (q(y), y)
        if shift is not None:
            shifted[coeffs] = (q([u + v for u, v in zip(y, g[shift])]), y)
    return values, shifted


class TestGlueSaturate:
    def test_full_report(self):
        rep = glue_and_saturate(conductor_lattice(), cd_lattice())
        assert rep.saturation_equals_sup
        assert rep.quotient_invariants == claims.QUOTIENT_INVARIANTS
        assert rep.quotient_order == claims.CONDUCTOR_INDEX
        assert rep.q_values_all_zero
        assert rep.maximal_isotropic
        assert rep.glued_even and rep.glued_unimodular
        assert rep.glued_equals_sup

    @pytest.mark.parametrize("sub_rows, sup_gram, isotropic", [
        ([[2]], [[1]], False),  # 2Z in Z: q(1) = 1
        ([[2]], [[3]], False),
        ([[2, 0], [0, 2]], [[2, 1], [1, 4]], True),
        ([[2, 0], [0, 2]], [[1, 0], [0, 2]], False),
        ([[2, 0], [0, 2]], [[2, 1], [1, 3]], False),  # q(e_1) = 0, q(e_2) = 1
        ([[2, 0, 0], [0, 4, 0], [1, 1, 2]], [[2, 1, 0], [1, 3, 1], [0, 1, 6]],
         False),
    ])
    def test_isotropy_witness(self, sub_rows, sup_gram, isotropic):
        """Isotropy is decided on the generators alone; a walk over every
        class, in itertools.product order, for the first lift v with
        <v, v> outside 2Z agrees."""
        sup = LatticeZ.from_gram(sup_gram)
        sub = LatticeZ.from_rows(sub_rows, sup_gram)
        invariants, generators = quotient_generators(sub, sup)
        g, n = sup.gram, sup.rank
        witness = None
        for coeffs in itertools.product(*(range(t) for t in invariants)):
            v = [sum(c * row[j] for c, row in zip(coeffs, generators)) for j in range(n)]
            if sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n)) % 2:
                witness = coeffs
                break
        rep = glue_and_saturate(sub, sup)
        assert rep.q_values_all_zero is isotropic
        assert (witness is None) is isotropic

    def test_quotient_group(self):
        rep = glue_and_saturate(conductor_lattice(), cd_lattice())
        assert rep.quotient_invariants == claims.QUOTIENT_INVARIANTS
        assert rep.quotient_order == 4096

    def test_one_smith_decomposition(self, monkeypatch):
        """Both recoveries read one Smith decomposition of the inclusion
        matrix of sub in sup: one inclusion matrix of that pair, and one
        Smith form with its transform."""
        import okubo_e8.lattice as lattice_module

        sub, sup = conductor_lattice(), cd_lattice()
        pairs, transformed = [], []

        def inclusion(inner, outer, _original=lattice_module._inclusion_matrix):
            pairs.append((inner, outer))
            return _original(inner, outer)

        def snf(m, transforms=True, _original=lattice_module._snf_reduce):
            transformed.append(transforms)
            return _original(m, transforms)

        monkeypatch.setattr(lattice_module, "_inclusion_matrix", inclusion)
        monkeypatch.setattr(lattice_module, "_snf_reduce", snf)
        glue_and_saturate(sub, sup)
        assert pairs.count((sub, sup)) == 1
        assert transformed.count(True) == 1

    @pytest.mark.parametrize("run, solves", [
        pytest.param(lambda sub, sup: lattice._smith_rows(lattice._inclusion_matrix(sub, sup)),
                     1, id="quotient_group"),
        pytest.param(glue_and_saturate, 5, id="saturation"),
    ])
    def test_smith_rows_need_no_rational_inverse(self, run, solves, monkeypatch):
        # the Smith form hands over Q^-1 itself; nothing inverts Q over Q,
        # and every rational solve is an inclusion matrix.  The quotient
        # group is read from the Smith rows of the one inclusion matrix of
        # sub in sup; the saturation and the gluing add only those of the
        # mutual containments that compare Sat_2(sub) and the glued lattice
        # with sup
        import okubo_e8.lattice as lattice_module

        calls = {"solve": 0, "_inclusion_matrix": 0}
        for name in calls:
            original = getattr(lattice_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lattice_module, name, counted)
        run(conductor_lattice(), cd_lattice())
        assert calls == {"solve": solves, "_inclusion_matrix": solves}

    def test_saturation_idempotent_and_monotone(self):
        cond, cd = conductor_lattice(), cd_lattice()
        sat = glue_and_saturate(cond, cd).saturation
        assert contains(sat, cond)  # monotone: L subset of Sat(L)
        sat2 = glue_and_saturate(sat, cd).saturation
        assert lattices_equal(sat, sat2)

    @pytest.mark.parametrize("run", [
        sublattice_invariants,
        pytest.param(lambda sub, sup: glue_and_saturate(sub, sup).quotient_invariants,
                     id="quotient_group"),
        pytest.param(lambda sub, sup: glue_and_saturate(sub, sup).saturation,
                     id="saturation"),
    ])
    def test_rank_deficient_sub_rejected(self, run):
        # a rank-1 sublattice has an infinite quotient and a zero Smith factor
        sup = LatticeZ.from_gram([[2, 1], [1, 2]])
        sub = LatticeZ.from_rows([[2, 0], [4, 0]], sup.ambient_gram)
        with pytest.raises(LatticeError):
            run(sub, sup)


class TestTrace16:
    def test_report(self):
        rep = trace_lattice_16(scaled_basis().inner_products())
        assert rep.even
        assert rep.positive_definite
        assert rep.minimum == 16
        assert rep.minimum_count == 16
        assert rep.gram[0][0] == 16  # Tr<u0,u0> doubles the norm-8 entry

    def test_indefinite_gram_fails_its_checks(self, monkeypatch):
        """A trace Gram with a negative pivot is reported, not raised: not
        positive definite, no minimum and no minimal vectors, so both
        checks that read them fail."""
        from okubo_e8 import checks, orders

        k_gram = [[QuadExt(2 * (i == j) * (-1 if i == 7 else 1)) for j in range(8)]
                  for i in range(8)]
        rep = trace_lattice_16(k_gram)
        with pytest.raises(NotPositiveDefinite, match="pivot 7 is -4"):
            short_vectors(LatticeZ.from_gram(rep.gram), 16)
        assert rep.even and not rep.positive_definite
        assert (rep.minimum, rep.minimum_count) == (None, 0)

        class Indefinite:
            def inner_products(self):
                return k_gram

        monkeypatch.setattr(orders, "scaled_basis", Indefinite)
        by_id = {r.check: r for r in checks.check_trace16()}
        assert by_id["trace16-positive-definite"].status == "fail"
        assert by_id["trace16-minimum"].status == "fail"
        assert by_id["trace16-even"].status == "pass"

    def test_no_vectors_below_sixteen(self):
        rep = trace_lattice_16(scaled_basis().inner_products())
        lat = LatticeZ.from_gram([list(r) for r in rep.gram])
        assert short_vectors(lat, 15) == []


def sympy_det(m):
    sympy = pytest.importorskip("sympy")
    d = sympy.Matrix([[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
                       for v in row] for row in m]).det()
    return Fraction(int(d.p), int(d.q))


class TestDeterminant:
    """``mat_det`` (fraction-free elimination) against sympy's determinant."""

    def seeded(self, rational):
        rng = random.Random(16 + rational)
        out = []
        for _ in range(40):
            n = rng.randint(1, 7)
            if rational:
                out.append([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(n)] for _ in range(n)])
            else:
                out.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        return out

    @pytest.mark.parametrize("rational", [False, True])
    def test_seeded_against_sympy(self, rational):
        """A rational M is taken as integer rows Mi over one denominator:
        det M = det(Mi) / den^n."""
        dets = []
        for m in self.seeded(rational):
            den = lcm(*(Fraction(v).denominator for row in m for v in row))
            det = mat_det([[int(v * den) for v in row] for row in m])
            assert type(det) is int
            dets.append(Fraction(det, den ** len(m)))
            assert dets[-1] == sympy_det(m)
        assert any(d < 0 for d in dets) and any(d > 0 for d in dets)
        if rational:
            assert any(d.denominator > 1 for d in dets)

    def test_singular(self):
        rng = random.Random(5)
        cases = [[[0, 0], [0, 0]], [[0, 1, 2], [0, 3, 4], [0, 5, 6]], [[0]]]
        for n in range(2, 7):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n - 1)]
            c = [rng.randint(-2, 2) for _ in range(n - 1)]
            rows.insert(rng.randrange(n), [sum(a * r[j] for a, r in zip(c, rows))
                                           for j in range(n)])
            cases.append(rows)
        for m in cases:
            assert mat_det(m) == 0 == sympy_det(m)
            assert type(mat_det(m)) is int

    def test_row_swaps(self):
        cases = [
            [[0, 1], [1, 0]],  # det -1
            [[0, 2, 1], [3, 1, 4], [1, 5, 9]],  # zero leading pivot
            [[1, 2, 3], [2, 4, 7], [3, 7, 1]],  # zero second pivot after a step
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[1, 2, 0, 0], [1, 2, 1, 0], [0, 0, 0, 3], [0, 1, 5, 7]],
        ]
        for m in cases:
            assert mat_det(m) == sympy_det(m) != 0
        assert mat_det(cases[0]) == -1

    def test_one_by_one(self):
        for v in (5, -3, 0):
            assert mat_det([[v]]) == v and type(mat_det([[v]])) is int

    def test_fixture_grams(self):
        for gram, smith in fixture_grams():
            assert mat_det(gram) == prod(smith) == sympy_det(gram)

    def test_only_integers(self):
        """A matrix entry that is not an int, an integral Fraction included,
        is refused by the determinant and by both lattice constructors."""
        for bad in ([[QuadExt(1, 1)]], [[1.0, 0], [0, 1]], [["1"]],
                    [[Fraction(1, 2)]], [[Fraction(2), 0], [0, 1]]):
            ident = [[int(i == j) for j in range(len(bad))] for i in range(len(bad))]
            for build in (mat_det, LatticeZ.from_gram,
                          lambda m: LatticeZ.from_rows(m, ident),
                          lambda m: LatticeZ.from_rows(ident, m)):
                with pytest.raises(TypeError):
                    build(bad)


class TestPivotsAndFixtures:
    def test_enumeration_plan_decides_definiteness(self):
        """The enumeration's exact LDL is the one positive-definiteness
        test: every pivot of A2 is positive, and the plan refuses a form
        with a negative or a zero pivot."""
        assert all(w > 0 for w in prepare_enumeration(A2, 2).weights)
        with pytest.raises(NotPositiveDefinite, match="pivot 1 is -2"):
            prepare_enumeration([[1, 0], [0, -2]], 2)
        # a row exchange would hide the zero leading pivot of this form
        with pytest.raises(NotPositiveDefinite, match="pivot 0 is 0"):
            prepare_enumeration([[0, 1], [1, 0]], 2)

    def test_det_equals_smith_product(self):
        lats = (cd_lattice(), conductor_lattice(), LatticeZ.from_gram(D4))
        for gram in [lat_.gram for lat_ in lats] + [g for g, _ in fixture_grams()]:
            assert mat_det(gram) == prod(smith_invariants(gram))

    def test_fixture_round_trip(self):
        cond = conductor_lattice()
        text = lattice_to_fixture(cond)
        assert json.loads(text)["basis"] == [[str(v) for v in row] for row in cond.basis]
        assert lattice_from_fixture(text) == (cond.label, cond.gram)

    def test_fixture_integer_gram(self, tmp_path, capsys):
        cond = conductor_lattice()
        label, gram = lattice_from_fixture(lattice_to_fixture(cond))
        assert label == cond.label and gram == cond.gram
        assert all(type(v) is int for row in gram for v in row)
        # entries need not be in lowest terms: each test is on the values
        assert lattice_from_fixture(json.dumps(
            {"gram": [["4/2"]], "basis": [["2/4"]], "ambient_gram": [["16/2"]]})
        ) == ("", ((2,),))
        assert lattice_from_fixture(json.dumps(
            {"gram": [["18", "1"], ["1", "2"]], "basis": [["3", "0"], ["0", "1"]],
             "ambient_gram": [["2", "1/3"], ["2/6", "2"]]})
        )[1] == ((18, 1), (1, 2))
        # outside input may be rational: the conductor basis diag(2^a_i)
        # quartered, to entries 1/2 and 1, in an ambient space scaled by 16
        # has the conductor's Gram
        payload = json.loads(lattice_to_fixture(cond))
        payload["basis"] = [[str(Fraction(v) / 4) for v in row] for row in payload["basis"]]
        payload["ambient_gram"] = [[str(16 * int(v)) for v in row]
                                   for row in payload["ambient_gram"]]
        assert {"1/2", "1"} <= {v for row in payload["basis"] for v in row}
        assert lattice_from_fixture(json.dumps(payload)) == (cond.label, cond.gram)
        path = tmp_path / "rational.json"
        path.write_text(json.dumps(payload))
        argv = ["lattice", "invariants", "--fixture", str(path), "--format", "json"]
        assert cli.main(argv) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["actual"] for r in reports] == [claims.CONDUCTOR_DET] * 2
        # and tampered, it is refused with the same message as ever
        payload["basis"][0][0] = "1"
        path.write_text(json.dumps(payload))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.endswith(
            "okubo-e8: fixture gram does not match basis and ambient gram\n")
        with pytest.raises(LatticeError, match="not integral"):
            lattice_from_fixture(json.dumps(
                {"gram": [["3/2"]], "basis": [["1"]], "ambient_gram": [["3/2"]]}))

    def test_fixture_json_integer_literals(self):
        """JSON integers are read as their text is, by the one grammar; a
        literal is no label, and inside an entry that is no number it is
        quoted as the int it is, or by its first digits past the limit."""
        cond = conductor_lattice()
        payload = json.loads(lattice_to_fixture(cond))
        for key in ("gram", "basis", "ambient_gram"):
            payload[key] = [[int(v) for v in row] for row in payload[key]]
        assert lattice_from_fixture(json.dumps(payload)) == (cond.label, cond.gram)
        one = json.dumps({"gram": [["1"]], "basis": [["1"]], "ambient_gram": [["1"]]})
        with pytest.raises(LatticeError, match="^fixture label is not a string$"):
            lattice_from_fixture(one[:-1] + ', "label": 5}')
        for entry, quoted in (("[-0, 5]", "[0, 5]"), ('{"a": 12}', "{'a': 12}"),
                              (f"[{'9' * 5000}]", "[999999999999...]")):
            with pytest.raises(LatticeError) as err:
                lattice_from_fixture(one.replace('"basis": [["1"]]', f'"basis": [[{entry}]]'))
            assert str(err.value) == f"fixture entry {quoted} is not an integer or a fraction string"

    def test_fixture_tamper_detected(self):
        payload = json.loads(lattice_to_fixture(cd_lattice()))
        payload["gram"][0][0] = "4"

        def one(gram, basis, ambient="1", **extra):
            return json.dumps({"gram": [[gram]], "basis": [[basis]],
                               "ambient_gram": [[ambient]], **extra})

        bad = [
            json.dumps(payload),
            "not json",
            "[" * 100000 + "]" * 100000,  # nested past the recursion limit
            "{}",
            "[1, 2]",
            '{"gram": [], "basis": [], "ambient_gram": []}',
            '{"gram": [[]], "basis": [[]], "ambient_gram": [[]]}',
            json.dumps({"basis": [["1"]], "ambient_gram": [["1"]]}),
            # non-square, and sizes that disagree
            json.dumps({"gram": [["1", "0"]], "basis": [["1", "0"]],
                        "ambient_gram": [["1", "0"]]}),
            json.dumps({"gram": [["1"]], "basis": [["1", "0"], ["0", "1"]],
                        "ambient_gram": [["1", "0"], ["0", "1"]]}),
            json.dumps({"gram": [["1", "1"], ["0", "1"]],  # not symmetric
                        "basis": [["1", "0"], ["0", "1"]],
                        "ambient_gram": [["1", "1"], ["0", "1"]]}),
            # the Gram of basis 1/2 is 1/4: wrong when declared as the
            # truncation 0, and non-integral when declared exactly
            one("0", "1/2"),
            one("1/4", "1/2"),
            one("1", "1/0"),
            one("1", "one"),
            one("1", 1.0),
            one("1", True),
            one("1", "1", label=["x"]),
        ]
        for text in bad:
            with pytest.raises(LatticeError):
                lattice_from_fixture(text)
        assert lattice_from_fixture(one("4", "1/2", "16", label="x")) == ("x", ((4,),))
