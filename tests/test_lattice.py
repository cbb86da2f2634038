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

from okubo_e8 import claims
from okubo_e8._kernels import NotPositiveDefinite
from okubo_e8.catalog import build_classical, order_lattice
from okubo_e8.exact import QuadExt
from okubo_e8.lattice import (
    _snf_reduce,
    InclusionError,
    LatticeError,
    LatticeZ,
    contains,
    discriminant_group,
    glue_and_saturate,
    hnf_snf,
    hnf_with_transform,
    lattice_from_fixture,
    lattice_to_fixture,
    lattices_equal,
    ldl_pivots,
    mat_det,
    mat_inv,
    mat_mul,
    minimum_and_kissing,
    norm_counts,
    quotient_group,
    saturation,
    shell_counts_vs_sigma3,
    short_vectors,
    sigma3,
    smith_invariants,
    sublattice_invariants,
    trace_lattice_16,
)
from okubo_e8.orders import cd_lattice, conductor_lattice, u_gram_quadext

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
    ginv = mat_inv([[Fraction(v) for v in row] for row in gram])
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
                out.append((tuple(vec) + (v,), Fraction(nrm)))
    rec(0, [], 0, False)
    return sorted(out)


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
            gram = LatticeZ.from_rows(rows, base.ambient_gram).gram()
            out.append(([[int(v) for v in row] for row in gram], smith))
    return out


class TestNormalForms:
    def test_examples(self):
        assert hnf_snf([[2, 1], [0, 3]]).smith == (1, 6)
        diag = [[2 if i == j and i < 4 else (4 if i == j else 0) for j in range(8)]
                for i in range(8)]
        assert hnf_snf(diag).smith == (2, 2, 2, 2, 4, 4, 4, 4)
        ident = [[int(i == j) for j in range(8)] for i in range(8)]
        assert hnf_snf(ident).smith == (1,) * 8

    def test_gcd_det_oracle(self):
        # smith (1, 6): first invariant is the gcd of entries, product is |det|
        m = [[2, 1], [0, 3]]
        nf = hnf_snf(m)
        assert nf.smith[0] == 1  # gcd(2, 1, 0, 3)
        assert nf.smith[0] * nf.smith[1] == 6  # |det|

    def test_reconstruction(self):
        rng = random.Random(4)
        for _ in range(12):
            n = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            nf = hnf_snf(m)
            s = [[nf.smith[i] if i == j else 0 for j in range(n)] for i in range(n)]
            recon = mat_mul(mat_mul([list(r) for r in nf.left], s),
                            [list(r) for r in nf.right])
            assert [[int(v) for v in row] for row in recon] == m
            h, t = hnf_with_transform(m)
            assert abs(mat_det([list(r) for r in t])) == 1
            assert [[int(v) for v in row]
                    for row in mat_mul([list(r) for r in t], m)] == h
            # divisibility chain
            for a, b in zip(nf.smith, nf.smith[1:]):
                if a and b:
                    assert b % a == 0

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


def _int_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(m):
    """Laplace expansion along the first row (tiny matrices only)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


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
        s, p, q = _snf_reduce(m)
        assert _int_mul(_int_mul(p, m), q) == s
        assert abs(_det(p)) == 1 and abs(_det(q)) == 1
        assert all(s[i][j] == 0 for i in range(len(s)) for j in range(len(s[0])) if i != j)

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
    def test_hermite_transform(self, m):
        h, t = hnf_with_transform(m)
        assert _int_mul(t, m) == h
        assert abs(_det(t)) == 1
        nf = hnf_snf(m)
        diag = [[nf.smith[i] if i == j else 0 for j in range(len(m[0]))]
                for i in range(len(m))]
        assert _int_mul(_int_mul([list(r) for r in nf.left], diag),
                        [list(r) for r in nf.right]) == m

    def test_fixture_grams(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        for gram, smith in fixture_grams():
            s, p, q = _snf_reduce(gram)
            assert _int_mul(_int_mul(p, gram), q) == s
            assert abs(mat_det(p)) == 1 and abs(mat_det(q)) == 1
            theirs = smith_normal_form(sympy.Matrix(gram))
            assert smith_invariants(gram) == smith == tuple(
                abs(int(theirs[i, i])) for i in range(8))


class TestSublattice:
    def test_conductor_in_e8(self):
        inv = sublattice_invariants(conductor_lattice(), cd_lattice())
        assert inv.index == claims.CONDUCTOR_INDEX
        assert inv.det_sub == claims.CONDUCTOR_DET
        assert inv.det_sup == 1
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
        half = cd.scaled(Fraction(1, 2))
        for run in (sublattice_invariants, quotient_group,
                    lambda sub, sup: saturation(sub, sup, 2)):
            with pytest.raises(InclusionError) as err:
                run(half, cd)
            assert err.value.witness == half.basis[0]

    def test_index_squared_law_random(self):
        rng = random.Random(12)
        cd = cd_lattice()
        for _ in range(4):
            rows = [[rng.randint(0, 2) + (2 if i == j else 0) for j in range(8)]
                    for i in range(8)]
            sub = LatticeZ.from_rows(rows, cd.ambient_gram, "random-sub")
            if mat_det([list(r) for r in sub.basis]) == 0:
                continue
            inv = sublattice_invariants(sub, cd)
            assert inv.det_sub == inv.index ** 2 * inv.det_sup


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
        gram = [list(r) for r in cd_lattice().gram()]
        gi = [[int(v) for v in row] for row in gram]
        assert short_vectors(cd_lattice(), 2) == box_search(gi, 2)

    def test_conductor_minimum(self):
        cond = conductor_lattice()
        assert short_vectors(cond, 7) == []
        at8 = short_vectors(cond, 8)
        assert any(coords == (1, 0, 0, 0, 0, 0, 0, 0) for coords, _ in at8)
        mn, kiss = minimum_and_kissing(cond, 8)
        assert mn == 8
        assert kiss == len(at8)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            short_vectors(LatticeZ.from_gram([[1, 0], [0, -1]]), 3)

    def test_rational_gram(self):
        lat = LatticeZ.from_gram([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        vecs = short_vectors(lat, 1)
        assert len(vecs) == 8  # squares and diagonals of the scaled square grid
        assert all(nrm <= 1 for _, nrm in vecs)

    def test_empty_bound(self):
        assert short_vectors(cd_lattice(), 1) == []
        with pytest.raises(Exception):
            minimum_and_kissing(cd_lattice(), 1)


class TestShells:
    def test_sigma3(self):
        assert [sigma3(n) for n in range(1, 7)] == [1, 9, 28, 73, 126, 252]

    def test_counts_vs_formula(self):
        shells = shell_counts_vs_sigma3(cd_lattice(), 4)
        assert [(s.n, s.count) for s in shells] == [
            (1, 240), (2, 2160), (3, 6720), (4, 17520),
        ]
        assert all(s.match for s in shells)
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
        (lambda: LatticeZ.from_gram([[Fraction(1, 2), 0], [0, Fraction(3, 2)]]), 5),
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
        assert all(type(k) is Fraction for k in counts)
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
        with pytest.raises(LatticeError):
            half = Fraction(1, 2)
            discriminant_group(LatticeZ.from_gram([[2, half], [half, 2]]))

    def test_one_smith_form_and_no_rational_inverse(self, monkeypatch):
        import okubo_e8.lattice as lattice_module

        lat = conductor_lattice()
        lat.gram()  # the basis Gram is cached before counting
        calls = {"_snf_reduce": 0, "mat_inv": 0}
        for name in calls:
            original = getattr(lattice_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(lattice_module, name, counted)
        assert discriminant_group(lat).invariants == claims.DISCRIMINANT_INVARIANTS
        assert calls == {"_snf_reduce": 1, "mat_inv": 0}

    def test_conductor_group_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        gram = [[int(v) for v in row] for row in conductor_lattice().gram()]
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
        assert glue_and_saturate(sub, sup, 2).q_values_all_zero
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
            ginv = mat_inv(sub.gram())
            orders = quotient_group(sub, sup).invariants
            for a, (qa, ya) in values.items():
                for b, (qb, yb) in values.items():
                    ab = tuple((x + y) % t for x, y, t in zip(a, b, orders))
                    pair = sum(u * ginv[i][j] * v for i, u in enumerate(ya)
                               for j, v in enumerate(yb))
                    assert (values[ab][0] - qa - qb - 2 * pair) % 2 == 0
            isotropic = all(q == 0 for q, _ in values.values())
            assert glue_and_saturate(sub, sup, 2).q_values_all_zero is isotropic
            found.add(isotropic)
        assert found == {True, False}


def dual_form_values(sub, sup, shift=None):
    """q(h) = <v, v> mod 2 on every class h of H = sup/sub inside
    A_sub = sub*/sub, read from the dual Gram of sub alone: a lift v in sup
    has the dual coordinates y_j = <v, b_j> over the basis b of sub, and
    <v, v> = y G^-1 y^T for G the Gram of sub.

    Returns {coefficients of h: (q(h), y)} and, with ``shift`` = j, the
    values of q on the lifts moved by b_j (whose dual coordinates are row
    j of G), else None.
    """
    quot = quotient_group(sub, sup)
    g, amb = sub.gram(), sub.ambient_gram
    ginv = mat_inv(g)
    den = lcm(*(v.denominator for row in ginv for v in row))
    dual_int = [[int(v * den) for v in row] for row in ginv]
    n = len(g)
    g = [[int(v) for v in row] for row in g]

    def dual(v):
        return [sum(v[r] * amb[r][c] * b[c] for r in range(n) for c in range(n))
                for b in sub.basis]

    def q(y):
        val = sum(u * dual_int[i][j] * w for i, u in enumerate(y) if u
                  for j, w in enumerate(y) if w)
        return Fraction(val % (2 * den), den)

    gens = [dual(sup.vector(h)) for h in quot.generators_sup_coords]
    assert all(v.denominator == 1 for row in gens for v in row), "sup is not in sub*"
    gens = [[int(v) for v in row] for row in gens]
    values, shifted = {}, None if shift is None else {}
    for coeffs in itertools.product(*(range(t) for t in quot.invariants)):
        y = [sum(c * row[j] for c, row in zip(coeffs, gens)) for j in range(n)]
        values[coeffs] = (q(y), y)
        if shift is not None:
            shifted[coeffs] = (q([u + v for u, v in zip(y, g[shift])]), y)
    return values, shifted


class TestGlueSaturate:
    def test_full_report(self):
        rep = glue_and_saturate(conductor_lattice(), cd_lattice(), 2)
        assert rep.saturation_equals_sup
        assert rep.quotient_invariants == claims.QUOTIENT_INVARIANTS
        assert rep.quotient_order == claims.CONDUCTOR_INDEX
        assert rep.q_values_all_zero
        assert rep.isotropy_witness is None
        assert rep.maximal_isotropic
        assert rep.glued_even and rep.glued_unimodular
        assert rep.glued_equals_sup

    @pytest.mark.parametrize("sub_rows, sup_gram, isotropic", [
        ([[2]], [[1]], False),  # 2Z in Z: q(1) = 1
        ([[2]], [[Fraction(1, 2)]], False),
        ([[2, 0], [0, 2]], [[2, 1], [1, 4]], True),
        ([[2, 0], [0, 2]], [[1, 0], [0, 2]], False),
        ([[2, 0], [0, 2]], [[2, Fraction(1, 2)], [Fraction(1, 2), 2]], False),
        ([[2, 0, 0], [0, 4, 0], [1, 1, 2]], [[2, 1, 0], [1, 3, 1], [0, 1, 6]],
         False),
    ])
    def test_isotropy_witness(self, sub_rows, sup_gram, isotropic):
        """The witness is the first class, in itertools.product order, whose
        lift v has <v, v> outside 2Z, with q(v) = <v, v> mod 2."""
        sup = LatticeZ.from_gram(sup_gram)
        sub = LatticeZ.from_rows(sub_rows, sup_gram)
        quot = quotient_group(sub, sup)
        g, n = sup.gram(), sup.rank
        expected = None
        for coeffs in itertools.product(*(range(t) for t in quot.invariants)):
            v = [sum(c * row[j] for c, row in zip(coeffs, quot.generators_sup_coords))
                 for j in range(n)]
            q = sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n)) % 2
            if q:
                expected = (coeffs, q)
                break
        rep = glue_and_saturate(sub, sup, 2)
        assert rep.q_values_all_zero is isotropic
        assert rep.isotropy_witness == expected
        assert (expected is None) is isotropic

    def test_quotient_group(self):
        q = quotient_group(conductor_lattice(), cd_lattice())
        assert q.invariants == claims.QUOTIENT_INVARIANTS
        assert q.order == 4096

    def test_saturation_idempotent_and_monotone(self):
        cond, cd = conductor_lattice(), cd_lattice()
        sat = saturation(cond, cd, 2)
        assert contains(sat, cond)  # monotone: L subset of Sat(L)
        sat2 = saturation(sat, cd, 2)
        assert lattices_equal(sat, sat2)

    def test_saturation_other_prime(self):
        cond, cd = conductor_lattice(), cd_lattice()
        assert lattices_equal(saturation(cond, cd, 3), cond)

    @pytest.mark.parametrize("p", [1, 0, -2])
    @pytest.mark.parametrize("run", [saturation, glue_and_saturate])
    def test_saturation_needs_p_at_least_two(self, run, p):
        # p = 1 divides every Smith factor forever, p = 0 divides by zero
        with pytest.raises(LatticeError):
            run(conductor_lattice(), cd_lattice(), p)

    @pytest.mark.parametrize("run", [sublattice_invariants, quotient_group,
                                     lambda sub, sup: saturation(sub, sup, 2)])
    def test_rank_deficient_sub_rejected(self, run):
        # a rank-1 sublattice has an infinite quotient and a zero Smith factor
        sup = LatticeZ.from_gram([[2, 1], [1, 2]])
        sub = LatticeZ.from_rows([[2, 0], [4, 0]], sup.ambient_gram)
        with pytest.raises(LatticeError):
            run(sub, sup)


class TestTrace16:
    def test_report(self):
        rep = trace_lattice_16(u_gram_quadext())
        assert rep.even
        assert rep.positive_definite
        assert rep.minimum == 16
        assert rep.minimum_count == 16
        assert rep.gram[0][0] == 16  # Tr<u0,u0> doubles the norm-8 entry

    def test_no_vectors_below_sixteen(self):
        rep = trace_lattice_16(u_gram_quadext())
        lat = LatticeZ.from_gram([list(r) for r in rep.gram])
        assert short_vectors(lat, 15) == []


class TestPivotsAndFixtures:
    def test_ldl_pivots(self):
        assert all(p > 0 for p in ldl_pivots(A2))
        assert any(p <= 0 for p in ldl_pivots([[1, 0], [0, -2]]))
        # a row exchange would hide the zero leading pivot of this form
        assert not all(p > 0 for p in ldl_pivots([[0, 1], [1, 0]]))

    def test_mat_inv_over_k(self):
        s3 = QuadExt(0, 1)
        a = [[QuadExt(1), s3], [QuadExt(2), QuadExt(1, 1)]]
        ident = [[QuadExt(int(i == j)) for j in range(2)] for i in range(2)]
        assert mat_mul(mat_inv(a), a) == ident
        assert mat_mul(a, mat_inv(a)) == ident

    def test_det_equals_smith_product(self):
        lats = (cd_lattice(), conductor_lattice(), LatticeZ.from_gram(D4))
        grams = [[[int(v) for v in row] for row in lat_.gram()] for lat_ in lats]
        for gram in grams + [g for g, _ in fixture_grams()]:
            assert mat_det(gram) == prod(smith_invariants(gram))

    def test_fixture_round_trip(self):
        cond = conductor_lattice()
        text = lattice_to_fixture(cond)
        back = lattice_from_fixture(text)
        assert lattices_equal(back, cond)
        assert back.gram() == cond.gram()

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
        assert lattice_from_fixture(one("4", "1/2", "16", label="x")).label == "x"
