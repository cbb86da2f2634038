"""The integer kernels: enumeration plans, short vectors and shell
histograms, the metric filter, the unit-loop closure and the scaling
walk, each against a plain reference loop."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import floor, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from okubo_e8._kernels import (
    BACKEND,
    NotPositiveDefinite,
    enumerate_short_vectors,
    metric_stabilizers,
    prepare_enumeration,
    scaling_walk,
    shell_histogram,
    unit_closure_failures,
)
from okubo_e8.algebras import DIM, OCT_TABLE, AlgebraElem, oct_mul
from okubo_e8.exact import QuadExt
from okubo_e8.orders import (
    SCALING_MAX_EXP,
    StructureConstants,
    cd_gram,
    scaling_feasible,
    scaling_search,
    structure_constants,
    units240,
)
from okubo_e8.stabilizer import conductor_gram


class TestPrepare:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            prepare_enumeration([[1, 2], [0, 1]], 4)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            prepare_enumeration([[0, 1], [1, 0]], 4)

    def test_rank_one(self):
        plan = prepare_enumeration([[3]], 12)
        vecs = enumerate_short_vectors(plan)
        assert vecs == [(-2,), (-1,), (1,), (2,)]

    def test_negative_bound(self):
        plan = prepare_enumeration([[2]], -1)
        assert enumerate_short_vectors(plan) == []

    def test_rational_bound(self):
        # the norms of an integer Gram are integers: a caller passes the
        # floor of a rational bound, and the plan refuses anything else
        assert enumerate_short_vectors(prepare_enumeration([[2]], 3)) == [(-1,), (1,)]
        for bound in (Fraction(7, 2), 3.0):
            with pytest.raises(TypeError):
                prepare_enumeration([[2]], bound)


class TestFallback:
    def test_big_bound_uses_python_path(self):
        # a bound far beyond 64 bits: the kernels use arbitrary-precision ints
        plan = prepare_enumeration([[1 << 40]], (1 << 80))
        vecs = enumerate_short_vectors(plan)
        assert (-(1 << 20), ) in vecs and ((1 << 20), ) in vecs

    def test_backend_name(self):
        assert BACKEND == "python"


# ---------------------------------------------------------------------------
# the packed unit-loop closure against the nested loop it replaced
# ---------------------------------------------------------------------------


def naive_unit_closure(vecs2, idx, sgn):
    """Reference: every product coordinate by the table, one pair at a time."""
    vecs2 = sorted(tuple(int(v) for v in vec) for vec in vecs2)
    vset = set(vecs2)
    n = len(idx)
    bad_member = bad_norm = 0
    for xa in vecs2:
        nz_x = [(i, xa[i]) for i in range(n) if xa[i]]
        for yb in vecs2:
            acc = [0] * n
            for i, xi in nz_x:
                row_i = idx[i]
                row_s = sgn[i]
                for j in range(n):
                    yj = yb[j]
                    if yj:
                        acc[row_i[j]] += row_s[j] * xi * yj
            if sum(v * v for v in acc) != 16:
                bad_norm += 1
            if any(v & 1 for v in acc) or tuple(v >> 1 for v in acc) not in vset:
                bad_member += 1
    return bad_member, bad_norm


def oct_mul_closure(vecs2):
    """Reference by the algebra itself: x = v/2 for each doubled vector v;
    the product oct_mul(x, y) of a pair is a member when 2 oct_mul(x, y)
    has integer coordinates in the set, and has norm one when its norm is
    1."""
    elements = [AlgebraElem([Fraction(v, 2) for v in vec]) for vec in vecs2]
    vset = set(map(tuple, vecs2))
    bad_member = bad_norm = 0
    for x in elements:
        for y in elements:
            z = oct_mul(x, y)
            twice = [2 * c for c in z.coords]
            if any(c.irr or c.rat.denominator != 1 for c in twice) or tuple(
                    int(c.rat) for c in twice) not in vset:
                bad_member += 1
            if z.norm() != QuadExt(1):
                bad_norm += 1
    return bad_member, bad_norm


#: e0..e3 = 1, i, j, k with ij = k, jk = i, ki = j
_TABLES = {
    "quaternion": ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                   [[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]]),
    "complex": ([[0, 1], [1, 0]], [[1, 1], [1, -1]]),
}

#: doubled coordinates of the 24 Hurwitz units +-1, +-i, +-j, +-k, (+-1 +-i +-j +-k)/2
_HURWITZ = sorted(
    [tuple(2 * s * (i == k) for i in range(4)) for k in range(4) for s in (1, -1)]
    + list(product((1, -1), repeat=4)))


def _field_width(vecs, idx, sgn):
    """The width of one digit field for these data: the bound
    max_k reach_k m^2 on |acc_k| that the closure kernel documents, plus a
    sign bit."""
    m = max((abs(v) for vec in vecs for v in vec), default=0)
    reach = [0] * len(idx)
    for row_i, row_s in zip(idx, sgn):
        for k, s in zip(row_i, row_s):
            reach[k] += abs(s)
    return max(max(reach) * m * m, 2 * m).bit_length() + 1


#: (table, doubled vectors) whose fields fill whole bytes, and some that do not
_ALIGNMENT_CASES = [
    # the 24 Hurwitz units: 4 fields of 6 bits, 3 whole bytes
    ("quaternion", _HURWITZ),
    # with some scaled by 3: 4 fields of 9 bits in 5 bytes
    ("quaternion", _HURWITZ + [tuple(3 * v for v in vec) for vec in _HURWITZ[::5]]),
    # the Gaussian units: 2 fields of 5 bits in 2 bytes
    ("complex", [(2, 0), (-2, 0), (0, 2), (0, -2)]),
    # 2 fields of 6 bits in 2 bytes
    ("complex", [(2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (3, -1)]),
    # 2 fields of 8 bits, 2 whole bytes
    ("complex", [(2, 0), (0, 2), (-4, 4), (1, -5)]),
]


@st.composite
def _closure_cases(draw):
    n = draw(st.integers(1, 4))
    k = st.integers(0, n - 1)
    square = lambda entries: st.lists(  # noqa: E731
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    idx = draw(square(k))
    sgn = draw(square(st.integers(-2, 2)))
    vecs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=6))
    return vecs, idx, sgn


@pytest.fixture(scope="module")
def units2():
    units, _ = units240()
    return sorted(tuple(int(2 * c.rat) for c in u.coords) for u in units)


def _table():
    return [list(r) for r in OCT_TABLE.idx], [list(r) for r in OCT_TABLE.sgn]


class TestUnitClosure:
    def test_units_close(self, units2):
        idx, sgn = _table()
        assert unit_closure_failures(units2, idx, sgn) == (0, 0)
        assert naive_unit_closure(units2, idx, sgn) == (0, 0)

    def test_one_sign_flipped(self, units2):
        idx, sgn = _table()
        sgn[1][2] = -sgn[1][2]
        got = unit_closure_failures(units2, idx, sgn)
        assert got == naive_unit_closure(units2, idx, sgn) == (12544, 12544)

    def test_two_indices_swapped(self, units2):
        idx, sgn = _table()
        idx[1][2], idx[1][3] = idx[1][3], idx[1][2]
        got = unit_closure_failures(units2, idx, sgn)
        assert got == naive_unit_closure(units2, idx, sgn) == (17728, 15680)

    @pytest.mark.parametrize("pos, vec, want", [
        (0, (2, 2, 0, 0, 0, 0, 0, 0), (715, 479)),  # norm 2
        (239, (1, 1, 1, 1, 0, 0, 0, 0), (718, 0)),  # norm 1, not in the order
        (120, (0,) * 8, (238, 479)),
    ])
    def test_one_unit_replaced(self, units2, pos, vec, want):
        idx, sgn = _table()
        vecs = list(units2)
        vecs[pos] = vec
        got = unit_closure_failures(vecs, idx, sgn)
        assert got == naive_unit_closure(vecs, idx, sgn) == want

    @pytest.mark.parametrize("factor", [3, 17, 1 << 40])
    def test_scaled_coordinates(self, units2, factor):
        # products of scaled units have coordinates far outside the
        # unit set's range; the digit fields must widen with the data
        idx, sgn = _table()
        vecs = [tuple(factor * v for v in vec) for vec in units2[::8]]
        mixed = units2[::8] + vecs
        for data in (vecs, mixed):
            assert unit_closure_failures(data, idx, sgn) == naive_unit_closure(
                data, idx, sgn)

    @pytest.mark.parametrize("j", [1, 3, 6])
    def test_widest_product_needs_full_field(self, j):
        # x*y = 8 m^2 e0 with m = 2^j, the largest coordinate the data
        # allow.  In a signed field of any width w from j + 2 to 2j + 2 it
        # would carry into e1 and read as 2 * (s e1) with s = 2^(2j+2-w) <= m,
        # a doubled member, so a field too narrow for the data shows as a
        # membership count off the reference.
        idx, sgn = _table()
        m = 1 << j
        x = tuple(m * sgn[i][idx[i].index(0)] for i in range(8))
        y = (m,) * 8
        members = [(0, 1 << i, 0, 0, 0, 0, 0, 0) for i in range(j + 1)]
        data = [x, y] + members
        got = unit_closure_failures(data, idx, sgn)
        assert got == naive_unit_closure(data, idx, sgn)

    @pytest.mark.parametrize("x, y, c", [
        ((1, -1, -1, -1, -1, 0, -1, -1), (1, 1, 0, 1, 1, 1, 1, 1),
         (-1, 0, 0, 0, 1, 1, 0, -1)),
        ((2, -2, -2, -2, -2, -1, -2, -2), (2, 2, 1, 2, 2, 2, 2, 2),
         (-2, -1, 0, 0, 2, 2, 0, -2)),
        ((3, -3, -3, -3, -2, -3, -3, -3), (3, 3, 3, 3, 3, 3, 2, 3),
         (1, -2, 0, 0, 3, -3, 0, 3)),
        ((4, -4, -4, -4, -4, -4, -3, -4), (4, 4, 4, 4, 3, 4, 4, 4),
         (-4, 4, 0, 0, -4, 4, 0, -4)),
    ])
    def test_near_widest_product(self, x, y, c):
        # x*y has e0 coordinate just below 8 m^2; in a field two bits
        # narrower than 8 m^2 needs it carries into e1, and the product
        # reads as 2c, a doubled member, although it is not one
        idx, sgn = _table()
        data = [x, y, c]
        got = unit_closure_failures(data, idx, sgn)
        assert got == naive_unit_closure(data, idx, sgn)

    def test_duplicates_counted(self, units2):
        idx, sgn = _table()
        vecs = units2[:10] + units2[:10]
        assert unit_closure_failures(vecs, idx, sgn) == naive_unit_closure(
            vecs, idx, sgn)

    @pytest.mark.parametrize("vecs, want", [
        ([], (0, 0)),
        ([(0,) * 8], (0, 1)),  # 0 * 0 = 0 is a member, of norm 0
        ([(2, 0, 0, 0, 0, 0, 0, 0)], (0, 0)),  # the unit 1 alone is closed
        ([(0, 0, 2, 0, 0, 0, 0, 0)], (1, 0)),  # e2 * e2 = -1 is not in the set
    ])
    def test_small_inputs(self, vecs, want):
        idx, sgn = _table()
        assert unit_closure_failures(vecs, idx, sgn) == naive_unit_closure(
            vecs, idx, sgn) == want

    def test_octonion_blocks_are_whole_bytes(self, units2):
        idx, sgn = _table()
        assert _field_width(units2, idx, sgn) * 8 % 8 == 0
        assert unit_closure_failures(units2, idx, sgn) == (0, 0)

    @pytest.mark.parametrize("table, vecs", _ALIGNMENT_CASES)
    def test_block_alignment(self, table, vecs):
        # a block is a whole number of bytes, whether or not the fields of
        # one product fill it
        idx, sgn = _TABLES[table]
        assert unit_closure_failures(vecs, idx, sgn) == naive_unit_closure(
            vecs, idx, sgn)

    def test_block_alignment_covers_both_cases(self):
        filled = {_field_width(vecs, *_TABLES[table]) * len(vecs[0]) % 8 == 0
                  for table, vecs in _ALIGNMENT_CASES}
        assert filled == {False, True}

    @pytest.mark.parametrize("s, m", [(7, 1), (-7, 1), (31, 1), (7, 3), (-15, 1)])
    def test_products_at_the_field_limits(self, s, m):
        # a one-entry table x * y = s x y: with |s| m^2 = 2^L - 1 the
        # products +-|s| m^2 are the extreme values +-(2^(width-1) - 1) of a
        # field of the width the data ask for
        idx, sgn = [[0]], [[s]]
        vecs = [(m,), (-m,), (1,)]
        assert abs(s) * m * m == (1 << (_field_width(vecs, idx, sgn) - 1)) - 1
        assert unit_closure_failures(vecs, idx, sgn) == naive_unit_closure(
            vecs, idx, sgn)
        # two fields: the extreme product in field 0, next to field 1
        idx, sgn = [[0, 1], [1, 0]], [[s, 1], [1, 0]]
        vecs = [(m, 0), (-m, 0), (m, 1), (0, 1)]
        assert abs(s) * m * m == (1 << (_field_width(vecs, idx, sgn) - 1)) - 1
        assert unit_closure_failures(vecs, idx, sgn) == naive_unit_closure(
            vecs, idx, sgn)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_closure_cases())
    @example(([(2, 0), (0, 2), (-2, 0), (0, -2)], [[0, 1], [1, 0]], [[1, 1], [1, -1]]))
    @example(([(4,), (-4,), (2,)], [[0]], [[1]]))
    def test_against_nested_loop(self, case):
        vecs, idx, sgn = case
        assert unit_closure_failures(vecs, idx, sgn) == naive_unit_closure(vecs, idx, sgn)

    def test_blocks_wider_than_one_word_against_oct_mul(self, units2):
        # coordinates of 3^20 need digit fields of 70 bits, so one block
        # spans nine 64-bit words; the counts agree with the octonion
        # product itself, pair by pair
        idx, sgn = _table()
        big = 3 ** 20
        vecs = units2[::12] + [tuple(big * v for v in vec) for vec in units2[5::40]]
        assert _field_width(vecs, idx, sgn) * 8 > 64
        assert unit_closure_failures(vecs, idx, sgn) == oct_mul_closure(vecs)
        assert oct_mul_closure(vecs)[0] > 0

    def test_rejects_non_integral(self, units2):
        idx, sgn = _table()
        vecs = list(units2[:4]) + [(Fraction(1, 2),) + (0,) * 7]
        with pytest.raises(ValueError):
            unit_closure_failures(vecs, idx, sgn)
        # integral Fractions are integers
        whole = [tuple(Fraction(v) for v in vec) for vec in units2[:16]]
        assert unit_closure_failures(whole, idx, sgn) == unit_closure_failures(
            units2[:16], idx, sgn)


# ---------------------------------------------------------------------------
# the metric filter against the full candidate loop
# ---------------------------------------------------------------------------


def naive_metric_stabilizers(gram):
    """Reference: all 147456 signed block permutations, each checked on
    every entry of the upper triangle."""
    perms4 = list(permutations(range(4)))
    signs4 = list(product((1, -1), repeat=4))
    out = []
    for p1 in perms4:
        for p2 in perms4:
            perm = tuple(p1) + tuple(4 + t for t in p2)
            for s1 in signs4:
                for s2 in signs4:
                    eps = s1 + s2
                    if all(eps[i] * eps[j] * gram[perm[i]][perm[j]] == gram[i][j]
                           for i in range(8) for j in range(i, 8)):
                        out.append((perm, eps))
    return out


def _block_diag(a, b):
    return [row + [0] * 4 for row in a] + [[0] * 4 + row for row in b]


class TestMetricFilter:
    def test_conductor(self):
        gram = [list(r) for r in conductor_gram()]
        got = metric_stabilizers(gram)
        assert got == naive_metric_stabilizers(gram)
        assert len(got) == 48

    def test_scalar_gram_rejects_nothing(self):
        gram = [[2 * (i == j) for j in range(8)] for i in range(8)]
        got = metric_stabilizers(gram)
        assert got == naive_metric_stabilizers(gram)
        assert len(got) == 147456

    def test_magnitudes_match_signs_do_not(self):
        # K4 with one negative edge {0, 1}: every block permutation keeps
        # the magnitudes, but one that moves the edge sends a triangle of
        # sign product -1 to one of product +1, which no signs repair
        k4 = [[4 if i == j else 1 for j in range(4)] for i in range(4)]
        k4[0][1] = k4[1][0] = -1
        gram = _block_diag(k4, [[4 * (i == j) for j in range(4)] for i in range(4)])
        got = metric_stabilizers(gram)
        assert got == naive_metric_stabilizers(gram)
        perms = {perm for perm, _ in got}
        assert len(perms) == 4 * 24  # of the 576 that pass the magnitudes
        assert all(set(perm[:2]) == {0, 1} for perm in perms)


    @pytest.mark.parametrize("seed, density, values", [
        (1, 0.15, (-1, 1)),
        (2, 0.3, (-1, 1)),
        (3, 0.5, (-2, -1, 1, 2)),
        (4, 0.1, (-3, 3)),
    ])
    def test_random_grams(self, seed, density, values):
        # symmetric integer Grams with few distinct magnitudes, so that many
        # block permutations keep them and the sign solve has work to do
        rng = random.Random(seed)
        gram = [[0] * 8 for _ in range(8)]
        for i in range(8):
            gram[i][i] = rng.choice((2, 4))
            for j in range(i + 1, 8):
                if rng.random() < density:
                    gram[i][j] = gram[j][i] = rng.choice(values)
        assert metric_stabilizers(gram) == naive_metric_stabilizers(gram)

    def test_rejects_non_integral(self):
        gram = [[2 * (i == j) for j in range(8)] for i in range(8)]
        gram[0][1] = gram[1][0] = Fraction(1, 2)
        with pytest.raises(ValueError):
            metric_stabilizers(gram)
        # integral Fractions are integers
        gram = [[Fraction(v) for v in row] for row in conductor_gram()]
        assert len(metric_stabilizers(gram)) == 48


# ---------------------------------------------------------------------------
# the counting mode against the vectors of the same walk
# ---------------------------------------------------------------------------


def _scaled_norm_counts(gram, plan):
    counts = {}
    for vec in enumerate_short_vectors(plan):
        nrm = sum(vec[i] * gram[i][j] * vec[j] for i in range(len(vec))
                  for j in range(len(vec)))
        key = nrm * plan.scale
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


class TestShellHistogram:
    @pytest.mark.parametrize("gram, bound", [
        ([[3]], 12),
        ([[2]], Fraction(7, 2)),
        ([[2, -1], [-1, 2]], 8),
        ([[2, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]], 6),
        ([[4, 1, 0], [1, 3, 1], [0, 1, 5]], 20),
    ])
    def test_against_vectors(self, gram, bound):
        # integer norms: a rational bound enumerates what its floor does
        plan = prepare_enumeration(gram, floor(bound))
        assert shell_histogram(plan) == _scaled_norm_counts(gram, plan)

    def test_e8(self):
        gram = [list(r) for r in cd_gram()]
        plan = prepare_enumeration(gram, 6)
        hist = shell_histogram(plan)
        assert hist == _scaled_norm_counts(gram, plan)
        assert list(hist.values()) == [240, 2160, 6720]

    def test_empty(self):
        assert shell_histogram(prepare_enumeration([[2]], -1)) == {}
        assert shell_histogram(prepare_enumeration([[2]], 1)) == {}


# ---------------------------------------------------------------------------
# the half walk, one vector of each +-x pair, against a box of vectors
# ---------------------------------------------------------------------------


def _det(m):
    if not m:
        return 1
    return sum((-1) ** c * m[0][c] * _det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)) if m[0][c])


def box_short_vectors(gram, bound):
    """Reference: every nonzero integer vector of a box that holds all
    vectors of norm <= bound, since x_i^2 <= bound (G^-1)_ii, each tested
    on its own; sorted."""
    bound = Fraction(bound)
    if bound < 0:
        return []
    n, det = len(gram), _det(gram)
    radii = []
    for i in range(n):
        minor = [row[:i] + row[i + 1:] for r, row in enumerate(gram) if r != i]
        radii.append(isqrt(int(bound * _det(minor) / det)))
    out = []
    for vec in product(*(range(-r, r + 1) for r in radii)):
        nrm = sum(vec[i] * gram[i][j] * vec[j] for i in range(n) for j in range(n))
        if any(vec) and nrm <= bound:
            out.append(vec)
    return out


_WALK_GRAMS = [
    [[3]],
    [[2, -1], [-1, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    [[4, -1, -2], [-1, 3, 1], [-2, 1, 5]],
    [[3, -1, 0, -1], [-1, 3, -1, 0], [0, -1, 3, -1], [-1, 0, -1, 3]],
]


class TestHalfWalk:
    @pytest.mark.parametrize("gram", _WALK_GRAMS)
    @pytest.mark.parametrize("bound", [-1, 0, Fraction(7, 2), 9])
    def test_against_box(self, gram, bound):
        # integer norms: the walk to the floor of a rational bound finds
        # what the box search finds to the bound itself
        plan = prepare_enumeration(gram, floor(bound))
        vecs = enumerate_short_vectors(plan)
        assert vecs == box_short_vectors(gram, bound)
        assert shell_histogram(plan) == _scaled_norm_counts(gram, plan)

    def test_vector_mode(self):
        gram = [list(r) for r in cd_gram()]
        vecs = enumerate_short_vectors(prepare_enumeration(gram, 4))
        assert len(vecs) == 240 + 2160
        assert vecs == sorted(set(vecs))  # sorted, no vector twice
        assert (0,) * 8 not in vecs
        assert set(vecs) == {tuple(-v for v in vec) for vec in vecs}

    def test_e8_to_bound_12(self):
        # theta_E8 = E4: 240 sigma3(n) vectors of norm 2n
        plan = prepare_enumeration([list(r) for r in cd_gram()], 12)
        assert shell_histogram(plan) == {
            2 * n * plan.scale: 240 * s3
            for n, s3 in zip(range(1, 7), (1, 9, 28, 73, 126, 252))}


# ---------------------------------------------------------------------------
# the pruned scaling walk against the nested loop it replaced
# ---------------------------------------------------------------------------


def naive_scaling_search(cons, n, max_exp):
    """Reference: every vector of {0..max_exp}^n in turn, each constraint
    checked on each vector, and the minima kept by two domination scans."""
    minimal = []
    feasible_count = 0
    for vec in product(range(max_exp + 1), repeat=n):
        if any(vec[i] + vec[j] - vec[k] < v for i, j, k, v in cons):
            continue
        feasible_count += 1
        dominated = False
        keep = []
        for m in minimal:
            if all(mv <= vv for mv, vv in zip(m, vec)):
                dominated = True
            if not all(vv <= mv for mv, vv in zip(m, vec)):
                keep.append(m)
        if not dominated:
            keep.append(vec)
            minimal = keep
    return feasible_count, sorted(minimal)


@st.composite
def _constraint_sets(draw):
    n = draw(st.integers(1, 6))
    max_exp = draw(st.integers(0, 3))
    idx = st.integers(0, n - 1)
    cons = draw(st.lists(
        st.tuples(idx, idx, idx, st.integers(-1, 2 * max_exp + 1)), max_size=6))
    return cons, n, max_exp


class TestScalingWalk:
    @pytest.mark.parametrize("name", ["okubo", "para", "octonion"])
    @pytest.mark.parametrize("max_exp", [2, 3, 4])
    def test_products(self, name, max_exp):
        cons = structure_constants(name).valuation_constraints
        want = naive_scaling_search(cons, DIM, max_exp)
        assert scaling_walk(cons, DIM, max_exp) == want
        if max_exp == SCALING_MAX_EXP:  # the box the search decides
            res = scaling_search(structure_constants(name))
            assert (res.feasible_count, list(res.minimal)) == want

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_constraint_sets())
    @example(([], 3, 2))
    @example(([(0, 0, 1, 1)], 3, 2))  # i == j
    @example(([(1, 0, 1, 1)], 3, 2))  # i == k
    @example(([(0, 1, 1, 2)], 3, 2))  # j == k
    @example(([(1, 1, 1, 1)], 3, 2))  # a_1 >= 1: a free tail after a nonzero prefix
    @example(([(0, 1, 2, 1)], 3, 2))  # two incomparable minima
    @example(([(0, 1, 2, 1), (2, 3, 0, 2)], 4, 3))
    @example(([(0, 0, 0, 5)], 2, 2))  # unsatisfiable
    def test_against_nested_loop(self, case):
        cons, n, max_exp = case
        assert scaling_walk(cons, n, max_exp) == naive_scaling_search(cons, n, max_exp)

    def test_incomparable_minima(self):
        assert scaling_walk([(0, 1, 2, 1)], 3, 2) == (
            naive_scaling_search([(0, 1, 2, 1)], 3, 2)[0],
            [(0, 1, 0), (1, 0, 0)],
        )

    def test_free_tail_is_counted(self):
        # a_0 >= 1 leaves a_1 and a_2 free: 2 * 9 vectors, one minimum
        assert scaling_walk([(0, 0, 0, 1)], 3, 2) == (18, [(1, 0, 0)])

    def test_odd_denominator_is_infeasible(self):
        okubo = structure_constants("okubo")
        c = [[list(row) for row in plane] for plane in okubo.c]
        c[0][2][0] = QuadExt(0, Fraction(1, 6))
        tampered = StructureConstants(tuple(tuple(map(tuple, p)) for p in c))
        assert tampered.valuation_constraints is None
        res = scaling_search(tampered)
        assert (res.feasible_count, res.minimal) == (0, ())
        assert not scaling_feasible(tampered, (4,) * DIM)
