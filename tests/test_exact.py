"""Field arithmetic over Q(sqrt 3): exactness, canonical forms, membership."""

import random
import re
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st
from matrix_oracle import inverse, mat_product

from okubo_e8.exact import (
    ComplexQuad,
    QuadExt,
    RingTag,
    _quad,
    apply_map,
    integer_map,
    ldl,
    rational_pairs,
    render_quadext,
    solve,
)

S3 = QuadExt(0, 1)


def q(a, b=0):
    return QuadExt(Fraction(a), Fraction(b))


def galois(x):
    """The image of x under sqrt(3) -> -sqrt(3), from its coordinates."""
    return QuadExt(x.rat, -x.irr)


#: exactly the form render_quadext writes, with ASCII digits only
QUAD_TEXT = re.compile(r"(-?[0-9]+)/([0-9]+) \+ (-?[0-9]+)/([0-9]+)\*s3")


def parse_rendered(text):
    """The inverse of render_quadext: only that form parses, as a full
    match, so a round trip through it proves the rendering exact."""
    m = QUAD_TEXT.fullmatch(text)
    if m is None:
        raise ValueError(f"not a canonical Q(sqrt3) literal: {text!r}")
    an, ad, bn, bd = (int(g) for g in m.groups())
    if ad == 0 or bd == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return QuadExt(Fraction(an, ad), Fraction(bn, bd))


rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)
quads = st.builds(QuadExt, rationals, rationals)


class TestFieldOps:
    def test_difference_of_squares(self):
        assert (q(1, 1)) * (q(1, -1)) == q(-2)

    def test_sqrt3_squares_to_three(self):
        assert S3 * S3 == q(3)

    def test_exact_division(self):
        assert q(0, Fraction(3, 2)) * S3.inverse() == q(Fraction(3, 2))
        assert 1 / S3 == q(0, Fraction(1, 3))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q(0).inverse()
        with pytest.raises(ZeroDivisionError):
            1 / q(0)

    @settings(derandomize=True, max_examples=80)
    @given(quads, quads, quads)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if x:
            assert x * x.inverse() == QuadExt(1)

    @settings(derandomize=True, max_examples=60)
    @given(quads, quads)
    def test_galois_is_multiplicative(self, x, y):
        assert galois(x * y) == galois(x) * galois(y)


class TestGaloisTrace:
    def test_examples(self):
        for x, conj, trace in ((q(1, 2), q(1, -2), 2), (S3, -S3, 0), (q(5), q(5), 10)):
            assert galois(x) == conj
            assert x + galois(x) == Fraction(trace)

    @settings(derandomize=True, max_examples=60)
    @given(quads)
    def test_trace_of_norm_product(self, x):
        prod = x * galois(x)
        assert prod.irr == 0
        assert prod.rat == o_norm(as_pair(x))


class TestSigns:
    def test_positive_mixed(self):
        assert q(2, -1).sign_real() == 1  # 2 - sqrt(3) > 0
        assert q(1, -1).sign_real() == -1  # 1 - sqrt(3) < 0
        assert q(1, 1).sign_real() == 1  # its conjugate, 1 + sqrt(3) > 0
        assert q(0).sign_real() == 0

    def test_negative_mixed(self):
        assert q(-2, 1).sign_real() == -1
        assert q(-1, 1).sign_real() == 1


class TestRingMembership:
    def test_examples(self):
        assert not RingTag.ZSQRT3.contains(q(0, Fraction(-3, 2)))
        assert RingTag.ZSQRT3.contains(q(5, -7))
        assert not RingTag.Z.contains(q(Fraction(1, 2)))
        assert RingTag.Z.contains(q(3))
        assert not RingTag.Z.contains(q(3, 1))
        assert list(RingTag) == [RingTag.Z, RingTag.ZSQRT3]


class TestTextForm:
    def test_render(self):
        assert render_quadext(q(Fraction(-3, 2), 1)) == "-3/2 + 1/1*s3"

    def test_round_trip_examples(self):
        for val in (q(0), q(Fraction(22, 7), Fraction(-5, 4)), -S3):
            assert parse_rendered(render_quadext(val)) == val

    @settings(derandomize=True, max_examples=60)
    @given(quads)
    def test_round_trip(self, x):
        assert parse_rendered(render_quadext(x)) == x

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rendered("1 + 2*s3")
        with pytest.raises(ValueError):
            parse_rendered("1/0 + 2/1*s3")

    @pytest.mark.parametrize("text", ["٣/2 + 1/1*s3", "1/2 + 1/1*s3\n"])
    def test_rejects_what_render_never_writes(self, text):
        # a non-ASCII digit (Arabic-Indic three) and a trailing newline
        with pytest.raises(ValueError):
            parse_rendered(text)


#: strings outside the fixture and dump grammar; ``Fraction`` accepts most
NOT_RATIONAL = ["1e5", "1.5", "1_000", " 3/4", "3/4 ", "3/4\n", "1/2e3", "", "/2",
                "1/-2", "1/+2", "inf", "nan", "\u0663", "++1", "+", "-", "5 ", "\t5"]


#: the one-entry reference: the grammar as a regex of its own, the value by
#: ``Fraction`` (which is looser, so only after the match)
REFERENCE_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def reference_pair(text):
    if not isinstance(text, str) or REFERENCE_RE.fullmatch(text) is None:
        raise ValueError(f"not an integer or a fraction a/b: {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ZeroDivisionError(f"zero denominator: {text!r}")
    a, b = int(num), int(den or 1)
    assert Fraction(text) == Fraction(a, b)
    return a, b


def outcome(read, entries):
    """The pairs ``read`` returns for ``entries``, or the type, message and
    position of what it raises."""
    try:
        return read(entries)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc), exc.index


def reference_outcome(entries):
    pairs = []
    for n, text in enumerate(entries):
        try:
            pairs.append(reference_pair(text))
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc), n
    return pairs


#: entries drawn from pieces the grammar must tell apart: the separator the
#: sequence match joins with, whitespace, an underscore, an exponent and a
#: non-ASCII digit among the digits, signs and slashes
ENTRY_PIECES = st.sampled_from(list("0123456789+-/,") + ["\n", " ", "_", "1e5", "\u0663"])
entries = st.lists(st.lists(ENTRY_PIECES, max_size=6).map("".join), max_size=8)


class TestRationalGrammar:
    @settings(derandomize=True, max_examples=600)
    @given(entries)
    def test_sequence_matches_one_entry_reference(self, texts):
        assert outcome(rational_pairs, texts) == reference_outcome(texts)

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(st.one_of(st.integers(-10 ** 30, 10 ** 30).map(str),
                              st.tuples(st.integers(-99, 99), st.integers(0, 99))
                              .map("{0[0]}/{0[1]}".format),
                              ENTRY_PIECES), min_size=1, max_size=8))
    def test_mostly_numbers_match_one_entry_reference(self, texts):
        # draws that pass the grammar often, so the pairs are compared too
        assert outcome(rational_pairs, texts) == reference_outcome(texts)

    @settings(derandomize=True, max_examples=100)
    @given(st.one_of(st.integers(-10 ** 30, 10 ** 30), rationals))
    def test_round_trip(self, value):
        v = Fraction(value)
        [pair] = rational_pairs([str(v)])
        assert Fraction(*pair) == v
        assert rational_pairs([f"{v.numerator}/{v.denominator}"]) == [(v.numerator, v.denominator)]

    def test_accepts(self):
        assert [Fraction(*p) for p in rational_pairs(["+7", "-6/4", "007/010"])] == [
            7, Fraction(-3, 2), Fraction(7, 10)]
        assert rational_pairs([]) == []

    @pytest.mark.parametrize("text", NOT_RATIONAL)
    def test_rejects(self, text):
        with pytest.raises(ValueError, match="not an integer or a fraction a/b") as err:
            rational_pairs(["1", text, "2"])
        assert err.value.index == 1

    def test_rejects_non_strings_and_commas(self):
        for entry in (1, 1.0, True, None, ["1"]):
            with pytest.raises(ValueError) as err:
                rational_pairs(["1", entry])
            assert err.value.index == 1
        # a comma in an entry joins to a valid sequence: the count refuses it
        with pytest.raises(ValueError, match="'1,2'") as err:
            rational_pairs(["1,2", "3"])
        assert err.value.index == 0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator: '1/0'") as err:
            rational_pairs(["1/2", "1/0"])
        assert err.value.index == 1

    def test_pairs_keep_the_written_terms(self):
        assert rational_pairs(["-6/4", "+7", "007/010"]) == [(-6, 4), (7, 1), (7, 10)]
        for text in ("1/0", "-3/000"):
            with pytest.raises(ZeroDivisionError):
                rational_pairs([text])

    def test_first_bad_entry_is_named(self):
        # the grammar fault of entry 1 comes before the zero denominator of
        # entry 2, and a zero denominator before a later grammar fault
        with pytest.raises(ValueError, match="'1e5'"):
            rational_pairs(["1", "1e5", "1/0"])
        with pytest.raises(ZeroDivisionError):
            rational_pairs(["1", "1/0", "1e5"])

    def test_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            ok = "-" + "9" * 640
            assert rational_pairs([ok, "1/" + "0" * 639 + "7"]) == [(int(ok), 1), (1, 7)]
            for bad, digits in (("+" + "1" * 641, 641), ("1/" + "0" * 700 + "1", 701)):
                with pytest.raises(OverflowError) as err:
                    rational_pairs(["1", "2/3", bad])
                assert err.value.index == 2
                assert str(err.value) == (f"{digits} digits, more than the 640 a number "
                                          f"can have: {bad[:12]!r}...")
            # the grammar is checked first, and the limit before a zero denominator
            with pytest.raises(ValueError, match="not an integer"):
                rational_pairs(["1" * 700 + "x"])
            with pytest.raises(OverflowError):
                rational_pairs(["1" * 700 + "/0"])
            sys.set_int_max_str_digits(0)  # no limit
            assert rational_pairs(["1" * 5000]) == [(int("1" * 5000), 1)]
        finally:
            sys.set_int_max_str_digits(limit)


class TestComplexQuad:
    def test_conjugation_involutive_automorphism(self):
        x = ComplexQuad(q(1, 1), q(Fraction(1, 2)))
        y = ComplexQuad(q(0, -1), q(2, 1))
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        fixed = ComplexQuad(q(3, -2), 0)
        assert fixed.conjugate() == fixed

    def test_norm_nonnegative_both_embeddings(self):
        x = ComplexQuad(q(1, -1), q(0, Fraction(1, 2)))
        nrm = x.norm()
        assert nrm.sign_real() >= 0
        assert galois(nrm).sign_real() >= 0  # the other embedding

    def test_norm_multiplicative(self):
        x = ComplexQuad(q(1, 1), q(2))
        y = ComplexQuad(q(0, 2), q(-1, 1))
        assert (x * y).norm() == x.norm() * y.norm()


# -- the integer representation against an oracle on Fraction pairs --------
#
# A pair (a, b) stands for a + b*sqrt(3); the oracle below never touches
# okubo_e8.exact.

pairs = st.tuples(rationals, rationals)


def o_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def o_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def o_mul(x, y):
    return (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def o_norm(x):
    return x[0] * x[0] - 3 * x[1] * x[1]


def o_inverse(x):
    n = o_norm(x)
    return (x[0] / n, -x[1] / n)


def o_sign(x):
    """Sign of a + b*sqrt(3) by bracketing sqrt(3) between ever closer
    decimal bounds lo <= sqrt(3) <= hi."""
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    k = 1
    while True:
        lo = Fraction(isqrt(3 * 100 ** k), 10 ** k)
        hi = lo + Fraction(1, 10 ** k)
        ends = [a + b * lo, a + b * hi]
        if all(v > 0 for v in ends):
            return 1
        if all(v < 0 for v in ends):
            return -1
        k += 1


def as_pair(x):
    a, b, d = x.triple
    return (Fraction(a, d), Fraction(b, d))


def assert_canonical(x):
    a, b, d = x.triple
    assert d > 0
    assert gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert d == 1
    assert (x.rat, x.irr) == as_pair(x)
    assert parse_rendered(render_quadext(x)) == x


class TestIntegerRepresentation:
    @settings(derandomize=True, max_examples=150)
    @given(pairs, pairs)
    def test_ring_ops_match_oracle(self, xp, yp):
        x, y = QuadExt(*xp), QuadExt(*yp)
        assert as_pair(x) == xp
        for got, want in ((x + y, o_add(xp, yp)), (x - y, o_sub(xp, yp)),
                          (x * y, o_mul(xp, yp)), (-x, o_sub((0, 0), xp))):
            assert as_pair(got) == want
            assert_canonical(got)
        if yp != (0, 0):
            for got, want in ((y.inverse(), o_inverse(yp)),
                              (1 / y, o_inverse(yp)),
                              (x * y.inverse(), o_mul(xp, o_inverse(yp)))):
                assert as_pair(got) == want
                assert_canonical(got)

    @settings(derandomize=True, max_examples=150)
    @given(pairs)
    def test_galois_norm_trace_sign_match_oracle(self, xp):
        x = QuadExt(*xp)
        conj = (xp[0], -xp[1])
        a, _, d = x.triple  # the field trace 2a/d, as trace_lattice_16 reads it
        assert x + galois(x) == Fraction(2 * a, d) == 2 * xp[0]
        assert x.sign_real() == o_sign(xp)
        assert galois(x).sign_real() == o_sign(conj)  # the other embedding

    @settings(derandomize=True, max_examples=100)
    @given(st.one_of(st.integers(-10 ** 6, 10 ** 6), rationals))
    def test_rational_values_equal_and_hash_alike(self, value):
        x = QuadExt(value)
        assert x == value and value == x
        assert hash(x) == hash(value)
        assert hash(ComplexQuad(x, 0)) == hash(x)
        assert_canonical(x)

    @settings(derandomize=True, max_examples=60)
    @given(quads, quads)
    def test_complex_hash_and_canonical(self, x, y):
        z = ComplexQuad(x, 0)
        assert hash(z) == hash(x) and z == x
        w = ComplexQuad(x, y)
        assert (w.re, w.im) == (x, y)
        a, b, c, e, d = (w * w.conjugate()).quintuple
        assert d > 0 and gcd(a, b, c, e, d) == 1
        assert (c, e) == (0, 0)

    @settings(derandomize=True, max_examples=100)
    @given(pairs, pairs, pairs, pairs)
    def test_complex_ops_match_oracle(self, xp, yp, up, vp):
        w, z = ComplexQuad(QuadExt(*xp), QuadExt(*yp)), ComplexQuad(QuadExt(*up), QuadExt(*vp))
        prod = w * z
        assert as_pair(prod.re) == o_sub(o_mul(xp, up), o_mul(yp, vp))
        assert as_pair(prod.im) == o_add(o_mul(xp, vp), o_mul(yp, up))
        assert as_pair((w + z).im) == o_add(yp, vp)
        assert as_pair((w - z).re) == o_sub(xp, up)
        assert as_pair(w.norm()) == o_add(o_mul(xp, xp), o_mul(yp, yp))

    def test_zero_is_canonical(self):
        assert QuadExt(0).triple == (0, 0, 1)
        assert (q(Fraction(1, 3), 2) - q(Fraction(1, 3), 2)).triple == (0, 0, 1)
        assert ComplexQuad(0, 0).quintuple == (0, 0, 0, 0, 1)

    def test_immutable(self):
        x = q(1, 2)
        z = ComplexQuad(x, x)
        for obj, names in ((x, ("rat", "irr", "_a", "_d", "other")),
                           (z, ("re", "im", "_a", "_d", "other"))):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)


# -- the integer form of a K-linear map ----------------------------------------


def map_matrix(cols, den, n_out):
    """The QuadExt matrix, row by row, of a map in the integer form of
    integer_map: column c of the map has the entries ``cols[c]``."""
    m = [[QuadExt(0)] * len(cols) for _ in range(n_out)]
    for c, col in enumerate(cols):
        for r, p, s in col:
            m[r][c] = q(Fraction(p, den), Fraction(s, den))
    return m


def random_quad(rng, span, rat_dens, irr_dens):
    return q(Fraction(rng.randint(-span, span), rng.choice(rat_dens)),
             Fraction(rng.randint(-span, span), rng.choice(irr_dens)))


def random_map(rng, n_out, n_in):
    """A seeded QuadExt matrix, row by row: sparse entries over several
    denominators, and one column of zeros."""
    zero = rng.randrange(n_in)
    return [[random_quad(rng, 5, (1, 2, 3, 4, 6), (1, 2, 5))
             if c != zero and rng.random() < 0.6 else QuadExt(0)
             for c in range(n_in)] for _ in range(n_out)]


class TestIntegerMap:
    def test_form(self):
        cols, den = integer_map([[1, 0, Fraction(1, 2)], [0, 0, 0],
                                 [q(0, Fraction(1, 3)), 0, -2]])
        assert den == 6
        assert cols == (((0, 6, 0), (2, 3, 0)), (), ((0, 0, 2), (2, -12, 0)))
        assert integer_map([[0, 0], [0]]) == (((), ()), 1)

    @pytest.mark.parametrize("n_out, n_in", [(8, 8), (18, 8), (2, 8), (8, 2), (1, 1)])
    def test_apply_matches_quadext_product(self, n_out, n_in):
        """M x on integers against the QuadExt matrix-vector product, for
        seeded maps and vectors whose coordinates have different
        denominators; square and non-square."""
        rng = random.Random(100 * n_out + n_in)
        for _ in range(20):
            matrix = random_map(rng, n_out, n_in)
            cols, den = integer_map(zip(*matrix))
            assert len(cols) == n_in and map_matrix(cols, den, n_out) == matrix
            x = [random_quad(rng, 4, (1, 3, 4), (1, 2, 7)) for _ in range(n_in)]
            dx = lcm(*(v.triple[2] for v in x))
            pairs = [(a * (dx // d), b * (dx // d)) for a, b, d in (v.triple for v in x)]
            got = [_quad(p, s, den * dx) for p, s in apply_map(cols, pairs, n_out)]
            assert got == [sum((row[c] * x[c] for c in range(n_in)), QuadExt(0))
                           for row in matrix]

    def test_zero_columns_and_inputs(self):
        cols, den = integer_map([[0, 0], [q(1, 1), 0], [0, 0]])
        assert cols == ((), ((0, 1, 1),), ())
        assert apply_map(cols, [(5, 7), (0, 0), (1, 1)], 2) == [[0, 0], [0, 0]]
        assert apply_map(cols, [(0, 0), (2, 1), (0, 0)], 2) == [[5, 3], [0, 0]]


# -- elimination: the one solve and the one LDL --------------------------------


def random_entry(rng, field):
    """A seeded entry of Q (as a Fraction) or of K (as a QuadExt)."""
    if field == "Q":
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    return random_quad(rng, 4, (1, 2, 3), (1, 2, 5))


class TestSolve:
    def test_solve_over_k(self):
        a = [[q(1), S3], [q(2), q(1, 1)]]
        ident = [[q(int(i == j)) for j in range(2)] for i in range(2)]
        a_inv = solve(a, ident)
        assert mat_product(a_inv, a) == ident
        assert mat_product(a, a_inv) == ident
        b = [[q(0, 1), q(3), q(Fraction(-1, 2), 2)], [q(1, -1), q(0), S3]]
        assert mat_product(a, solve(a, b)) == b

    def test_zero_leading_pivot_is_swapped(self):
        assert solve([[0, 1], [2, 0]], [[3], [4]]) == [[2], [3]]
        assert solve([[0, 0, 1], [0, 3, 0], [1, 0, 0]], [[5], [6], [7]]) == [[7], [2], [5]]

    @pytest.mark.parametrize("a", [
        [[1, 2], [2, 4]],
        [[0, 0], [0, 1]],
        [[S3, q(3)], [q(1), S3]],  # det 3 - 3 over K, though no entry is 0
    ])
    def test_singular_raises(self, a):
        with pytest.raises(ArithmeticError, match="singular matrix"):
            solve(a, [[1], [0]])

    @pytest.mark.parametrize("field", ["Q", "K"])
    def test_random_against_reference(self, field):
        """A X = B against X = A^-1 B from the test oracle, for seeded
        sparse square A of sizes 1 to 5, some of them singular, and B of
        one to three columns."""
        rng = random.Random(20 + len(field))
        checked = singular = 0
        for _ in range(30):
            n, m = rng.randint(1, 5), rng.randint(1, 3)
            a = [[random_entry(rng, field) if rng.random() < 0.7 else 0
                  for _ in range(n)] for _ in range(n)]
            b = [[random_entry(rng, field) for _ in range(m)] for _ in range(n)]
            try:
                a_inv = inverse(a)
            except ZeroDivisionError:
                with pytest.raises(ArithmeticError):
                    solve(a, b)
                singular += 1
                continue
            assert solve(a, b) == mat_product(a_inv, b)
            checked += 1
        assert checked >= 15 and singular >= 1


class TestLDL:
    def test_stops_at_zero_pivot_without_swap(self):
        # a row exchange would find the nonzero pivots of this form
        assert ldl([[0, 1], [1, 0]]) == ([], [0])
        assert ldl([[1, 1, 0], [1, 1, 2], [0, 2, 5]]) == ([[1, 0]], [1, 0])

    def test_negative_pivot_continues(self):
        multipliers, pivots = ldl([[1, 0, 0], [0, -2, 1], [0, 1, 1]])
        assert pivots == [1, -2, Fraction(3, 2)]
        assert multipliers == [[0, 0], [Fraction(-1, 2)], []]

    @pytest.mark.parametrize("field", ["Q", "K"])
    def test_random_reconstructs(self, field):
        """L D L^T = G, multiplied out by the test oracle, for seeded
        symmetric G of sizes 1 to 5 whose pivots are all nonzero."""
        rng = random.Random(40 + len(field))
        for _ in range(30):
            n = rng.randint(1, 5)
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    g[i][j] = g[j][i] = random_entry(rng, field)
                g[i][i] += 7 * n  # diagonally dominant: every pivot is nonzero
            multipliers, pivots = ldl(g)
            assert len(pivots) == len(multipliers) == n
            lt = [[0] * c + [1] + row for c, row in enumerate(multipliers)]
            d = [[pivots[i] if i == j else 0 for j in range(n)] for i in range(n)]
            assert mat_product(mat_product(list(zip(*lt)), d), lt) == g
