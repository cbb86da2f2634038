"""Field arithmetic over Q(sqrt 3): exactness, canonical forms, membership."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from okubo_e8.exact import (
    ComplexQuad,
    QuadExt,
    RingTag,
    parse_quadext,
    parse_rational,
    quad_denominator,
    render_quadext,
    two_adic_denominator,
)

S3 = QuadExt.sqrt3()


def q(a, b=0):
    return QuadExt(Fraction(a), Fraction(b))


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
        assert q(0, Fraction(3, 2)) / S3 == q(Fraction(3, 2))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q(1) / q(0)

    def test_pow(self):
        assert (q(1, 1)) ** 3 == q(1, 1) * q(1, 1) * q(1, 1)
        assert (q(1, 1)) ** -1 == q(1, 1).inverse()

    @settings(derandomize=True, max_examples=80)
    @given(quads, quads, quads)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inverse() == QuadExt(1)

    @settings(derandomize=True, max_examples=60)
    @given(quads, quads)
    def test_galois_is_multiplicative(self, x, y):
        assert (x * y).galois_conjugate() == x.galois_conjugate() * y.galois_conjugate()


class TestGaloisTrace:
    def test_examples(self):
        for x, conj, trace in ((q(1, 2), q(1, -2), 2), (S3, -S3, 0), (q(5), q(5), 10)):
            assert x.galois_conjugate() == conj
            assert x.field_trace() == Fraction(trace)

    @settings(derandomize=True, max_examples=60)
    @given(quads)
    def test_trace_of_norm_product(self, x):
        prod = x * x.galois_conjugate()
        assert prod.irr == 0
        assert prod.rat == x.field_norm()


class TestSigns:
    def test_positive_mixed(self):
        assert q(2, -1).sign_real() == 1  # 2 - sqrt(3) > 0
        assert q(1, -1).sign_real() == -1  # 1 - sqrt(3) < 0
        assert q(1, -1).sign_real(conjugate_embedding=True) == 1
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
        assert RingTag.Q.contains(q(Fraction(1, 3)))
        assert not RingTag.Q.contains(q(0, 1))
        assert RingTag.K.contains(q(Fraction(1, 7), Fraction(2, 9)))


class TestDenominators:
    def test_two_adic(self):
        assert two_adic_denominator(Fraction(1, 8)) == 3
        assert two_adic_denominator(Fraction(1, 6)) == 1
        assert two_adic_denominator(Fraction(7)) == 0

    def test_quad_denominator(self):
        assert quad_denominator(QuadExt(Fraction(1, 2), Fraction(1, 4))) == 4
        assert quad_denominator(QuadExt(1, 1)) == 1


class TestTextForm:
    def test_render(self):
        assert render_quadext(q(Fraction(-3, 2), 1)) == "-3/2 + 1/1*s3"

    def test_round_trip_examples(self):
        for val in (q(0), q(Fraction(22, 7), Fraction(-5, 4)), -S3):
            assert parse_quadext(render_quadext(val)) == val

    @settings(derandomize=True, max_examples=60)
    @given(quads)
    def test_round_trip(self, x):
        assert parse_quadext(render_quadext(x)) == x

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_quadext("1 + 2*s3")
        with pytest.raises(ValueError):
            parse_quadext("1/0 + 2/1*s3")

    @pytest.mark.parametrize("text", ["٣/2 + 1/1*s3", "1/2 + 1/1*s3\n"])
    def test_rejects_what_render_never_writes(self, text):
        # a non-ASCII digit (Arabic-Indic three) and a trailing newline
        with pytest.raises(ValueError):
            parse_quadext(text)


#: strings outside the fixture and dump grammar; ``Fraction`` accepts most
NOT_RATIONAL = ["1e5", "1.5", "1_000", " 3/4", "3/4 ", "3/4\n", "1/2e3", "", "/2",
                "1/-2", "1/+2", "inf", "nan", "\u0663"]


class TestRationalGrammar:
    @settings(derandomize=True, max_examples=100)
    @given(st.one_of(st.integers(-10 ** 30, 10 ** 30), rationals))
    def test_round_trip(self, value):
        v = Fraction(value)
        assert parse_rational(str(v)) == v
        assert parse_rational(f"{v.numerator}/{v.denominator}") == v

    def test_accepts(self):
        assert parse_rational("+7") == 7
        assert parse_rational("-6/4") == Fraction(-3, 2)
        assert parse_rational("007/010") == Fraction(7, 10)

    @pytest.mark.parametrize("text", NOT_RATIONAL)
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")


class TestComplexQuad:
    def test_conjugation_involutive_automorphism(self):
        x = ComplexQuad(q(1, 1), q(Fraction(1, 2)))
        y = ComplexQuad(q(0, -1), q(2, 1))
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        fixed = ComplexQuad(q(3, -2))
        assert fixed.conjugate() == fixed

    def test_norm_nonnegative_both_embeddings(self):
        x = ComplexQuad(q(1, -1), q(0, Fraction(1, 2)))
        nrm = x.norm()
        assert nrm.sign_real() >= 0
        assert nrm.sign_real(conjugate_embedding=True) >= 0

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
    assert parse_quadext(render_quadext(x)) == x


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
                              (x / y, o_mul(xp, o_inverse(yp)))):
                assert as_pair(got) == want
                assert_canonical(got)

    @settings(derandomize=True, max_examples=150)
    @given(pairs)
    def test_galois_norm_trace_sign_match_oracle(self, xp):
        x = QuadExt(*xp)
        conj = (xp[0], -xp[1])
        assert as_pair(x.galois_conjugate()) == conj
        assert_canonical(x.galois_conjugate())
        assert x.field_norm() == o_norm(xp)
        assert x.field_trace() == 2 * xp[0]
        assert x.sign_real() == o_sign(xp)
        assert x.sign_real(conjugate_embedding=True) == o_sign(conj)

    @settings(derandomize=True, max_examples=100)
    @given(st.one_of(st.integers(-10 ** 6, 10 ** 6), rationals))
    def test_rational_values_equal_and_hash_alike(self, value):
        x = QuadExt(value)
        assert x == value and value == x
        assert hash(x) == hash(value)
        assert hash(ComplexQuad(x)) == hash(x)
        assert_canonical(x)

    @settings(derandomize=True, max_examples=60)
    @given(quads, quads)
    def test_complex_hash_and_canonical(self, x, y):
        z = ComplexQuad(x)
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
        assert ComplexQuad(0).quintuple == (0, 0, 0, 0, 1)

    def test_immutable(self):
        x = q(1, 2)
        z = ComplexQuad(x, x)
        for obj, names in ((x, ("rat", "irr", "_a", "_d", "other")),
                           (z, ("re", "im", "_a", "_d", "other"))):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
