"""Exact scalar arithmetic for the real quadratic field K = Q(sqrt 3).

Two layers of immutable, hashable values:

* ``QuadExt`` -- elements ``a + b*sqrt(3)`` with rational ``a``, ``b``:
  the ring operations, the inverse (also as ``1 / x``), the trace to Q
  and the exact sign in either real embedding.
* ``ComplexQuad`` -- elements ``x + y*i`` with ``x``, ``y`` in ``QuadExt``,
  the entries of the Hermitian-matrix realization.

Both field types store integer numerators over one common denominator
(Cohen, GTM 138, section 4.2).  A ``QuadExt`` is the triple ``(a, b, d)``
meaning ``(a + b*sqrt(3))/d``, and a ``ComplexQuad`` is the quintuple
``(a, b, c, e, d)`` meaning ``((a + b*sqrt(3)) + (c + e*sqrt(3))*i)/d``.
Either is kept canonical: the integers have no common factor, ``d > 0``,
and zero is stored with ``d = 1``.  So equality is a comparison of
integers, and arithmetic is integer products plus one ``math.gcd`` per
result.  ``QuadExt.rat``/``.irr`` and ``ComplexQuad.re``/``.im`` are
computed from the integers on demand.

The elements of both product realizations (``algebras.AlgebraElem`` and
``okubomatrix.HermTraceless3``) hold the same canonical integers, for all
their coordinates over one denominator, and compute on them: ``QuadExt``
and ``ComplexQuad`` values are built from those integers at the report
boundary, when a report, a solve or a test reads a coordinate.

:func:`eliminate` is the one Gaussian elimination of the package: every
determinant, inverse, linear solve and LDL pivot, over Q or over K, runs
through it.

No floating point is used anywhere.  Sign questions in either real
embedding of K are settled by exact case analysis on squares.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from math import gcd


def _num_den(value) -> tuple[int, int]:
    """Numerator and denominator of an integer or Fraction."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


class QuadExt:
    """An element (a + b*sqrt(3))/d of K = Q(sqrt 3), in canonical form:
    gcd(a, b, d) = 1 and d > 0."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, rat=0, irr=0):
        p, q = _num_den(rat)
        r, s = _num_den(irr)
        return _quad(p * s, r * q, q * s)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        return cls(value)

    # -- coordinates ----------------------------------------------------

    @property
    def rat(self) -> Fraction:
        """The rational part a/d."""
        return Fraction(self._a, self._d)

    @property
    def irr(self) -> Fraction:
        """The coefficient b/d of sqrt(3)."""
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> tuple[int, int, int]:
        """The canonical integers (a, b, d) of (a + b*sqrt(3))/d."""
        return self._a, self._b, self._d

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        if type(other) is not QuadExt:
            other = QuadExt.coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _quad(self._a + other._a, self._b + other._b, d)
        return _quad(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not QuadExt:
            other = QuadExt.coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _quad(self._a - other._a, self._b - other._b, d)
        return _quad(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        return QuadExt.coerce(other) - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not QuadExt:
            other = QuadExt.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _quad(a * c + 3 * b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        a, b, d = self._a, self._b, self._d
        nrm = a * a - 3 * b * b  # zero only for a = b = 0: sqrt(3) is irrational
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 3)")
        if nrm < 0:
            return _quad(-a * d, b * d, -nrm)
        return _quad(a * d, -b * d, nrm)

    def __rtruediv__(self, other):
        return QuadExt.coerce(other) * self.inverse()

    # -- Galois structure ----------------------------------------------

    def field_trace(self) -> Fraction:
        """Tr_{K/Q}((a + b*sqrt(3))/d) = 2a/d."""
        return Fraction(2 * self._a, self._d)

    def sign_real(self, conjugate_embedding: bool = False) -> int:
        """Exact sign of the image under a real embedding of K.

        The default embedding sends sqrt(3) to the positive square root;
        ``conjugate_embedding=True`` sends it to the negative one.  The
        denominator is positive, so the sign is that of a + b*sqrt(3).
        """
        a = self._a
        b = -self._b if conjugate_embedding else self._b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 with 3 b^2 (equality impossible for a,b
        # not both zero, since sqrt(3) is irrational)
        lhs, rhs = a * a, 3 * b * b
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    # -- plumbing --------------------------------------------------------

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is QuadExt:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational element hashes like the equal int or Fraction
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self.rat, self.irr))

    def __repr__(self):
        return f"QuadExt({self.rat!r}, {self.irr!r})"

    def __str__(self):
        return render_quadext(self)


_new = object.__new__
_set_a = QuadExt._a.__set__
_set_b = QuadExt._b.__set__
_set_d = QuadExt._d.__set__


def _make(a: int, b: int, d: int) -> QuadExt:
    """The QuadExt (a + b*sqrt(3))/d from integers already in canonical form."""
    x = _new(QuadExt)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _quad(a: int, b: int, d: int) -> QuadExt:
    """The QuadExt (a + b*sqrt(3))/d for integers with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    # the body of _make, inlined: every arithmetic result passes here
    x = _new(QuadExt)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


QUAD_ZERO = QuadExt(0)


class RingTag(enum.Enum):
    """Decidable coefficient rings used by the integrality tests."""

    Z = "Z"
    ZSQRT3 = "Z[sqrt3]"
    Q = "Q"
    K = "Q(sqrt3)"

    def contains(self, x: QuadExt) -> bool:
        x = QuadExt.coerce(x)
        if self is RingTag.Z:
            return not x._b and x._d == 1
        if self is RingTag.ZSQRT3:
            # gcd(a, b, d) = 1, so a/d and b/d are both integers iff d = 1
            return x._d == 1
        if self is RingTag.Q:
            return not x._b
        return True


# ---------------------------------------------------------------------------
# linear algebra over a field (Cohen, GTM 138, section 2.2)
# ---------------------------------------------------------------------------


def eliminate(rows, *, swap=True, reduced=False):
    """Gaussian elimination on the leading square block of ``rows``.

    The entries may be ints, Fractions or QuadExt values; ints become
    Fractions, and every other entry keeps its own type, so the routine
    serves Q and K alike with one reciprocal per pivot.  Columns past the
    square block (an augmented right-hand side) are carried along.

    Returns ``(work, pivots, sign)``:

    * ``work`` -- a reduced copy whose pivot rows are scaled to a leading
      1.  With ``reduced`` the pivot columns are also cleared above the
      pivots (Gauss-Jordan), so ``[A | B]`` ends as ``[I | A^-1 B]``.
    * ``pivots`` -- the pivot of each column in turn, up to and including
      the first zero one; the block is singular iff one of them is zero.
    * ``sign`` -- the parity of the row exchanges, so the determinant is
      ``sign * prod(pivots)``.

    ``swap=False`` forbids row exchanges: the pivots are then those of the
    LDL decomposition of a symmetric matrix, and the entries right of the
    diagonal in pivot row c are its multipliers.
    """
    work = [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]
    n = len(work)
    pivots = []
    sign = 1
    for c in range(n):
        piv = c
        if swap and not work[c][c]:
            piv = next((r for r in range(c + 1, n) if work[r][c]), c)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        d = work[c][c]
        pivots.append(d)
        if not d:
            break
        inv = 1 / d
        prow = [v * inv for v in work[c][c:]]
        work[c][c:] = prow
        for r in range(0 if reduced else c + 1, n):
            f = work[r][c]
            if f and r != c:
                work[r][c:] = [x - f * y for x, y in zip(work[r][c:], prow)]
    return work, pivots, sign


# ---------------------------------------------------------------------------
# canonical text form: "a/b + c/d*s3"
# ---------------------------------------------------------------------------

def render_quadext(x: QuadExt) -> str:
    """Canonical text rendering, e.g. ``-3/2 + 1/1*s3``: each coordinate
    in lowest terms."""
    a, b, d = x._a, x._b, x._d
    ga, gb = gcd(a, d), gcd(b, d)
    return f"{a // ga}/{d // ga} + {b // gb}/{d // gb}*s3"


#: the rational numbers of fixtures and constant dumps: an integer or a/b
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An integer or a fraction ``a/b``, written ``[+-]digits(/digits)``,
    the form the fixture and dump writers produce.

    Anything else (decimals, exponents, underscores, whitespace) raises
    ValueError, a zero denominator ZeroDivisionError.  Unlike
    ``Fraction(text)`` this never expands an exponent, so a short entry
    cannot cost a huge power of ten.
    """
    if _RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not an integer or a fraction a/b: {text!r}")
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# the imaginary quadratic extension K(i)
# ---------------------------------------------------------------------------


class ComplexQuad:
    """An element x + y*i with x, y in K; conjugation negates y.

    Stored as ((a + b*sqrt(3)) + (c + e*sqrt(3))*i)/d with
    gcd(a, b, c, e, d) = 1 and d > 0.
    """

    __slots__ = ("_a", "_b", "_c", "_e", "_d")

    def __new__(cls, re=0, im=0):
        x = QuadExt.coerce(re)
        y = QuadExt.coerce(im)
        p, q = x._d, y._d
        return _complex(x._a * q, x._b * q, y._a * p, y._b * p, p * q)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexQuad values are immutable")

    @classmethod
    def coerce(cls, value) -> "ComplexQuad":
        if isinstance(value, ComplexQuad):
            return value
        return cls(value)

    @property
    def re(self) -> QuadExt:
        return _quad(self._a, self._b, self._d)

    @property
    def im(self) -> QuadExt:
        return _quad(self._c, self._e, self._d)

    @property
    def quintuple(self) -> tuple[int, int, int, int, int]:
        """The canonical integers (a, b, c, e, d)."""
        return self._a, self._b, self._c, self._e, self._d

    def __add__(self, other):
        if type(other) is not ComplexQuad:
            other = ComplexQuad.coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _complex(self._a + other._a, self._b + other._b,
                            self._c + other._c, self._e + other._e, d)
        return _complex(self._a * f + other._a * d, self._b * f + other._b * d,
                        self._c * f + other._c * d, self._e * f + other._e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ComplexQuad:
            other = ComplexQuad.coerce(other)
        d, f = self._d, other._d
        if d == f:
            return _complex(self._a - other._a, self._b - other._b,
                            self._c - other._c, self._e - other._e, d)
        return _complex(self._a * f - other._a * d, self._b * f - other._b * d,
                        self._c * f - other._c * d, self._e * f - other._e * d, d * f)

    def __rsub__(self, other):
        return ComplexQuad.coerce(other) - self

    def __neg__(self):
        return _cmake(-self._a, -self._b, -self._c, -self._e, self._d)

    def __mul__(self, other):
        if type(other) is not ComplexQuad:
            other = ComplexQuad.coerce(other)
        # (x + y i)(u + v i) = (xu - yv) + (xv + yu) i with x = a + b s3,
        # y = c + e s3, u = p + q s3, v = r + s s3 and s3^2 = 3
        a, b, c, e = self._a, self._b, self._c, self._e
        p, q, r, s = other._a, other._b, other._c, other._e
        return _complex(
            a * p - c * r + 3 * (b * q - e * s),
            a * q + b * p - c * s - e * r,
            a * r + c * p + 3 * (b * s + e * q),
            a * s + b * r + c * q + e * p,
            self._d * other._d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexQuad":
        return _cmake(self._a, self._b, -self._c, -self._e, self._d)

    def norm(self) -> QuadExt:
        """re^2 + im^2, nonnegative in both real embeddings of K."""
        a, b, c, e, d = self._a, self._b, self._c, self._e, self._d
        return _quad(a * a + c * c + 3 * (b * b + e * e), 2 * (a * b + c * e), d * d)

    def is_zero(self) -> bool:
        return not (self._a or self._b or self._c or self._e)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if type(other) is not ComplexQuad:
            if not isinstance(other, (int, Fraction, QuadExt)):
                return NotImplemented
            return not self._c and not self._e and self.re == other
        return (self._a == other._a and self._b == other._b and self._c == other._c
                and self._e == other._e and self._d == other._d)

    def __hash__(self):
        # a real element hashes like the equal QuadExt
        if not self._c and not self._e:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ComplexQuad({self.re!r}, {self.im!r})"


_cset_a = ComplexQuad._a.__set__
_cset_b = ComplexQuad._b.__set__
_cset_c = ComplexQuad._c.__set__
_cset_e = ComplexQuad._e.__set__
_cset_d = ComplexQuad._d.__set__


def _cmake(a: int, b: int, c: int, e: int, d: int) -> ComplexQuad:
    """The ComplexQuad from integers already in canonical form."""
    z = _new(ComplexQuad)
    _cset_a(z, a)
    _cset_b(z, b)
    _cset_c(z, c)
    _cset_e(z, e)
    _cset_d(z, d)
    return z


def _complex(a: int, b: int, c: int, e: int, d: int) -> ComplexQuad:
    """The ComplexQuad ((a + b s3) + (c + e s3) i)/d for integers, d > 0."""
    g = gcd(a, b, c, e, d)
    if g != 1:
        a //= g
        b //= g
        c //= g
        e //= g
        d //= g
    # the body of _cmake, inlined: every arithmetic result passes here
    z = _new(ComplexQuad)
    _cset_a(z, a)
    _cset_b(z, b)
    _cset_c(z, c)
    _cset_e(z, e)
    _cset_d(z, d)
    return z
