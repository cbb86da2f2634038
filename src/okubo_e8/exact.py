"""Exact scalar arithmetic for the real quadratic field K = Q(sqrt 3).

Two layers of immutable, hashable values:

* ``QuadExt`` -- elements ``a + b*sqrt(3)`` with rational ``a``, ``b``:
  the ring operations, the inverse (also as ``1 / x``), the trace to Q
  and the exact sign in the real embedding with sqrt(3) > 0.
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
values are built from those integers at the report boundary, when a
report or a solve reads a coordinate, and ``ComplexQuad`` values only
when the ``rows`` of a matrix are read, which no command does.

Elimination over Q or over K has two routines, neither with options:
:func:`solve`, the one Gauss-Jordan solve of the package (the coordinate
solve below, and the inclusion matrix of ``lattice``), and :func:`ldl`,
the LDL pivots that decide positive definiteness; determinants are taken
of integer matrices only, by fraction-free elimination
(``lattice.mat_det``, which refuses any other entry).  A
K-linear map that is applied many times is kept in the one integer form
of :func:`integer_map`, per input coordinate the nonzero entries of its
column as integers over one denominator, and :func:`apply_map` is the
one product of such a map with integer pairs.  The rotation runs through
those two, and so does :class:`SpanSolve`, the one coordinate solve of
both product realizations: coordinates over an order basis and over the
Hermitian-matrix basis, with the rebuild that refuses a vector outside
the span.

No floating point is used anywhere.  Sign questions in the real embedding
of K are settled by exact case analysis on squares.
"""

from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction
from math import gcd, lcm


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
        return _quad(-self._a, -self._b, self._d)

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

    # -- the real embedding -------------------------------------------

    def sign_real(self) -> int:
        """Exact sign of the image under the real embedding of K that sends
        sqrt(3) to the positive square root (the other embedding's sign is
        that of the Galois conjugate).  The denominator is positive, so the
        sign is that of a + b*sqrt(3).
        """
        a, b = self._a, self._b
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


def _quad(a: int, b: int, d: int) -> QuadExt:
    """The QuadExt (a + b*sqrt(3))/d for integers with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
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

    def contains(self, x: QuadExt) -> bool:
        x = QuadExt.coerce(x)
        if self is RingTag.Z:
            return not x._b and x._d == 1
        # Z[sqrt3]: gcd(a, b, d) = 1, so a/d and b/d are both integers iff d = 1
        return x._d == 1


# ---------------------------------------------------------------------------
# linear algebra over a field (Cohen, GTM 138, section 2.2)
# ---------------------------------------------------------------------------


def _field_rows(rows):
    """Copies of the rows with ints made Fractions; every other entry keeps
    its own type, so the routines below serve Q and K alike."""
    return [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]


def solve(a, b):
    """The X with A X = B, for a square nonsingular A, by one Gauss-Jordan
    elimination of [A | B] to [I | X]; a zero pivot is exchanged with the
    first nonzero entry below it, and a singular A raises
    ArithmeticError."""
    work = _field_rows([*ra, *rb] for ra, rb in zip(a, b))
    n = len(work)
    for c in range(n):
        if not work[c][c]:
            piv = next((r for r in range(c + 1, n) if work[r][c]), None)
            if piv is None:
                raise ArithmeticError("singular matrix")
            work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        prow = [v * inv for v in work[c][c:]]
        work[c][c:] = prow
        for r in range(n):
            f = work[r][c]
            if f and r != c:
                work[r][c:] = [x - f * y for x, y in zip(work[r][c:], prow)]
    return [row[n:] for row in work]


def ldl(gram):
    """The LDL decomposition of a symmetric matrix, without row exchanges:
    ``(multipliers, pivots)``, with ``pivots`` the diagonal of D up to and
    including the first zero one, and ``multipliers[c]`` the entries right
    of the diagonal in row c of L^T, one row per nonzero pivot.  The form
    is positive definite iff every pivot is positive."""
    work = _field_rows(gram)
    n = len(work)
    multipliers, pivots = [], []
    for c in range(n):
        d = work[c][c]
        pivots.append(d)
        if not d:
            break
        inv = 1 / d
        mu = [v * inv for v in work[c][c + 1:]]
        multipliers.append(mu)
        for r in range(c + 1, n):
            f = work[r][c]
            if f:
                work[r][c + 1:] = [x - f * y for x, y in zip(work[r][c + 1:], mu)]
    return multipliers, pivots


def integer_map(columns):
    """The integer form of a K-linear map given by its columns, one per
    input coordinate, of values ``QuadExt.coerce`` accepts: per column the
    triples (r, p, q) of its nonzero entries (p + q*sqrt(3))/M in rows r,
    and the one denominator M > 0, the lcm of the entries' denominators."""
    triples = [[QuadExt.coerce(v).triple for v in col] for col in columns]
    den = lcm(*(d for col in triples for _, _, d in col))
    return tuple(
        tuple((r, a * (den // d), b * (den // d))
              for r, (a, b, d) in enumerate(col) if a or b)
        for col in triples
    ), den


def apply_map(cols, pairs, n_out: int) -> list[list[int]]:
    """M x on integers: ``cols`` the columns of M over its denominator, as
    :func:`integer_map` gives them, and ``pairs`` the integer pairs (a, b)
    of x over Dx, one per input coordinate; the ``n_out`` pairs of M x over
    the product of the two denominators."""
    out = [[0, 0] for _ in range(n_out)]
    for (a, b), col in zip(pairs, cols):
        if a or b:
            for r, p, q in col:
                acc = out[r]
                acc[0] += p * a + 3 * q * b
                acc[1] += p * b + q * a
    return out


class SpanSolve:
    """The one coordinate solve, over K-linearly independent vectors
    b_0..b_{n-1} of K^N, the rows of B, each given as its N integer pairs
    over its denominator: ``solve`` is P = B^T (B B^T)^-1 and ``combine``
    is B, both in the form of :func:`integer_map`, built once.  As B P = I,
    P sends a vector of the span to its coordinates, and B those back to
    the vector.  ``label`` names the basis in errors; a singular B B^T
    raises ArithmeticError."""

    __slots__ = ("label", "solve", "combine")

    def __init__(self, vectors, label: str):
        vectors = list(vectors)
        # B B^T on the integers: sum_m (a + b s3)(c + e s3) over Dx*Dy
        gram = [[_quad(sum(a * c + 3 * b * e for (a, b), (c, e) in zip(xs, ys)),
                       sum(a * e + b * c for (a, b), (c, e) in zip(xs, ys)), dx * dy)
                 for ys, dy in vectors] for xs, dx in vectors]
        rows = [[_quad(a, b, d) for a, b in pairs] for pairs, d in vectors]
        self.label = label
        # B B^T is symmetric, so (B B^T)^-1 B is P^T: its columns are P's rows
        self.solve = integer_map(zip(*solve(gram, rows)))
        self.combine = integer_map(rows)

    def coordinates(self, pairs, den: int) -> tuple[QuadExt, ...]:
        """The coordinates x P of the vector x whose entries are the
        integer pairs ``pairs`` over ``den``.

        For n < N, x P is rebuilt into a vector through ``combine``, and
        ArithmeticError is raised when that is not x, i.e. when x lies
        outside the K-span; for n = N, P is B^-1 and every x lies in it.
        """
        (solve, s_den), (combine, c_den) = self.solve, self.combine
        n, ambient = len(combine), len(solve)
        coords = apply_map(solve, pairs, n)
        if n < ambient:
            scale = s_den * c_den
            if apply_map(combine, coords, ambient) != [[scale * a, scale * b] for a, b in pairs]:
                raise ArithmeticError(f"element outside the K-span of {self.label!r}")
        d = s_den * den
        return tuple(_quad(p, q, d) for p, q in coords)


# ---------------------------------------------------------------------------
# canonical text form: "a/b + c/d*s3"
# ---------------------------------------------------------------------------

def render_quadext(x: QuadExt) -> str:
    """Canonical text rendering, e.g. ``-3/2 + 1/1*s3``: each coordinate
    in lowest terms."""
    a, b, d = x._a, x._b, x._d
    ga, gb = gcd(a, d), gcd(b, d)
    return f"{a // ga}/{d // ga} + {b // gb}/{d // gb}*s3"


#: the one number grammar of fixtures and constant dumps: an integer, or
#: a/b, in ASCII digits; the groups are the numerator and the denominator.
#: Only the error path matches it alone, so only that path compiles it
INTEGER = r"[+-]?[0-9]+"
RATIONAL = rf"({INTEGER})(?:/([0-9]+))?"
#: entries joined by a comma, which the grammar excludes; the grammar's
#: groups do not capture here, which makes the repeat faster
_UNGROUPED = RATIONAL.replace("(?:", "(").replace("(", "(?:")
_RATIONALS_RE = re.compile(rf"{_UNGROUPED}(?:,{_UNGROUPED})*")


def rational_pairs(entries) -> list[tuple[int, int]]:
    """The integers ``(a, b)``, ``b > 0``, of each entry of ``entries``, an
    integer or a fraction ``a/b`` written ``[+-]digits(/digits)``, the form
    the fixture and dump writers produce; ``a/b`` need not be in lowest
    terms.

    The grammar is matched once, on the entries joined by a comma, and a
    comma count that is not one less than the entries refuses an entry
    with a comma in it; then ``int()``, which is looser, reads the
    digits, and only entries with a ``/`` are split.  Unlike
    ``Fraction(text)`` this never expands an exponent, so a short entry
    cannot cost a huge power of ten.

    Anything else raises, about the first entry that is not a number, with
    its position in ``entries`` as the exception's ``index``: an entry
    that is not a str in the grammar (decimals, exponents, underscores,
    whitespace, non-ASCII digits) ValueError, a zero denominator
    ZeroDivisionError, and a numerator or denominator with more digits
    than ``int()`` reads (``sys.get_int_max_str_digits()``) OverflowError,
    whose message quotes only the first digits.
    """
    try:
        text = ",".join(entries)
    except TypeError:  # an entry that is not a str
        text = ""
    if (_RATIONALS_RE.fullmatch(text) is not None
            and text.count(",") == len(entries) - 1):
        try:
            if "/" not in text:
                return [(a, 1) for a in map(int, entries)]
            pairs = [tuple(map(int, e.split("/"))) if "/" in e else (int(e), 1)
                     for e in entries]
        except ValueError:  # past the digit limit: named below
            pass
        else:
            if all(b for _, b in pairs):
                return pairs
    # the error path: match each entry alone, to name the first bad one
    limit = sys.get_int_max_str_digits()
    for n, entry in enumerate(entries):
        m = re.fullmatch(RATIONAL, entry) if isinstance(entry, str) else None
        if m is None:
            exc = ValueError(f"not an integer or a fraction a/b: {entry!r}")
        else:
            digits = max(len(m[1].lstrip("+-")), len(m[2] or ""))
            if limit and digits > limit:
                exc = OverflowError(f"{digits:,} digits, more than the {limit:,} a "
                                    f"number can have: {entry[:12]!r}...")
            elif not int(m[2] or 1):
                exc = ZeroDivisionError(f"zero denominator: {entry!r}")
            else:
                continue
        exc.index = n
        raise exc
    return []  # no entries


# ---------------------------------------------------------------------------
# the imaginary quadratic extension K(i)
# ---------------------------------------------------------------------------


class ComplexQuad:
    """An element x + y*i with x, y in K; conjugation negates y.

    Stored as ((a + b*sqrt(3)) + (c + e*sqrt(3))*i)/d with
    gcd(a, b, c, e, d) = 1 and d > 0.
    """

    __slots__ = ("_a", "_b", "_c", "_e", "_d")

    def __new__(cls, re, im):
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
        return cls(value, 0)

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
        return _complex(-self._a, -self._b, -self._c, -self._e, self._d)

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
        return _complex(self._a, self._b, -self._c, -self._e, self._d)

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

    @staticmethod
    def _canonical(a: int, b: int, c: int, e: int, d: int) -> "ComplexQuad":
        """The ComplexQuad ((a + b s3) + (c + e s3) i)/d for integers,
        d > 0; every value of the class is made here (module name
        ``_complex``)."""
        g = gcd(a, b, c, e, d)
        if g != 1:
            a //= g
            b //= g
            c //= g
            e //= g
            d //= g
        z = _new(ComplexQuad)
        _cset_a(z, a)
        _cset_b(z, b)
        _cset_c(z, c)
        _cset_e(z, e)
        _cset_d(z, d)
        return z


_cset_a = ComplexQuad._a.__set__
_cset_b = ComplexQuad._b.__set__
_cset_c = ComplexQuad._c.__set__
_cset_e = ComplexQuad._e.__set__
_cset_d = ComplexQuad._d.__set__
_complex = ComplexQuad._canonical
