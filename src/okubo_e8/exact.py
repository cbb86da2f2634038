"""Exact scalar arithmetic for the real quadratic field K = Q(sqrt 3).

Three layers of immutable, hashable values:

* ``Rational`` -- alias of :class:`fractions.Fraction`: lowest terms,
  positive denominator, so equality and ring membership are syntactic.
* ``QuadExt`` -- elements ``a + b*sqrt(3)`` with rational ``a``, ``b``.
* ``ComplexQuad`` -- elements ``x + y*i`` with ``x``, ``y`` in ``QuadExt``,
  the scalars of the Hermitian-matrix realization.

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
from math import lcm

Rational = Fraction

_ZERO = Fraction(0)
_SQRT3_SQ = 3


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


class QuadExt:
    """An element a + b*sqrt(3) of K = Q(sqrt 3), in canonical form."""

    __slots__ = ("rat", "irr")

    def __init__(self, rat=0, irr=0):
        object.__setattr__(self, "rat", _as_fraction(rat))
        object.__setattr__(self, "irr", _as_fraction(irr))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt3(cls) -> "QuadExt":
        return cls(0, 1)

    @classmethod
    def coerce(cls, value) -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        return cls(_as_fraction(value))

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        other = QuadExt.coerce(other)
        return QuadExt(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __sub__(self, other):
        other = QuadExt.coerce(other)
        return QuadExt(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other):
        return QuadExt.coerce(other) - self

    def __neg__(self):
        return QuadExt(-self.rat, -self.irr)

    def __mul__(self, other):
        other = QuadExt.coerce(other)
        a, b, c, d = self.rat, self.irr, other.rat, other.irr
        return QuadExt(a * c + _SQRT3_SQ * b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        nrm = self.field_norm()
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 3)")
        return QuadExt(self.rat / nrm, -self.irr / nrm)

    def __truediv__(self, other):
        return self * QuadExt.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QuadExt.coerce(other) * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = QuadExt(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- Galois structure ----------------------------------------------

    def galois_conjugate(self) -> "QuadExt":
        """The image under sqrt(3) -> -sqrt(3)."""
        return QuadExt(self.rat, -self.irr)

    def field_trace(self) -> Fraction:
        """Tr_{K/Q}(a + b*sqrt(3)) = 2a."""
        return 2 * self.rat

    def field_norm(self) -> Fraction:
        """N_{K/Q}(a + b*sqrt(3)) = a^2 - 3 b^2."""
        return self.rat * self.rat - _SQRT3_SQ * self.irr * self.irr

    def sign_real(self, conjugate_embedding: bool = False) -> int:
        """Exact sign of the image under a real embedding of K.

        The default embedding sends sqrt(3) to the positive square root;
        ``conjugate_embedding=True`` sends it to the negative one.
        """
        a = self.rat
        b = -self.irr if conjugate_embedding else self.irr
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 with 3 b^2 (equality impossible for a,b
        # rational and not both zero, since sqrt(3) is irrational)
        lhs, rhs = a * a, _SQRT3_SQ * b * b
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.rat == 0 and self.irr == 0

    def is_rational(self) -> bool:
        return self.irr == 0

    # -- plumbing --------------------------------------------------------

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadExt.coerce(other)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.rat == other.rat and self.irr == other.irr

    def __hash__(self):
        if self.irr == 0:
            return hash(self.rat)
        return hash((self.rat, self.irr))

    def __repr__(self):
        return f"QuadExt({self.rat!r}, {self.irr!r})"

    def __str__(self):
        return render_quadext(self)


QUAD_ZERO = QuadExt(0)
QUAD_ONE = QuadExt(1)
SQRT3 = QuadExt.sqrt3()


def galois_and_trace(x: QuadExt) -> tuple[QuadExt, Fraction]:
    """Return (conjugate, field trace) for an element of K."""
    return x.galois_conjugate(), x.field_trace()


class RingTag(enum.Enum):
    """Decidable coefficient rings used by the integrality tests."""

    Z = "Z"
    ZSQRT3 = "Z[sqrt3]"
    Q = "Q"
    K = "Q(sqrt3)"

    def contains(self, x: QuadExt) -> bool:
        x = QuadExt.coerce(x)
        if self is RingTag.Z:
            return x.irr == 0 and x.rat.denominator == 1
        if self is RingTag.ZSQRT3:
            return x.rat.denominator == 1 and x.irr.denominator == 1
        if self is RingTag.Q:
            return x.irr == 0
        return True


def ring_membership(x: QuadExt, tag: RingTag) -> bool:
    return tag.contains(x)


# ---------------------------------------------------------------------------
# denominator bookkeeping (2-adic profile of exact results)
# ---------------------------------------------------------------------------


def denominator_factorization(q: Fraction) -> dict[int, int]:
    """Prime factorization of the (positive) denominator of ``q``."""
    d = q.denominator
    out: dict[int, int] = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1 if p == 2 else 2
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def two_adic_denominator(q: Fraction) -> int:
    """Exponent of 2 in the denominator of ``q`` (0 if odd)."""
    d = q.denominator
    e = 0
    while d % 2 == 0:
        d //= 2
        e += 1
    return e


def quad_denominator(x: QuadExt) -> int:
    """lcm of the denominators of the two rational coordinates."""
    return lcm(x.rat.denominator, x.irr.denominator)


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

_QUAD_RE = re.compile(
    r"^\s*(-?\d+)/(\d+)\s*\+\s*(-?\d+)/(\d+)\*s3\s*$"
)


def render_quadext(x: QuadExt) -> str:
    """Canonical text rendering, e.g. ``-3/2 + 1/1*s3``."""
    a, b = x.rat, x.irr
    return f"{a.numerator}/{a.denominator} + {b.numerator}/{b.denominator}*s3"


def parse_quadext(text: str) -> QuadExt:
    """Inverse of :func:`render_quadext` (exact round trip)."""
    m = _QUAD_RE.match(text)
    if m is None:
        raise ValueError(f"not a canonical Q(sqrt3) literal: {text!r}")
    an, ad, bn, bd = (int(g) for g in m.groups())
    if ad == 0 or bd == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return QuadExt(Fraction(an, ad), Fraction(bn, bd))


# ---------------------------------------------------------------------------
# the imaginary quadratic extension K(i)
# ---------------------------------------------------------------------------


class ComplexQuad:
    """An element x + y*i with x, y in K; conjugation negates y."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", QuadExt.coerce(re))
        object.__setattr__(self, "im", QuadExt.coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexQuad values are immutable")

    @classmethod
    def coerce(cls, value) -> "ComplexQuad":
        if isinstance(value, ComplexQuad):
            return value
        return cls(QuadExt.coerce(value))

    def __add__(self, other):
        other = ComplexQuad.coerce(other)
        return ComplexQuad(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexQuad.coerce(other)
        return ComplexQuad(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexQuad.coerce(other) - self

    def __neg__(self):
        return ComplexQuad(-self.re, -self.im)

    def __mul__(self, other):
        other = ComplexQuad.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return ComplexQuad(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexQuad":
        return ComplexQuad(self.re, -self.im)

    def norm(self) -> QuadExt:
        """re^2 + im^2, nonnegative in both real embeddings of K."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = ComplexQuad.coerce(other)
        if not isinstance(other, ComplexQuad):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im.is_zero():
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ComplexQuad({self.re!r}, {self.im!r})"
