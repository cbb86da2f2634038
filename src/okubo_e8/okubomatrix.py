"""Independent realization of the Okubo algebra on Hermitian traceless
3x3 matrices over K(i), and its cross-validation against the rotation
(Petersson) realization.

The product is

    x * y = mu x y + conj(mu) y x - (1/3) Tr(x y) I

with mu = 1/2 + (sqrt(3)/6) i, juxtaposition being the ordinary matrix
product; the norm is n(x) = Tr(x^2)/6.  All scalars are exact elements of
K(i), so every law below is certified with zero tolerance.  Every matrix
the module hands out is Hermitian and traceless: the constructor checks
its entries, and the product checks its operands and its result.

A matrix holds canonical integers, not scalar objects: its nine entries
((a + b sqrt3) + (c + e sqrt3) i)/D as integer quadruples (a, b, c, e)
over one denominator D > 0, laid out in row-major order as one tuple of
36 integers, with no prime dividing D and all 36 of them.  That form is
unique, so equality and hashing compare integers, and ``rows`` builds
the ComplexQuad entries only when asked.

The Okubo product runs on those integers and computes one associative
product.  It first checks both operands Hermitian, and raises the
constructor's error if one is not.  An entry of xy is a sum of three
integer products over Dx*Dy, written out once; for Hermitian operands
yx = (xy)^H, so yx is read off xy and not computed.  With the integers
of 6 mu = 3 + sqrt(3) i, six times x * y is S + D and six times y * x is
S - D, for S = 3(xy + yx) - 2 Tr(xy) I and D = sqrt(3) i (xy - yx);
:func:`_okubo_parts` builds each entry of S and D as one integer
quadruple over Dx*Dy, in one expression.  :func:`matrix_mul` returns
x * y, and :func:`matrix_mul_pair` both orders, for the laws that need
both.  Each result is still checked Hermitian and traceless on its
integers, with the errors the HermTraceless3 constructor raises, and made
canonical with one gcd per matrix.  ``norm`` and ``inner`` sum
the nine terms x_im y_mi of Tr(xy), written out, for any 36 integers, and
reject a trace that is not real.  The symmetrized product
:func:`jordan_product` is (S + 2 Tr(xy) I)/6, from the same S and that
trace, so the module has one associative product.

The sampled laws of both products are checked on one pool of seeded
random matrices, :func:`sample_pool`, drawn once per check run; the pool
holds the norm of each of its matrices, computed once for both laws that
read it.

Coordinates over the basis (e, e1..e7) come from :class:`exact.SpanSolve`
on the 18 K-parts of the nine entries, and the matrix-side table of the
cross-realization diff from :func:`orders.product_table`, as for the
order bases.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import add, sub

from ._record import record
from .algebras import DIM, basis_element, okubo_mul
from .exact import ComplexQuad, QuadExt, SpanSolve, _complex, _quad, apply_map, ldl
from .orders import product_table


class HermTraceless3:
    """A Hermitian traceless 3x3 matrix over K(i).

    Stored as ``_q``, the 36 integers of the nine entries: entry (i, j)
    is ((a + b sqrt3) + (c + e sqrt3) i)/D for (a, b, c, e) =
    ``_q[4k:4k + 4]``, k = 3i + j; and ``_d`` = D > 0, in the canonical
    form of the module docstring.
    """

    __slots__ = ("_q", "_d")

    def __init__(self, rows):
        rows = tuple(tuple(ComplexQuad.coerce(v) for v in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 matrix")
        # each entry is in lowest terms, so over the lcm of their
        # denominators the integers are already canonical
        quints = [v.quintuple for r in rows for v in r]
        den = lcm(*[q[4] for q in quints])
        ints = tuple(v * (den // q[4]) for q in quints for v in q[:4])
        _check_type(ints)
        _set_q(self, ints)
        _set_d(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("HermTraceless3 values are immutable")

    @property
    def rows(self) -> tuple[tuple[ComplexQuad, ...], ...]:
        """The entries as ComplexQuad values, built on each call."""
        q, d = self._q, self._d
        return tuple(tuple(_complex(*q[k:k + 4], d) for k in range(12 * i, 12 * i + 12, 4))
                     for i in range(3))

    def __neg__(self):
        return _matrix(tuple(-v for v in self._q), self._d)

    def __eq__(self, other):
        if not isinstance(other, HermTraceless3):
            return NotImplemented
        return self._d == other._d and self._q == other._q

    def __hash__(self):
        return hash((self._d, self._q))

    def __repr__(self):
        return f"HermTraceless3({self.rows!r})"


_set_q = HermTraceless3._q.__set__
_set_d = HermTraceless3._d.__set__
_new = object.__new__

def _matrix(ints, den: int) -> HermTraceless3:
    """The matrix with the 36 integers ``ints`` (in the layout of ``_q``)
    over ``den`` > 0, made canonical by one gcd; not validated."""
    g = gcd(den, *ints)
    if g != 1:
        ints = [v // g for v in ints]
        den //= g
    m = _new(HermTraceless3)
    _set_q(m, tuple(ints))
    _set_d(m, den)
    return m


def _trace(ints):
    """The integers (a, b, c, e) of the trace: the sum of entries 0, 4, 8."""
    return (ints[0] + ints[16] + ints[32], ints[1] + ints[17] + ints[33],
            ints[2] + ints[18] + ints[34], ints[3] + ints[19] + ints[35])


def _hermitian(ints) -> bool:
    """Whether entry (i, j) is the conjugate of entry (j, i) throughout:
    the diagonal entries, at integers 0, 16 and 32, are real, and entries
    (0, 1), (0, 2) and (1, 2), at 4, 8 and 20, are the conjugates of
    entries (1, 0), (2, 0) and (2, 1), at 12, 24 and 28."""
    return (not (ints[2] or ints[3] or ints[18] or ints[19] or ints[34] or ints[35])
            and ints[4] == ints[12] and ints[5] == ints[13]
            and ints[6] == -ints[14] and ints[7] == -ints[15]
            and ints[8] == ints[24] and ints[9] == ints[25]
            and ints[10] == -ints[26] and ints[11] == -ints[27]
            and ints[20] == ints[28] and ints[21] == ints[29]
            and ints[22] == -ints[30] and ints[23] == -ints[31])


def _check_type(ints) -> None:
    """ValueError unless the 36 integers over a positive denominator are
    Hermitian and traceless; the denominator does not matter."""
    if not _hermitian(ints):
        raise ValueError("matrix is not Hermitian")
    if any(_trace(ints)):
        raise ValueError("matrix is not traceless")


def _real_trace(xs, ys, message):
    """The integers (a, b) of Tr(xy) = (a + b s3)/(Dx*Dy), for any two
    matrices given by their 36 integers: the sum of the nine terms
    x_im y_mi, written out; ArithmeticError with ``message`` if the trace
    is not real.  With s3 = sqrt(3), one term ((a + b s3) + (c + e s3) i)
    ((p + q s3) + (r + s s3) i) has the quadruple (ap - cr + 3(bq - es),
    aq + bp - cs - er, ar + cp + 3(bs + eq), as + br + cq + ep)."""
    (a00, b00, c00, e00, a01, b01, c01, e01, a02, b02, c02, e02,
     a10, b10, c10, e10, a11, b11, c11, e11, a12, b12, c12, e12,
     a20, b20, c20, e20, a21, b21, c21, e21, a22, b22, c22, e22) = xs
    (p00, q00, r00, s00, p01, q01, r01, s01, p02, q02, r02, s02,
     p10, q10, r10, s10, p11, q11, r11, s11, p12, q12, r12, s12,
     p20, q20, r20, s20, p21, q21, r21, s21, p22, q22, r22, s22) = ys
    ta = (a00 * p00 - c00 * r00 + a01 * p10 - c01 * r10 + a02 * p20 - c02 * r20 + a10 * p01
        - c10 * r01 + a11 * p11 - c11 * r11 + a12 * p21 - c12 * r21 + a20 * p02 - c20 * r02
        + a21 * p12 - c21 * r12 + a22 * p22 - c22 * r22 + 3 * (b00 * q00 - e00 * s00
        + b01 * q10 - e01 * s10 + b02 * q20 - e02 * s20 + b10 * q01 - e10 * s01 + b11 * q11
        - e11 * s11 + b12 * q21 - e12 * s21 + b20 * q02 - e20 * s02 + b21 * q12 - e21 * s12
        + b22 * q22 - e22 * s22))
    tb = (a00 * q00 + b00 * p00 - c00 * s00 - e00 * r00 + a01 * q10 + b01 * p10 - c01 * s10
        - e01 * r10 + a02 * q20 + b02 * p20 - c02 * s20 - e02 * r20 + a10 * q01 + b10 * p01
        - c10 * s01 - e10 * r01 + a11 * q11 + b11 * p11 - c11 * s11 - e11 * r11 + a12 * q21
        + b12 * p21 - c12 * s21 - e12 * r21 + a20 * q02 + b20 * p02 - c20 * s02 - e20 * r02
        + a21 * q12 + b21 * p12 - c21 * s12 - e21 * r12 + a22 * q22 + b22 * p22 - c22 * s22
        - e22 * r22)
    tc = (a00 * r00 + c00 * p00 + a01 * r10 + c01 * p10 + a02 * r20 + c02 * p20 + a10 * r01
        + c10 * p01 + a11 * r11 + c11 * p11 + a12 * r21 + c12 * p21 + a20 * r02 + c20 * p02
        + a21 * r12 + c21 * p12 + a22 * r22 + c22 * p22 + 3 * (b00 * s00 + e00 * q00
        + b01 * s10 + e01 * q10 + b02 * s20 + e02 * q20 + b10 * s01 + e10 * q01 + b11 * s11
        + e11 * q11 + b12 * s21 + e12 * q21 + b20 * s02 + e20 * q02 + b21 * s12 + e21 * q12
        + b22 * s22 + e22 * q22))
    te = (a00 * s00 + b00 * r00 + c00 * q00 + e00 * p00 + a01 * s10 + b01 * r10 + c01 * q10
        + e01 * p10 + a02 * s20 + b02 * r20 + c02 * q20 + e02 * p20 + a10 * s01 + b10 * r01
        + c10 * q01 + e10 * p01 + a11 * s11 + b11 * r11 + c11 * q11 + e11 * p11 + a12 * s21
        + b12 * r21 + c12 * q21 + e12 * p21 + a20 * s02 + b20 * r02 + c20 * q02 + e20 * p02
        + a21 * s12 + b21 * r12 + c21 * q12 + e21 * p12 + a22 * s22 + b22 * r22 + c22 * q22
        + e22 * p22)
    if tc or te:
        raise ArithmeticError(message)
    return ta, tb


def _okubo_parts(x: HermTraceless3, y: HermTraceless3) -> tuple[list[int], list[int]]:
    """The integers of S = 3(xy + yx) - 2 Tr(xy) I and D = sqrt(3) i (xy - yx)
    over Dx*Dy, in the layout of ``_q``, from the one associative product
    xy: as 6 mu = 3 + sqrt(3) i, 6 (x * y) is S + D and 6 (y * x) is S - D.
    Both operands are checked Hermitian first (ValueError "matrix is not
    Hermitian" otherwise), as yx = (xy)^H holds only for them."""
    if not (_hermitian(x._q) and _hermitian(y._q)):
        raise ValueError("matrix is not Hermitian")
    # entry (i, j) of xy is (Aij, Bij, Cij, Eij) over Dx*Dy, the three terms
    # x_im y_mj, each as in _real_trace, written out; the diagonal entries
    # of the Hermitian operands are real, so their imaginary parts are left
    # out
    (a00, b00, _, _, a01, b01, c01, e01, a02, b02, c02, e02,
     a10, b10, c10, e10, a11, b11, _, _, a12, b12, c12, e12,
     a20, b20, c20, e20, a21, b21, c21, e21, a22, b22, _, _) = x._q
    (p00, q00, _, _, p01, q01, r01, s01, p02, q02, r02, s02,
     p10, q10, r10, s10, p11, q11, _, _, p12, q12, r12, s12,
     p20, q20, r20, s20, p21, q21, r21, s21, p22, q22, _, _) = y._q
    A00 = (a00 * p00 + a01 * p10 - c01 * r10 + a02 * p20 - c02 * r20 + 3 * (b00 * q00
        + b01 * q10 - e01 * s10 + b02 * q20 - e02 * s20))
    B00 = (a00 * q00 + b00 * p00 + a01 * q10 + b01 * p10 - c01 * s10 - e01 * r10 + a02 * q20
        + b02 * p20 - c02 * s20 - e02 * r20)
    C00 = (a01 * r10 + c01 * p10 + a02 * r20 + c02 * p20 + 3 * (b01 * s10 + e01 * q10
        + b02 * s20 + e02 * q20))
    E00 = (a01 * s10 + b01 * r10 + c01 * q10 + e01 * p10 + a02 * s20 + b02 * r20 + c02 * q20
        + e02 * p20)
    A01 = (a00 * p01 + a01 * p11 + a02 * p21 - c02 * r21 + 3 * (b00 * q01 + b01 * q11
        + b02 * q21 - e02 * s21))
    B01 = (a00 * q01 + b00 * p01 + a01 * q11 + b01 * p11 + a02 * q21 + b02 * p21 - c02 * s21
        - e02 * r21)
    C01 = (a00 * r01 + c01 * p11 + a02 * r21 + c02 * p21 + 3 * (b00 * s01 + e01 * q11
        + b02 * s21 + e02 * q21))
    E01 = (a00 * s01 + b00 * r01 + c01 * q11 + e01 * p11 + a02 * s21 + b02 * r21 + c02 * q21
        + e02 * p21)
    A02 = (a00 * p02 + a01 * p12 - c01 * r12 + a02 * p22 + 3 * (b00 * q02 + b01 * q12
        - e01 * s12 + b02 * q22))
    B02 = (a00 * q02 + b00 * p02 + a01 * q12 + b01 * p12 - c01 * s12 - e01 * r12 + a02 * q22
        + b02 * p22)
    C02 = (a00 * r02 + a01 * r12 + c01 * p12 + c02 * p22 + 3 * (b00 * s02 + b01 * s12
        + e01 * q12 + e02 * q22))
    E02 = (a00 * s02 + b00 * r02 + a01 * s12 + b01 * r12 + c01 * q12 + e01 * p12 + c02 * q22
        + e02 * p22)
    A10 = (a10 * p00 + a11 * p10 + a12 * p20 - c12 * r20 + 3 * (b10 * q00 + b11 * q10
        + b12 * q20 - e12 * s20))
    B10 = (a10 * q00 + b10 * p00 + a11 * q10 + b11 * p10 + a12 * q20 + b12 * p20 - c12 * s20
        - e12 * r20)
    C10 = (c10 * p00 + a11 * r10 + a12 * r20 + c12 * p20 + 3 * (e10 * q00 + b11 * s10
        + b12 * s20 + e12 * q20))
    E10 = (c10 * q00 + e10 * p00 + a11 * s10 + b11 * r10 + a12 * s20 + b12 * r20 + c12 * q20
        + e12 * p20)
    A11 = (a10 * p01 - c10 * r01 + a11 * p11 + a12 * p21 - c12 * r21 + 3 * (b10 * q01
        - e10 * s01 + b11 * q11 + b12 * q21 - e12 * s21))
    B11 = (a10 * q01 + b10 * p01 - c10 * s01 - e10 * r01 + a11 * q11 + b11 * p11 + a12 * q21
        + b12 * p21 - c12 * s21 - e12 * r21)
    C11 = (a10 * r01 + c10 * p01 + a12 * r21 + c12 * p21 + 3 * (b10 * s01 + e10 * q01
        + b12 * s21 + e12 * q21))
    E11 = (a10 * s01 + b10 * r01 + c10 * q01 + e10 * p01 + a12 * s21 + b12 * r21 + c12 * q21
        + e12 * p21)
    A12 = (a10 * p02 - c10 * r02 + a11 * p12 + a12 * p22 + 3 * (b10 * q02 - e10 * s02
        + b11 * q12 + b12 * q22))
    B12 = (a10 * q02 + b10 * p02 - c10 * s02 - e10 * r02 + a11 * q12 + b11 * p12 + a12 * q22
        + b12 * p22)
    C12 = (a10 * r02 + c10 * p02 + a11 * r12 + c12 * p22 + 3 * (b10 * s02 + e10 * q02
        + b11 * s12 + e12 * q22))
    E12 = (a10 * s02 + b10 * r02 + c10 * q02 + e10 * p02 + a11 * s12 + b11 * r12 + c12 * q22
        + e12 * p22)
    A20 = (a20 * p00 + a21 * p10 - c21 * r10 + a22 * p20 + 3 * (b20 * q00 + b21 * q10
        - e21 * s10 + b22 * q20))
    B20 = (a20 * q00 + b20 * p00 + a21 * q10 + b21 * p10 - c21 * s10 - e21 * r10 + a22 * q20
        + b22 * p20)
    C20 = (c20 * p00 + a21 * r10 + c21 * p10 + a22 * r20 + 3 * (e20 * q00 + b21 * s10
        + e21 * q10 + b22 * s20))
    E20 = (c20 * q00 + e20 * p00 + a21 * s10 + b21 * r10 + c21 * q10 + e21 * p10 + a22 * s20
        + b22 * r20)
    A21 = (a20 * p01 - c20 * r01 + a21 * p11 + a22 * p21 + 3 * (b20 * q01 - e20 * s01
        + b21 * q11 + b22 * q21))
    B21 = (a20 * q01 + b20 * p01 - c20 * s01 - e20 * r01 + a21 * q11 + b21 * p11 + a22 * q21
        + b22 * p21)
    C21 = (a20 * r01 + c20 * p01 + c21 * p11 + a22 * r21 + 3 * (b20 * s01 + e20 * q01
        + e21 * q11 + b22 * s21))
    E21 = (a20 * s01 + b20 * r01 + c20 * q01 + e20 * p01 + c21 * q11 + e21 * p11 + a22 * s21
        + b22 * r21)
    A22 = (a20 * p02 - c20 * r02 + a21 * p12 - c21 * r12 + a22 * p22 + 3 * (b20 * q02
        - e20 * s02 + b21 * q12 - e21 * s12 + b22 * q22))
    B22 = (a20 * q02 + b20 * p02 - c20 * s02 - e20 * r02 + a21 * q12 + b21 * p12 - c21 * s12
        - e21 * r12 + a22 * q22 + b22 * p22)
    C22 = (a20 * r02 + c20 * p02 + a21 * r12 + c21 * p12 + 3 * (b20 * s02 + e20 * q02
        + b21 * s12 + e21 * q12))
    E22 = (a20 * s02 + b20 * r02 + c20 * q02 + e20 * p02 + a21 * s12 + b21 * r12 + c21 * q12
        + e21 * p12)
    # with yx_ij = conj(xy_ji), as yx = (xy)^H for Hermitian x and y, cell
    # (i, j) of S is 3(xy_ij + conj(xy_ji)) and of D is s3 i (xy_ij -
    # conj(xy_ji)), with s3 i (a, b, c, e) = (-3e, -c, 3b, a); on the
    # diagonal S has 2 Tr(xy) less; the imaginary parts tc and te of
    # 2 Tr(xy) vanish for Hermitian x and y, and the check of each product
    # confirms it
    ta, tb = 2 * (A00 + A11 + A22), 2 * (B00 + B11 + B22)
    tc, te = 2 * (C00 + C11 + C22), 2 * (E00 + E11 + E22)
    s = [
        6 * A00 - ta, 6 * B00 - tb, -tc, -te,
        3 * (A01 + A10), 3 * (B01 + B10), 3 * (C01 - C10), 3 * (E01 - E10),
        3 * (A02 + A20), 3 * (B02 + B20), 3 * (C02 - C20), 3 * (E02 - E20),
        3 * (A10 + A01), 3 * (B10 + B01), 3 * (C10 - C01), 3 * (E10 - E01),
        6 * A11 - ta, 6 * B11 - tb, -tc, -te,
        3 * (A12 + A21), 3 * (B12 + B21), 3 * (C12 - C21), 3 * (E12 - E21),
        3 * (A20 + A02), 3 * (B20 + B02), 3 * (C20 - C02), 3 * (E20 - E02),
        3 * (A21 + A12), 3 * (B21 + B12), 3 * (C21 - C12), 3 * (E21 - E12),
        6 * A22 - ta, 6 * B22 - tb, -tc, -te,
    ]
    d = [
        -6 * E00, -2 * C00, 0, 0,
        -3 * (E01 + E10), -C01 - C10, 3 * (B01 - B10), A01 - A10,
        -3 * (E02 + E20), -C02 - C20, 3 * (B02 - B20), A02 - A20,
        -3 * (E10 + E01), -C10 - C01, 3 * (B10 - B01), A10 - A01,
        -6 * E11, -2 * C11, 0, 0,
        -3 * (E12 + E21), -C12 - C21, 3 * (B12 - B21), A12 - A21,
        -3 * (E20 + E02), -C20 - C02, 3 * (B20 - B02), A20 - A02,
        -3 * (E21 + E12), -C21 - C12, 3 * (B21 - B12), A21 - A12,
        -6 * E22, -2 * C22, 0, 0,
    ]
    return s, d


def matrix_mul(x: HermTraceless3, y: HermTraceless3) -> HermTraceless3:
    """The Okubo product, (S + D)/6 from :func:`_okubo_parts`, so from the
    one associative product xy; the result is still validated Hermitian
    traceless on its integers."""
    s, d = _okubo_parts(x, y)
    out = list(map(add, s, d))
    # validation certifies type closure: all entries share one denominator,
    # so the conditions on the values are conditions on these integers
    _check_type(out)
    return _matrix(out, 6 * x._d * y._d)


def matrix_mul_pair(x: HermTraceless3, y: HermTraceless3) -> tuple[HermTraceless3, HermTraceless3]:
    """(x * y, y * x) = ((S + D)/6, (S - D)/6) from :func:`_okubo_parts`, so
    from the one associative product xy.  The operands are checked as in
    :func:`matrix_mul`, and each result is validated Hermitian traceless
    and made canonical."""
    s, d = _okubo_parts(x, y)
    xy, yx = list(map(add, s, d)), list(map(sub, s, d))
    _check_type(xy)
    _check_type(yx)
    den = 6 * x._d * y._d
    return _matrix(xy, den), _matrix(yx, den)


def norm(x: HermTraceless3) -> QuadExt:
    """n(x) = Tr(x^2)/6; exact and real for Hermitian x."""
    a, b = _real_trace(x._q, x._q, "trace of a Hermitian square must be real")
    return _quad(a, b, 6 * x._d * x._d)


def inner(x: HermTraceless3, y: HermTraceless3) -> QuadExt:
    """<x,y> = Tr(xy)/3, the polarization of n with <x,x> = 2 n(x)."""
    a, b = _real_trace(x._q, y._q, "polarized trace must be real")
    return _quad(a, b, 3 * x._d * y._d)


#: the entries of the basis (e, e1..e7) that are not 0, as {(i, j):
#: (a, b, c, e)} for ((a + b sqrt3) + (c + e sqrt3) i)/1; sqrt(3) and
#: sqrt(3) i off the diagonal, with the conjugate across it
_S3, _S3I, _MS3I = (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)
_BASIS_ENTRIES = (
    {(0, 0): (2, 0, 0, 0), (1, 1): (-1, 0, 0, 0), (2, 2): (-1, 0, 0, 0)},
    {(0, 1): _S3, (1, 0): _S3},
    {(0, 2): _S3, (2, 0): _S3},
    {(1, 2): _S3, (2, 1): _S3},
    {(0, 0): _S3, (1, 1): (0, -1, 0, 0)},
    {(0, 1): _MS3I, (1, 0): _S3I},
    {(0, 2): _MS3I, (2, 0): _S3I},
    {(1, 2): _MS3I, (2, 1): _S3I},
)


@lru_cache(maxsize=None)
def build_basis() -> tuple[HermTraceless3, ...]:
    """The reference idempotent e = diag(2,-1,-1) and the seven sqrt(3)
    generators; returned as (e, e1, ..., e7), written as integers over 1,
    built and validated once."""
    basis = []
    for entries in _BASIS_ENTRIES:
        ints = [0] * 36
        for (i, j), quad in entries.items():
            k = 4 * (3 * i + j)
            ints[k:k + 4] = quad
        _check_type(ints)
        basis.append(_matrix(ints, 1))
    return tuple(basis)


def random_matrix(rng: random.Random, span: int = 2) -> HermTraceless3:
    """A random real linear combination sum_k (c_k/2) basis[k] of the eight
    basis matrices with small half-integer coefficients, computed with the
    combine map of :func:`_basis_span`."""
    cols, den = _basis_span().combine
    pairs = [(rng.randint(-span, span), 0) for _ in cols]
    return _matrix([v for pair in apply_map(cols, pairs, 18) for v in pair], 2 * den)


# -- laws --------------------------------------------------------------------


#: the number of seeded random matrices each sampled law is checked on
SAMPLES = 100


@record
class MatrixLawsReport:
    idempotent_ok: bool
    flexibility_failures: int
    composition_failures: int
    form_associativity_failures: int
    hermitian_traceless_failures: int
    no_two_sided_unit: bool
    gram_pivots_positive: bool


@record
class SamplePool:
    """The seeded random matrices the sampled laws are checked on, with
    the norm of each, computed once for every law that reads it."""

    matrices: tuple[HermTraceless3, ...]
    norms: tuple[QuadExt, ...]


def sample_pool(seed: int) -> SamplePool:
    """The :data:`SAMPLES` first draws of :func:`random_matrix` from
    ``random.Random(seed)``, and their norms."""
    rng = random.Random(seed)
    matrices = tuple(random_matrix(rng) for _ in range(SAMPLES))
    return SamplePool(matrices, tuple(map(norm, matrices)))


def verify_laws(pool: SamplePool) -> MatrixLawsReport:
    """Exact checks of the defining laws on the basis and on each matrix of
    ``pool`` (see :func:`sample_pool`) with the next two, cyclically."""
    basis = build_basis()
    e = basis[0]
    idempotent_ok = matrix_mul(e, e) == e and norm(e) == QuadExt(1)

    flex = comp = assoc = closure = 0
    matrices, norms = pool.matrices, pool.norms
    count = len(matrices)
    # (x * y, y * x) for each matrix x and the next, y, or None if the pair
    # raised; with z the matrix after y, the next pair holds z * y
    pairs = []
    for idx, x in enumerate(matrices):
        try:
            pairs.append(matrix_mul_pair(x, matrices[(idx + 1) % count]))
        except ValueError:
            pairs.append(None)
    for idx, x in enumerate(matrices):
        if pairs[idx] is None:
            closure += 1
            continue
        nxt = (idx + 1) % count
        y = matrices[nxt]
        z = matrices[(idx + 2) % count]
        xy, yx = pairs[idx]
        if matrix_mul(x, yx) != matrix_mul(xy, x):
            flex += 1
        if norm(xy) != norms[idx] * norms[nxt]:
            comp += 1
        lhs = inner(matrix_mul(x, z), y)
        zy = matrix_mul(z, y) if pairs[nxt] is None else pairs[nxt][1]
        if lhs != inner(x, zy):
            assoc += 1

    # no two-sided unit in the searched class: +-e, +-e1..e7
    no_unit = True
    for cand in basis:
        for u in (cand, -cand):
            if all(matrix_mul_pair(u, b) == (b, b) for b in basis):
                no_unit = False

    gram_ok = all(p.sign_real() > 0 for p in gram_pivots())

    return MatrixLawsReport(
        idempotent_ok=idempotent_ok,
        flexibility_failures=flex,
        composition_failures=comp,
        form_associativity_failures=assoc,
        hermitian_traceless_failures=closure,
        no_two_sided_unit=no_unit,
        gram_pivots_positive=gram_ok,
    )


def gram_pivots() -> list[QuadExt]:
    """Exact LDL pivots of the basis Gram over K.

    The basis is not orthogonal (for instance <e, e4> = sqrt(3)), so the
    pivots live in K; the signature of the norm on the real span is read
    off from their signs in the standard real embedding.
    """
    basis = build_basis()
    return ldl([[inner(x, y) for y in basis] for x in basis])[1]


# -- Kaplansky's recovered unital product -------------------------------------


def kaplansky(x: HermTraceless3, y: HermTraceless3) -> HermTraceless3:
    """x . y = (e*x)*(y*e): the unital product recovered from * and e."""
    e = build_basis()[0]
    return matrix_mul(matrix_mul(e, x), matrix_mul(y, e))


@record
class KaplanskyReport:
    unit_left_ok: bool
    unit_right_ok: bool
    alternativity_failures: int
    composition_failures: int


def kaplansky_report(pool: SamplePool) -> KaplanskyReport:
    """The unit laws of Kaplansky's product on the basis, and its
    alternativity and composition on each matrix of ``pool`` (see
    :func:`sample_pool`) with the next, cyclically."""
    basis = build_basis()
    e = basis[0]
    left = all(kaplansky(e, b) == b for b in basis)
    right = all(kaplansky(b, e) == b for b in basis)
    alt = comp = 0
    matrices, norms = pool.matrices, pool.norms

    # kaplansky(u, v) = (e*u)*(v*e): the halves (e*m, m*e) of each pool
    # matrix, one paired product each
    halves = [matrix_mul_pair(e, m) for m in matrices]
    for idx in range(len(matrices)):
        nxt = (idx + 1) % len(matrices)
        (ex, xe), (ey, ye) = halves[idx], halves[nxt]
        xx, xy = matrix_mul(ex, xe), matrix_mul(ex, ye)
        exx, xxe = matrix_mul_pair(e, xx)
        # x.(x.y) against (x.x).y
        if matrix_mul(ex, matrix_mul(xy, e)) != matrix_mul(exx, ye):
            alt += 1
        # (y.x).x against y.(x.x)
        yx = matrix_mul(ey, xe)
        if matrix_mul(matrix_mul(e, yx), xe) != matrix_mul(ey, xxe):
            alt += 1
        if norm(xy) != norms[idx] * norms[nxt]:
            comp += 1
    return KaplanskyReport(
        unit_left_ok=left,
        unit_right_ok=right,
        alternativity_failures=alt,
        composition_failures=comp,
    )


def jordan_product(x: HermTraceless3, y: HermTraceless3) -> tuple[tuple[int, ...], int]:
    """The commutative symmetrized product (1/2)(xy + yx) as its 36
    integers, in the layout of ``_q``, and their denominator, made
    canonical by one gcd; not a HermTraceless3, since Hermitian traceless
    matrices are not closed under it.  As 3(xy + yx) = S + 2 Tr(xy) I, it
    is (S + 2 Tr(xy) I)/6, with S from :func:`_okubo_parts` (so the
    operands are checked Hermitian) and Tr(xy) from :func:`_real_trace`."""
    sym, _ = _okubo_parts(x, y)
    ta, tb = _real_trace(x._q, y._q, "polarized trace must be real")
    for k in (0, 16, 32):
        sym[k] += 2 * ta
        sym[k + 1] += 2 * tb
    den = 6 * x._d * y._d
    g = gcd(den, *sym)
    return tuple(v // g for v in sym), den // g


# -- cross-realization --------------------------------------------------------


def _pairs(ints):
    """The 18 integer pairs of a matrix's integers: the real and the
    imaginary part of each entry, in row-major order."""
    return list(zip(ints[::2], ints[1::2]))


@lru_cache(maxsize=None)
def _basis_span() -> SpanSolve:
    """The coordinate solve of the basis (e, e1..e7), each basis matrix
    the vector of its 18 K-parts (see :func:`_pairs`); so the output pairs
    of its combine map, flattened, are the integers ``_q`` of a matrix."""
    return SpanSolve(((_pairs(m._q), m._d) for m in build_basis()), "matrix-basis")


def _coordinates(m: HermTraceless3) -> tuple[QuadExt, ...]:
    """Exact coordinates of m over the basis (e, e1..e7); ArithmeticError
    when m lies outside its K-span."""
    return _basis_span().coordinates(_pairs(m._q), m._d)


@record
class CrossRealizationReport:
    """Diff of the matrix-side and rotation-side structure constants under
    candidate basis identifications e -> e0, e_k -> s_k e_k."""

    identity_mismatches: int
    best_signs: tuple[int, ...]
    best_mismatches: int
    total: int


def cross_realization_report() -> CrossRealizationReport:
    """The sign search between the two Okubo tables, both built by
    :func:`orders.product_table`: the matrix side over :func:`build_basis`,
    from the products of each pair of basis matrices, both orders from one
    :func:`matrix_mul_pair`, and the rotation side over e_0..e_7, where the
    coordinates of an element are its own ``coords``."""
    basis = build_basis()
    products = {}
    for a, x in enumerate(basis):
        for y in basis[a:]:
            products[x, y], products[y, x] = matrix_mul_pair(x, y)
    mat_c = product_table(lambda x, y: products[x, y], basis, _coordinates)
    e = [basis_element(k) for k in range(DIM)]
    return _sign_search(mat_c, product_table(okubo_mul, e, lambda x: x.coords))


def _sign_search(mat_c, alg_c) -> CrossRealizationReport:
    """Mismatches of mat_c[a][b][k] against alg_c[a][b][k] * s_a s_b s_k,
    under the identity pattern and under every pattern with s_0 = 1; the
    first pattern with the fewest mismatches is the best."""
    # under a pattern with negative set N (a bit mask), the sign product of
    # entry (a, b, k) is (-1)^|M & N| with M = 2^a ^ 2^b ^ 2^k, and the entry
    # matches when lhs equals rhs (product +1) or -rhs (product -1); so the
    # entries of one mask M match or fail together, and each mask keeps its
    # two failure counts
    fails = {}
    for a, b, k in product(range(DIM), repeat=3):
        lhs, rhs = mat_c[a][b][k], alg_c[a][b][k]
        mask = (1 << a) ^ (1 << b) ^ (1 << k)
        same, opposite = fails.get(mask, (0, 0))
        fails[mask] = (same + (lhs != rhs), opposite + (lhs != -rhs))
    classes = list(fails.items())

    def mismatches(signs) -> int:
        neg = sum(1 << i for i, s in enumerate(signs) if s < 0)
        return sum(opposite if (mask & neg).bit_count() & 1 else same
                   for mask, (same, opposite) in classes)

    ident = mismatches((1,) * DIM)
    best_signs = (1,) * DIM
    best = ident
    for tail in product((1, -1), repeat=DIM - 1):
        signs = (1,) + tail
        bad = mismatches(signs)
        if bad < best:
            best, best_signs = bad, signs
    return CrossRealizationReport(
        identity_mismatches=ident,
        best_signs=best_signs,
        best_mismatches=best,
        total=DIM ** 3,
    )
