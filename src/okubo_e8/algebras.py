"""The three eight-dimensional composition products on one coordinate space.

All elements live on the fixed orthonormal basis ``e0 = 1, e1, ..., e7``.
The unital product is the octonion product of convention ``cd1946``: it is
generated by quaternion doubling and its oriented Fano lines are

    (1,2,5) (1,3,7) (1,6,4) (3,2,4) (3,5,6) (7,2,6) (7,4,5)

with ``e_a e_b = e_c`` cyclically on each line.  The numbering is chosen so
that the order-three rotation automorphism ``tau`` acts by the exact matrix

    tau(e_k) = e_k                       for k = 0, 1, 3, 7,
    tau(e_2) = -(e_2 - sqrt(3) e_5)/2,   tau(e_5) = -(e_5 + sqrt(3) e_2)/2,
    tau(e_4) = -(e_4 - sqrt(3) e_6)/2,   tau(e_6) = -(e_6 + sqrt(3) e_4)/2,

i.e. the fixed quaternion subalgebra is spanned by 1, e1, e3, e7 and tau
rotates the planes (e2, e5) and (e4, e6) by 2*pi/3.  On top of the unital
product the module provides

* the para product   ``x . y = conj(x) * conj(y)``        (para_mul),
* the Okubo product  ``x . y = tau(conj(x)) * tau2(conj(y))`` (okubo_mul),

both composition products for the same Euclidean norm.

An element stores its coordinates as integer pairs (a, b) for
(a + b sqrt(3))/D over one denominator D, canonical by one gcd (Cohen,
GTM 138, section 4.2), as the Hermitian matrices of ``okubomatrix`` do;
``coords`` builds QuadExt values only when a report, a solve or a test
asks for them.  The three products share one integer pass over the
multiplication table, which adds integer products over Dx*Dy.
Conjugation is a sign on those integers, so the para product negates
the imaginary pairs of both factors.  The rotation is stored as the
images of e0..e7 (``AutMatrix.images``), integers over the denominator
2, and the Okubo product applies the integer matrices of tau o conj and
tau^2 o conj, derived once from TAU and TAU2, before its one table pass,
with no intermediate element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from .claims import CONVENTION
from .exact import QuadExt, _quad

DIM = 8

#: Oriented Fano lines: e_a * e_b = e_c cyclically for each triple (a, b, c).
FANO_TRIPLES = (
    (1, 2, 5),
    (1, 3, 7),
    (1, 6, 4),
    (3, 2, 4),
    (3, 5, 6),
    (7, 2, 6),
    (7, 4, 5),
)


def _build_tables() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    idx = [[0] * DIM for _ in range(DIM)]
    sgn = [[0] * DIM for _ in range(DIM)]
    for j in range(DIM):
        idx[0][j], sgn[0][j] = j, 1
        idx[j][0], sgn[j][0] = j, 1
    for i in range(1, DIM):
        idx[i][i], sgn[i][i] = 0, -1
    for a, b, c in FANO_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            idx[x][y], sgn[x][y] = z, 1
            idx[y][x], sgn[y][x] = z, -1
    return tuple(tuple(r) for r in idx), tuple(tuple(r) for r in sgn)


@dataclass(frozen=True)
class MultTable:
    """Sign/index table for the unital basis product of one Fano orientation."""

    idx: tuple[tuple[int, ...], ...]
    sgn: tuple[tuple[int, ...], ...]
    convention: str


_IDX, _SGN = _build_tables()
OCT_TABLE = MultTable(_IDX, _SGN, CONVENTION)


class AlgebraElem:
    """A vector over the basis e0..e7 with exact Q(sqrt 3) coordinates.

    Stored as the integer pairs (a_k, b_k) of (a_k + b_k sqrt3)/D over one
    denominator D > 0, canonical: the pairs and D have no common factor.
    """

    __slots__ = ("_p", "_d")

    def __init__(self, coords):
        triples = [QuadExt.coerce(c).triple for c in coords]
        if len(triples) != DIM:
            raise ValueError(f"need {DIM} coordinates, got {len(triples)}")
        # the lcm of canonical denominators is canonical: a prime dividing
        # it as often as it divides d_k cannot divide both a_k and b_k
        den = lcm(*(d for _, _, d in triples))
        _set_p(self, tuple((a * (den // d), b * (den // d)) for a, b, d in triples))
        _set_d(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElem values are immutable")

    @property
    def coords(self) -> tuple[QuadExt, ...]:
        """The eight coordinates as QuadExt values, built on each call."""
        d = self._d
        return tuple(_quad(a, b, d) for a, b in self._p)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "AlgebraElem":
        return _elem(((0, 0),) * DIM, 1)

    @classmethod
    def one(cls) -> "AlgebraElem":
        return basis_element(0)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        d, f = self._d, other._d
        return _elem([(a * f + c * d, b * f + e * d)
                      for (a, b), (c, e) in zip(self._p, other._p)], d * f)

    def __neg__(self):
        return _elem([(-a, -b) for a, b in self._p], self._d)

    def scale(self, factor) -> "AlgebraElem":
        p, q, m = QuadExt.coerce(factor).triple
        return _elem([(a * p + 3 * b * q, a * q + b * p) for a, b in self._p],
                     self._d * m)

    # -- involution, norm, trace -----------------------------------------

    def conjugate(self) -> "AlgebraElem":
        """<x,1> 1 - x: negate the seven imaginary coordinates."""
        return _elem(_conj(self._p), self._d)

    def norm(self) -> QuadExt:
        """Composition norm: the sum of coordinate squares."""
        return _quad(sum(a * a + 3 * b * b for a, b in self._p),
                     2 * sum(a * b for a, b in self._p), self._d * self._d)

    def trace(self) -> QuadExt:
        """<x,1> = 2 x0."""
        a, b = self._p[0]
        return _quad(2 * a, 2 * b, self._d)

    def inner(self, other: "AlgebraElem") -> QuadExt:
        """Polarization <x,y> of the norm; equals the scalar part of
        x*conj(y) + y*conj(x) (asserted by the test suite)."""
        pairs = list(zip(self._p, other._p))
        return _quad(2 * sum(a * c + 3 * b * e for (a, b), (c, e) in pairs),
                     2 * sum(a * e + b * c for (a, b), (c, e) in pairs),
                     self._d * other._d)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        return self._d == other._d and self._p == other._p

    def __hash__(self):
        return hash((self._p, self._d))

    def __repr__(self):
        terms = [f"({c})*e{k}" for k, c in enumerate(self.coords) if c]
        return " + ".join(terms) if terms else "0"


_set_p = AlgebraElem._p.__set__
_set_d = AlgebraElem._d.__set__


def _elem(pairs, den: int) -> AlgebraElem:
    """The element with the coordinates (a + b sqrt3)/den for the integer
    pairs ``pairs`` and den > 0, made canonical by one gcd."""
    g = gcd(den, *chain.from_iterable(pairs))
    x = object.__new__(AlgebraElem)
    _set_p(x, tuple((a // g, b // g) for a, b in pairs))
    _set_d(x, den // g)
    return x


_BASIS = tuple(_elem([(int(i == k), 0) for i in range(DIM)], 1) for k in range(DIM))


def basis_element(k: int) -> AlgebraElem:
    return _BASIS[k]


#: per row i of the table, the pairs (k, s) with e_i e_j = s e_k, j = 0..7
_ROWS = tuple(tuple(zip(_IDX[i], _SGN[i])) for i in range(DIM))


def _oct(xs, ys) -> list[list[int]]:
    """The octonion product of two elements given as integer pairs over
    Dx and Dy, as integer pairs over Dx*Dy."""
    out = [[0, 0] for _ in range(DIM)]
    for (a, b), row in zip(xs, _ROWS):
        if not (a or b):
            continue
        for (c, e), (k, s) in zip(ys, row):
            if c or e:
                acc = out[k]
                if s > 0:
                    acc[0] += a * c + 3 * b * e
                    acc[1] += a * e + b * c
                else:
                    acc[0] -= a * c + 3 * b * e
                    acc[1] -= a * e + b * c
    return out


def _conj(xs):
    """conj(x) on the integer pairs: the seven imaginary pairs negated."""
    return [xs[0]] + [(-a, -b) for a, b in xs[1:]]


def oct_mul(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """The unital (octonion) product of convention ``cd1946``."""
    return _elem(_oct(x._p, y._p), x._d * y._d)


def para_mul(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """The para product conj(x) * conj(y)."""
    return _elem(_oct(_conj(x._p), _conj(y._p)), x._d * y._d)


# ---------------------------------------------------------------------------
# the order-three rotation automorphism
# ---------------------------------------------------------------------------


def _apply(cols, xs) -> list[list[int]]:
    """M x on integers: ``cols`` the columns of M over its denominator (as
    :attr:`AutMatrix.columns` gives them) and ``xs`` the pairs of x over
    Dx; the pairs of M x over the product of the two denominators."""
    out = [[0, 0] for _ in range(DIM)]
    for (a, b), col in zip(xs, cols):
        if a or b:
            for r, p, q in col:
                acc = out[r]
                acc[0] += p * a + 3 * q * b
                acc[1] += p * b + q * a
    return out


@dataclass(frozen=True)
class AutMatrix:
    """A norm-preserving algebra automorphism given by the images of
    e0..e7, the columns of its exact matrix."""

    images: tuple[AlgebraElem, ...]

    def apply(self, x: AlgebraElem) -> AlgebraElem:
        cols, den = self.columns
        return _elem(_apply(cols, x._p), den * x._d)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], int]:
        """The matrix as integers over one denominator M: per column c the
        triples (r, p, q) of its nonzero entries (p + q sqrt3)/M in rows r;
        and M."""
        den = lcm(*(x._d for x in self.images))
        return tuple(
            tuple((r, p * (den // x._d), q * (den // x._d))
                  for r, (p, q) in enumerate(x._p) if p or q)
            for x in self.images
        ), den

    def compose(self, other: "AutMatrix") -> "AutMatrix":
        return AutMatrix(tuple(self.apply(x) for x in other.images))


def _tau_images() -> tuple[AlgebraElem, ...]:
    """tau(e_0), ..., tau(e_7) as integer pairs over 2."""
    cols = [[(0, 0)] * DIM for _ in range(DIM)]
    for k in (0, 1, 3, 7):
        cols[k][k] = (2, 0)
    for a, b in ((2, 5), (4, 6)):
        # rotation by 2*pi/3 in the (e_a, e_b) plane
        cols[a][a], cols[a][b] = (-1, 0), (0, 1)
        cols[b][b], cols[b][a] = (-1, 0), (0, -1)
    return tuple(_elem(col, 2) for col in cols)


TAU = AutMatrix(_tau_images())
TAU2 = TAU.compose(TAU)


def _conj_columns(aut: AutMatrix):
    """The columns of aut o conj: conjugation negates the input
    coordinates 1..7, so it negates those columns of the matrix."""
    cols, den = aut.columns
    return (cols[0],) + tuple(
        tuple((r, -p, -q) for r, p, q in col) for col in cols[1:]
    ), den


#: the integer matrices of tau o conj and tau^2 o conj
_TAU_CONJ = _conj_columns(TAU)
_TAU2_CONJ = _conj_columns(TAU2)


def tau_apply(x: AlgebraElem, power: int = 1) -> AlgebraElem:
    """Apply the rotation automorphism (or its square) to ``x``."""
    if power == 1:
        return TAU.apply(x)
    if power == 2:
        return TAU2.apply(x)
    raise ValueError("power must be 1 or 2")


def okubo_mul(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """The Okubo product tau(conj(x)) * tau^2(conj(y))."""
    (tx, mx), (ty, my) = _TAU_CONJ, _TAU2_CONJ
    return _elem(_oct(_apply(tx, x._p), _apply(ty, y._p)), mx * x._d * my * y._d)


PRODUCTS = {
    "octonion": oct_mul,
    "para": para_mul,
    "okubo": okubo_mul,
}


# ---------------------------------------------------------------------------
# deterministic sample elements for the exact identity checks
# ---------------------------------------------------------------------------


def random_element(
    rng: random.Random,
    span: int = 2,
    denominator: int = 2,
    with_irrational: bool = True,
) -> AlgebraElem:
    """A small exact element with coordinates in (1/denominator) Z[sqrt 3]."""
    coords = []
    for _ in range(DIM):
        rat = Fraction(rng.randint(-span, span), denominator)
        irr = Fraction(rng.randint(-span, span), denominator) if with_irrational else 0
        coords.append(QuadExt(rat, irr))
    return AlgebraElem(coords)


# ---------------------------------------------------------------------------
# bridge identities between the three products
# ---------------------------------------------------------------------------

ONE = AlgebraElem.one


def _bridge_okubo_from_para(x, y):
    return okubo_mul(x, y), para_mul(tau_apply(x, 1), tau_apply(y, 2))


def _bridge_para_from_okubo(x, y):
    return para_mul(x, y), okubo_mul(tau_apply(x, 2), tau_apply(y, 1))


def _bridge_oct_from_para(x, y):
    one = ONE()
    return oct_mul(x, y), para_mul(para_mul(one, x), para_mul(y, one))


def _bridge_oct_from_okubo(x, y):
    e = ONE()
    return oct_mul(x, y), okubo_mul(okubo_mul(e, x), okubo_mul(y, e))


BRIDGE_PAIR_IDENTITIES = {
    "okubo-from-para": _bridge_okubo_from_para,
    "para-from-okubo": _bridge_para_from_okubo,
    "octonion-from-para": _bridge_oct_from_para,
    "octonion-from-okubo": _bridge_oct_from_okubo,
}


def _bridge_tau_via_okubo(x):
    e = ONE()
    return tau_apply(x, 1), okubo_mul(x.conjugate(), e)


def _bridge_conj_via_okubo(x):
    e = ONE()
    return x.conjugate(), tau_apply(okubo_mul(e, x), 1)


def _bridge_conj_via_stars(x):
    e = ONE()
    return x.conjugate(), okubo_mul(okubo_mul(okubo_mul(x, e), e), e)


def _bridge_tau_via_stars(x):
    e = ONE()
    return tau_apply(x, 1), okubo_mul(
        okubo_mul(okubo_mul(okubo_mul(x, e), e), e), e
    )


BRIDGE_UNARY_IDENTITIES = {
    "tau-via-okubo": _bridge_tau_via_okubo,
    "conjugation-via-okubo": _bridge_conj_via_okubo,
    "conjugation-via-stars": _bridge_conj_via_stars,
    "tau-via-stars": _bridge_tau_via_stars,
}


def bridge_identities(seed: int = 0, samples: int = 12) -> dict:
    """Verify the product-conversion identities on all basis pairs and on
    seeded random exact elements.

    Returns per-identity dictionaries with the number of comparisons and
    the list of failing witnesses (basis indices or coordinate dumps).
    """
    rng = random.Random(seed)
    randoms = [random_element(rng) for _ in range(samples)]
    out = {}
    for name, fn in BRIDGE_PAIR_IDENTITIES.items():
        checked, failures = 0, []
        for i in range(DIM):
            for j in range(DIM):
                lhs, rhs = fn(basis_element(i), basis_element(j))
                checked += 1
                if lhs != rhs:
                    failures.append(("basis", i, j))
        for a in randoms:
            for b in randoms[:4]:
                lhs, rhs = fn(a, b)
                checked += 1
                if lhs != rhs:
                    failures.append(("random", repr(a), repr(b)))
        out[name] = {"checked": checked, "failures": failures}
    for name, fn in BRIDGE_UNARY_IDENTITIES.items():
        checked, failures = 0, []
        for i in range(DIM):
            lhs, rhs = fn(basis_element(i))
            checked += 1
            if lhs != rhs:
                failures.append(("basis", i))
        for a in randoms:
            lhs, rhs = fn(a)
            checked += 1
            if lhs != rhs:
                failures.append(("random", repr(a)))
        out[name] = {"checked": checked, "failures": failures}
    return out
