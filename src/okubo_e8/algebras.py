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

The three products share one integer pass over the multiplication
table.  An element's coordinates are read as integer pairs (a, b) for
(a + b sqrt(3))/D over one common denominator D, the lcm of their
canonical denominators (Cohen, GTM 138, section 4.2); the pass adds
integer products over Dx*Dy, and each of the eight result coordinates
becomes one canonical QuadExt.  Conjugation is a sign on those integers,
so the para product negates the imaginary pairs of both factors.  The
rotation matrices are integers over the denominator 2 (``AutMatrix.columns``),
and the Okubo product applies the integer matrices of tau o conj and
tau^2 o conj, derived once from TAU and TAU2, before its one table pass,
with no intermediate element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .claims import CONVENTION
from .exact import QUAD_ONE, QUAD_ZERO, QuadExt, _quad

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
    """A vector over the basis e0..e7 with exact Q(sqrt 3) coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(QuadExt.coerce(c) for c in coords)
        if len(coords) != DIM:
            raise ValueError(f"need {DIM} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElem values are immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "AlgebraElem":
        return cls((QUAD_ZERO,) * DIM)

    @classmethod
    def one(cls) -> "AlgebraElem":
        return basis_element(0)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        return AlgebraElem(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return AlgebraElem(-a for a in self.coords)

    def scale(self, factor) -> "AlgebraElem":
        factor = QuadExt.coerce(factor)
        return AlgebraElem(factor * a for a in self.coords)

    # -- involution, norm, trace -----------------------------------------

    def conjugate(self) -> "AlgebraElem":
        """<x,1> 1 - x: negate the seven imaginary coordinates."""
        c = self.coords
        return AlgebraElem((c[0],) + tuple(-v for v in c[1:]))

    def norm(self) -> QuadExt:
        """Composition norm: the sum of coordinate squares."""
        out = QUAD_ZERO
        for v in self.coords:
            if v:
                out = out + v * v
        return out

    def trace(self) -> QuadExt:
        """<x,1> = 2 x0."""
        return 2 * self.coords[0]

    def inner(self, other: "AlgebraElem") -> QuadExt:
        """Polarization <x,y> of the norm; equals the scalar part of
        x*conj(y) + y*conj(x) (asserted by the test suite)."""
        out = QUAD_ZERO
        for a, b in zip(self.coords, other.coords):
            if a and b:
                out = out + a * b
        return 2 * out

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        terms = [f"({c})*e{k}" for k, c in enumerate(self.coords) if c]
        return " + ".join(terms) if terms else "0"


_set_coords = AlgebraElem.coords.__set__


def _integers(x: AlgebraElem) -> tuple[list[tuple[int, int]], int]:
    """The coordinates of x as integer pairs (a, b) for (a + b sqrt3)/D
    over one common denominator D, and D."""
    triples = [v.triple for v in x.coords]
    den = lcm(*[t[2] for t in triples])
    return [(a, b) if d == den else (a * (den // d), b * (den // d))
            for a, b, d in triples], den


def _elem(pairs, den: int) -> AlgebraElem:
    """The element with the coordinates (a + b sqrt3)/den for the integer
    pairs ``pairs``: one canonical QuadExt per coordinate."""
    x = object.__new__(AlgebraElem)
    _set_coords(x, tuple(_quad(a, b, den) for a, b in pairs))
    return x


_BASIS = tuple(
    AlgebraElem([QUAD_ONE if i == k else QUAD_ZERO for i in range(DIM)])
    for k in range(DIM)
)


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
    (xs, dx), (ys, dy) = _integers(x), _integers(y)
    return _elem(_oct(xs, ys), dx * dy)


def para_mul(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """The para product conj(x) * conj(y)."""
    (xs, dx), (ys, dy) = _integers(x), _integers(y)
    return _elem(_oct(_conj(xs), _conj(ys)), dx * dy)


# ---------------------------------------------------------------------------
# the order-three rotation automorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutMatrix:
    """A norm-preserving algebra automorphism given by its exact matrix."""

    matrix: tuple[tuple[QuadExt, ...], ...]
    order: int

    def apply(self, x: AlgebraElem) -> AlgebraElem:
        cols, den = self.columns
        xs, dx = _integers(x)
        return _elem(_apply(cols, xs), den * dx)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], int]:
        """The matrix as integers over one denominator M: per column c the
        triples (r, p, q) of its nonzero entries (p + q sqrt3)/M in rows r;
        and M."""
        triples = [[v.triple for v in row] for row in self.matrix]
        den = lcm(*(d for row in triples for _, _, d in row))
        return tuple(
            tuple((r, p * (den // d), q * (den // d))
                  for r, (p, q, d) in enumerate(row[c] for row in triples) if p or q)
            for c in range(DIM)
        ), den

    def compose(self, other: "AutMatrix", order: int) -> "AutMatrix":
        rows = []
        for r in range(DIM):
            row = []
            for c in range(DIM):
                acc = QUAD_ZERO
                for m in range(DIM):
                    if self.matrix[r][m] and other.matrix[m][c]:
                        acc = acc + self.matrix[r][m] * other.matrix[m][c]
                row.append(acc)
            rows.append(tuple(row))
        return AutMatrix(tuple(rows), order)


def _tau_matrix() -> tuple[tuple[QuadExt, ...], ...]:
    half = Fraction(1, 2)
    m = [[QUAD_ZERO] * DIM for _ in range(DIM)]
    for k in (0, 1, 3, 7):
        m[k][k] = QUAD_ONE
    for a, b in ((2, 5), (4, 6)):
        # rotation by 2*pi/3 in the (e_a, e_b) plane
        m[a][a] = QuadExt(-half)
        m[b][a] = QuadExt(0, half)
        m[a][b] = QuadExt(0, -half)
        m[b][b] = QuadExt(-half)
    return tuple(tuple(r) for r in m)


TAU = AutMatrix(_tau_matrix(), 3)
TAU2 = TAU.compose(TAU, 3)


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
    (xs, dx), (ys, dy) = _integers(x), _integers(y)
    (tx, mx), (ty, my) = _TAU_CONJ, _TAU2_CONJ
    return _elem(_oct(_apply(tx, xs), _apply(ty, ys)), mx * dx * my * dy)


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
