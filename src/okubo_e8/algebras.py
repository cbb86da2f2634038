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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .claims import CONVENTION
from .exact import QUAD_ONE, QUAD_ZERO, QuadExt

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

    def mul_basis(self, i: int, j: int) -> tuple[int, int]:
        """Return (k, s) with e_i * e_j = s * e_k."""
        return self.idx[i][j], self.sgn[i][j]

    def verify(self) -> list[str]:
        """Check unit law, imaginary squares, anticommutativity and
        alternativity; return a list of violation descriptions (empty when
        the table is a valid alternative composition table)."""
        bad = []
        for j in range(DIM):
            if self.mul_basis(0, j) != (j, 1) or self.mul_basis(j, 0) != (j, 1):
                bad.append(f"unit law fails at {j}")
        for i in range(1, DIM):
            if self.mul_basis(i, i) != (0, -1):
                bad.append(f"square law fails at {i}")
            for j in range(1, DIM):
                if i == j:
                    continue
                k, s = self.mul_basis(i, j)
                k2, s2 = self.mul_basis(j, i)
                if k2 != k or s2 != -s:
                    bad.append(f"anticommutativity fails at ({i},{j})")
        for i in range(DIM):
            for j in range(DIM):
                x, y = basis_element(i), basis_element(j)
                if oct_mul(x, oct_mul(x, y)) != oct_mul(oct_mul(x, x), y):
                    bad.append(f"left alternativity fails at ({i},{j})")
                if oct_mul(oct_mul(y, x), x) != oct_mul(y, oct_mul(x, x)):
                    bad.append(f"right alternativity fails at ({i},{j})")
        return bad


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

    @classmethod
    def scalar(cls, value) -> "AlgebraElem":
        coords = [QuadExt.coerce(value)] + [QUAD_ZERO] * (DIM - 1)
        return cls(coords)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        return AlgebraElem(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        return AlgebraElem(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return AlgebraElem(-a for a in self.coords)

    def scale(self, factor) -> "AlgebraElem":
        factor = QuadExt.coerce(factor)
        return AlgebraElem(factor * a for a in self.coords)

    def __mul__(self, other):
        if isinstance(other, AlgebraElem):
            return oct_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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

    def is_zero(self) -> bool:
        return all(not v for v in self.coords)

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


_BASIS = tuple(
    AlgebraElem([QUAD_ONE if i == k else QUAD_ZERO for i in range(DIM)])
    for k in range(DIM)
)


def basis_element(k: int) -> AlgebraElem:
    return _BASIS[k]


def oct_mul(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """The unital (octonion) product of convention ``cd1946``."""
    acc = [QUAD_ZERO] * DIM
    idx, sgn = OCT_TABLE.idx, OCT_TABLE.sgn
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        row_i, row_s = idx[i], sgn[i]
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            k = row_i[j]
            term = xi * yj
            acc[k] = acc[k] + term if row_s[j] == 1 else acc[k] - term
    return AlgebraElem(acc)


def para_mul(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """The para product conj(x) * conj(y)."""
    return oct_mul(x.conjugate(), y.conjugate())


def inner_via_products(x: AlgebraElem, y: AlgebraElem) -> QuadExt:
    """<x,y> computed from x*conj(y) + y*conj(x); raises if not scalar."""
    z = oct_mul(x, y.conjugate()) + oct_mul(y, x.conjugate())
    if any(z.coords[k] for k in range(1, DIM)):
        raise ArithmeticError("polarization did not produce a scalar")
    return z.coords[0]


# ---------------------------------------------------------------------------
# the order-three rotation automorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutMatrix:
    """A norm-preserving algebra automorphism given by its exact matrix."""

    matrix: tuple[tuple[QuadExt, ...], ...]
    order: int

    def apply(self, x: AlgebraElem) -> AlgebraElem:
        out = [QUAD_ZERO] * DIM
        for c, xc in enumerate(x.coords):
            if not xc:
                continue
            col = self.matrix_col(c)
            for r in range(DIM):
                if col[r]:
                    out[r] = out[r] + col[r] * xc
        return AlgebraElem(out)

    def matrix_col(self, c: int) -> tuple[QuadExt, ...]:
        return tuple(self.matrix[r][c] for r in range(DIM))

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


def tau_apply(x: AlgebraElem, power: int = 1) -> AlgebraElem:
    """Apply the rotation automorphism (or its square) to ``x``."""
    if power == 1:
        return TAU.apply(x)
    if power == 2:
        return TAU2.apply(x)
    raise ValueError("power must be 1 or 2")


def okubo_mul(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """The Okubo product tau(conj(x)) * tau^2(conj(y))."""
    return oct_mul(TAU.apply(x.conjugate()), TAU2.apply(y.conjugate()))


PRODUCTS = {
    "octonion": oct_mul,
    "para": para_mul,
    "okubo": okubo_mul,
}


def para_idempotent_check(v: AlgebraElem) -> bool:
    """Whether -1/2 + v is idempotent for the para product.

    ``v`` must be imaginary; the check is exact and returns True exactly
    when n(v) = 3/4.
    """
    if v.coords[0]:
        raise ValueError("v must be imaginary (zero coordinate on e0)")
    x = AlgebraElem.scalar(Fraction(-1, 2)) + v
    return para_mul(x, x) == x


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


def random_nonzero(rng: random.Random, **kw) -> AlgebraElem:
    while True:
        x = random_element(rng, **kw)
        if not x.is_zero():
            return x


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
