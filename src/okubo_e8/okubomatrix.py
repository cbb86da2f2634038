"""Independent realization of the Okubo algebra on Hermitian traceless
3x3 matrices over K(i), and its cross-validation against the rotation
(Petersson) realization.

The product is

    x * y = mu x y + conj(mu) y x - (1/3) Tr(x y) I

with mu = 1/2 + (sqrt(3)/6) i, juxtaposition being the ordinary matrix
product; the norm is n(x) = Tr(x^2)/6.  All scalars are exact elements of
K(i), so every law below is certified with zero tolerance.

Every product runs through one integer kernel.  A matrix is read as its
nine entries ((a + b sqrt3) + (c + e sqrt3) i)/D, integer quadruples
(a, b, c, e) over one common denominator D, the lcm of the entries'
canonical denominators; an entry of the associative product xy is then a
sum of integer products over Dx*Dy.  Six times the Okubo product is
3(xy + yx) + sqrt(3) i (xy - yx) - 2 Tr(xy) I, so each of its entries is
one integer quadruple over 6*Dx*Dy, normalised once.  ``xy`` and ``yx``
are both computed: the result is checked Hermitian and traceless on those
integers, with the errors the HermTraceless3 constructor raises, and not
assumed.  ``norm`` and ``inner`` compute only the three diagonal entries
their trace needs, and still reject a trace that is not real.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .algebras import DIM, basis_element, okubo_mul
from .exact import ComplexQuad, QuadExt, _complex, _quad, eliminate

#: mu = (3 + sqrt(3) i)/6; the kernel works with the integers of 6 mu
MU = ComplexQuad(QuadExt(Fraction(1, 2)), QuadExt(0, Fraction(1, 6)))

_C0 = ComplexQuad(0)


class HermTraceless3:
    """A Hermitian traceless 3x3 matrix over K(i)."""

    __slots__ = ("rows",)

    def __init__(self, rows, validate: bool = True):
        rows = tuple(tuple(ComplexQuad.coerce(v) for v in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 matrix")
        object.__setattr__(self, "rows", rows)
        if validate:
            if not self.is_hermitian():
                raise ValueError("matrix is not Hermitian")
            if self.trace() != ComplexQuad(0):
                raise ValueError("matrix is not traceless")

    @classmethod
    def _of(cls, rows) -> "HermTraceless3":
        """The matrix with ``rows``, a 3x3 tuple of ComplexQuad tuples,
        taken as given: no coercion and no validation."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("HermTraceless3 values are immutable")

    def is_hermitian(self) -> bool:
        r = self.rows
        return all(r[i][j] == r[j][i].conjugate() for i in range(3) for j in range(3))

    def trace(self) -> ComplexQuad:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def __add__(self, other):
        return HermTraceless3(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            validate=False,
        )

    def __sub__(self, other):
        return HermTraceless3(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            validate=False,
        )

    def __neg__(self):
        return HermTraceless3([[-v for v in r] for r in self.rows], validate=False)

    def scale(self, factor) -> "HermTraceless3":
        f = factor if isinstance(factor, ComplexQuad) else ComplexQuad.coerce(factor)
        return HermTraceless3([[f * v for v in r] for r in self.rows], validate=False)

    def __eq__(self, other):
        if not isinstance(other, HermTraceless3):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"HermTraceless3({self.rows!r})"


_CELLS = tuple((i, j) for i in range(3) for j in range(3))
_DIAGONAL = ((0, 0), (1, 1), (2, 2))


def _integers(m: HermTraceless3):
    """The entries of m in row-major order as integer quadruples
    (a, b, c, e) over one common denominator D, and D."""
    quints = [v.quintuple for row in m.rows for v in row]
    den = lcm(*[q[4] for q in quints])
    out = []
    for a, b, c, e, d in quints:
        f = den // d
        out.append((a * f, b * f, c * f, e * f) if f != 1 else (a, b, c, e))
    return out, den


def _product(xs, ys, cells=_CELLS):
    """The entries ``cells`` of the associative product of two matrices in
    the form of :func:`_integers`, as integer quadruples over the product
    of their denominators.  With s3 = sqrt(3), one term
    ((a + b s3) + (c + e s3) i)((p + q s3) + (r + s s3) i) has the
    quadruple (ap - cr + 3(bq - es), aq + bp - cs - er,
    ar + cp + 3(bs + eq), as + br + cq + ep); entry (i, j) is the sum of
    the three terms x_im y_mj, written out."""
    out = []
    for i, j in cells:
        (a, b, c, e), (f, g, h, k), (l, m, n, o) = xs[3 * i:3 * i + 3]
        (p, q, r, s), (t, u, v, w), (P, Q, R, S) = ys[j], ys[j + 3], ys[j + 6]
        out.append((
            a * p - c * r + f * t - h * v + l * P - n * R
            + 3 * (b * q - e * s + g * u - k * w + m * Q - o * S),
            a * q + b * p - c * s - e * r + f * u + g * t - h * w - k * v
            + l * Q + m * P - n * S - o * R,
            a * r + c * p + f * v + h * t + l * R + n * P
            + 3 * (b * s + e * q + g * w + k * u + m * S + o * Q),
            a * s + b * r + c * q + e * p + f * w + g * v + h * u + k * t
            + l * S + m * R + n * Q + o * P,
        ))
    return out


def _real_trace(xs, ys, message):
    """The integers (a, b) of Tr(xy) = (a + b s3)/(Dx*Dy); ArithmeticError
    with ``message`` if the trace is not real."""
    a, b, c, e = (sum(t) for t in zip(*_product(xs, ys, _DIAGONAL)))
    if c or e:
        raise ArithmeticError(message)
    return a, b


def mat_product(x: HermTraceless3, y: HermTraceless3):
    """Ordinary associative 3x3 matrix product (not Hermitian in general)."""
    (xs, dx), (ys, dy) = _integers(x), _integers(y)
    xy = _product(xs, ys)
    den = dx * dy
    return [[_complex(*v, den) for v in xy[3 * i:3 * i + 3]] for i in range(3)]


def matrix_mul(x: HermTraceless3, y: HermTraceless3) -> HermTraceless3:
    """The Okubo product; the result is validated Hermitian traceless."""
    (xs, dx), (ys, dy) = _integers(x), _integers(y)
    xy = _product(xs, ys)
    yx = _product(ys, xs)
    tr = [2 * (u + v + w) for u, v, w in zip(xy[0], xy[4], xy[8])]
    out = []
    for k, ((a, b, c, e), (p, q, r, s)) in enumerate(zip(xy, yx)):
        # 3(u + w) + s3 i (u - w) for u = (a, b, c, e) and w = (p, q, r, s)
        n = (3 * (a + p - e + s), 3 * (b + q) - c + r,
             3 * (c + r + b - q), 3 * (e + s) + a - p)
        if k % 4 == 0:  # a diagonal entry: subtract 2 Tr(xy)
            n = tuple(v - t for v, t in zip(n, tr))
        out.append(n)
    # validation certifies type closure: all entries share one denominator,
    # so the conditions on the values are conditions on these integers
    for i, j in _CELLS:
        a, b, c, e = out[3 * j + i]
        if out[3 * i + j] != (a, b, -c, -e):
            raise ValueError("matrix is not Hermitian")
    if any(u + v + w for u, v, w in zip(out[0], out[4], out[8])):
        raise ValueError("matrix is not traceless")
    den = 6 * dx * dy
    return HermTraceless3._of(
        tuple(tuple(_complex(*n, den) for n in out[3 * i:3 * i + 3]) for i in range(3))
    )


def norm(x: HermTraceless3) -> QuadExt:
    """n(x) = Tr(x^2)/6; exact and real for Hermitian x."""
    xs, dx = _integers(x)
    a, b = _real_trace(xs, xs, "trace of a Hermitian square must be real")
    return _quad(a, b, 6 * dx * dx)


def inner(x: HermTraceless3, y: HermTraceless3) -> QuadExt:
    """<x,y> = Tr(xy)/3, the polarization of n with <x,x> = 2 n(x)."""
    (xs, dx), (ys, dy) = _integers(x), _integers(y)
    a, b = _real_trace(xs, ys, "polarized trace must be real")
    return _quad(a, b, 3 * dx * dy)


@lru_cache(maxsize=None)
def build_basis() -> tuple[HermTraceless3, ...]:
    """The reference idempotent e = diag(2,-1,-1) and the seven sqrt(3)
    generators; returned as (e, e1, ..., e7), built and validated once."""
    s3 = QuadExt(0, 1)
    i_pos = ComplexQuad(0, s3)  # sqrt(3) * i
    i_neg = ComplexQuad(0, -s3)
    r3 = ComplexQuad(s3)
    e = HermTraceless3([[2, 0, 0], [0, -1, 0], [0, 0, -1]])
    e1 = HermTraceless3([[_C0, r3, _C0], [r3, _C0, _C0], [_C0, _C0, _C0]])
    e2 = HermTraceless3([[_C0, _C0, r3], [_C0, _C0, _C0], [r3, _C0, _C0]])
    e3 = HermTraceless3([[_C0, _C0, _C0], [_C0, _C0, r3], [_C0, r3, _C0]])
    e4 = HermTraceless3([[r3, _C0, _C0], [_C0, -r3, _C0], [_C0, _C0, _C0]])
    e5 = HermTraceless3([[_C0, i_neg, _C0], [i_pos, _C0, _C0], [_C0, _C0, _C0]])
    e6 = HermTraceless3([[_C0, _C0, i_neg], [_C0, _C0, _C0], [i_pos, _C0, _C0]])
    e7 = HermTraceless3([[_C0, _C0, _C0], [_C0, _C0, i_neg], [_C0, i_pos, _C0]])
    return (e, e1, e2, e3, e4, e5, e6, e7)


def basis_gram() -> list[list[QuadExt]]:
    basis = build_basis()
    return [[inner(x, y) for y in basis] for x in basis]


def random_matrix(rng: random.Random, span: int = 2) -> HermTraceless3:
    """A random real linear combination of the eight basis matrices with
    small half-integer coefficients."""
    basis = build_basis()
    acc = basis[0].scale(QuadExt(Fraction(rng.randint(-span, span), 2)))
    for m in basis[1:]:
        acc = acc + m.scale(QuadExt(Fraction(rng.randint(-span, span), 2)))
    return acc


# -- laws --------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixLawsReport:
    samples: int
    idempotent_ok: bool
    flexibility_failures: int
    composition_failures: int
    form_associativity_failures: int
    hermitian_traceless_failures: int
    no_two_sided_unit: bool
    gram_pivots_positive: bool


def verify_laws(samples: int = 100, seed: int = 0) -> MatrixLawsReport:
    """Exact checks of the defining laws on the basis and seeded samples."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    basis = build_basis()
    e = basis[0]
    idempotent_ok = matrix_mul(e, e) == e and norm(e) == QuadExt(1)

    flex = comp = assoc = closure = 0
    pool = [random_matrix(rng) for _ in range(samples)]
    for idx, x in enumerate(pool):
        y = pool[(idx + 1) % samples]
        z = pool[(idx + 2) % samples]
        try:
            xy = matrix_mul(x, y)
        except ValueError:
            closure += 1
            continue
        if matrix_mul(x, matrix_mul(y, x)) != matrix_mul(xy, x):
            flex += 1
        if norm(xy) != norm(x) * norm(y):
            comp += 1
        if inner(matrix_mul(x, z), y) != inner(x, matrix_mul(z, y)):
            assoc += 1

    # no two-sided unit in the searched class: +-e, +-e1..e7
    no_unit = True
    for cand in basis:
        for u in (cand, -cand):
            if all(
                matrix_mul(u, b) == b and matrix_mul(b, u) == b for b in basis
            ):
                no_unit = False

    gram_ok = all(p.sign_real() > 0 for p in gram_pivots())

    return MatrixLawsReport(
        samples=samples,
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
    return eliminate(basis_gram(), swap=False)[1]


# -- Kaplansky's recovered unital product -------------------------------------


def kaplansky(x: HermTraceless3, y: HermTraceless3) -> HermTraceless3:
    """x . y = (e*x)*(y*e): the unital product recovered from * and e."""
    e = build_basis()[0]
    return matrix_mul(matrix_mul(e, x), matrix_mul(y, e))


@dataclass(frozen=True)
class KaplanskyReport:
    samples: int
    unit_left_ok: bool
    unit_right_ok: bool
    alternativity_failures: int
    composition_failures: int


def kaplansky_report(samples: int = 100, seed: int = 0) -> KaplanskyReport:
    rng = random.Random(seed)
    basis = build_basis()
    e = basis[0]
    left = all(kaplansky(e, b) == b for b in basis)
    right = all(kaplansky(b, e) == b for b in basis)
    alt = comp = 0
    pool = [random_matrix(rng) for _ in range(samples)]
    for idx, x in enumerate(pool):
        y = pool[(idx + 1) % samples]
        xx, xy = kaplansky(x, x), kaplansky(x, y)
        if kaplansky(x, xy) != kaplansky(xx, y):
            alt += 1
        if kaplansky(kaplansky(y, x), x) != kaplansky(y, xx):
            alt += 1
        if norm(xy) != norm(x) * norm(y):
            comp += 1
    return KaplanskyReport(
        samples=samples,
        unit_left_ok=left,
        unit_right_ok=right,
        alternativity_failures=alt,
        composition_failures=comp,
    )


def jordan_product(x: HermTraceless3, y: HermTraceless3):
    """The commutative symmetrized product (1/2)(xy + yx); kept as a raw
    3x3 matrix since Hermitian traceless matrices are not closed under it."""
    (xs, dx), (ys, dy) = _integers(x), _integers(y)
    sym = [tuple(u + v for u, v in zip(a, b))
           for a, b in zip(_product(xs, ys), _product(ys, xs))]
    den = 2 * dx * dy
    return [[_complex(*v, den) for v in sym[3 * i:3 * i + 3]] for i in range(3)]


# -- cross-realization --------------------------------------------------------


#: eight real functionals that determine a matrix of the span: the real
#: parts of m00 and m11, and both parts of m01, m02 and m12, as (cell, 0)
#: for a real part and (cell, 2) for an imaginary part of a row-major cell
_FUNCTIONALS = ((0, 0), (4, 0), (1, 0), (1, 2), (2, 0), (2, 2), (5, 0), (5, 2))


def _functionals(quads):
    """The eight functionals of a matrix in the form of :func:`_integers`,
    as integer pairs (a, b) for (a + b sqrt3) over its denominator."""
    return [quads[cell][part:part + 2] for cell, part in _FUNCTIONALS]


@lru_cache(maxsize=None)
def _basis_integers():
    """The basis matrices as :func:`_integers` quadruples over one common
    denominator D, and D."""
    ints = [_integers(bm) for bm in build_basis()]
    den = lcm(*(d for _, d in ints))
    return tuple(
        tuple(tuple(v * (den // d) for v in q) for q in quads) for quads, d in ints
    ), den


@lru_cache(maxsize=None)
def _coordinate_inverse():
    """F^-1 for the functional matrix F[f][k] = f(basis[k]), so that the
    coordinates of m are F^-1 f(m); as integer pairs (p, q) for the entries
    (p + q sqrt3)/E over one common denominator E, and E."""
    quads, den = _basis_integers()
    cols = [[_quad(a, b, den) for a, b in _functionals(q)] for q in quads]
    n = len(cols)
    work, pivots, _ = eliminate(
        [[col[f] for col in cols] + [int(f == g) for g in range(n)] for f in range(n)],
        reduced=True,
    )
    if not all(pivots):
        raise ArithmeticError("singular coordinate system")
    inv = [[QuadExt.coerce(v).triple for v in row[n:]] for row in work]
    common = lcm(*(d for row in inv for _, _, d in row))
    return tuple(
        tuple((a * (common // d), b * (common // d)) for a, b, d in row) for row in inv
    ), common


def matrix_coordinates(m: HermTraceless3) -> tuple[QuadExt, ...]:
    """Exact coordinates of m over the basis (e, e1..e7).

    The coordinates are F^-1 f(m) (see :func:`_coordinate_inverse`), as
    (P_k + Q_k sqrt3)/(E D) with D the denominator of m.  An exactness guard
    reconstructs sum_k (P_k + Q_k sqrt3) basis[k] on the integers and
    compares it with m, so no wrong coordinate vector is ever returned.
    """
    inv, e_den = _coordinate_inverse()
    quads, d = _integers(m)
    rhs = _functionals(quads)
    coords = []
    for row in inv:
        p_k = q_k = 0
        for (p, q), (a, b) in zip(row, rhs):
            p_k += p * a + 3 * q * b
            q_k += p * b + q * a
        coords.append((p_k, q_k))
    basis, b_den = _basis_integers()
    scale = e_den * b_den
    for cell, target in enumerate(quads):
        acc = [0, 0, 0, 0]
        for (p, q), bq in zip(coords, basis):
            a, b, c, e = bq[cell]
            if a or b or c or e:
                acc[0] += p * a + 3 * q * b
                acc[1] += p * b + q * a
                acc[2] += p * c + 3 * q * e
                acc[3] += p * e + q * c
        if acc != [scale * v for v in target]:
            raise ArithmeticError("coordinate solve failed to reconstruct")
    return tuple(_quad(p, q, e_den * d) for p, q in coords)


@dataclass(frozen=True)
class CrossRealizationReport:
    """Diff of the matrix-side and rotation-side structure constants under
    candidate basis identifications e -> e0, e_k -> s_k e_k."""

    identity_mismatches: int
    best_signs: tuple[int, ...]
    best_mismatches: int
    total: int


def cross_realization_report() -> CrossRealizationReport:
    basis = build_basis()
    mat_c = [[matrix_coordinates(matrix_mul(basis[a], basis[b])) for b in range(DIM)]
             for a in range(DIM)]
    alg_c = [[okubo_mul(basis_element(a), basis_element(b)).coords for b in range(DIM)]
             for a in range(DIM)]
    return _sign_search(mat_c, alg_c)


def _sign_search(mat_c, alg_c) -> CrossRealizationReport:
    """Mismatches of mat_c[a][b][k] against alg_c[a][b][k] * s_a s_b s_k,
    under the identity pattern and under every pattern with s_0 = 1; the
    first pattern with the fewest mismatches is the best."""
    # every sign is +-1, so under a pattern the entry (a, b, k) matches
    # exactly when lhs equals rhs (sign product +1) or -rhs (sign product -1);
    # both equalities are decided once per entry
    cells = list(product(range(DIM), repeat=3))
    same, opposite = [], []
    for a, b, k in cells:
        lhs, rhs = mat_c[a][b][k], alg_c[a][b][k]
        same.append(lhs == rhs)
        opposite.append(lhs == -rhs)

    def mismatches(signs) -> int:
        return sum(
            not (eq if signs[a] * signs[b] * signs[k] > 0 else neg)
            for (a, b, k), eq, neg in zip(cells, same, opposite)
        )

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
        total=len(cells),
    )
