"""Independent realization of the Okubo algebra on Hermitian traceless
3x3 matrices over K(i), and its cross-validation against the rotation
(Petersson) realization.

The product is

    x * y = mu x y + conj(mu) y x - (1/3) Tr(x y) I

with mu = 1/2 + (sqrt(3)/6) i, juxtaposition being the ordinary matrix
product; the norm is n(x) = Tr(x^2)/6.  All scalars are exact elements of
K(i), so every law below is certified with zero tolerance.  Every matrix
the module hands out is Hermitian and traceless: the constructor checks
its entries, and the product checks its result.

A matrix holds canonical integers, not scalar objects: its nine entries
((a + b sqrt3) + (c + e sqrt3) i)/D as integer quadruples (a, b, c, e)
over one denominator D > 0, laid out in row-major order as one tuple of
36 integers, with no prime dividing D and all 36 of them.  That form is
unique, so equality and hashing compare integers, and ``rows`` builds
the ComplexQuad entries only when asked.
Every product runs through one integer kernel: an entry of the
associative product xy is a sum of integer products over Dx*Dy, and six
times the Okubo product, with the integers of 6 mu = 3 + sqrt(3) i, is
3(xy + yx) + sqrt(3) i (xy - yx) - 2 Tr(xy) I,
so each of its entries is one integer quadruple over 6*Dx*Dy, and the
result is made canonical with one gcd per matrix.  ``xy`` and ``yx`` are
both computed: the result is checked Hermitian and traceless on those
integers, with the errors the HermTraceless3 constructor raises, and not
assumed.  ``norm`` and ``inner`` compute only the three diagonal entries
their trace needs, and still reject a trace that is not real.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .algebras import DIM, basis_element, okubo_mul
from .exact import ComplexQuad, QuadExt, _complex, _quad, eliminate

_C0 = ComplexQuad(0)


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
        return _rows(self._q, self._d)

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

_CELLS = tuple((i, j) for i in range(3) for j in range(3))
_DIAGONAL = ((0, 0), (1, 1), (2, 2))


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


def _rows(ints, den: int):
    """The 3x3 rows of ComplexQuad entries for ``ints`` over ``den``."""
    return tuple(tuple(_complex(*ints[k:k + 4], den) for k in range(12 * i, 12 * i + 12, 4))
                 for i in range(3))


def _quadruples(ints):
    """The entries of ``ints`` as consecutive quadruples, in order."""
    it = iter(ints)
    return zip(it, it, it, it)


def _trace(ints):
    """The integers (a, b, c, e) of the trace: the sum of entries 0, 4, 8."""
    return (ints[0] + ints[16] + ints[32], ints[1] + ints[17] + ints[33],
            ints[2] + ints[18] + ints[34], ints[3] + ints[19] + ints[35])


def _hermitian(ints) -> bool:
    """Whether entry (i, j) is the conjugate of entry (j, i) throughout."""
    for i, j in _CELLS:
        k, t = 4 * (3 * i + j), 4 * (3 * j + i)
        if (ints[k] != ints[t] or ints[k + 1] != ints[t + 1]
                or ints[k + 2] != -ints[t + 2] or ints[k + 3] != -ints[t + 3]):
            return False
    return True


def _check_type(ints) -> None:
    """ValueError unless the 36 integers over a positive denominator are
    Hermitian and traceless; the denominator does not matter."""
    if not _hermitian(ints):
        raise ValueError("matrix is not Hermitian")
    if any(_trace(ints)):
        raise ValueError("matrix is not traceless")


def _product(xs, ys, cells=_CELLS):
    """The entries ``cells`` of the associative product of two matrices
    given by their integers, as integer quadruples over the product of
    their denominators, one after another in one list.  With
    s3 = sqrt(3), one term ((a + b s3) + (c + e s3) i)((p + q s3) +
    (r + s s3) i) has the quadruple (ap - cr + 3(bq - es), aq + bp - cs - er,
    ar + cp + 3(bs + eq), as + br + cq + ep); entry (i, j) is the sum of
    the three terms x_im y_mj, written out."""
    rows = xs[:12], xs[12:24], xs[24:]
    cols = [ys[j:j + 4] + ys[j + 12:j + 16] + ys[j + 24:j + 28] for j in (0, 4, 8)]
    out = []
    for i, j in cells:
        a, b, c, e, f, g, h, k, l, m, n, o = rows[i]
        p, q, r, s, t, u, v, w, P, Q, R, S = cols[j]
        out += (
            a * p - c * r + f * t - h * v + l * P - n * R
            + 3 * (b * q - e * s + g * u - k * w + m * Q - o * S),
            a * q + b * p - c * s - e * r + f * u + g * t - h * w - k * v
            + l * Q + m * P - n * S - o * R,
            a * r + c * p + f * v + h * t + l * R + n * P
            + 3 * (b * s + e * q + g * w + k * u + m * S + o * Q),
            a * s + b * r + c * q + e * p + f * w + g * v + h * u + k * t
            + l * S + m * R + n * Q + o * P,
        )
    return out


def _real_trace(xs, ys, message):
    """The integers (a, b) of Tr(xy) = (a + b s3)/(Dx*Dy); ArithmeticError
    with ``message`` if the trace is not real."""
    d = _product(xs, ys, _DIAGONAL)
    a, b, c, e = (d[t] + d[4 + t] + d[8 + t] for t in range(4))
    if c or e:
        raise ArithmeticError(message)
    return a, b


def matrix_mul(x: HermTraceless3, y: HermTraceless3) -> HermTraceless3:
    """The Okubo product; the result is validated Hermitian traceless."""
    xs, ys = x._q, y._q
    xy = _product(xs, ys)
    yx = _product(ys, xs)
    tr = [2 * v for v in _trace(xy)]
    out = []
    for k, (a, b, c, e), (p, q, r, s) in zip(range(9), _quadruples(xy), _quadruples(yx)):
        # 3(u + w) + s3 i (u - w) for u = (a, b, c, e) and w = (p, q, r, s)
        n = [3 * (a + p - e + s), 3 * (b + q) - c + r,
             3 * (c + r + b - q), 3 * (e + s) + a - p]
        if k % 4 == 0:  # a diagonal entry: subtract 2 Tr(xy)
            n = [v - t for v, t in zip(n, tr)]
        out += n
    # validation certifies type closure: all entries share one denominator,
    # so the conditions on the values are conditions on these integers
    _check_type(out)
    return _matrix(out, 6 * x._d * y._d)


def norm(x: HermTraceless3) -> QuadExt:
    """n(x) = Tr(x^2)/6; exact and real for Hermitian x."""
    a, b = _real_trace(x._q, x._q, "trace of a Hermitian square must be real")
    return _quad(a, b, 6 * x._d * x._d)


def inner(x: HermTraceless3, y: HermTraceless3) -> QuadExt:
    """<x,y> = Tr(xy)/3, the polarization of n with <x,x> = 2 n(x)."""
    a, b = _real_trace(x._q, y._q, "polarized trace must be real")
    return _quad(a, b, 3 * x._d * y._d)


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
    """A random real linear combination sum_k (c_k/2) basis[k] of the eight
    basis matrices with small half-integer coefficients, summed on the
    basis integers of :func:`_basis_ints`."""
    ints, den = _basis_ints()
    coeffs = [rng.randint(-span, span) for _ in ints]
    acc = [0] * 36
    for c, b in zip(coeffs, ints):
        if c:
            for t, v in enumerate(b):
                if v:
                    acc[t] += c * v
    return _matrix(acc, 2 * den)


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

    def halves(m):
        return matrix_mul(e, m), matrix_mul(m, e)

    # kaplansky(u, v) = (e*u)*(v*e): the two halves of each pool matrix are
    # computed once, and kept only while a sample uses them
    first = x_halves = halves(pool[0])
    for idx, x in enumerate(pool):
        nxt = (idx + 1) % samples
        y = pool[nxt]
        (ex, xe), (ey, ye) = x_halves, first if nxt == 0 else halves(y)
        xx, xy = matrix_mul(ex, xe), matrix_mul(ex, ye)
        # x.(x.y) against (x.x).y
        if matrix_mul(ex, matrix_mul(xy, e)) != matrix_mul(matrix_mul(e, xx), ye):
            alt += 1
        # (y.x).x against y.(x.x)
        yx = matrix_mul(ey, xe)
        if matrix_mul(matrix_mul(e, yx), xe) != matrix_mul(ey, matrix_mul(xx, e)):
            alt += 1
        x_halves = ey, ye
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
    sym = [u + v for u, v in zip(_product(x._q, y._q), _product(y._q, x._q))]
    return [list(r) for r in _rows(sym, 2 * x._d * y._d)]


# -- cross-realization --------------------------------------------------------


#: eight real functionals that determine a matrix of the span: the real
#: parts of m00 and m11, and both parts of m01, m02 and m12, as (cell, 0)
#: for a real part and (cell, 2) for an imaginary part of a row-major cell
_FUNCTIONALS = ((0, 0), (4, 0), (1, 0), (1, 2), (2, 0), (2, 2), (5, 0), (5, 2))


def _functionals(ints):
    """The eight functionals of a matrix given by its integers, as integer
    pairs (a, b) for (a + b sqrt3) over its denominator."""
    return [ints[4 * cell + part:4 * cell + part + 2] for cell, part in _FUNCTIONALS]


@lru_cache(maxsize=None)
def _basis_ints():
    """The integers of the basis matrices over one common denominator D,
    and D."""
    basis = build_basis()
    den = lcm(*(m._d for m in basis))
    return tuple(tuple(v * (den // m._d) for v in m._q) for m in basis), den


@lru_cache(maxsize=None)
def _coordinate_inverse():
    """F^-1 for the functional matrix F[f][k] = f(basis[k]), so that the
    coordinates of m are F^-1 f(m); as integer pairs (p, q) for the entries
    (p + q sqrt3)/E over one common denominator E, and E."""
    ints, den = _basis_ints()
    cols = [[_quad(a, b, den) for a, b in _functionals(m)] for m in ints]
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
    ints, d = m._q, m._d
    rhs = _functionals(ints)
    coords = []
    for row in inv:
        p_k = q_k = 0
        for (p, q), (a, b) in zip(row, rhs):
            p_k += p * a + 3 * q * b
            q_k += p * b + q * a
        coords.append((p_k, q_k))
    basis, b_den = _basis_ints()
    scale = e_den * b_den
    for k in range(0, 36, 4):
        acc = [0, 0, 0, 0]
        for (p, q), bm in zip(coords, basis):
            a, b, c, e = bm[k:k + 4]
            if a or b or c or e:
                acc[0] += p * a + 3 * q * b
                acc[1] += p * b + q * a
                acc[2] += p * c + 3 * q * e
                acc[3] += p * e + q * c
        if acc != [scale * v for v in ints[k:k + 4]]:
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
