"""Independent realization of the Okubo algebra on Hermitian traceless
3x3 matrices over K(i), and its cross-validation against the rotation
(Petersson) realization.

The product is

    x * y = mu x y + conj(mu) y x - (1/3) Tr(x y) I

with mu = 1/2 + (sqrt(3)/6) i, juxtaposition being the ordinary matrix
product; the norm is n(x) = Tr(x^2)/6.  All scalars are exact elements of
K(i), so every law below is certified with zero tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebras import DIM, basis_element, okubo_mul
from .exact import ComplexQuad, QuadExt, eliminate

MU = ComplexQuad(QuadExt(Fraction(1, 2)), QuadExt(0, Fraction(1, 6)))
MU_BAR = MU.conjugate()

_C0 = ComplexQuad(0)
_C_HALF = ComplexQuad(Fraction(1, 2))
_C_THIRD = ComplexQuad(Fraction(1, 3))
_THIRD = QuadExt(Fraction(1, 3))
_SIXTH = QuadExt(Fraction(1, 6))


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


def mat_product(x: HermTraceless3, y: HermTraceless3):
    """Ordinary associative 3x3 matrix product (not Hermitian in general)."""
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = _C0
            for m in range(3):
                acc = acc + x.rows[i][m] * y.rows[m][j]
            row.append(acc)
        out.append(row)
    return out


def _trace_of(rows) -> ComplexQuad:
    return rows[0][0] + rows[1][1] + rows[2][2]


def matrix_mul(x: HermTraceless3, y: HermTraceless3) -> HermTraceless3:
    """The Okubo product; the result is validated Hermitian traceless."""
    xy = mat_product(x, y)
    yx = mat_product(y, x)
    tr = _trace_of(xy)
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            val = MU * xy[i][j] + MU_BAR * yx[i][j]
            if i == j:
                val = val - _C_THIRD * tr
            row.append(val)
        rows.append(row)
    return HermTraceless3(rows)  # validation certifies type closure


def norm(x: HermTraceless3) -> QuadExt:
    """n(x) = Tr(x^2)/6; exact and real for Hermitian x."""
    sq = mat_product(x, x)
    tr = _trace_of(sq)
    if not tr.im.is_zero():
        raise ArithmeticError("trace of a Hermitian square must be real")
    return tr.re * _SIXTH


def inner(x: HermTraceless3, y: HermTraceless3) -> QuadExt:
    """<x,y> = Tr(xy)/3, the polarization of n with <x,x> = 2 n(x)."""
    tr = _trace_of(mat_product(x, y))
    if not tr.im.is_zero():
        raise ArithmeticError("polarized trace must be real")
    return tr.re * _THIRD


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
        if kaplansky(x, kaplansky(x, y)) != kaplansky(kaplansky(x, x), y):
            alt += 1
        if kaplansky(kaplansky(y, x), x) != kaplansky(y, kaplansky(x, x)):
            alt += 1
        if norm(kaplansky(x, y)) != norm(x) * norm(y):
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
    xy = mat_product(x, y)
    yx = mat_product(y, x)
    return [[_C_HALF * (a + b) for a, b in zip(ra, rb)] for ra, rb in zip(xy, yx)]


# -- cross-realization --------------------------------------------------------


def matrix_coordinates(m: HermTraceless3) -> tuple[QuadExt, ...]:
    """Exact coordinates of m over the basis (e, e1..e7)."""
    basis = build_basis()
    # use 8 independent functionals: Re m00, Re m11, Re/Im of m01, m02, m12
    funcs = [
        lambda x: x.rows[0][0].re,
        lambda x: x.rows[1][1].re,
        lambda x: x.rows[0][1].re,
        lambda x: x.rows[0][1].im,
        lambda x: x.rows[0][2].re,
        lambda x: x.rows[0][2].im,
        lambda x: x.rows[1][2].re,
        lambda x: x.rows[1][2].im,
    ]
    # coords solve sum_k coords[k] f(basis[k]) = f(m) for every functional f
    work, pivots, _ = eliminate(
        [[f(bm) for bm in basis] + [f(m)] for f in funcs], reduced=True
    )
    if not all(pivots):
        raise ArithmeticError("singular coordinate system")
    coords = [row[-1] for row in work]
    # exactness guard: reconstruct
    acc = basis[0].scale(coords[0])
    for cm, bm in zip(coords[1:], basis[1:]):
        acc = acc + bm.scale(cm)
    if acc != m:
        raise ArithmeticError("coordinate solve failed to reconstruct")
    return tuple(coords)


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

    def mismatches(signs) -> int:
        bad = 0
        for a in range(DIM):
            for b in range(DIM):
                for k in range(DIM):
                    lhs = mat_c[a][b][k]
                    rhs = alg_c[a][b][k] * (signs[a] * signs[b] * signs[k])
                    if lhs != rhs:
                        bad += 1
        return bad

    total = DIM ** 3
    ident = mismatches((1,) * DIM)
    best_signs = (1,) * DIM
    best = ident
    from itertools import product as iter_product

    for tail in iter_product((1, -1), repeat=DIM - 1):
        signs = (1,) + tail
        bad = mismatches(signs)
        if bad < best:
            best, best_signs = bad, signs
    return CrossRealizationReport(
        identity_mismatches=ident,
        best_signs=best_signs,
        best_mismatches=best,
        total=total,
    )
