"""Exact integer-lattice machinery.

Everything here is exact: Hermite/Smith normal forms with unimodular
transforms, sublattice invariants, short-vector enumeration by exact
rational Cholesky (through the kernel layer), discriminant groups with
their quadratic form, isotropic gluing, p-adic saturation, shell counts,
and the rank-16 restriction-of-scalars Gram.

Norm bookkeeping: a lattice Gram always stores the bilinear form <x,y>
with <x,x> = 2 n(x) for algebra elements, so the minimum of E8 is 2 and
shell number n corresponds to <x,x> = 2n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm

from ._kernels import (
    enumerate_short_vectors,
    prepare_enumeration,
    shell_histogram,
)
from .exact import QuadExt, eliminate, parse_rational


class LatticeError(ValueError):
    pass


class InclusionError(LatticeError):
    """Raised when a claimed sublattice relation fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# exact dense matrix helpers (sizes here are at most 16x16); determinants,
# inverses, solves and LDL pivots all run through exact.eliminate
# ---------------------------------------------------------------------------


def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            f = ai[k]
            if f:
                bk = b[k]
                for j in range(p):
                    if bk[j]:
                        oi[j] += f * bk[j]
    return out


def mat_inv(a):
    """Exact inverse over the field of the entries (Q or K)."""
    n = len(a)
    work, pivots, _ = eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)],
        reduced=True,
    )
    if not all(pivots):
        raise LatticeError("singular matrix")
    return [row[n:] for row in work]


def mat_det(a):
    _, pivots, det = eliminate(a)
    for p in pivots:
        det *= p
    return det


def ldl_pivots(gram):
    """The exact pivots of the LDL decomposition; all positive iff the
    symmetric matrix is positive definite."""
    return eliminate(gram, swap=False)[1]


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms over Z with unimodular transforms
# ---------------------------------------------------------------------------


def hnf_with_transform(m):
    """Row Hermite normal form: returns (H, T) with T unimodular, T*M = H.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).
    """
    rows = [[int(v) for v in row] for row in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    t = [[int(i == j) for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        t[r], t[piv] = t[piv], t[r]
        for i in range(r + 1, nr):
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                t[r] = [a - q * b for a, b in zip(t[r], t[i])]
                rows[r], rows[i] = rows[i], rows[r]
                t[r], t[i] = t[i], t[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
            t[r] = [-a for a in t[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                t[i] = [a - q * b for a, b in zip(t[i], t[r])]
        r += 1
        if r == nr:
            break
    return rows, t


def _snf_reduce(m):
    """Return (S, P, Q) with P*M*Q = S diagonal, S_ii >= 0 and each S_ii
    dividing the next (Cohen, GTM 138, section 2.4).

    Step k moves the smallest nonzero entry of the trailing block to (k, k),
    the first in row-major order on ties, and clears column k and row k by
    floor division; a remainder is smaller than the pivot and becomes the
    next one.  A trailing entry the pivot does not divide is added into
    row k and cleared the same way, so the chain holds when step k ends.
    """
    s = [[int(v) for v in row] for row in m]
    nr, nc = len(s), len(s[0])
    p = [[int(i == j) for j in range(nr)] for i in range(nr)]
    q = [[int(i == j) for j in range(nc)] for i in range(nc)]
    for k in range(min(nr, nc)):
        while True:
            trailing = [(abs(s[i][j]), i, j) for i in range(k, nr)
                        for j in range(k, nc) if s[i][j]]
            if not trailing:
                return s, p, q
            _, i, j = min(trailing)
            s[k], s[i], p[k], p[i] = s[i], s[k], p[i], p[k]
            for row in s + q:
                row[k], row[j] = row[j], row[k]
            pivot = s[k][k]
            for i in range(k + 1, nr):
                f = s[i][k] // pivot
                if f:
                    s[i] = [a - f * b for a, b in zip(s[i], s[k])]
                    p[i] = [a - f * b for a, b in zip(p[i], p[k])]
            for j in range(k + 1, nc):
                f = s[k][j] // pivot
                if f:
                    for row in s + q:
                        row[j] -= f * row[k]
            if any(s[i][k] for i in range(k + 1, nr)) or any(s[k][k + 1:]):
                continue
            bad = next((i for i in range(k + 1, nr)
                        if any(v % pivot for v in s[i][k + 1:])), None)
            if bad is None:
                break
            s[k] = [a + b for a, b in zip(s[k], s[bad])]
            p[k] = [a + b for a, b in zip(p[k], p[bad])]
        if s[k][k] < 0:
            s[k] = [-a for a in s[k]]
            p[k] = [-a for a in p[k]]
    return s, p, q


@dataclass(frozen=True)
class NormalForms:
    """Hermite and Smith data of one integer matrix M.

    hermite_transform * M = hermite;  M = left * diag(smith) * right.
    """

    hermite: tuple[tuple[int, ...], ...]
    hermite_transform: tuple[tuple[int, ...], ...]
    smith: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def _int_inverse(u):
    inv = mat_inv(u)
    out = []
    for row in inv:
        irow = []
        for v in row:
            if v.denominator != 1:
                raise LatticeError("transform is not unimodular")
            irow.append(int(v))
        out.append(tuple(irow))
    return tuple(out)


def hnf_snf(m) -> NormalForms:
    """Hermite form, Smith invariants, and exact unimodular transforms."""
    h, t = hnf_with_transform(m)
    s, p, q = _snf_reduce(m)
    size = min(len(s), len(s[0]))
    smith = tuple(s[i][i] for i in range(size))
    return NormalForms(
        hermite=tuple(tuple(r) for r in h),
        hermite_transform=tuple(tuple(r) for r in t),
        smith=smith,
        left=_int_inverse(p),
        right=_int_inverse(q),
    )


def smith_invariants(m) -> tuple[int, ...]:
    s, _, _ = _snf_reduce(m)
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]))))


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def _frac_rows(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


@dataclass(frozen=True)
class LatticeZ:
    """A full-rank integral-or-rational lattice: basis rows living in an
    ambient rational quadratic space with exact Gram matrix."""

    basis: tuple[tuple[Fraction, ...], ...]
    ambient_gram: tuple[tuple[Fraction, ...], ...]
    label: str = ""

    @classmethod
    def from_rows(cls, rows, ambient_gram, label=""):
        return cls(_frac_rows(rows), _frac_rows(ambient_gram), label)

    @classmethod
    def from_gram(cls, gram, label=""):
        n = len(gram)
        return cls(_frac_rows(identity_matrix(n)), _frac_rows(gram), label)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def gram(self):
        """B A B^T as fresh lists; the product is computed once per lattice."""
        return [list(r) for r in self._gram]

    @cached_property
    def _gram(self):
        # with B = Bi/db and A = Ai/da for integer Bi and Ai, B A B^T is
        # Bi Ai Bi^T / (db^2 da): integer sums, then one division per entry
        bi, db = _integer_rows_and_scale(self.basis)
        ai, da = _integer_rows_and_scale(self.ambient_gram)
        ba = [[sum(x * y for x, y in zip(row, col)) for col in zip(*ai)] for row in bi]
        den = db * db * da
        return tuple(
            tuple(Fraction(sum(x * y for x, y in zip(u, v)), den) for v in bi)
            for u in ba
        )

    def det(self) -> Fraction:
        return mat_det(self.gram())

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for row in self.gram() for v in row)

    def is_even(self) -> bool:
        g = self.gram()
        return self.is_integral() and all(g[i][i] % 2 == 0 for i in range(self.rank))

    def is_positive_definite(self) -> bool:
        return all(p > 0 for p in ldl_pivots(self.gram()))

    def scaled(self, factor) -> "LatticeZ":
        f = Fraction(factor)
        rows = tuple(tuple(f * v for v in row) for row in self.basis)
        return LatticeZ(rows, self.ambient_gram, f"{factor}*{self.label}")

    def vector(self, coords):
        """Ambient coordinates of an integer combination of basis rows."""
        n = len(self.basis[0])
        out = [Fraction(0)] * n
        for c, row in zip(coords, self.basis):
            if c:
                for j in range(n):
                    out[j] += c * row[j]
        return tuple(out)


def change_of_basis(sub: LatticeZ, sup: LatticeZ):
    """Rational matrix X with sub.basis = X * sup.basis, for a square
    nonsingular sup.basis."""
    rows, basis = sub.basis, sup.basis
    n = len(basis)
    # X B = R  <=>  B^T X^T = R^T: reduce [B^T | R^T] to [I | X^T]
    work, pivots, _ = eliminate(
        [[basis[r][c] for r in range(n)] + [row[c] for row in rows]
         for c in range(n)],
        reduced=True,
    )
    if not all(pivots):
        raise LatticeError("singular matrix")
    return [[work[c][n + k] for c in range(n)] for k in range(len(rows))]


def _inclusion_matrix(sub: LatticeZ, sup: LatticeZ):
    """Integer matrix X with sub.basis = X * sup.basis; raises
    InclusionError, with the first basis vector of ``sub`` outside ``sup``
    as its witness, if there is none."""
    x = change_of_basis(sub, sup)
    for r, row in enumerate(x):
        if any(v.denominator != 1 for v in row):
            raise InclusionError(
                f"basis vector {r} of {sub.label or 'sub'} is not in "
                f"{sup.label or 'sup'}",
                witness=sub.basis[r],
            )
    return [[int(v) for v in row] for row in x]


def _smith_rows(m):
    """Pairs (d_i, r_i) for a square integer matrix M of full rank, with
    P*M*Q = S its Smith form, d_i = S_ii and r_i row i of Q^-1.  Since
    M*Q = P^-1*S, the rows of M span the same lattice as the d_i * r_i, so
    Z^n / rowspan(M) is the sum of the cyclic groups Z/d_i generated by r_i."""
    s, _, q = _snf_reduce(m)
    if not all(s[i][i] for i in range(len(s))):
        raise LatticeError("matrix is not of full rank")
    return [(s[i][i], row) for i, row in enumerate(_int_inverse(q))]


def contains(outer: LatticeZ, inner: LatticeZ) -> bool:
    """Whether every basis vector of ``inner`` lies in ``outer``."""
    try:
        _inclusion_matrix(inner, outer)
    except LatticeError:
        return False
    return True


def lattices_equal(a: LatticeZ, b: LatticeZ) -> bool:
    return contains(a, b) and contains(b, a)


@dataclass(frozen=True)
class SublatticeInvariants:
    index: int
    det_sub: Fraction
    det_sup: Fraction
    smith: tuple[int, ...]
    inclusions: dict


def sublattice_invariants(sub: LatticeZ, sup: LatticeZ) -> SublatticeInvariants:
    """Index, determinants and Smith invariants of an inclusion of
    full-rank lattices; raises InclusionError with a witness otherwise."""
    xi = _inclusion_matrix(sub, sup)
    index = abs(mat_det(xi))
    if not index:
        raise LatticeError("sublattice is not of full rank")
    det_sub, det_sup = sub.det(), sup.det()
    if det_sub != index * index * det_sup:
        raise LatticeError("index-squared determinant law failed")
    inclusions = {
        "4sup_in_sub": contains(sub, sup.scaled(4)),
        "sub_in_2sup": contains(sup.scaled(2), sub),
        "sub_in_sup": True,
    }
    return SublatticeInvariants(
        index=int(index),
        det_sub=det_sub,
        det_sup=det_sup,
        smith=smith_invariants(xi),
        inclusions=inclusions,
    )


# ---------------------------------------------------------------------------
# short vectors and shells
# ---------------------------------------------------------------------------


def _integer_rows_and_scale(m):
    """Integer rows Mi and the least den > 0 with M = Mi/den, for a matrix
    M of ints and Fractions."""
    den = lcm(*(v.denominator for row in m for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in m], den


def short_vectors(lat: LatticeZ, bound):
    """All nonzero lattice vectors with <v,v> <= bound, as
    (coordinate tuple, exact norm) sorted lexicographically.

    Raises NotPositiveDefinite for an indefinite Gram.
    """
    gram = lat.gram()
    gi, den = _integer_rows_and_scale(gram)
    plan = prepare_enumeration(gi, Fraction(bound) * den)
    found = enumerate_short_vectors(plan)
    n = len(gi)
    out = []
    for coords in found:
        scaled = 0
        for i in range(n):
            ci = coords[i]
            if ci:
                row = gi[i]
                acc = 0
                for j in range(n):
                    if coords[j]:
                        acc += row[j] * coords[j]
                scaled += ci * acc
        nrm = Fraction(scaled, den)
        if nrm > bound:  # guard: the plan bound is exact, this must not trip
            raise LatticeError("enumeration produced an out-of-bound vector")
        out.append((coords, nrm))
    return out


def norm_counts(lat: LatticeZ, bound) -> dict[Fraction, int]:
    """Number of nonzero lattice vectors of each norm <= bound, by norm in
    increasing order, from the counting mode of the enumeration: the same
    walk as :func:`short_vectors`, but no vector is built."""
    gi, den = _integer_rows_and_scale(lat.gram())
    plan = prepare_enumeration(gi, Fraction(bound) * den)
    scale = plan.scale * den
    return {Fraction(k, scale): c for k, c in shell_histogram(plan).items()}


def minimum_and_kissing(lat: LatticeZ, search_bound):
    """(minimum norm, number of minimal vectors) via enumeration up to
    ``search_bound``; raises if no nonzero vector is found below it."""
    sv = short_vectors(lat, search_bound)
    if not sv:
        raise LatticeError(f"no nonzero vectors of norm <= {search_bound}")
    m = min(nrm for _, nrm in sv)
    return m, sum(1 for _, nrm in sv if nrm == m)


def sigma3(n: int) -> int:
    """Sum of cubes of divisors."""
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


@dataclass(frozen=True)
class ShellCount:
    n: int
    count: int
    formula: int
    match: bool


def shell_counts_vs_sigma3(lat: LatticeZ, maxn: int) -> list[ShellCount]:
    """Shell sizes of the order lattice for composition norms 1..maxn,
    compared against 240 * sigma_3(n).

    The bilinear Gram satisfies <x,x> = 2 n(x), so shell n is enumerated
    at bilinear norm 2n.  Desk-scale guard: 1 <= maxn <= 6.
    """
    if maxn < 1:
        raise ValueError("shell counting needs maxn >= 1")
    if maxn > 6:
        raise ValueError("shell counting is desk-scale guarded at maxn <= 6")
    counts = norm_counts(lat, 2 * maxn)
    out = []
    for n in range(1, maxn + 1):
        have = counts.get(2 * n, 0)
        want = 240 * sigma3(n)
        out.append(ShellCount(n=n, count=have, formula=want, match=have == want))
    return out


# ---------------------------------------------------------------------------
# discriminant group and gluing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscriminantGroup:
    """The structure of A_L = L*/L: its invariants, the Smith factors > 1
    of the Gram matrix."""

    invariants: tuple[int, ...]

    @property
    def order(self) -> int:
        out = 1
        for v in self.invariants:
            out *= v
        return out


def discriminant_group(lat: LatticeZ) -> DiscriminantGroup:
    """Structure of L*/L from the Smith decomposition of the Gram matrix."""
    gram = lat.gram()
    if any(v.denominator != 1 for row in gram for v in row):
        raise LatticeError("discriminant group needs an integral Gram")
    # in dual-basis coordinates L* = Z^n and L is the row span of the Gram
    invariants = smith_invariants([[int(v) for v in row] for row in gram])
    if not all(invariants):
        raise LatticeError("matrix is not of full rank")
    return DiscriminantGroup(invariants=tuple(d for d in invariants if d > 1))


@dataclass(frozen=True)
class QuotientGroup:
    """sup/sub for an inclusion of equal-rank lattices."""

    invariants: tuple[int, ...]
    generators_sup_coords: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        out = 1
        for v in self.invariants:
            out *= v
        return out


def quotient_group(sub: LatticeZ, sup: LatticeZ) -> QuotientGroup:
    factors = [(d, r) for d, r in _smith_rows(_inclusion_matrix(sub, sup)) if d > 1]
    return QuotientGroup(invariants=tuple(d for d, _ in factors),
                         generators_sup_coords=tuple(r for _, r in factors))


def saturation(sub: LatticeZ, sup: LatticeZ, p: int) -> LatticeZ:
    """Sat_p(sub in sup) = {x in sup : p^k x in sub for some k}, for p >= 2."""
    if p < 2:
        raise LatticeError(f"saturation needs p >= 2, not {p}")
    rows = []
    for d, r in _smith_rows(_inclusion_matrix(sub, sup)):
        while d % p == 0:
            d //= p
        rows.append([d * v for v in r])
    basis = mat_mul([[Fraction(v) for v in r] for r in rows],
                    [list(r) for r in sup.basis])
    return LatticeZ(_frac_rows(basis), sup.ambient_gram,
                    f"sat_{p}({sub.label or 'L'})")


def glue_overlattice(base: LatticeZ, lift_rows) -> LatticeZ:
    """The lattice generated by ``base`` and the given ambient vectors."""
    rows = [list(r) for r in base.basis] + [[Fraction(v) for v in r] for r in lift_rows]
    den = lcm(*(v.denominator for row in rows for v in row))
    int_rows = [[int(v * den) for v in row] for row in rows]
    h, _ = hnf_with_transform(int_rows)
    new_basis = [
        [Fraction(v, den) for v in row] for row in h if any(row)
    ]
    if len(new_basis) != base.rank:
        raise LatticeError("glued generators did not preserve the rank")
    return LatticeZ(_frac_rows(new_basis), base.ambient_gram,
                    f"glue({base.label or 'L'})")


@dataclass(frozen=True)
class GlueSaturateReport:
    saturation: LatticeZ
    saturation_equals_sup: bool
    quotient_invariants: tuple[int, ...]
    quotient_order: int
    q_values_all_zero: bool
    isotropy_witness: tuple | None
    maximal_isotropic: bool
    glued_even: bool
    glued_unimodular: bool
    glued_equals_sup: bool


def glue_and_saturate(sub: LatticeZ, sup: LatticeZ, p: int = 2) -> GlueSaturateReport:
    """Run the saturation and gluing recovery for sub inside sup.

    The gluing subgroup is H = sup/sub viewed inside A_sub.  Isotropy of H
    is checked exhaustively (|H| is guarded at 2^16), and the first class
    with q(h) != 0 is reported as the witness.  The lattice is glued along
    H either way; the report says whether the result is even and
    unimodular.
    """
    sat = saturation(sub, sup, p)
    sat_eq = lattices_equal(sat, sup)

    quot = quotient_group(sub, sup)
    if quot.order > 1 << 16:
        raise LatticeError("quotient group exceeds the desk-scale guard")

    # q(h) = <v, v> mod 2 for any lift v in sup of h.  For h = sum c_g h_g,
    # <v, v> = c G_H c^T with G_H the Gram of the generators' lifts; scaled
    # by its common denominator den, q(h) = (c M c^T mod 2 den) / den.
    gens = quot.generators_sup_coords
    gram_h = [[sum(a * b for a, b in zip(row, h)) for h in gens]
              for row in mat_mul(gens, sup.gram())]
    den = lcm(*(v.denominator for row in gram_h for v in row))
    m = [[int(v * den) for v in row] for row in gram_h]
    witness = None
    for coeffs in product(*(range(t) for t in quot.invariants)):
        nonzero = [(i, c) for i, c in enumerate(coeffs) if c]
        val = sum(ci * cj * m[i][j] for i, ci in nonzero for j, cj in nonzero)
        if val % (2 * den):
            witness = (coeffs, Fraction(val % (2 * den), den))
            break
    all_zero = witness is None

    disc = discriminant_group(sub)
    maximal = quot.order * quot.order == disc.order

    lifts = [sup.vector(g) for g in gens]
    glued = glue_overlattice(sub, lifts)
    glued_even = glued.is_even()
    glued_unimodular = glued.det() == 1
    glued_eq = lattices_equal(glued, sup)

    return GlueSaturateReport(
        saturation=sat,
        saturation_equals_sup=sat_eq,
        quotient_invariants=quot.invariants,
        quotient_order=quot.order,
        q_values_all_zero=all_zero,
        isotropy_witness=witness,
        maximal_isotropic=maximal,
        glued_even=glued_even,
        glued_unimodular=glued_unimodular,
        glued_equals_sup=glued_eq,
    )


# ---------------------------------------------------------------------------
# the rank-16 restriction-of-scalars lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace16Report:
    gram: tuple[tuple[int, ...], ...]
    even: bool
    positive_definite: bool
    minimum: Fraction
    minimum_count: int


def trace_lattice_16(k_gram) -> Trace16Report:
    """Rank-16 Gram Tr_{K/Q}<v_a, v_b> for the Z-basis u_i, sqrt(3) u_i.

    ``k_gram`` is the 8x8 K-valued Gram <u_i, u_j> of the scaled order
    basis.  Positive definiteness is certified by exact LDL pivots and the
    minimum by enumeration at bound 16.
    """
    sqrt3 = QuadExt(0, 1)
    scalars = [QuadExt(1)] * 8 + [sqrt3] * 8
    g = []
    for a in range(16):
        row = []
        for b in range(16):
            val = scalars[a] * scalars[b] * k_gram[a % 8][b % 8]
            tr = val.field_trace()
            if tr.denominator != 1:
                raise LatticeError("trace Gram entry is not an integer")
            row.append(int(tr))
        g.append(tuple(row))
    lat = LatticeZ.from_gram(g, label="trace16")
    even = lat.is_even()
    posdef = lat.is_positive_definite()
    mn, count = minimum_and_kissing(lat, 16)
    return Trace16Report(
        gram=tuple(g),
        even=even,
        positive_definite=posdef,
        minimum=mn,
        minimum_count=count,
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def lattice_to_fixture(lat: LatticeZ) -> str:
    """JSON fixture: gram as integer strings, basis and ambient gram as
    exact fraction strings."""
    gram = lat.gram()
    if any(v.denominator != 1 for row in gram for v in row):
        raise LatticeError("fixture format requires an integral Gram")
    payload = {
        "gram": [[str(int(v)) for v in row] for row in gram],
        "basis": [[str(v) for v in row] for row in lat.basis],
        "ambient_gram": [[str(v) for v in row] for row in lat.ambient_gram],
        "label": lat.label,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def _fixture_number(v) -> Fraction:
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return parse_rational(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise LatticeError(f"fixture entry {v!r} is not an integer or a fraction string")


def _fixture_matrix(payload, key):
    rows = payload[key]
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or len(r) != len(rows) for r in rows)):
        raise LatticeError(f"fixture {key} is not a square matrix of size >= 1")
    return tuple(tuple(_fixture_number(v) for v in row) for row in rows)


def lattice_from_fixture(text: str) -> LatticeZ:
    """Parse a fixture as written by :func:`lattice_to_fixture`: an object
    whose ``gram``, ``basis`` and ``ambient_gram`` are n x n matrices
    (n >= 1) of integers or fraction strings, ``ambient_gram`` symmetric,
    ``gram`` integral and exactly equal to the Gram of the basis, and an
    optional string ``label``.  Any other input raises LatticeError."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise LatticeError(f"fixture is not JSON: {exc}") from None
    keys = ("gram", "basis", "ambient_gram")
    if not isinstance(payload, dict) or not set(keys) <= set(payload):
        raise LatticeError("fixture is not an object with gram, basis and ambient_gram")
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise LatticeError("fixture label is not a string")
    gram, basis, ambient = (_fixture_matrix(payload, key) for key in keys)
    if not len(gram) == len(basis) == len(ambient):
        raise LatticeError("fixture matrices differ in size")
    if any(row[j] != ambient[j][i] for i, row in enumerate(ambient) for j in range(i)):
        raise LatticeError("fixture ambient_gram is not symmetric")
    if any(v.denominator != 1 for row in gram for v in row):
        raise LatticeError("fixture gram is not integral")
    lat = LatticeZ(basis, ambient, label)
    if lat._gram != gram:
        raise LatticeError("fixture gram does not match basis and ambient gram")
    return lat
