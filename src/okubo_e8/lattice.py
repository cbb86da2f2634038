"""Exact integer-lattice machinery.

Everything here is exact: determinants of integer matrices by
fraction-free elimination, the Hermite normal form, the Smith normal form
with only its right unimodular transform, the one its callers read (or,
for the Smith invariants alone, without it), sublattice invariants,
short-vector enumeration by exact rational Cholesky (through the kernel
layer), discriminant groups with their quadratic form, isotropic gluing,
2-adic saturation, shell counts, and the rank-16 restriction-of-scalars
Gram.

Every lattice is integral: a :class:`LatticeZ` holds integer basis rows
in a space with an integer Gram, so its own Gram is an integer matrix,
computed once; every reader takes that one matrix.  The one step over Q,
the inclusion matrix of a sublattice, is one ``exact.solve``; the rest is
integer arithmetic.

Norm bookkeeping: a lattice Gram always stores the bilinear form <x,y>
with <x,x> = 2 n(x) for algebra elements, so the minimum of E8 is 2 and
shell number n corresponds to <x,x> = 2n.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import lcm, prod
from operator import index, mul

from ._kernels import (
    NotPositiveDefinite,
    enumerate_short_vectors,
    prepare_enumeration,
    shell_histogram,
)
from ._record import record
from .exact import QuadExt, rational_pairs, solve


class LatticeError(ValueError):
    pass


class InclusionError(LatticeError):
    """Raised when a claimed sublattice relation fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# integer matrix helpers (sizes here are at most 16x16): determinants by
# fraction-free elimination; the one rational solve, the inclusion matrix,
# runs through exact.solve
# ---------------------------------------------------------------------------


def _int_rows(m):
    """The matrix as a tuple of int rows; an entry that is not an int (a
    Fraction included, even an integral one) raises TypeError."""
    return tuple(tuple(map(index, row)) for row in m)


def mat_det(a) -> int:
    """Exact determinant of a square integer matrix, by Bareiss's
    fraction-free elimination ("Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968): after
    step k every trailing entry is a (k+2)x(k+2) minor, so each division
    by the previous pivot is exact and no Fraction is formed.  An entry
    that is not an int raises TypeError.
    """
    rows = [list(map(index, row)) for row in a]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot, tail = rows[k][k], rows[k][k + 1:]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[k]
            row[k + 1:] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * rows[-1][-1] if n else 1


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms over Z
# ---------------------------------------------------------------------------


def hermite_form(m):
    """Row Hermite normal form H of an integer matrix M: row echelon form
    with positive pivots, entries above each pivot reduced into
    [0, pivot), and the zero rows last.  H is reached from M by unimodular
    row operations, so its rows span the row lattice of M; being unique,
    H alone fixes that lattice (Cohen, GTM 138, section 2.4.2), and the
    transform is not kept.
    """
    rows = [[int(v) for v in row] for row in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nr):
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nr:
            break
    return rows


def _snf_pivot(s, k):
    """(i, j) of the pivot of step k of :func:`_snf_reduce`: the nonzero
    entry of least absolute value in the trailing block ``s[k:][k:]``, the
    first in row-major order on ties, or None when that block is zero.  No
    nonzero entry is smaller than 1, so the scan ends at the first unit;
    no list of the block is built."""
    least, at = 0, None
    for i in range(k, len(s)):
        row = s[i]
        for j in range(k, len(row)):
            v = row[j]
            if v:
                v = abs(v)
                if v == 1:
                    return i, j
                if not least or v < least:
                    least, at = v, (i, j)
    return at


def _snf_reduce(m, transforms=True):
    """Return (S, R): S = P*M*Q diagonal for some unimodular P and Q, with
    S_ii >= 0 and each S_ii dividing the next, and R = Q^-1 (Cohen, GTM
    138, section 2.4), so the rows of S*R = P*M span the row lattice of M.
    P is not kept: no caller reads it.  With ``transforms`` false the R
    updates are skipped and R is None (Cohen's Smith form without
    transforms, section 2.4.4): the pivot sequence and S are the same
    either way.

    Step k moves the smallest nonzero entry of the trailing block to (k, k),
    the first in row-major order on ties (:func:`_snf_pivot`), and clears
    column k and row k by floor division; a remainder is smaller than the
    pivot and becomes the next one.  A trailing entry the pivot does not
    divide is added into row k and cleared the same way, so the chain holds
    when step k ends.  A column operation F on S (Q <- Q*F) is
    R <- F^-1*R, a row operation on R; a row operation leaves R alone.
    """
    s = [[int(v) for v in row] for row in m]
    nr, nc = len(s), len(s[0])
    right = [[int(i == j) for j in range(nc)] for i in range(nc)] if transforms else None
    # rows and columns before k are zero off the diagonal once step k
    # starts, so every operation of step k reads and writes rows k.. only
    for k in range(min(nr, nc)):
        while True:
            pivot_at = _snf_pivot(s, k)
            if pivot_at is None:  # the trailing block is zero: so are all later ones
                break
            i, j = pivot_at
            s[k], s[i] = s[i], s[k]
            for row in s[k:]:
                row[k], row[j] = row[j], row[k]
            if transforms:
                right[k], right[j] = right[j], right[k]
            pivot = s[k][k]
            # whether a remainder is left in column k or row k; no nonzero
            # entry there is smaller than the pivot, so f is 0 only for a 0
            rest = False
            for i in range(k + 1, nr):
                f = s[i][k] // pivot
                if f:  # row i -= f * row k
                    row = s[i] = [a - f * b for a, b in zip(s[i], s[k])]
                    if row[k]:
                        rest = True
            for j in range(k + 1, nc):
                f = s[k][j] // pivot
                if f:  # column j -= f * column k
                    for row in s[k:]:
                        row[j] -= f * row[k]
                    if s[k][j]:
                        rest = True
                    if transforms:
                        right[k] = [a + f * b for a, b in zip(right[k], right[j])]
            if rest:
                continue
            # a unit divides every entry: nothing to scan
            bad = None if pivot in (1, -1) else next(
                (i for i in range(k + 1, nr) if any(v % pivot for v in s[i][k + 1:])), None)
            if bad is None:
                break
            s[k] = [a + b for a, b in zip(s[k], s[bad])]
        if s[k][k] < 0:
            s[k] = [-a for a in s[k]]
    return s, right


def hnf_snf(m):
    """``(hermite_form(m), smith_invariants(m))``: both normal forms of one
    integer matrix, under the one name the benchmark's tracer times."""
    return hermite_form(m), smith_invariants(m)


def smith_invariants(m) -> tuple[int, ...]:
    """The diagonal of the Smith form of an integer matrix; the transforms
    are not built."""
    s = _snf_reduce(m, False)[0]
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]))))


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def _square_rows(m, what, n=None):
    """``m`` as int rows (see :func:`_int_rows`), n x n with n its number of
    rows unless given; any other shape raises LatticeError naming it."""
    rows = _int_rows(m)
    size = len(rows) if n is None else n
    if len(rows) != size or any(len(row) != size for row in rows):
        widths = "/".join(map(str, sorted({len(row) for row in rows}))) or "0"
        raise LatticeError(f"{what} is {len(rows)}x{widths}, not {size}x{size}")
    return rows


def _is_symmetric(rows) -> bool:
    return all(row[j] == rows[j][i] for i, row in enumerate(rows) for j in range(i))


def _gram_rows(m, what):
    """``m`` as square int rows (see :func:`_square_rows`); one that is not
    symmetric raises LatticeError naming it."""
    rows = _square_rows(m, what)
    if not _is_symmetric(rows):
        raise LatticeError(f"{what} is not symmetric")
    return rows


def _integer_gram(bi, ai):
    """Bi Ai Bi^T for integer matrices, Ai symmetric, as a tuple of rows.
    As Ai = Ai^T, row i of Bi Ai is row i of Bi against each row of Ai, and
    the result is symmetric: its upper triangle is computed and mirrored."""
    ba = [[sum(map(mul, row, col)) for col in ai] for row in bi]
    n = len(bi)
    g = [[0] * n for _ in range(n)]
    for i, u in enumerate(ba):
        for j in range(i, n):
            g[i][j] = g[j][i] = sum(map(mul, u, bi[j]))
    return tuple(map(tuple, g))


@record
class LatticeZ:
    """A full-rank integral lattice: integer basis rows B in an ambient
    space with an integer Gram matrix A.  Build it with :meth:`from_rows`
    or :meth:`from_gram`, which reject an entry that is not an int (with
    TypeError), a matrix that is not n x n for the n of A and an A that is
    not symmetric (with LatticeError)."""

    basis: tuple[tuple[int, ...], ...]
    ambient_gram: tuple[tuple[int, ...], ...]
    label: str = ""

    @classmethod
    def from_rows(cls, rows, ambient_gram, label=""):
        ambient = _gram_rows(ambient_gram, "ambient gram")
        return cls(_square_rows(rows, "basis", len(ambient)), ambient, label)

    @classmethod
    def from_gram(cls, gram, label=""):
        gram = _gram_rows(gram, "gram")
        n = len(gram)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(identity, gram, label)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """B A B^T as a tuple of int rows, computed once per lattice."""
        return _integer_gram(self.basis, self.ambient_gram)

    def det(self) -> int:
        return mat_det(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def scaled(self, factor: int) -> "LatticeZ":
        return LatticeZ.from_rows([[factor * v for v in row] for row in self.basis],
                                  self.ambient_gram, f"{factor}*{self.label}")

    def vector(self, coords) -> tuple[int, ...]:
        """Ambient coordinates of an integer combination of basis rows."""
        terms = [(c, row) for c, row in zip(coords, self.basis) if c]
        return tuple(sum(c * row[j] for c, row in terms) for j in range(len(self.basis[0])))


def _inclusion_matrix(sub: LatticeZ, sup: LatticeZ):
    """Integer matrix X with sub.basis = X * sup.basis, from the solve of
    sup.basis^T X^T = sub.basis^T; raises LatticeError for a singular
    sup.basis, and InclusionError, with the first basis vector of ``sub``
    outside ``sup`` as its witness, if X is not integral."""
    try:
        xt = solve(list(zip(*sup.basis)), list(zip(*sub.basis)))
    except ArithmeticError:
        raise LatticeError("singular matrix") from None
    x = list(zip(*xt))
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
    P*M = S*R its Smith form (:func:`_snf_reduce`), d_i = S_ii and r_i row
    i of R.  Since P is unimodular, the rows of M span the same lattice as
    the d_i * r_i, so Z^n / rowspan(M) is the sum of the cyclic groups
    Z/d_i generated by r_i."""
    s, right = _snf_reduce(m)
    if not all(s[i][i] for i in range(len(s))):
        raise LatticeError("matrix is not of full rank")
    return [(s[i][i], tuple(row)) for i, row in enumerate(right)]


def contains(outer: LatticeZ, inner: LatticeZ) -> bool:
    """Whether every basis vector of ``inner`` lies in ``outer``."""
    try:
        _inclusion_matrix(inner, outer)
    except LatticeError:
        return False
    return True


def lattices_equal(a: LatticeZ, b: LatticeZ) -> bool:
    return contains(a, b) and contains(b, a)


@record
class SublatticeInvariants:
    index: int
    det_sub: int
    smith: tuple[int, ...]
    inclusions: dict


def sublattice_invariants(sub: LatticeZ, sup: LatticeZ) -> SublatticeInvariants:
    """Index, determinants and Smith invariants of an inclusion of
    full-rank lattices; raises InclusionError with a witness otherwise."""
    xi = _inclusion_matrix(sub, sup)
    index = abs(mat_det(xi))
    if not index:
        raise LatticeError("sublattice is not of full rank")
    det_sub = sub.det()
    if det_sub != index * index * sup.det():
        raise LatticeError("index-squared determinant law failed")
    inclusions = {
        "4sup_in_sub": contains(sub, sup.scaled(4)),
        "sub_in_2sup": contains(sup.scaled(2), sub),
        "sub_in_sup": True,
    }
    return SublatticeInvariants(
        index=index,
        det_sub=det_sub,
        smith=smith_invariants(xi),
        inclusions=inclusions,
    )


# ---------------------------------------------------------------------------
# short vectors and shells
# ---------------------------------------------------------------------------


def short_vectors(lat: LatticeZ, bound):
    """All nonzero lattice vectors with <v,v> <= bound, as
    (coordinate tuple, exact norm) sorted lexicographically.

    Raises NotPositiveDefinite for an indefinite Gram.
    """
    gram = lat.gram
    found = enumerate_short_vectors(prepare_enumeration(gram, bound))
    n = len(gram)
    out = []
    for coords in found:
        nrm = 0
        for i in range(n):
            ci = coords[i]
            if ci:
                row = gram[i]
                acc = 0
                for j in range(n):
                    if coords[j]:
                        acc += row[j] * coords[j]
                nrm += ci * acc
        if nrm > bound:  # guard: the plan bound is exact, this must not trip
            raise LatticeError("enumeration produced an out-of-bound vector")
        out.append((coords, nrm))
    return out


def norm_counts(lat: LatticeZ, bound) -> dict[int, int]:
    """Number of nonzero lattice vectors of each norm <= bound, by norm in
    increasing order, from the counting mode of the enumeration: the same
    walk as :func:`short_vectors`, but no vector is built."""
    plan = prepare_enumeration(lat.gram, bound)
    # a scaled norm is plan.scale times an integer norm
    return {k // plan.scale: c for k, c in shell_histogram(plan).items()}


def minimum_and_kissing(found, bound):
    """(minimum norm, number of minimal vectors) of the vectors ``found``
    that :func:`short_vectors` returned at ``bound``; LatticeError if it
    found none."""
    if not found:
        raise LatticeError(f"no nonzero vectors of norm <= {bound}")
    norms = [nrm for _, nrm in found]
    m = min(norms)
    return m, norms.count(m)


def sigma3(n: int) -> int:
    """Sum of cubes of divisors."""
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


@record
class ShellCount:
    n: int
    count: int
    formula: int


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
        out.append(ShellCount(n=n, count=have, formula=want))
    return out


# ---------------------------------------------------------------------------
# discriminant group and gluing
# ---------------------------------------------------------------------------


@record
class DiscriminantGroup:
    """The structure of A_L = L*/L: its invariants, the Smith factors > 1
    of the Gram matrix."""

    invariants: tuple[int, ...]

    @property
    def order(self) -> int:
        return prod(self.invariants)


def discriminant_group(lat: LatticeZ) -> DiscriminantGroup:
    """Structure of L*/L from the Smith decomposition of the Gram matrix."""
    # in dual-basis coordinates L* = Z^n and L is the row span of the Gram
    invariants = smith_invariants(lat.gram)
    if not all(invariants):
        raise LatticeError("matrix is not of full rank")
    return DiscriminantGroup(invariants=tuple(d for d in invariants if d > 1))


def glue_overlattice(base: LatticeZ, lift_rows) -> LatticeZ:
    """The lattice generated by ``base`` and the given ambient vectors."""
    h = hermite_form(list(base.basis) + list(_int_rows(lift_rows)))
    new_basis = [row for row in h if any(row)]
    if len(new_basis) != base.rank:
        raise LatticeError("glued generators did not preserve the rank")
    return LatticeZ.from_rows(new_basis, base.ambient_gram, f"glue({base.label or 'L'})")


@record
class GlueSaturateReport:
    saturation: LatticeZ
    saturation_equals_sup: bool
    quotient_invariants: tuple[int, ...]
    quotient_order: int
    q_values_all_zero: bool
    maximal_isotropic: bool
    glued_even: bool
    glued_unimodular: bool
    glued_equals_sup: bool


def glue_and_saturate(sub: LatticeZ, sup: LatticeZ) -> GlueSaturateReport:
    """Run the 2-adic saturation and the gluing recovery for sub inside sup,
    both from the one Smith decomposition (d_i, r_i) of the inclusion
    matrix (:func:`_smith_rows`).

    The saturation Sat_2(sub in sup) = {x in sup : 2^k x in sub for some k}
    is spanned by the (odd part of d_i) * r_i.  The factors d_i > 1 are the
    invariants of H = sup/sub, with the r_i as its generators.  H is viewed
    inside A_sub, where isotropy is decided on the generators alone (see
    the comment below).  The lattice is glued along H either way; the
    report says whether the result is even and unimodular.
    """
    rows = _smith_rows(_inclusion_matrix(sub, sup))
    sat_rows = []
    for d, r in rows:
        while d % 2 == 0:
            d //= 2
        sat_rows.append(sup.vector([d * v for v in r]))
    sat = LatticeZ.from_rows(sat_rows, sup.ambient_gram, f"sat_2({sub.label or 'L'})")

    factors = [(d, r) for d, r in rows if d > 1]
    invariants = tuple(d for d, _ in factors)
    order = prod(invariants)
    gens = [r for _, r in factors]
    # q(h) = <v, v> mod 2 for any lift v in sup of h.  For h = sum c_i h_i,
    # <v, v> = c M c^T with M the integer Gram of the generators' lifts,
    # and c M c^T = sum_i c_i^2 M_ii + 2 sum_{i<j} c_i c_j M_ij, so
    # q(h) = sum of M_ii over the odd c_i (mod 2).  q vanishes on every
    # class if every M_ii is even, and only then, as every invariant is
    # > 1, so each h_i is a class of its own, with q(h_i) = M_ii mod 2.
    m = _integer_gram(gens, sup.gram)
    all_zero = all(m[i][i] % 2 == 0 for i in range(len(m)))
    maximal = order * order == discriminant_group(sub).order

    glued = glue_overlattice(sub, [sup.vector(r) for r in gens])

    return GlueSaturateReport(
        saturation=sat,
        saturation_equals_sup=lattices_equal(sat, sup),
        quotient_invariants=invariants,
        quotient_order=order,
        q_values_all_zero=all_zero,
        maximal_isotropic=maximal,
        glued_even=glued.is_even(),
        glued_unimodular=glued.det() == 1,
        glued_equals_sup=lattices_equal(glued, sup),
    )


# ---------------------------------------------------------------------------
# the rank-16 restriction-of-scalars lattice
# ---------------------------------------------------------------------------


@record
class Trace16Report:
    gram: tuple[tuple[int, ...], ...]
    even: bool
    positive_definite: bool
    minimum: int | None  # None when the form is not positive definite
    minimum_count: int


def trace_lattice_16(k_gram) -> Trace16Report:
    """Rank-16 Gram Tr_{K/Q}<v_a, v_b> for the Z-basis u_i, sqrt(3) u_i.

    ``k_gram`` is the 8x8 K-valued Gram <u_i, u_j> of the scaled order
    basis.  The enumeration at bound 16 runs the one exact LDL: its plan
    certifies positive definiteness (every pivot positive) and its vectors
    give the minimum.  A form with a non-positive pivot is reported as not
    positive definite, with no minimum and no minimal vectors.
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
    try:
        mn, count = minimum_and_kissing(short_vectors(lat, 16), 16)
    except NotPositiveDefinite:
        return Trace16Report(tuple(g), even, False, None, 0)
    return Trace16Report(tuple(g), even, True, mn, count)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def lattice_to_fixture(lat: LatticeZ) -> str:
    """JSON fixture: gram, basis and ambient gram as integer strings."""
    payload = {
        "gram": [[str(v) for v in row] for row in lat.gram],
        "basis": [[str(v) for v in row] for row in lat.basis],
        "ambient_gram": [[str(v) for v in row] for row in lat.ambient_gram],
        "label": lat.label,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


class _JsonInteger(str):
    """A JSON integer literal of a fixture, kept as its text: it is read
    by the number grammar as a string entry is, so that one past the
    int-to-str digit limit is refused with its place, not by the JSON
    parser."""

    def __repr__(self):  # as the int, inside an entry that is no number
        try:
            return repr(int(self))
        except ValueError:  # past the digit limit
            return f"{self[:12]}..."


def _fixture_matrix(payload, key):
    """The matrix ``payload[key]`` as integer rows Mi and a den > 0 with
    M = Mi/den.  Its entries are JSON integers or strings in the grammar
    of :func:`exact.rational_pairs`, read by one call of it."""
    rows = payload[key]
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or len(r) != len(rows) for r in rows)):
        raise LatticeError(f"fixture {key} is not a square matrix of size >= 1")
    n = len(rows)
    entries = [v for row in rows for v in row]
    try:
        pairs = rational_pairs(entries)
    except OverflowError as exc:
        raise LatticeError(f"fixture {key} entry {divmod(exc.index, n)} has {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise LatticeError(f"fixture entry {entries[exc.index]!r} is not an integer "
                           "or a fraction string") from None
    den = lcm(*{d for _, d in pairs})
    flat = [a * (den // d) for a, d in pairs]
    return [flat[i:i + n] for i in range(0, n * n, n)], den


def lattice_from_fixture(text: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """Parse a fixture as written by :func:`lattice_to_fixture` and return
    its ``(label, gram)``, the Gram as a tuple of int rows.

    A fixture is an object whose ``gram``, ``basis`` and ``ambient_gram``
    are n x n matrices (n >= 1) of integers or fraction strings (outside
    input need not be integral), ``ambient_gram`` symmetric, ``gram``
    integral and exactly equal to the Gram of the basis, and an optional
    string ``label``.  Any other input raises LatticeError.

    Each matrix is read once, into integer rows over one denominator, and
    every test is decided on those integers."""
    try:
        payload = json.loads(text, parse_int=_JsonInteger)
    except (ValueError, RecursionError) as exc:
        raise LatticeError(f"fixture is not JSON: {exc}") from None
    keys = ("gram", "basis", "ambient_gram")
    if not isinstance(payload, dict) or not set(keys) <= set(payload):
        raise LatticeError("fixture is not an object with gram, basis and ambient_gram")
    label = payload.get("label", "")
    if type(label) is not str:  # an integer literal is a _JsonInteger
        raise LatticeError("fixture label is not a string")
    (gram, dg), (basis, db), (ambient, da) = (_fixture_matrix(payload, key) for key in keys)
    if not len(gram) == len(basis) == len(ambient):
        raise LatticeError("fixture matrices differ in size")
    if not _is_symmetric(ambient):
        raise LatticeError("fixture ambient_gram is not symmetric")
    if any(v % dg for row in gram for v in row):
        raise LatticeError("fixture gram is not integral")
    gram = tuple(tuple(v // dg for v in row) for row in gram)
    # B A B^T = Bi Ai Bi^T / (db^2 da)
    scale = db * db * da
    if any(x != y * scale for u, v in zip(_integer_gram(basis, ambient), gram)
           for x, y in zip(u, v)):
        raise LatticeError("fixture gram does not match basis and ambient gram")
    return label, gram
