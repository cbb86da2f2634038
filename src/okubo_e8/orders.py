"""The Coxeter-Dickson order, its unit loop, structure constants under the
three products, integrality tests, and the diagonal 2-adic scaling.

The order is written in the Dickson letters

    1, i, j, k, l, il, jl, kl        with  i j = k  etc.

pinned on the e-basis as  i = e3, j = e2, k = e4, l = -e7  (hence
il = -e1, jl = e6, kl = e5).  The assignment was fixed by exact search:
among all oriented letter placements it reproduces the claimed scaling
arithmetic of the Okubo product (minimal exponents (1,1,1,1,2,2,2,2),
structure-constant denominators in {1,2,4}) while the rotation
automorphism keeps its exact matrix on the e-numbering.  The order basis
is

    b0 = 1, b1 = i, b2 = j, b3 = k, b4 = h, b5 = ih, b6 = jh, b7 = kh

with h = (i + j + k + l)/2.

Every order is an :class:`OrderBasis`: this basis, the scaled basis
u_i = 2^{a_i} b_i built from the certified exponents, the saturated basis
and the catalog orders; the e-basis is one too, for the rotation side of
the cross-realization diff.  ``element`` maps coordinates to an algebra
element, ``lattice`` is its lattice, of the integral Gram, built once, and
:func:`coords_in_order_basis` solves for coordinates with the basis's
:class:`exact.SpanSolve`, the coordinate solve that the Hermitian-matrix
basis uses as well.  :func:`product_table` is the one table builder of
both realizations: the structure constants of every order basis come
from it, and :func:`closure_test` decides their integrality.

Unit loops run on doubled e-coordinates 2x, integers for a half-integral
order.  :func:`unit_loop` is the one route, cached per basis, for the 240
units here and for every catalog row: it enumerates the order's lattice
once at <x,x> <= 2, maps the vectors to doubled coordinates with
:func:`doubled_vectors`, and decides closure with the packed kernel.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import lcm
from operator import mul

from . import lattice as lat
from ._kernels import scaling_walk, unit_closure_failures
from ._record import record
from .algebras import (
    DIM,
    OCT_TABLE,
    PRODUCTS,
    AlgebraElem,
    _elem,
    basis_element,
    oct_mul,
)
from .claims import SCALING_EXPONENTS
from .exact import (
    INTEGER,
    QUAD_ZERO,
    RATIONAL,
    QuadExt,
    RingTag,
    SpanSolve,
    _quad,
    apply_map,
    integer_map,
    rational_pairs,
)

# -- pinned Dickson letters ---------------------------------------------------

LETTER_SPEC = {"i": (3, 1), "j": (2, 1), "k": (4, 1), "l": (7, -1)}


def _letter(name: str) -> AlgebraElem:
    idx, sign = LETTER_SPEC[name]
    return basis_element(idx).scale(sign)


@lru_cache(maxsize=None)
def letters() -> dict[str, AlgebraElem]:
    """The eight Dickson letters as algebra elements."""
    i, j, k, l = (_letter(n) for n in "ijkl")
    out = {
        "1": AlgebraElem.one(),
        "i": i,
        "j": j,
        "k": k,
        "l": l,
        "il": oct_mul(i, l),
        "jl": oct_mul(j, l),
        "kl": oct_mul(k, l),
    }
    return out


class SingularBasisError(ValueError):
    pass


@record
class OrderBasis:
    """An order basis b_0..b_{n-1} in e-coordinates, the one map between
    order vectors and algebra elements; its K-Gram is computed once."""

    elements: tuple[AlgebraElem, ...]
    label: str

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def __len__(self):
        return len(self.elements)

    def element(self, coords) -> AlgebraElem:
        """sum_k c_k b_k."""
        return sum((b.scale(c) for c, b in zip(coords, self.elements) if c),
                   AlgebraElem.zero())

    @cached_property
    def inner_products(self) -> tuple[tuple[QuadExt, ...], ...]:
        """The K-valued Gram <b_i, b_j>."""
        return tuple(tuple(bi.inner(bj) for bj in self.elements) for bi in self.elements)

    @cached_property
    def lattice(self) -> lat.LatticeZ:
        """The lattice of the integral Gram <b_i, b_j>, labelled as the basis;
        ArithmeticError if the Gram is not integral."""
        rows = []
        for row in self.inner_products:
            if not all(RingTag.Z.contains(v) for v in row):
                raise ArithmeticError("order Gram must be integral")
            rows.append(tuple(v.triple[0] for v in row))
        return lat.LatticeZ.from_gram(rows, label=self.label)

    @cached_property
    def span(self) -> SpanSolve:
        """The coordinate solve of the basis, B its e-coordinate rows.  As
        <e_i, e_j> = 2 delta_ij, B B^T is G/2 for the Gram G, so the solve
        map P = B^T (B B^T)^-1 is 2 B^T G^-1, and B^-1 at full rank."""
        try:
            return SpanSolve(((b._p, b._d) for b in self.elements), self.label)
        except ArithmeticError as exc:
            raise SingularBasisError("order basis is singular") from exc


@lru_cache(maxsize=None)
def cd_basis() -> OrderBasis:
    lt = letters()
    half = Fraction(1, 2)
    h = (lt["i"] + lt["j"] + lt["k"] + lt["l"]).scale(half)
    els = (
        AlgebraElem.one(),
        lt["i"],
        lt["j"],
        lt["k"],
        h,
        oct_mul(lt["i"], h),
        oct_mul(lt["j"], h),
        oct_mul(lt["k"], h),
    )
    return OrderBasis(els, "coxeter-dickson")


@lru_cache(maxsize=None)
def e_basis() -> OrderBasis:
    """The basis e_0..e_7 itself, whose solve map is the identity."""
    return OrderBasis(tuple(basis_element(k) for k in range(DIM)), "e-basis")


def cd_gram() -> tuple[tuple[int, ...], ...]:
    """The integral Gram <b_i, b_j> (an even unimodular E8 Gram)."""
    return cd_lattice().gram


def cd_lattice() -> lat.LatticeZ:
    """The order lattice of :func:`cd_basis`."""
    return cd_basis().lattice


# -- the 240 units ------------------------------------------------------------

#: letter quadruples of the half-unit families
HALF_UNIT_ROWS = (
    ("1", "j", "k", "il"),
    ("i", "l", "jl", "kl"),
    ("1", "k", "i", "jl"),
    ("j", "l", "kl", "il"),
    ("1", "i", "j", "kl"),
    ("k", "l", "il", "jl"),
    ("1", "il", "jl", "kl"),
    ("i", "j", "k", "l"),
    ("1", "i", "l", "il"),
    ("j", "k", "jl", "kl"),
    ("1", "j", "l", "jl"),
    ("k", "i", "kl", "il"),
    ("1", "k", "l", "kl"),
    ("i", "j", "il", "jl"),
)


def unit_shapes() -> list[tuple[int, ...]]:
    """The 240 catalogued unit shapes as doubled e-coordinates 2x: the 16
    signed letters and the fourteen half-sum families of 16 sign patterns
    each (every letter is a signed basis vector, so a doubled half sum is
    the signed sum of its letters' coordinates)."""
    lt = {name: _doubled(x) for name, x in letters().items()}
    out = []
    for name in ("1", "i", "j", "k", "l", "il", "jl", "kl"):
        out.append(lt[name])
        out.append(tuple(-v for v in lt[name]))
    for row in HALF_UNIT_ROWS:
        cols = list(zip(*(lt[n] for n in row)))
        for signs in iter_product((1, -1), repeat=4):
            out.append(tuple(sum(map(mul, signs, col)) // 2 for col in cols))
    return out


@record
class Units240Report:
    count: int
    shape_count: int
    shapes_all_present: bool
    closure_failures: int
    norm_failures: int
    inverses_present: bool


def _doubled(x: AlgebraElem) -> tuple[int, ...]:
    """The integer e-coordinates of 2x, for x with half-integral rational
    coordinates."""
    if x._d > 2 or any(b for _, b in x._p):
        raise ArithmeticError("element has a non half-integral coordinate")
    return tuple(a * (2 // x._d) for a, _ in x._p)


def doubled_vectors(basis: OrderBasis, found) -> list[tuple[int, ...]]:
    """The doubled e-coordinates 2x = v (2B) of the order vectors v of
    ``found`` (pairs (v, norm), as ``lat.short_vectors`` gives them),
    sorted; ArithmeticError for a basis that is not half-integral."""
    cols = list(zip(*(_doubled(b) for b in basis)))
    return sorted(tuple(sum(map(mul, coords, col)) for col in cols) for coords, _ in found)


@record
class UnitLoop:
    """The unit loop of one order: its enumerated vectors with <x,x> <= 2,
    their doubled e-coordinates, and their pairwise closure from the
    packed kernel."""

    found: tuple
    vecs2: tuple[tuple[int, ...], ...]
    closure_failures: int
    norm_failures: int
    inverses_present: bool


@lru_cache(maxsize=None)
def unit_loop(basis: OrderBasis) -> UnitLoop:
    """Enumerate the nonzero vectors of ``basis.lattice`` with <x,x> <= 2
    once, map them to doubled e-coordinates with :func:`doubled_vectors`,
    and decide closure under the octonion product: all len(vecs2)^2
    products through :func:`_kernels.unit_closure_failures` with
    ``OCT_TABLE``, and the presence of each conjugate."""
    found = tuple(lat.short_vectors(basis.lattice, 2))
    vecs2 = tuple(doubled_vectors(basis, found))
    bad_member, bad_norm = unit_closure_failures(vecs2, OCT_TABLE.idx, OCT_TABLE.sgn)
    vec_set = set(vecs2)
    return UnitLoop(
        found=found,
        vecs2=vecs2,
        closure_failures=bad_member,
        norm_failures=bad_norm,
        inverses_present=all((v[0],) + tuple(-c for c in v[1:]) in vec_set
                             for v in vecs2),
    )


@lru_cache(maxsize=None)
def units240() -> tuple[tuple[AlgebraElem, ...], Units240Report]:
    """Enumerate the norm-one elements of the order and certify the loop.

    Asserting machinery lives in the reports: the enumeration count, the
    presence of every catalogued shape, closure of all 240^2 products, and
    the presence of the inverse conj(x)/n(x) of every unit.  All of it runs
    on the doubled e-coordinates 2x = v (2B), integers for an order vector
    v, that :func:`unit_loop` gives; the algebra elements are built once,
    at the end.
    """
    loop = unit_loop(cd_basis())  # <x,x> = 2 <=> n(x) = 1
    vecs2 = loop.vecs2
    shapes = unit_shapes()

    report = Units240Report(
        count=len(vecs2),
        shape_count=len(shapes),
        shapes_all_present=set(vecs2).issuperset(shapes),
        closure_failures=loop.closure_failures,
        norm_failures=loop.norm_failures,
        inverses_present=loop.inverses_present,
    )
    elements = tuple(_elem([(c, 0) for c in v], 2) for v in vecs2)
    return elements, report


# -- structure constants ------------------------------------------------------

@record
class StructureConstants:
    c: tuple  # c[i][j][k] QuadExt with b_i o b_j = sum_k c[i][j][k] b_k

    def all_entries(self):
        for i, plane in enumerate(self.c):
            for j, row in enumerate(plane):
                for k, v in enumerate(row):
                    yield i, j, k, v

    @cached_property
    def valuation_constraints(self) -> tuple[tuple[int, int, int, int], ...] | None:
        """(i, j, k, v) with a_i + a_j - a_k >= v needed for R-integrality
        of the constants scaled by u_i = 2^{a_i} b_i, largest v first;
        derived once per object.

        None when some constant has an odd denominator factor, which no
        2-adic scaling can clear.
        """
        cons = []
        for i, j, k, v in self.all_entries():
            if not v:
                continue
            d = v.triple[2]  # the lcm of the denominators of both parts
            if d & (d - 1):
                return None
            if d > 1:
                cons.append((i, j, k, d.bit_length() - 1))
        cons.sort(key=lambda t: -t[3])
        return tuple(cons)


def coords_in_order_basis(x: AlgebraElem, basis: OrderBasis) -> tuple[QuadExt, ...]:
    """Exact K-coordinates of x over the given order basis, by the basis's
    :attr:`OrderBasis.span`; below rank 8, ArithmeticError when x lies
    outside the K-span of the basis."""
    return basis.span.coordinates(x._p, x._d)


def product_table(mul, basis, coordinates) -> tuple:
    """The table c[i][j][k] with b_i o b_j = sum_k c[i][j][k] b_k for the
    product ``mul``, each of the n^2 products solved by ``coordinates``:
    the one table builder, for the order bases and for the matrix basis."""
    return tuple(tuple(coordinates(mul(bi, bj)) for bj in basis) for bi in basis)


@lru_cache(maxsize=None)
def structure_constants(product: str, basis: OrderBasis | None = None) -> StructureConstants:
    """Exact structure constants of one product over an order basis, from
    :func:`product_table` and :func:`coords_in_order_basis`; the default
    is the Coxeter-Dickson basis, and it returns the cached table of
    ``cd_basis()``, so both spellings make one solve.

    The reconstruction identity b_i o b_j = sum_k c_ij^k b_k holds exactly:
    by construction of the solve at rank 8, and by the solve's own rebuild
    below it, where a product outside the span raises ArithmeticError.
    The test suite re-verifies it.
    """
    if basis is None:
        return structure_constants(product, cd_basis())
    c = product_table(PRODUCTS[product], basis,
                      lambda x: coords_in_order_basis(x, basis))
    return StructureConstants(c)


def dump_structure_constants(constants: StructureConstants) -> str:
    """Plain text dump: lines ``i j k a/b c/d`` for the coefficient
    a/b + (c/d) sqrt(3) of basis k in the product of i and j."""
    lines = []
    for i, j, k, v in constants.all_entries():
        lines.append(
            f"{i} {j} {k} "
            f"{v.rat.numerator}/{v.rat.denominator} "
            f"{v.irr.numerator}/{v.irr.denominator}"
        )
    return "\n".join(lines) + "\n"


#: one dump entry: three indices and two numbers, single-space separated;
#: the groups are i, j, k and each number's numerator and denominator
_DUMP_ENTRY = re.compile(rf"({INTEGER}) ({INTEGER}) ({INTEGER}) {RATIONAL} {RATIONAL}")
#: the shape of a dump line, any two fields for the numbers: what a line
#: that is no entry is checked against, to say what is wrong with it; only
#: that path compiles it
_DUMP_LINE = rf"({INTEGER}) ({INTEGER}) ({INTEGER}) (\S+) (\S+)"


def parse_structure_constants(text: str) -> StructureConstants:
    """Exact inverse of :func:`dump_structure_constants`, as the constants
    of product ``parsed`` over basis ``parsed``.

    Each line is ``i j k x y`` with single spaces, the numbers integers or
    ``a/b`` (see :func:`exact.rational_pairs`); x + y*sqrt(3) is built from
    those integers.  Every index triple in ``0..7`` must appear exactly
    once, with nonzero denominators; anything else raises ValueError.

    A good line costs one match of ``_DUMP_ENTRY`` and its ``int()``
    calls.  Any other line is read again against the looser ``_DUMP_LINE``
    to name its first fault: the shape, an index longer than ``int()``
    reads or out of range, a duplicate, then the two numbers in order,
    read by :func:`exact.rational_pairs`.  A field that is too long is
    named by line number and position, and not quoted in full.
    """
    c = [[[QUAD_ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        m = _DUMP_ENTRY.fullmatch(line)
        if m is not None:
            try:
                i, j, k, a, b, e, d = map(int, m.groups("1"))
            except ValueError:  # a field past the int-to-str digit limit
                pass
            else:
                key = (i, j, k)
                if (0 <= i < DIM and 0 <= j < DIM and 0 <= k < DIM
                        and b and d and key not in seen):
                    c[i][j][k] = _quad(a * d, e * b, b * d)  # a/b + (e/d) sqrt(3)
                    seen.add(key)
                    continue
        m = re.fullmatch(_DUMP_LINE, line)
        if m is None:
            raise ValueError(f"bad structure-constant line: {line!r}")
        try:
            i, j, k = key = tuple(v for v, _ in rational_pairs(m.groups()[:3]))
        except OverflowError as exc:
            raise ValueError(f"structure-constant line {lineno}, index {exc.index + 1} "
                             f"has {exc}") from None
        if not all(0 <= v < DIM for v in key):
            raise ValueError(f"index out of range 0..{DIM - 1}: {line!r}")
        if key in seen:
            raise ValueError(f"duplicate entry {i} {j} {k}: {line!r}")
        try:
            rational_pairs(m.groups()[3:])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {line!r}") from None
        except OverflowError as exc:
            raise ValueError(f"structure-constant line {lineno}, number {exc.index + 1} "
                             f"has {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{exc}: {line!r}") from None
    if len(seen) != DIM ** 3:
        raise ValueError(f"expected {DIM ** 3} entries, got {len(seen)}")
    return StructureConstants(tuple(tuple(tuple(row) for row in plane) for plane in c))


# -- integrality tests --------------------------------------------------------


@record
class IntegralSystemReport:
    """Closure and trace/norm integrality relative to a reference idempotent."""

    violations: tuple  # (i, j, k, coefficient)
    trace_norm_ok: bool


def closure_test(constants: StructureConstants, ring: RingTag,
                 basis: OrderBasis | None = None) -> IntegralSystemReport:
    """pass iff every structure constant lies in the ring; the trace and
    norm of the basis elements (relative to the unit reference idempotent)
    must lie in the ring as well."""
    if basis is None:
        basis = cd_basis()
    violations = tuple(
        (i, j, k, v)
        for i, j, k, v in constants.all_entries()
        if v and not ring.contains(v)
    )
    tn_ok = all(ring.contains(b.trace()) and ring.contains(b.norm()) for b in basis)
    return IntegralSystemReport(violations=violations, trace_norm_ok=tn_ok)


def product_traces(constants: StructureConstants,
                   basis: OrderBasis) -> tuple[QuadExt, ...]:
    """tr(b_i o b_j) for all i, j in row-major order, read from the
    constants over ``basis``: the trace is K-linear, so tr(b_i o b_j) =
    sum_k c_ij^k tr(b_k), one 1 x 8 map applied to each row of constants
    over the lcm of its denominators."""
    cols, den = integer_map([[b.trace()] for b in basis])
    out = []
    for plane in constants.c:
        for row in plane:
            triples = [v.triple for v in row]
            d = lcm(*(e for _, _, e in triples))
            pairs = [(a * (d // e), b * (d // e)) for a, b, e in triples]
            (a, b), = apply_map(cols, pairs, 1)
            out.append(_quad(a, b, den * d))
    return tuple(out)


# -- diagonal 2-adic scaling --------------------------------------------------


#: the largest exponent the scaling search tries: the certified minimum
#: (1,1,1,1,2,2,2,2) lies inside the box {0..3}^8, below its upper face
SCALING_MAX_EXP = 3


@record
class ScalingSearchResult:
    feasible_count: int
    minimal: tuple[tuple[int, ...], ...]  # exponent vectors, sorted


def scaling_feasible(constants: StructureConstants, exponents) -> bool:
    """Whether u_i = 2^{a_i} b_i yields Z[sqrt3]-integral scaled constants."""
    cons = constants.valuation_constraints
    return cons is not None and all(
        exponents[i] + exponents[j] - exponents[k] >= v for i, j, k, v in cons)


def scaling_search(constants: StructureConstants) -> ScalingSearchResult:
    """Decide every exponent vector in {0..SCALING_MAX_EXP}^8 and return
    the feasible count and the componentwise-minimal feasible vectors.

    The search is exhaustive: :func:`_kernels.scaling_walk` checks each
    valuation constraint once per exponent prefix, and counts a subtree
    that no constraint reaches without walking it.
    """
    cons = constants.valuation_constraints
    if cons is None:
        return ScalingSearchResult(feasible_count=0, minimal=())
    feasible_count, minimal = scaling_walk(cons, DIM, SCALING_MAX_EXP)
    return ScalingSearchResult(feasible_count=feasible_count, minimal=tuple(minimal))


@lru_cache(maxsize=None)
def scaled_basis() -> OrderBasis:
    """u_i = 2^{a_i} b_i, with a the minimal exponents that
    ``check_scaling_search`` certifies."""
    return OrderBasis(
        tuple(b.scale(2 ** a) for b, a in zip(cd_basis(), SCALING_EXPONENTS)), "scaled")


@record
class ScaledOrderReport:
    violations: tuple
    all_integral: bool


def scaled_order_verify() -> ScaledOrderReport:
    """Verify closure and integrality of the scaled basis over Z[sqrt3].

    :func:`closure_test` checks all 512 Okubo constants over the scaled
    basis, the relative trace <u_i, 1> and the norm n(u_i); this adds the
    Gram <u_i, u_j> and the traces <u_i * u_j, 1>, read from the constants.
    """
    u = scaled_basis()
    ring = RingTag.ZSQRT3
    constants = structure_constants("okubo", u)
    closure = closure_test(constants, ring, u)
    inners = tuple(v for row in u.inner_products for v in row)
    prod_traces = product_traces(constants, u)
    return ScaledOrderReport(
        violations=closure.violations,
        all_integral=closure.trace_norm_ok
        and all(ring.contains(v) for v in inners + prod_traces),
    )


@lru_cache(maxsize=None)
def conductor_lattice() -> lat.LatticeZ:
    """The direct metric shadow: the Z-span of the scaled basis, i.e. the
    conductor sublattice D * (order lattice) in order coordinates, with
    D = diag(2^{a_i}); its Gram is D G D for G that of :func:`cd_lattice`."""
    rows = [
        [2 ** SCALING_EXPONENTS[i] if i == j else 0 for j in range(DIM)]
        for i in range(DIM)
    ]
    return lat.LatticeZ.from_rows(rows, cd_gram(), label="okubo-conductor")


@lru_cache(maxsize=None)
def conductor_inclusion() -> tuple[tuple[int, ...], ...]:
    """The integer matrix X with (conductor basis) = X * (order basis): the
    inclusion of :func:`conductor_lattice` in :func:`cd_lattice`, solved
    once per run for the conductor invariants and the gluing."""
    return tuple(map(tuple, lat._inclusion_matrix(conductor_lattice(), cd_lattice())))


def denominator_profile(constants: StructureConstants) -> dict[int, int]:
    """Histogram of structure-constant denominators (lcm of the rational
    and irrational coordinate denominators)."""
    hist: dict[int, int] = {}
    for _i, _j, _k, v in constants.all_entries():
        d = v.triple[2]
        hist[d] = hist.get(d, 0) + 1
    return hist
