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

Every order vector goes through :class:`OrderBasis`: ``element`` maps
coordinates to an algebra element, ``gram`` gives the integral Gram, and
:func:`coords_in_order_basis` is the one coordinate solve, for this basis,
its saturated and scaled variants and the catalog orders alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product

from . import lattice as lat
from ._kernels import scaling_walk, unit_closure_failures
from .algebras import (
    DIM,
    OCT_TABLE,
    PRODUCTS,
    AlgebraElem,
    _elem,
    basis_element,
    oct_mul,
    okubo_mul,
)
from .claims import SCALING_DIAGONAL
from .exact import QUAD_ZERO, QuadExt, RingTag, parse_rational

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


@dataclass(frozen=True)
class OrderBasis:
    """An order basis b_0..b_{n-1} in the e-coordinates, and the one map
    between order vectors and algebra elements."""

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

    def inner_products(self) -> tuple[tuple[QuadExt, ...], ...]:
        """The K-valued Gram <b_i, b_j>."""
        return tuple(tuple(bi.inner(bj) for bj in self.elements) for bi in self.elements)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The integral Gram <b_i, b_j>; ArithmeticError if it is not."""
        rows = []
        for row in self.inner_products():
            if not all(RingTag.Z.contains(v) for v in row):
                raise ArithmeticError("order Gram must be integral")
            rows.append(tuple(v.triple[0] for v in row))
        return tuple(rows)

    @cached_property
    def solve_matrix(self) -> tuple[tuple[QuadExt, ...], ...]:
        """P = 2 B^T G^-1, with B the e-coordinate rows and G the Gram.

        x P are the coordinates of x over the basis when x lies in its
        K-span, and of the orthogonal projection of x onto that span
        otherwise; for a full-rank basis P is B^-1.
        """
        try:
            ginv = lat.mat_inv(self.inner_products())
        except lat.LatticeError as exc:
            raise SingularBasisError("order basis is singular") from exc
        n = len(self.elements)
        coords = [b.coords for b in self.elements]
        return tuple(
            tuple(
                2 * sum((c[m] * ginv[j][k] for j, c in enumerate(coords) if c[m]),
                        QUAD_ZERO)
                for k in range(n)
            )
            for m in range(DIM)
        )


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
def cd_gram() -> tuple[tuple[int, ...], ...]:
    """The integral Gram <b_i, b_j> (an even unimodular E8 Gram)."""
    return cd_basis().gram()


def cd_lattice() -> lat.LatticeZ:
    return lat.LatticeZ.from_gram(cd_gram(), label="cd-order")


@dataclass(frozen=True)
class FormulaComparison:
    """Diff of the computed trace/norm polynomials against claimed ones."""

    trace_computed: tuple
    trace_matches: bool
    norm_mismatches: tuple


def cd_basis_and_gram():
    """Basis, Gram, and the formula comparison record.

    The Gram is certified even unimodular; the trace and norm polynomial
    coefficients are compared against the claimed patterns and mismatches
    are recorded (not corrected).
    """
    from .claims import NORM_CROSS_TERMS, TRACE_PATTERN

    basis = cd_basis()
    gram = cd_gram()
    trace_computed = tuple(b.trace() for b in basis)
    trace_expected = tuple(QuadExt(v) for v in TRACE_PATTERN)
    mismatches = []
    for i in range(DIM):
        for j in range(i + 1, DIM):
            coeff = gram[i][j]  # coefficient of a_i a_j in n(x)
            if coeff != NORM_CROSS_TERMS.get((i, j), 0):
                mismatches.append(((i, j), coeff, NORM_CROSS_TERMS.get((i, j), 0)))
    return basis, gram, FormulaComparison(
        trace_computed=trace_computed,
        trace_matches=trace_computed == trace_expected,
        norm_mismatches=tuple(mismatches),
    )


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


def unit_shapes() -> list[AlgebraElem]:
    """The 240 catalogued unit shapes: the 16 signed letters and the
    fourteen half-sum families of 16 sign patterns each."""
    lt = letters()
    half = Fraction(1, 2)
    out = []
    for name in ("1", "i", "j", "k", "l", "il", "jl", "kl"):
        out.append(lt[name])
        out.append(-lt[name])
    for row in HALF_UNIT_ROWS:
        base = [lt[n] for n in row]
        for signs in iter_product((1, -1), repeat=4):
            acc = AlgebraElem.zero()
            for s, el in zip(signs, base):
                acc = acc + (el if s == 1 else -el)
            out.append(acc.scale(half))
    return out


@dataclass(frozen=True)
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


@lru_cache(maxsize=None)
def cd_short_vectors() -> tuple:
    """The nonzero vectors of the order with <x,x> <= 2, as
    ``lat.short_vectors`` gives them, enumerated once: units240 takes the
    units from them, and the catalog's Coxeter-Dickson row its minimum and
    kissing number."""
    return tuple(lat.short_vectors(cd_lattice(), 2))


@lru_cache(maxsize=None)
def units240() -> tuple[tuple[AlgebraElem, ...], Units240Report]:
    """Enumerate the norm-one elements of the order and certify the loop.

    Asserting machinery lives in the reports: the enumeration count, the
    presence of every catalogued shape, closure of all 240^2 products, and
    the presence of the inverse conj(x)/n(x) of every unit.  All of it runs
    on the doubled e-coordinates 2x = v (2B), integers for an order vector
    v; the algebra elements are built once, at the end.
    """
    twice_b = [_doubled(b) for b in cd_basis()]
    found = cd_short_vectors()  # <x,x> = 2 <=> n(x) = 1
    vecs2 = sorted(
        tuple(sum(c * row[m] for c, row in zip(coords, twice_b) if c)
              for m in range(DIM))
        for coords, _ in found
    )
    vec_set = set(vecs2)
    shapes = unit_shapes()
    shapes_present = all(_doubled(s) in vec_set for s in shapes)
    bad_member, bad_norm = unit_closure_failures(vecs2, OCT_TABLE.idx, OCT_TABLE.sgn)
    inverses = all((v[0],) + tuple(-c for c in v[1:]) in vec_set for v in vecs2)

    report = Units240Report(
        count=len(vecs2),
        shape_count=len(shapes),
        shapes_all_present=shapes_present,
        closure_failures=bad_member,
        norm_failures=bad_norm,
        inverses_present=inverses,
    )
    elements = tuple(_elem([(c, 0) for c in v], 2) for v in vecs2)
    return elements, report


# -- structure constants ------------------------------------------------------

@dataclass(frozen=True)
class StructureConstants:
    product: str
    basis_label: str
    c: tuple  # c[i][j][k] QuadExt with b_i o b_j = sum_k c[i][j][k] b_k

    def all_entries(self):
        for i in range(DIM):
            for j in range(DIM):
                for k in range(DIM):
                    yield i, j, k, self.c[i][j][k]

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
    """Exact K-coordinates of x over the given order basis: x P with P the
    basis's solve matrix (see :attr:`OrderBasis.solve_matrix`)."""
    p = basis.solve_matrix
    xc = x.coords
    return tuple(
        sum((cm * row[k] for cm, row in zip(xc, p) if cm), QUAD_ZERO)
        for k in range(len(basis))
    )


@lru_cache(maxsize=None)
def structure_constants(product: str, basis: OrderBasis | None = None) -> StructureConstants:
    """Exact structure constants of one product over an order basis.

    The reconstruction identity b_i o b_j = sum_k c_ij^k b_k holds exactly
    by construction of the solve; the test suite re-verifies it.
    """
    if basis is None:
        basis = cd_basis()
    mul = PRODUCTS[product]
    c = tuple(
        tuple(coords_in_order_basis(mul(bi, bj), basis) for bj in basis)
        for bi in basis
    )
    return StructureConstants(product=product, basis_label=basis.label, c=c)


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


#: one dump line: three indices and two numbers, single-space separated
_DUMP_LINE = re.compile(r"([+-]?[0-9]+) ([+-]?[0-9]+) ([+-]?[0-9]+) (\S+) (\S+)")


def parse_structure_constants(text: str, product: str = "parsed",
                              basis_label: str = "parsed") -> StructureConstants:
    """Exact inverse of :func:`dump_structure_constants`.

    Each line is ``i j k x y`` with single spaces, the numbers integers or
    ``a/b`` (see :func:`exact.parse_rational`).  Every index triple in
    ``0..7`` must appear exactly once, with nonzero denominators; anything
    else raises ValueError.
    """
    c = [[[QUAD_ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    seen = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        m = _DUMP_LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"bad structure-constant line: {line!r}")
        i, j, k = key = tuple(int(p) for p in m.groups()[:3])
        if not all(0 <= v < DIM for v in key):
            raise ValueError(f"index out of range 0..{DIM - 1}: {line!r}")
        if key in seen:
            raise ValueError(f"duplicate entry {i} {j} {k}: {line!r}")
        try:
            rat = parse_rational(m[4])
            irr = parse_rational(m[5])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {line!r}") from None
        except ValueError as exc:
            raise ValueError(f"{exc}: {line!r}") from None
        c[i][j][k] = QuadExt(rat, irr)
        seen.add(key)
    if len(seen) != DIM ** 3:
        raise ValueError(f"expected {DIM ** 3} entries, got {len(seen)}")
    return StructureConstants(
        product=product,
        basis_label=basis_label,
        c=tuple(tuple(tuple(row) for row in plane) for plane in c),
    )


# -- integrality tests --------------------------------------------------------


@dataclass(frozen=True)
class IntegralSystemReport:
    """Closure and trace/norm integrality relative to a reference idempotent."""

    product: str
    violations: tuple  # (i, j, k, coefficient)
    norm_values: tuple
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
    traces = tuple(b.trace() for b in basis)
    norms = tuple(b.norm() for b in basis)
    tn_ok = all(ring.contains(t) for t in traces) and all(
        ring.contains(n) for n in norms
    )
    return IntegralSystemReport(
        product=constants.product,
        violations=violations,
        norm_values=norms,
        trace_norm_ok=tn_ok,
    )


# -- diagonal 2-adic scaling --------------------------------------------------


@dataclass(frozen=True)
class ScalingVector:
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class ScalingSearchResult:
    feasible_count: int
    minimal: tuple[ScalingVector, ...]


def scaling_feasible(constants: StructureConstants, exponents) -> bool:
    """Whether u_i = 2^{a_i} b_i yields Z[sqrt3]-integral scaled constants."""
    cons = constants.valuation_constraints
    return cons is not None and all(
        exponents[i] + exponents[j] - exponents[k] >= v for i, j, k, v in cons)


def scaling_search(constants: StructureConstants, max_exp: int) -> ScalingSearchResult:
    """Decide every exponent vector in {0..max_exp}^8 and return the
    feasible count and the componentwise-minimal feasible vectors.

    The search is exhaustive: :func:`_kernels.scaling_walk` checks each
    valuation constraint once per exponent prefix, and counts a subtree
    that no constraint reaches without walking it.
    """
    if max_exp < 2:
        raise ValueError("max_exp must be at least 2")
    cons = constants.valuation_constraints
    if cons is None:
        return ScalingSearchResult(feasible_count=0, minimal=())
    feasible_count, minimal = scaling_walk(cons, DIM, max_exp)
    return ScalingSearchResult(
        feasible_count=feasible_count,
        minimal=tuple(ScalingVector(m) for m in minimal),
    )


@lru_cache(maxsize=None)
def scaled_basis() -> OrderBasis:
    """u_i = D_i b_i with D = diag(2,2,2,2,4,4,4,4)."""
    return OrderBasis(
        tuple(b.scale(d) for b, d in zip(cd_basis(), SCALING_DIAGONAL)), "scaled")


def scaled_constants(constants: StructureConstants, diagonal=SCALING_DIAGONAL):
    """m_ij^k = (D_i D_j / D_k) c_ij^k."""
    out = []
    for i in range(DIM):
        plane = []
        for j in range(DIM):
            row = []
            for k in range(DIM):
                factor = Fraction(diagonal[i] * diagonal[j], diagonal[k])
                row.append(constants.c[i][j][k] * factor)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


@dataclass(frozen=True)
class ScaledOrderReport:
    violations: tuple
    norm_values: tuple
    inner_values: tuple
    all_integral: bool


def scaled_order_verify(exponents=(1, 1, 1, 1, 2, 2, 2, 2)) -> ScaledOrderReport:
    """Verify closure and integrality of the scaled basis over Z[sqrt3].

    Checks all 512 scaled constants, and the relative trace <u_i, 1>, the
    norm n(u_i), the Gram <u_i, u_j>, and the traces <u_i * u_j, 1>.
    """
    diagonal = tuple(2 ** a for a in exponents)
    constants = structure_constants("okubo")
    scaled = scaled_constants(constants, diagonal)
    ring = RingTag.ZSQRT3
    violations = tuple(
        (i, j, k, scaled[i][j][k])
        for i in range(DIM)
        for j in range(DIM)
        for k in range(DIM)
        if scaled[i][j][k] and not ring.contains(scaled[i][j][k])
    )
    basis = cd_basis()
    u = tuple(b.scale(d) for b, d in zip(basis.elements, diagonal))
    one = AlgebraElem.one()
    traces = tuple(x.inner(one) for x in u)
    norms = tuple(x.norm() for x in u)
    inners = tuple(u[i].inner(u[j]) for i in range(DIM) for j in range(DIM))
    prod_traces = tuple(
        okubo_mul(u[i], u[j]).inner(one) for i in range(DIM) for j in range(DIM)
    )
    all_integral = all(
        ring.contains(v) for v in traces + norms + inners + prod_traces
    )
    return ScaledOrderReport(
        violations=violations,
        norm_values=norms,
        inner_values=inners,
        all_integral=all_integral,
    )


def conductor_lattice() -> lat.LatticeZ:
    """The direct metric shadow: the Z-span of the scaled basis, i.e. the
    conductor sublattice D * (order lattice) in order coordinates."""
    rows = [
        [SCALING_DIAGONAL[i] if i == j else 0 for j in range(DIM)]
        for i in range(DIM)
    ]
    return lat.LatticeZ.from_rows(rows, cd_gram(), label="okubo-conductor")


def u_gram_quadext() -> tuple[tuple[QuadExt, ...], ...]:
    """K-valued Gram <u_i, u_j> of the scaled basis (used by the rank-16
    restriction-of-scalars lattice)."""
    return scaled_basis().inner_products()


def denominator_profile(constants: StructureConstants) -> dict[int, int]:
    """Histogram of structure-constant denominators (lcm of the rational
    and irrational coordinate denominators)."""
    hist: dict[int, int] = {}
    for _i, _j, _k, v in constants.all_entries():
        d = v.triple[2]
        hist[d] = hist.get(d, 0) + 1
    return hist
