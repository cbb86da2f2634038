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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

from . import lattice as lat
from ._kernels import unit_closure_failures
from .algebras import (
    DIM,
    OCT_TABLE,
    PRODUCTS,
    AlgebraElem,
    basis_element,
    oct_mul,
    okubo_mul,
)
from .claims import SCALING_DIAGONAL
from .exact import QUAD_ZERO, QuadExt, RingTag, quad_denominator, two_adic_denominator

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


@dataclass(frozen=True)
class OrderBasis:
    elements: tuple[AlgebraElem, ...]
    label: str

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, k):
        return self.elements[k]

    def coordinate_matrix(self):
        """Rational e-coordinates of the basis (rows)."""
        rows = []
        for el in self.elements:
            row = []
            for c in el.coords:
                if c.irr != 0:
                    raise ValueError("order basis must have rational coordinates")
                row.append(c.rat)
            rows.append(row)
        return rows


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
    b = cd_basis()
    rows = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            v = b[i].inner(b[j])
            if v.irr != 0 or v.rat.denominator != 1:
                raise ArithmeticError("order Gram must be integral")
            row.append(int(v.rat))
        rows.append(tuple(row))
    return tuple(rows)


def cd_lattice() -> lat.LatticeZ:
    return lat.LatticeZ.from_gram(cd_gram(), label="cd-order")


@dataclass(frozen=True)
class FormulaComparison:
    """Diff of the computed trace/norm polynomials against claimed ones."""

    trace_computed: tuple
    trace_matches: bool
    norm_cross_computed: dict
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
    cross = {}
    mismatches = []
    for i in range(DIM):
        for j in range(i + 1, DIM):
            coeff = gram[i][j]  # coefficient of a_i a_j in n(x)
            cross[(i, j)] = coeff
            if coeff != NORM_CROSS_TERMS.get((i, j), 0):
                mismatches.append(((i, j), coeff, NORM_CROSS_TERMS.get((i, j), 0)))
    return basis, gram, FormulaComparison(
        trace_computed=trace_computed,
        trace_matches=trace_computed == trace_expected,
        norm_cross_computed=cross,
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


@lru_cache(maxsize=None)
def units240() -> tuple[tuple[AlgebraElem, ...], Units240Report]:
    """Enumerate the norm-one elements of the order and certify the loop.

    Asserting machinery lives in the reports: the enumeration count, the
    presence of every catalogued shape, closure of all 240^2 products, and
    the presence of the inverse conj(x)/n(x) of every unit.
    """
    basis = cd_basis()
    found = lat.short_vectors(cd_lattice(), 2)  # <x,x> = 2 <=> n(x) = 1
    elements = []
    for coords, _ in found:
        acc = AlgebraElem.zero()
        for c, b in zip(coords, basis):
            if c:
                acc = acc + b.scale(c)
        elements.append(acc)
    elements = tuple(sorted(elements, key=lambda e: tuple(
        (c.rat, c.irr) for c in e.coords)))

    shapes = unit_shapes()
    elem_set = set(elements)
    shapes_present = all(s in elem_set for s in shapes)

    vecs2 = []
    for el in elements:
        row = []
        for c in el.coords:
            v = 2 * c.rat
            if c.irr != 0 or v.denominator != 1:
                raise ArithmeticError("unit has a non half-integral coordinate")
            row.append(int(v))
        vecs2.append(tuple(row))
    bad_member, bad_norm = unit_closure_failures(vecs2, OCT_TABLE.idx, OCT_TABLE.sgn)

    inverses = all(el.conjugate() in elem_set for el in elements)

    report = Units240Report(
        count=len(elements),
        shape_count=len(shapes),
        shapes_all_present=shapes_present,
        closure_failures=bad_member,
        norm_failures=bad_norm,
        inverses_present=inverses,
    )
    return elements, report


# -- structure constants ------------------------------------------------------

@dataclass(frozen=True)
class StructureConstants:
    product: str
    basis_label: str
    c: tuple  # c[i][j][k] QuadExt with b_i o b_j = sum_k c[i][j][k] b_k

    def coefficient(self, i: int, j: int, k: int) -> QuadExt:
        return self.c[i][j][k]

    def all_entries(self):
        for i in range(DIM):
            for j in range(DIM):
                for k in range(DIM):
                    yield i, j, k, self.c[i][j][k]


class SingularBasisError(ValueError):
    pass


@lru_cache(maxsize=None)
def _basis_inverse(basis: OrderBasis) -> tuple[tuple[Fraction, ...], ...]:
    rows = basis.coordinate_matrix()
    try:
        return tuple(tuple(row) for row in lat.mat_inv(rows))
    except lat.LatticeError as exc:
        raise SingularBasisError("order basis is singular") from exc


def coords_in_order_basis(x: AlgebraElem, basis: OrderBasis) -> tuple[QuadExt, ...]:
    """Exact K-coordinates of x over the given order basis."""
    binv = _basis_inverse(basis)
    out = []
    for k in range(DIM):
        acc = QUAD_ZERO
        for m in range(DIM):
            cm = x.coords[m]
            if cm:
                acc = acc + cm * binv[m][k]
        out.append(acc)
    return tuple(out)


@lru_cache(maxsize=None)
def structure_constants(product: str, basis: OrderBasis | None = None) -> StructureConstants:
    """Exact structure constants of one product over an order basis.

    The reconstruction identity b_i o b_j = sum_k c_ij^k b_k holds exactly
    by construction of the solve; the test suite re-verifies it.
    """
    if basis is None:
        basis = cd_basis()
    mul = PRODUCTS[product]
    binv = _basis_inverse(basis)
    rows = []
    for i in range(DIM):
        row = []
        for j in range(DIM):
            prod = mul(basis[i], basis[j])
            coeffs = []
            for k in range(DIM):
                acc = QUAD_ZERO
                for m in range(DIM):
                    cm = prod.coords[m]
                    if cm:
                        acc = acc + cm * binv[m][k]
                coeffs.append(acc)
            row.append(tuple(coeffs))
        rows.append(tuple(row))
    return StructureConstants(product=product, basis_label=basis.label, c=tuple(rows))


def reconstruct_product(constants: StructureConstants, basis: OrderBasis, i: int, j: int) -> AlgebraElem:
    acc = AlgebraElem.zero()
    for k in range(DIM):
        coeff = constants.c[i][j][k]
        if coeff:
            acc = acc + basis[k].scale(coeff)
    return acc


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


def parse_structure_constants(text: str, product: str = "parsed",
                              basis_label: str = "parsed") -> StructureConstants:
    """Exact inverse of :func:`dump_structure_constants`.

    Every index triple in ``0..7`` must appear exactly once, with nonzero
    denominators; anything else raises ValueError.
    """
    c = [[[QUAD_ZERO] * DIM for _ in range(DIM)] for _ in range(DIM)]
    seen = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"bad structure-constant line: {line!r}")
        i, j, k = key = tuple(int(p) for p in parts[:3])
        if not all(0 <= v < DIM for v in key):
            raise ValueError(f"index out of range 0..{DIM - 1}: {line!r}")
        if key in seen:
            raise ValueError(f"duplicate entry {i} {j} {k}: {line!r}")
        try:
            rat = Fraction(parts[3])
            irr = Fraction(parts[4])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {line!r}") from None
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
    ring: RingTag
    violations: tuple  # (i, j, k, coefficient)
    trace_values: tuple
    norm_values: tuple
    trace_norm_ok: bool

    @property
    def passed(self) -> bool:
        return not self.violations and self.trace_norm_ok


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
        ring=ring,
        violations=violations,
        trace_values=traces,
        norm_values=norms,
        trace_norm_ok=tn_ok,
    )


# -- diagonal 2-adic scaling --------------------------------------------------


@dataclass(frozen=True)
class ScalingVector:
    exponents: tuple[int, ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(2 ** a for a in self.exponents)


@dataclass(frozen=True)
class ScalingSearchResult:
    max_exp: int
    feasible_count: int
    minimal: tuple[ScalingVector, ...]


def _valuation_constraints(constants: StructureConstants):
    """(i, j, k, v) lists with a_i + a_j - a_k >= v needed for R-integrality.

    Requires all denominators to be 2-powers; a constant with an odd
    denominator factor can never be fixed by a 2-adic scaling and is
    reported as an unsatisfiable constraint.
    """
    cons = []
    for i, j, k, v in constants.all_entries():
        if not v:
            continue
        val = max(two_adic_denominator(v.rat), two_adic_denominator(v.irr))
        odd_rat = v.rat.denominator >> two_adic_denominator(v.rat)
        odd_irr = v.irr.denominator >> two_adic_denominator(v.irr)
        if odd_rat != 1 or odd_irr != 1:
            cons.append((i, j, k, None))  # unsatisfiable
        elif val > 0:
            cons.append((i, j, k, val))
    cons.sort(key=lambda t: -(t[3] or 10 ** 9))
    return cons


def scaling_feasible(constants: StructureConstants, exponents) -> bool:
    """Whether u_i = 2^{a_i} b_i yields Z[sqrt3]-integral scaled constants."""
    for i, j, k, v in _valuation_constraints(constants):
        if v is None:
            return False
        if exponents[i] + exponents[j] - exponents[k] < v:
            return False
    return True


def scaling_search(constants: StructureConstants, max_exp: int) -> ScalingSearchResult:
    """Exhaust exponent vectors in {0..max_exp}^8 and return the
    componentwise-minimal feasible ones."""
    if max_exp < 2:
        raise ValueError("max_exp must be at least 2")
    cons = _valuation_constraints(constants)
    if any(v is None for *_ijk, v in cons):
        return ScalingSearchResult(max_exp=max_exp, feasible_count=0, minimal=())
    minimal: list[tuple[int, ...]] = []
    feasible_count = 0
    for vec in iter_product(range(max_exp + 1), repeat=DIM):
        ok = True
        for i, j, k, v in cons:
            if vec[i] + vec[j] - vec[k] < v:
                ok = False
                break
        if not ok:
            continue
        feasible_count += 1
        dominated = False
        keep = []
        for m in minimal:
            if all(mv <= vv for mv, vv in zip(m, vec)):
                dominated = True
            if not all(vv <= mv for mv, vv in zip(m, vec)):
                keep.append(m)
        if not dominated:
            keep.append(vec)
            minimal = keep
    return ScalingSearchResult(
        max_exp=max_exp,
        feasible_count=feasible_count,
        minimal=tuple(ScalingVector(m) for m in sorted(minimal)),
    )


@lru_cache(maxsize=None)
def scaled_basis() -> tuple[AlgebraElem, ...]:
    """u_i = D_i b_i with D = diag(2,2,2,2,4,4,4,4)."""
    basis = cd_basis()
    return tuple(b.scale(d) for b, d in zip(basis.elements, SCALING_DIAGONAL))


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
    trace_values: tuple
    norm_values: tuple
    inner_values: tuple
    product_traces: tuple
    all_integral: bool

    @property
    def passed(self) -> bool:
        return not self.violations and self.all_integral


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
        trace_values=traces,
        norm_values=norms,
        inner_values=inners,
        product_traces=prod_traces,
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
    u = scaled_basis()
    return tuple(tuple(u[i].inner(u[j]) for j in range(DIM)) for i in range(DIM))


def denominator_profile(constants: StructureConstants) -> dict[int, int]:
    """Histogram of structure-constant denominators (lcm of the rational
    and irrational coordinate denominators)."""
    hist: dict[int, int] = {}
    for _i, _j, _k, v in constants.all_entries():
        d = quad_denominator(v)
        hist[d] = hist.get(d, 0) + 1
    return hist
