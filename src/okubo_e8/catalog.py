"""Verification of the classical crystallographic integral sets at desk
scale: unit counts, closure, trace/norm integrality, lattice invariants.

Each order is realized inside the octonion coordinate space (the complex
and quaternion cases live on subalgebras) as an :class:`OrderBasis`, which
owns the exact Gram and the map between order vectors and algebra
elements.  Lattice identification is by the invariant triple (det, min,
kissing) in the doubled-form normalization <x,x> = 2 n(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lattice as lat
from .algebras import AlgebraElem, basis_element, oct_mul
from .claims import CLASSICAL_TABLE, UNSPECIFIED_CLASSICAL
from .exact import QUAD_ZERO, QuadExt, RingTag
from .orders import (
    OrderBasis,
    cd_basis,
    cd_short_vectors,
    coords_in_order_basis,
    letters,
    units240,
)


class UnspecifiedConstructionError(ValueError):
    """The catalog names this set but gives no explicit construction."""


@dataclass(frozen=True)
class ClassicalOrderSpec:
    name: str
    basis: OrderBasis
    expected_units: int
    expected_det: int
    expected_min: int
    expected_kissing: int


def _eisenstein_omega() -> AlgebraElem:
    # a primitive cube root of unity: -1/2 + (sqrt(3)/2) e1
    coords = [QuadExt(Fraction(-1, 2))] + [QUAD_ZERO] * 7
    coords[1] = QuadExt(0, Fraction(1, 2))
    return AlgebraElem(coords)


def build_classical(name: str) -> ClassicalOrderSpec:
    """The standard basis and the expected catalog data for one order."""
    if name in UNSPECIFIED_CLASSICAL:
        raise UnspecifiedConstructionError(
            f"no explicit construction is given for {name!r}; "
            "it is out of scope for this catalog"
        )
    if name not in CLASSICAL_TABLE:
        raise ValueError(f"unknown classical order {name!r}")
    lt = letters()
    one = AlgebraElem.one()
    half = Fraction(1, 2)
    if name == "gaussian":
        elements = (one, basis_element(1))
    elif name == "eisenstein":
        elements = (one, _eisenstein_omega())
    elif name == "hamilton":
        elements = (one, lt["i"], lt["j"], lt["k"])
    elif name == "hurwitz":
        hq = (one + lt["i"] + lt["j"] + lt["k"]).scale(half)
        elements = (one, lt["i"], lt["j"], hq)
    elif name == "cayley-graves":
        elements = tuple(lt[n] for n in ("1", "i", "j", "k", "l", "il", "jl", "kl"))
    else:  # coxeter-dickson: the order basis itself, with its cached solve
        elements = None
    units, _, det, mn, kiss = CLASSICAL_TABLE[name]
    return ClassicalOrderSpec(
        name=name,
        basis=OrderBasis(elements, name) if elements else cd_basis(),
        expected_units=units,
        expected_det=det,
        expected_min=mn,
        expected_kissing=kiss,
    )


def order_lattice(spec: ClassicalOrderSpec) -> lat.LatticeZ:
    return lat.LatticeZ.from_gram(spec.basis.gram(), label=spec.name)


def coords_in_span(x: AlgebraElem, spec: ClassicalOrderSpec):
    """K-coordinates of x over the possibly lower-rank basis, or None when
    x is outside the span (decided by exact reconstruction)."""
    coords = coords_in_order_basis(x, spec.basis)
    return coords if spec.basis.element(coords) == x else None


@dataclass(frozen=True)
class CatalogReport:
    name: str
    unit_count: int
    expected_units: int
    units_match: bool
    units_closed: bool
    inverses_present: bool
    constants_integral: bool
    trace_norm_integral: bool
    det: Fraction
    minimum: Fraction
    kissing: int
    triple_match: bool


def verify_classical(spec: ClassicalOrderSpec) -> CatalogReport:
    """Enumerate the unit loop and certify the catalog row."""
    lattice = order_lattice(spec)
    if spec.name == "coxeter-dickson":  # the enumeration units240 reads
        found = cd_short_vectors()
    else:  # the units, and the minimal vectors
        found = lat.short_vectors(lattice, 2)
    if not found:
        raise lat.LatticeError("no nonzero vectors of norm <= 2")
    norms = [nrm for _, nrm in found]
    mn = min(norms)
    kiss = norms.count(mn)
    if spec.name == "coxeter-dickson":
        _, rep = units240()
        unit_count = rep.count
        closed = rep.closure_failures == 0 and rep.norm_failures == 0
        inverses = rep.inverses_present
    else:
        elements = [spec.basis.element(coords) for coords, _ in found]
        unit_count = len(elements)
        unit_set = set(elements)
        closed = all(
            oct_mul(a, b) in unit_set for a in elements for b in elements
        )
        inverses = all(x.conjugate() in unit_set for x in elements)

    constants_ok = True
    for bi in spec.basis:
        for bj in spec.basis:
            coords = coords_in_span(oct_mul(bi, bj), spec)
            if coords is None or not all(RingTag.Z.contains(c) for c in coords):
                constants_ok = False

    tn_ok = all(
        RingTag.Z.contains(b.trace()) and RingTag.Z.contains(b.norm())
        for b in spec.basis
    )

    det = lattice.det()
    triple = (
        det == spec.expected_det
        and mn == spec.expected_min
        and kiss == spec.expected_kissing
    )
    return CatalogReport(
        name=spec.name,
        unit_count=unit_count,
        expected_units=spec.expected_units,
        units_match=unit_count == spec.expected_units,
        units_closed=closed,
        inverses_present=inverses,
        constants_integral=constants_ok,
        trace_norm_integral=tn_ok,
        det=det,
        minimum=mn,
        kissing=kiss,
        triple_match=triple,
    )


def catalog_names() -> tuple[str, ...]:
    return tuple(CLASSICAL_TABLE)
