"""Verification of the classical crystallographic integral sets at desk
scale: unit counts, closure, trace/norm integrality, lattice invariants.

Each order is realized inside the octonion coordinate space (the complex
and quaternion cases live on subalgebras) as an :class:`OrderBasis`
labelled with its catalog name (a key of ``claims.CLASSICAL_TABLE``),
which owns the map between order vectors and algebra elements and its
lattice, :attr:`OrderBasis.lattice`; the Coxeter-Dickson row is the
order basis itself.  Every order has half-integral e-coordinates (Conway
and Smith, On Quaternions and Octonions, 2003, ch. 9-10), Eisenstein's
included, whose omega is (-1 + e1 + e2 + e3)/2.  So every row reads its
unit loop from :func:`orders.unit_loop`, one enumeration of its lattice
and one call of the packed closure kernel on the doubled e-coordinates of
its units, cached per basis: the Coxeter-Dickson row reads the loop
:func:`orders.units240` certified.  Every row takes its octonion
structure constants from :func:`orders.structure_constants` and their
integrality, with that of the traces and norms, from
:func:`orders.closure_test`, and its minimum and kissing number from the
loop's enumerated vectors with :func:`lattice.minimum_and_kissing`.  The
reports hold what was computed, the invariant triple (det, min, kissing)
in the doubled-form normalization <x,x> = 2 n(x) included;
``checks.check_catalog`` compares them with the claimed table.
"""

from __future__ import annotations

from fractions import Fraction

from . import lattice as lat
from ._record import record
from .algebras import AlgebraElem, basis_element
from .claims import CLASSICAL_TABLE, UNSPECIFIED_CLASSICAL
from .exact import RingTag
from .orders import (
    OrderBasis,
    cd_basis,
    closure_test,
    letters,
    structure_constants,
    unit_loop,
)


class UnspecifiedConstructionError(ValueError):
    """The catalog names this set but gives no explicit construction."""


def _eisenstein_omega() -> AlgebraElem:
    # a primitive cube root of unity, in half-integral coordinates:
    # (-1 + e1 + e2 + e3)/2, of trace -1 and norm 1, so omega^2 = -1 - omega
    half = Fraction(1, 2)
    return AlgebraElem([-half, half, half, half] + [0] * 4)


def build_classical(name: str) -> OrderBasis:
    """The standard basis of one catalog order, labelled ``name``."""
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
        return cd_basis()
    return OrderBasis(elements, name)


@record
class CatalogReport:
    unit_count: int
    units_closed: bool
    inverses_present: bool
    constants_integral: bool
    trace_norm_integral: bool
    det: int
    minimum: int
    kissing: int


def verify_classical(basis: OrderBasis) -> CatalogReport:
    """Enumerate the unit loop and compute the data of one catalog row."""
    loop = unit_loop(basis)  # the units, and the minimal vectors
    mn, kiss = lat.minimum_and_kissing(loop.found, 2)
    closure = closure_test(structure_constants("octonion", basis), RingTag.Z, basis)

    return CatalogReport(
        unit_count=len(loop.vecs2),
        units_closed=loop.closure_failures == 0 and loop.norm_failures == 0,
        inverses_present=loop.inverses_present,
        constants_integral=not closure.violations,
        trace_norm_integral=closure.trace_norm_ok,
        det=basis.lattice.det,
        minimum=mn,
        kissing=kiss,
    )
