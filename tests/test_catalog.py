"""Classical crystallographic integral sets at desk scale."""

import random

import pytest

from okubo_e8.algebras import basis_element, oct_mul
from okubo_e8.catalog import (
    UnspecifiedConstructionError,
    build_classical,
    catalog_names,
    order_lattice,
    verify_classical,
)
from okubo_e8.exact import QuadExt
from okubo_e8.orders import letters

EXPECTED_UNITS = {
    "gaussian": 4,
    "eisenstein": 6,
    "hamilton": 8,
    "hurwitz": 24,
    "cayley-graves": 16,
    "coxeter-dickson": 240,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_UNITS))
def test_catalog_row(name):
    spec = build_classical(name)
    rep = verify_classical(spec)
    assert rep.unit_count == EXPECTED_UNITS[name]
    assert (rep.units_match and rep.units_closed and rep.inverses_present
            and rep.constants_integral and rep.trace_norm_integral
            and rep.triple_match), rep


def test_all_names_covered():
    assert set(catalog_names()) == set(EXPECTED_UNITS)


def test_hamilton_units_exactly_quaternion_group():
    lt = letters()
    spec = build_classical("hamilton")
    from okubo_e8.lattice import short_vectors
    from okubo_e8.algebras import AlgebraElem

    found = short_vectors(order_lattice(spec), 2)
    units = set()
    for coords, _ in found:
        acc = AlgebraElem.zero()
        for c, b in zip(coords, spec.basis):
            if c:
                acc = acc + b.scale(c)
        units.add(acc)
    expected = set()
    for el in (AlgebraElem.one(), lt["i"], lt["j"], lt["k"]):
        expected.add(el)
        expected.add(-el)
    assert units == expected


def test_eisenstein_norm_form():
    # n(a + b*omega) = a^2 - a b + b^2, by direct exact expansion
    spec = build_classical("eisenstein")
    one, omega = spec.basis
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        x = one.scale(a) + omega.scale(b)
        assert x.norm() == QuadExt(a * a - a * b + b * b)


def test_eisenstein_omega_cubes_to_one():
    omega = build_classical("eisenstein").basis[1]
    assert oct_mul(omega, oct_mul(omega, omega)) == basis_element(0)


def test_hurwitz_basis_closure_example():
    spec = build_classical("hurwitz")
    sigma = spec.basis[3]  # (1 + i + j + k)/2
    prod = oct_mul(spec.basis[1], sigma)  # i * sigma
    from okubo_e8.catalog import coords_in_span

    coords = coords_in_span(prod, spec)
    assert coords is not None
    assert all(c.irr == 0 and c.rat.denominator == 1 for c in coords)


def test_out_of_scope_rows():
    for name in ("hybrid", "compounded-eisenstein", "coupled-hurwitz"):
        with pytest.raises(UnspecifiedConstructionError):
            build_classical(name)


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown classical order"):
        build_classical("lorentzian")


def test_no_minimal_vectors_raises():
    # the doubled Gaussian basis has Gram 8 I: no vector of norm <= 2
    from dataclasses import replace

    from okubo_e8.lattice import LatticeError
    from okubo_e8.orders import OrderBasis

    spec = build_classical("gaussian")
    doubled = OrderBasis(tuple(b.scale(2) for b in spec.basis), "doubled-gaussian")
    with pytest.raises(LatticeError, match="no nonzero vectors of norm <= 2"):
        verify_classical(replace(spec, basis=doubled))


def test_catalog_basis_is_an_order_basis():
    from okubo_e8.orders import OrderBasis, cd_basis

    assert all(isinstance(build_classical(n).basis, OrderBasis) for n in catalog_names())
    assert build_classical("coxeter-dickson").basis is cd_basis()


def test_coxeter_dickson_enumerated_once(monkeypatch):
    # units240 and the catalog's coxeter-dickson row need the same
    # enumeration of the E8 Gram at bound 2; one verify all makes it once
    from okubo_e8 import checks, lattice, orders

    cd_gram = orders.cd_lattice().gram()
    real = lattice.short_vectors
    calls = []

    def counting(lat, bound):
        if bound == 2 and lat.gram() == cd_gram:
            calls.append(bound)
        return real(lat, bound)

    monkeypatch.setattr(lattice, "short_vectors", counting)
    caches = (orders.cd_short_vectors, orders.units240)
    for cached in caches:
        cached.cache_clear()
    try:
        checks.run_all()
    finally:
        for cached in caches:
            cached.cache_clear()
    assert len(calls) == 1
