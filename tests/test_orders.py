"""The Coxeter-Dickson order: Gram, units, structure constants, closure,
and the diagonal scaling."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st
from matrix_oracle import inverse

from okubo_e8 import checks, claims
from okubo_e8.algebras import DIM, PRODUCTS, AlgebraElem, basis_element, oct_mul, okubo_mul
from okubo_e8.catalog import build_classical
from okubo_e8.exact import QuadExt, RingTag
from okubo_e8.lattice import mat_det
from okubo_e8.okubomatrix import SAMPLES
from okubo_e8.orders import (
    HALF_UNIT_ROWS,
    OrderBasis,
    cd_basis,
    cd_gram,
    cd_lattice,
    closure_test,
    conductor_lattice,
    coords_in_order_basis,
    denominator_profile,
    dump_structure_constants,
    letters,
    parse_structure_constants,
    product_traces,
    scaled_basis,
    scaled_order_verify,
    scaling_feasible,
    scaling_search,
    structure_constants,
    unit_shapes,
    units240,
)

HALF = Fraction(1, 2)

#: frozen mismatching norm cross terms under the pinned convention:
#: ((i, j), computed coefficient, claimed coefficient)
EXPECTED_NORM_MISMATCHES = (
    ((1, 7), -1, 0),
    ((2, 5), -1, 1),
    ((2, 7), 1, 0),
    ((3, 5), 1, 0),
    ((3, 6), -1, 0),
)

#: frozen expansion of b0 * b2 under the pinned convention
EXPECTED_B0B2 = (
    QuadExt(0, HALF),
    QuadExt(0, HALF),
    QuadExt(HALF, -HALF),
    QuadExt(0),
    QuadExt(0),
    QuadExt(0),
    QuadExt(0),
    QuadExt(0, 1),
)


class TestBasisAndGram:
    def test_gram_is_e8(self):
        gram = cd_gram()
        assert gram[0][0] == 2
        assert all(gram[i][i] == 2 for i in range(DIM))
        assert mat_det([list(r) for r in gram]) == 1
        assert gram == tuple(tuple(r) for r in zip(*gram))  # symmetric

    def test_trace_formula_matches(self):
        traces = [b.trace() for b in cd_basis()]
        assert traces == [QuadExt(v) for v in claims.TRACE_PATTERN]
        assert traces[4] == QuadExt(0)  # tr(h) = 0
        by_id = {r.check: r for r in checks.check_basis_forms()}
        assert by_id["basis-trace-formula"].actual == traces

    def test_norm_formula_mismatches_recorded(self):
        by_id = {r.check: r for r in checks.check_basis_forms()}
        assert by_id["basis-norm-formula"].actual == list(EXPECTED_NORM_MISMATCHES)

    def test_letters_are_units(self):
        for name, el in letters().items():
            assert el.norm() == QuadExt(1), name


class TestUnits240:
    def test_report(self):
        _, rep = units240()
        assert rep.count == 240
        assert rep.shape_count == 240
        assert rep.shapes_all_present
        assert rep.closure_failures == 0
        assert rep.norm_failures == 0
        assert rep.inverses_present

    def test_half_unit_example(self):
        lt = letters()
        candidate = (lt["1"] + lt["j"] + lt["k"] + lt["il"]).scale(HALF)
        els, _ = units240()
        assert candidate in set(els)

    def test_shapes_distinct(self):
        shapes = unit_shapes()
        assert len(set(shapes)) == 240

    def test_shapes_are_the_letter_sums(self):
        # reference: the signed letters, then each half family summed as
        # algebra elements and halved, in the same order, as the integer
        # e-coordinates of twice each element
        lt = letters()
        want = []
        for name in ("1", "i", "j", "k", "l", "il", "jl", "kl"):
            want += [lt[name], -lt[name]]
        for row in HALF_UNIT_ROWS:
            for signs in iter_product((1, -1), repeat=4):
                acc = AlgebraElem.zero()
                for s, name in zip(signs, row):
                    acc = acc + lt[name].scale(s)
                want.append(acc.scale(HALF))
        doubled = [tuple(int(2 * c.rat) for c in x.coords) for x in want]
        assert all(2 * c.rat == int(2 * c.rat) and not c.irr for x in want for c in x.coords)
        assert unit_shapes() == doubled


class TestStructureConstants:
    @pytest.mark.parametrize("product", ["octonion", "para", "okubo"])
    def test_reconstruction(self, product):
        basis = cd_basis()
        constants = structure_constants(product)
        mul = PRODUCTS[product]
        for i in range(DIM):
            for j in range(DIM):
                assert basis.element(constants.c[i][j]) == mul(basis[i], basis[j])

    @pytest.mark.parametrize("name", tuple(claims.CLASSICAL_TABLE))
    def test_reconstruction_on_catalog_rows(self, name):
        """Every catalog row, of rank 2, 4 or 8, rebuilds each product of
        two basis elements from its octonion constants.  The catalog's
        Eisenstein row is half-integral; a rank-2 basis with sqrt(3)
        coordinates, (1, -1/2 + (sqrt(3)/2) e1), is rebuilt beside it."""
        basis = build_classical(name)
        assert len(basis) in (2, 4, 8)
        if name == "eisenstein":
            assert not any(c.irr for b in basis for c in b.coords)
            omega = AlgebraElem([QuadExt(-HALF), QuadExt(0, HALF)] + [0] * 6)
            sqrt3 = OrderBasis((AlgebraElem.one(), omega), "eisenstein-sqrt3")
            assert omega.coords[1].irr
            c = structure_constants("octonion", sqrt3).c
            assert c[1][1] == (QuadExt(-1), QuadExt(-1))  # omega^2 = -1 - omega
            for i, bi in enumerate(sqrt3):
                for j, bj in enumerate(sqrt3):
                    assert sqrt3.element(c[i][j]) == oct_mul(bi, bj)
        c = structure_constants("octonion", basis).c
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert basis.element(c[i][j]) == oct_mul(bi, bj)

    def test_product_outside_a_lower_rank_span_raises(self):
        """e1 e1 = -1 leaves the span of (e1, e2): the solve refuses it
        instead of returning a projection, and so do the constants."""
        e1, e2 = basis_element(1), basis_element(2)
        plane = OrderBasis((e1, e2), "e1-e2")
        with pytest.raises(ArithmeticError, match="outside the K-span of 'e1-e2'"):
            coords_in_order_basis(oct_mul(e1, e1), plane)
        with pytest.raises(ArithmeticError):
            structure_constants("octonion", plane)

    def test_default_basis_returns_the_cd_table(self):
        assert structure_constants("octonion") is structure_constants("octonion", cd_basis())

    def test_octonion_constants_integral(self):
        profile = denominator_profile(structure_constants("octonion"))
        assert profile == {1: 512}

    def test_para_constants_rational(self):
        constants = structure_constants("para")
        assert all(v.irr == 0 for _, _, _, v in constants.all_entries())

    def test_okubo_constants_have_irrational_part(self):
        constants = structure_constants("okubo")
        assert any(v.irr != 0 for _, _, _, v in constants.all_entries())

    def test_okubo_denominators(self):
        profile = denominator_profile(structure_constants("okubo"))
        assert set(profile) <= {1, 2, 4}
        assert sum(profile.values()) == 512

    def test_b0_b2_expansion_frozen(self):
        constants = structure_constants("okubo")
        assert constants.c[0][2] == EXPECTED_B0B2

    def test_singular_basis_rejected(self):
        from okubo_e8.orders import OrderBasis, SingularBasisError

        bad = OrderBasis((AlgebraElem.one(),) * DIM, "degenerate")
        with pytest.raises(SingularBasisError):
            structure_constants("octonion", bad)

    def test_coords_in_order_basis(self):
        basis = cd_basis()
        x = basis[5] + basis[0].scale(QuadExt(0, 2))
        coords = coords_in_order_basis(x, basis)
        assert coords[5] == QuadExt(1)
        assert coords[0] == QuadExt(0, 2)


class TestDumpFormat:
    def test_round_trip(self):
        constants = structure_constants("okubo")
        text = dump_structure_constants(constants)
        parsed = parse_structure_constants(text)
        assert parsed.c == constants.c
        assert parsed == constants  # a table is its constants
        line = text.splitlines()[0].split()
        assert len(line) == 5

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ValueError):
            parse_structure_constants("0 0 0 1/1\n")

    def test_parse_requires_all_entries(self):
        with pytest.raises(ValueError):
            parse_structure_constants("0 0 0 1/1 0/1\n")

    @staticmethod
    def _tampered(first_line):
        lines = dump_structure_constants(structure_constants("para")).splitlines()
        return "\n".join([first_line] + lines[1:]) + "\n"

    def test_parse_rejects_negative_index(self):
        # -8 would otherwise wrap around to c[0]
        with pytest.raises(ValueError, match="out of range"):
            parse_structure_constants(self._tampered("-8 0 0 1/1 0/1"))

    def test_parse_rejects_index_past_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_structure_constants(self._tampered("9 0 0 1/1 0/1"))

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_structure_constants(self._tampered("0 0 0 1/0 0/1"))

    def test_parse_rejects_duplicate_entry(self):
        text = dump_structure_constants(structure_constants("para"))
        with pytest.raises(ValueError, match="duplicate"):
            parse_structure_constants(text + "0 0 0 1/1 0/1\n")


#: the dump reader as first written, as the reference for its language: a
#: coarse line match, the indices read by int() and range-checked, then
#: each number matched alone against the grammar
REF_LINE = re.compile(r"([+-]?[0-9]+) ([+-]?[0-9]+) ([+-]?[0-9]+) (\S+) (\S+)")
REF_NUMBER = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def reference_dump_outcome(text):
    """{(i, j, k): (rational, irrational)} of a dump, or the message of the
    ValueError that refuses it."""
    seen = {}
    try:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            m = REF_LINE.fullmatch(line)
            if m is None:
                raise ValueError(f"bad structure-constant line: {line!r}")
            i, j, k = key = tuple(int(p) for p in m.groups()[:3])
            if not all(0 <= v < DIM for v in key):
                raise ValueError(f"index out of range 0..{DIM - 1}: {line!r}")
            if key in seen:
                raise ValueError(f"duplicate entry {i} {j} {k}: {line!r}")
            values = []
            for t in (m[4], m[5]):
                if REF_NUMBER.fullmatch(t) is None:
                    raise ValueError(f"not an integer or a fraction a/b: {t!r}: {line!r}")
                num, _, den = t.partition("/")
                if den and not int(den):
                    raise ValueError(f"zero denominator: {line!r}")
                values.append(Fraction(int(num), int(den or 1)))
            seen[key] = tuple(values)
        if len(seen) != DIM ** 3:
            raise ValueError(f"expected {DIM ** 3} entries, got {len(seen)}")
    except ValueError as exc:
        return str(exc)
    return seen


def dump_outcome(text):
    try:
        c = parse_structure_constants(text).c
    except ValueError as exc:
        return str(exc)
    return {(i, j, k): (c[i][j][k].rat, c[i][j][k].irr)
            for i in range(DIM) for j in range(DIM) for k in range(DIM)}


PARA_LINES = dump_structure_constants(structure_constants("para")).splitlines()
#: field spellings: other spellings of an index, numbers in and out of the
#: grammar, zero denominators, whitespace and nothing
DUMP_TOKENS = ["0", "+0", "00", "-0", "007", "7", "8", "-1", "1/0", "0/00", "1/2",
               "-3/4", "+1/+2", "1e5", "1.5", "1_0", "\u0663", "", "x", "1/", "/2",
               " ", "\t", "1 2", "1,2"]
#: (line, what, token): what 0-4 replaces that field, 5 doubles the line,
#: 6 deletes it, 7 replaces it with the token
dump_edits = st.lists(st.tuples(st.integers(0, len(PARA_LINES) - 1), st.integers(0, 7),
                                st.sampled_from(DUMP_TOKENS)), max_size=3)


def edited_dump(edits, end="\n"):
    lines = list(PARA_LINES)
    for n, what, token in edits:
        n %= len(lines)
        if what < 5:
            parts = lines[n].split(" ")
            parts[what] = token
            lines[n] = " ".join(parts)
        elif what == 5:
            lines.append(lines[n])
        elif what == 6:
            del lines[n]
        else:
            lines[n] = token
    return end.join(lines) + end


class TestDumpLanguage:
    """The one-match reader accepts exactly the lines the reference does,
    with the same constants, and refuses the rest with the same message."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(dump_edits, st.sampled_from(["\n", "\r\n", "\n\n", "\x0b"]))
    def test_matches_reference(self, edits, end):
        text = edited_dump(edits, end)
        assert dump_outcome(text) == reference_dump_outcome(text)

    def test_index_spellings_are_accepted(self):
        want = dump_outcome("\n".join(PARA_LINES))
        for spelling in ("+0", "00", "-0"):
            lines = [" ".join(spelling if p == "0" and f < 3 else p
                              for f, p in enumerate(line.split(" ")))
                     for line in PARA_LINES]
            text = "\n".join(lines) + "\n"
            assert spelling in text
            assert dump_outcome(text) == reference_dump_outcome(text) == want

    def test_zero_denominator_spellings(self):
        for number in ("0/00", "1/0", "-5/000"):
            text = edited_dump([(0, 4, number)])
            assert dump_outcome(text) == reference_dump_outcome(text) == (
                f"zero denominator: {text.splitlines()[0]!r}")


class TestClosure:
    def test_para_closed_over_z(self):
        rep = closure_test(structure_constants("para"), RingTag.Z)
        assert rep.violations == () and rep.trace_norm_ok

    def test_octonion_closed_over_z(self):
        rep = closure_test(structure_constants("octonion"), RingTag.Z)
        assert rep.violations == () and rep.trace_norm_ok

    def test_okubo_obstruction(self):
        rep_r = closure_test(structure_constants("okubo"), RingTag.ZSQRT3)
        assert rep_r.violations
        halves = [v for (_, _, _, v) in rep_r.violations if v.irr.denominator == 2]
        assert halves  # odd/2 * sqrt(3) witnesses
        assert all(v.irr.numerator % 2 == 1 for v in halves)
        rep_z = closure_test(structure_constants("okubo"), RingTag.Z)
        assert rep_z.violations

    def test_okubo_b0_witness(self):
        # the b0-coefficient of b0 * b2 is neither in Z nor in Z[sqrt3]
        v = structure_constants("okubo").c[0][2][0]
        assert not RingTag.Z.contains(v)
        assert not RingTag.ZSQRT3.contains(v)
        assert v.irr.denominator == 2


class TestScaling:
    def test_minimal_unique(self):
        res = scaling_search(structure_constants("okubo"))
        assert res.minimal == (claims.SCALING_EXPONENTS,)
        assert res.feasible_count > 0

    def test_minimality_certificate(self):
        constants = structure_constants("okubo")
        ref = claims.SCALING_EXPONENTS
        assert scaling_feasible(constants, ref)
        for m in range(DIM):
            dec = tuple(v - (1 if t == m else 0) for t, v in enumerate(ref))
            assert not scaling_feasible(constants, dec)

    def test_octonion_identity_scaling(self):
        # the unital constants are already integral, so the zero vector is
        # feasible and is the unique minimum (exercises the trivial branch)
        constants = structure_constants("octonion")
        assert scaling_feasible(constants, (0,) * DIM)
        res = scaling_search(constants)
        assert res.minimal == ((0,) * DIM,)

    def test_scaling_covariance(self):
        # oracle: the solve over a rescaled basis u_i = D_i b_i agrees with
        # the transformation formula m_ij^k = (D_i D_j / D_k) c_ij^k, on the
        # claimed diagonal and on random ones
        constants = structure_constants("okubo")
        basis = cd_basis()
        rng = random.Random(6)
        claimed = tuple(2 ** a for a in claims.SCALING_EXPONENTS)
        diagonals = [claimed] + [tuple(2 ** rng.randint(0, 2) for _ in range(DIM))
                                 for _ in range(3)]
        for diag in diagonals:
            formula = tuple(tuple(tuple(
                constants.c[i][j][k] * Fraction(diag[i] * diag[j], diag[k])
                for k in range(DIM)) for j in range(DIM)) for i in range(DIM))
            rescaled = OrderBasis(
                tuple(b.scale(d) for b, d in zip(basis, diag)), f"rescaled-{diag}")
            assert structure_constants("okubo", rescaled).c == formula
            if diag == claimed:
                assert structure_constants("okubo", scaled_basis()).c == formula

    def test_scaled_basis_from_claimed_exponents(self):
        assert scaled_basis().elements == tuple(
            b.scale(2 ** a) for b, a in zip(cd_basis(), claims.SCALING_EXPONENTS))
        rows = conductor_lattice().basis
        assert [rows[i][i] for i in range(DIM)] == [2 ** a for a in claims.SCALING_EXPONENTS]

    def test_scaled_order_verify(self):
        rep = scaled_order_verify()
        assert rep.violations == () and rep.all_integral
        u = scaled_basis()
        assert u[0].norm() == QuadExt(4)  # n(2 b0) = 4
        gram = u.inner_products
        # <u4, u4> = 16 * <b4, b4> = 32
        assert gram[4][4] == QuadExt(32)
        assert gram == tuple(tuple(x.inner(y) for y in u) for x in u)

    def test_product_traces_read_from_constants(self):
        # the 64 traces tr(u_i*u_j) that scaled_order_verify reads from the
        # scaled Okubo constants are those of the products themselves
        u = scaled_basis()
        want = tuple(okubo_mul(x, y).trace() for x in u for y in u)
        assert len(want) == DIM * DIM and any(want)
        assert product_traces(structure_constants("okubo", u), u) == want
        b = cd_basis()
        for name, mul in PRODUCTS.items():
            assert product_traces(structure_constants(name, b), b) == tuple(
                mul(x, y).trace() for x in b for y in b)

    def test_scaled_order_verify_forms_no_product(self, monkeypatch):
        from okubo_e8 import algebras, orders

        structure_constants("okubo", scaled_basis())  # the solve's products, cached
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return okubo_mul(x, y)

        monkeypatch.setitem(algebras.PRODUCTS, "okubo", counted)
        # also catches a direct ``okubo_mul`` import in orders, should one return
        monkeypatch.setattr(orders, "okubo_mul", counted, raising=False)
        assert scaled_order_verify().all_integral
        assert calls == []

    def test_unscaled_fails(self):
        rep = closure_test(structure_constants("okubo"), RingTag.ZSQRT3)
        assert rep.violations

    def test_search_and_verify_read_one_constants_object(self, monkeypatch):
        # the scaled-order check and the stabilizer search both read the
        # cached Okubo constants of the scaled basis
        from okubo_e8 import orders, stabilizer

        seen = []
        closure, preserves = orders.closure_test, stabilizer.preserves_product

        def closure_spy(constants, ring, basis=None):
            seen.append(("closure", constants.c))
            return closure(constants, ring, basis)

        def preserves_spy(cand, m_constants):
            seen.append(("search", m_constants))
            return preserves(cand, m_constants)

        monkeypatch.setattr(orders, "closure_test", closure_spy)
        monkeypatch.setattr(stabilizer, "preserves_product", preserves_spy)
        scaled_order_verify()
        stabilizer.search()
        tables = {id(c) for _, c in seen}
        assert {who for who, _ in seen} == {"closure", "search"} and len(tables) == 1
        assert seen[0][1] is structure_constants("okubo", scaled_basis()).c


def _two_adic(q):
    """Exponent of 2 in the denominator of the Fraction q."""
    d, e = q.denominator, 0
    while d % 2 == 0:
        d //= 2
        e += 1
    return e


def ref_valuation_constraints(constants):
    """valuation_constraints from the Fraction parts: v is the larger
    2-adic denominator exponent of the two, and an odd denominator factor
    in either part gives None."""
    cons = []
    for i, j, k, v in constants.all_entries():
        if not v:
            continue
        if any(f.denominator >> _two_adic(f) != 1 for f in (v.rat, v.irr)):
            return None
        val = max(_two_adic(v.rat), _two_adic(v.irr))
        if val > 0:
            cons.append((i, j, k, val))
    cons.sort(key=lambda t: -t[3])
    return tuple(cons)


class TestValuationConstraints:
    @pytest.mark.parametrize("product", ["octonion", "para", "okubo"])
    def test_against_fraction_formula(self, product):
        constants = structure_constants(product)
        assert constants.valuation_constraints == ref_valuation_constraints(constants)

    def test_okubo_has_constraints_of_both_sizes(self):
        cons = structure_constants("okubo").valuation_constraints
        assert {v for *_, v in cons} == {1, 2}

    def test_saturated_basis_okubo_constants(self):
        from okubo_e8.lattice import glue_and_saturate
        from okubo_e8.orders import OrderBasis, conductor_lattice

        cd = cd_basis()
        sat = glue_and_saturate(conductor_lattice(), cd_lattice()).saturation
        saturated = OrderBasis(tuple(cd.element(r) for r in sat.basis), "saturated")
        constants = structure_constants("okubo", saturated)
        assert constants.valuation_constraints == ref_valuation_constraints(constants)

    @pytest.mark.parametrize("entry", ["0/1 1/3", "1/12 0/1"])
    def test_odd_denominator_is_none(self, entry):
        lines = dump_structure_constants(structure_constants("okubo")).splitlines()
        lines[5] = " ".join(lines[5].split()[:3]) + " " + entry
        constants = parse_structure_constants("\n".join(lines) + "\n")
        assert ref_valuation_constraints(constants) is None
        assert constants.valuation_constraints is None


class TestLatticeHooks:
    def test_cd_lattice_gram(self):
        assert cd_lattice().gram == cd_gram()

    def test_okubo_product_of_units_leaves_order(self):
        # multiplicativity failure is visible on elements too: b0 * b2 has
        # a coordinate outside Z over the order basis
        from okubo_e8.algebras import okubo_mul

        basis = cd_basis()
        prod = okubo_mul(basis[0], basis[2])
        coords = coords_in_order_basis(prod, basis)
        assert any(not RingTag.ZSQRT3.contains(c) for c in coords)


# -- oracles for the one coordinate map -----------------------------------------


def _units240_reference():
    """The unit enumeration as it stood before the integer path: algebra
    element sums of the enumerated order vectors, sorted by (rat, irr)."""
    from okubo_e8._kernels import unit_closure_failures
    from okubo_e8.algebras import OCT_TABLE
    from okubo_e8.lattice import short_vectors

    basis = cd_basis()
    elements = []
    for coords, _ in short_vectors(cd_lattice(), 2):
        acc = AlgebraElem.zero()
        for c, b in zip(coords, basis):
            if c:
                acc = acc + b.scale(c)
        elements.append(acc)
    elements = tuple(sorted(elements, key=lambda e: tuple(
        (c.rat, c.irr) for c in e.coords)))
    elem_set = set(elements)
    shapes = unit_shapes()
    vecs2 = [tuple(int(2 * c.rat) for c in el.coords) for el in elements]
    bad_member, bad_norm = unit_closure_failures(vecs2, OCT_TABLE.idx, OCT_TABLE.sgn)
    report = dict(
        count=len(elements),
        shape_count=len(shapes),
        shapes_all_present=all(s in set(vecs2) for s in shapes),
        closure_failures=bad_member,
        norm_failures=bad_norm,
        inverses_present=all(el.conjugate() in elem_set for el in elements),
    )
    return elements, report


def _gram_solve(x, basis):
    """Coordinates of x by the Gram formula G^-1 (<x, b_m>)_m."""
    elems = list(basis)
    ginv = inverse([[bi.inner(bj) for bj in elems] for bi in elems])
    inners = [x.inner(b) for b in elems]
    return tuple(
        sum((inners[m] * ginv[m][k] for m in range(len(elems))), QuadExt(0))
        for k in range(len(elems))
    )


def solve_entries(basis):
    """The solve map of ``basis`` as the QuadExt matrix P, row m for the
    e-coordinate m."""
    cols, den = basis.span.solve
    p = [[QuadExt(0)] * len(basis) for _ in cols]
    for m, col in enumerate(cols):
        for k, a, b in col:
            p[m][k] = QuadExt(Fraction(a, den), Fraction(b, den))
    return p


class TestCoordinateMap:
    def test_units240_matches_element_path(self):
        ref_elements, ref_report = _units240_reference()
        elements, report = units240()
        assert len(elements) == len(ref_elements) == 240
        for got, want in zip(elements, ref_elements):
            assert got == want
        assert list(type(report).__annotations__) == list(ref_report)
        for name, want in ref_report.items():
            assert getattr(report, name) == want, name

    def test_solve_matches_gram_formula_on_catalog_rows(self):
        for name in claims.CLASSICAL_TABLE:
            basis = build_classical(name)
            for bi in basis:
                for bj in basis:
                    x = oct_mul(bi, bj)
                    assert coords_in_order_basis(x, basis) == _gram_solve(x, basis), name

    @pytest.mark.parametrize("product", ["octonion", "para", "okubo"])
    def test_solve_matches_gram_formula_on_products(self, product):
        basis = cd_basis()
        mul = PRODUCTS[product]
        for bi in basis:
            for bj in basis:
                x = mul(bi, bj)
                assert coords_in_order_basis(x, basis) == _gram_solve(x, basis)

    def test_solve_matches_gram_formula_on_saturated_and_scaled(self):
        from okubo_e8.algebras import okubo_mul, tau_apply
        from okubo_e8.lattice import glue_and_saturate
        from okubo_e8.orders import OrderBasis, conductor_lattice, scaled_basis

        cd = cd_basis()
        sat = glue_and_saturate(conductor_lattice(), cd_lattice()).saturation
        saturated = OrderBasis(tuple(cd.element(r) for r in sat.basis), "saturated")
        for basis in (saturated, scaled_basis()):
            xs = [okubo_mul(bi, bj) for bi in basis for bj in basis]
            xs += [tau_apply(b, 1) for b in basis] + [tau_apply(b, 2) for b in basis]
            for x in xs:
                assert coords_in_order_basis(x, basis) == _gram_solve(x, basis), basis.label

    def test_full_rank_solve_matrix_is_the_inverse(self):
        basis = cd_basis()
        assert all(not c.irr for b in basis for c in b.coords)
        b_inv = inverse([[c.rat for c in b.coords] for b in basis])
        assert solve_entries(basis) == [[QuadExt(v) for v in row] for row in b_inv]

    def test_rank_two_solve_map(self):
        """The gaussian catalog row spans a plane: its solve map takes the
        eight e-coordinates to two, and is P = 2 B^T G^-1."""
        from okubo_e8.catalog import build_classical

        basis = build_classical("gaussian")
        ginv = inverse(basis.inner_products)
        assert len(basis) == 2 and len(basis.span.solve[0]) == DIM
        assert solve_entries(basis) == [
            [2 * sum((b.coords[m] * ginv[j][k] for j, b in enumerate(basis)), QuadExt(0))
             for k in range(2)]
            for m in range(DIM)
        ]

    def test_outside_span_raises(self):
        with pytest.raises(ArithmeticError, match="outside the K-span of 'gaussian'"):
            coords_in_order_basis(basis_element(7), build_classical("gaussian"))

    def test_element_inverts_the_solve(self):
        basis = cd_basis()
        rng = random.Random(11)
        for _ in range(10):
            coords = tuple(QuadExt(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(DIM))
            assert coords_in_order_basis(basis.element(coords), basis) == coords

    def test_gram(self):
        from okubo_e8.orders import OrderBasis

        assert cd_basis().lattice.gram == cd_gram()
        half = OrderBasis((AlgebraElem.one().scale(HALF),), "half")
        with pytest.raises(ArithmeticError):
            half.lattice


#: runs in a fresh interpreter, so that no cached table hides a solve;
#: counts every coordinate solve of one ``run_all``, in both realizations,
#: by the label of the basis, and whether a table build made it: the
#: solve is wrapped on its class, the table builder wherever the package
#: binds it
SOLVE_COUNTER = r"""
import json
import sys
from collections import Counter
from okubo_e8 import checks, exact, orders

solve, build = exact.SpanSolve.coordinates, orders.product_table
calls, building = Counter(), []

def counting_solve(span, pairs, den):
    calls[span.label, bool(building)] += 1
    return solve(span, pairs, den)

def counting_build(*args):
    building.append(True)
    try:
        return build(*args)
    finally:
        building.pop()

exact.SpanSolve.coordinates = counting_solve
for name, mod in list(sys.modules.items()):
    if name.startswith("okubo_e8"):
        for attr, value in list(vars(mod).items()):
            if value is build:
                setattr(mod, attr, counting_build)
checks.run_all()
print(json.dumps({"tables": {label: n for (label, table), n in calls.items() if table},
                  "other": {label: n for (label, table), n in calls.items() if not table}}))
"""


def test_one_run_solves_each_order_table_once():
    """Every table one run builds is solved once, n x n solves per product
    and basis: three over the Coxeter-Dickson basis (the catalog's row
    reads the octonion table that the closure check cached), the Okubo
    tables over the scaled and saturated orders, the octonion table of each
    other catalog row, and the two tables the cross-realization diff
    compares, over the e-basis and the matrix basis.  The only solves
    outside a table are tau(u_2) and tau^2(u_2) over the scaled basis."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_COUNTER], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    counts = json.loads(proc.stdout)
    square = DIM * DIM
    assert counts["tables"] == {
        "coxeter-dickson": 3 * square, "scaled": square, "saturated": square,
        "e-basis": square, "matrix-basis": square,
        "gaussian": 4, "eisenstein": 4, "hamilton": 16, "hurwitz": 16,
        "cayley-graves": square,
    }
    assert counts["other"] == {"scaled": 2}


#: runs in a fresh interpreter, so that no cached value hides a build;
#: wraps the lattice builders and the matrix draw wherever the package
#: binds them, and the K-inner product on its class, for one ``run_all``
ROUTE_COUNTER = r"""
import json
import sys
from okubo_e8 import algebras, checks, lattice, okubomatrix, orders, stabilizer

counts = {"integer_gram": 0, "random_matrix": 0, "conductor_gram": 0,
          "inner_in_conductor_gram": 0}
results = {"cd_lattice": set(), "conductor_lattice": set()}
inside = []

def counted(key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper

def remembered(key, fn):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        results[key].add(id(out))
        return out
    return wrapper

def in_conductor_gram(fn):
    def wrapper(*args, **kwargs):
        counts["conductor_gram"] += 1
        inside.append(True)
        try:
            return fn(*args, **kwargs)
        finally:
            inside.pop()
    return wrapper

inner = algebras.AlgebraElem.inner

def counting_inner(self, other):
    if inside:
        counts["inner_in_conductor_gram"] += 1
    return inner(self, other)

algebras.AlgebraElem.inner = counting_inner
wrapped = {
    lattice._integer_gram: counted("integer_gram", lattice._integer_gram),
    okubomatrix.random_matrix: counted("random_matrix", okubomatrix.random_matrix),
    orders.cd_lattice: remembered("cd_lattice", orders.cd_lattice),
    orders.conductor_lattice: remembered("conductor_lattice", orders.conductor_lattice),
    stabilizer.conductor_gram: in_conductor_gram(stabilizer.conductor_gram),
}
for name, mod in list(sys.modules.items()):
    if name.startswith("okubo_e8"):
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
checks.run_all(0)
print(json.dumps({**counts, **{k: len(v) for k, v in results.items()}}))
"""


def test_one_run_builds_each_value_once():
    """One run_all builds the order lattice and the conductor lattice once
    each, makes at most three B A B^T products (16 before each lattice had
    one builder, 10 before a lattice built from its Gram kept it), draws
    the SAMPLES matrices of the sampled laws once (202 draws before the one
    pool), and reads the conductor Gram the stabilizer search needs without
    a K-inner product."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", ROUTE_COUNTER], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    counts = json.loads(proc.stdout)
    assert counts["cd_lattice"] == counts["conductor_lattice"] == 1
    assert counts["integer_gram"] <= 3
    assert counts["random_matrix"] == SAMPLES
    assert counts["conductor_gram"] >= 1
    assert counts["inner_in_conductor_gram"] == 0


#: runs in a fresh interpreter, so that no cached value hides a
#: computation; counts the determinant and Smith-form routes wherever the
#: package binds them, and each lattice's determinant and each order
#: basis's K-Gram per object, for one ``run_all``
VALUE_COUNTER = r"""
import json
import sys
from collections import Counter
from functools import cached_property
from okubo_e8 import checks, lattice, orders

calls = Counter()
computed = {"det": {}, "k_gram": {}}

def counted(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

def count_per_object(cls, name, key):
    func = vars(cls)[name].func
    def counting(self):
        # the object is kept, so that no id is reused within the run
        computed[key].setdefault(id(self), [self, 0])[1] += 1
        return func(self)
    prop = cached_property(counting)
    prop.__set_name__(cls, name)
    setattr(cls, name, prop)

inclusions = Counter()
solve_inclusion = lattice._inclusion_matrix

def counted_inclusion(sub, sup):
    inclusions[sub.label, sup.label] += 1
    return solve_inclusion(sub, sup)

wrapped = {getattr(lattice, name): counted(name, getattr(lattice, name))
           for name in ("mat_det", "smith_invariants", "discriminant_group")}
wrapped[solve_inclusion] = counted_inclusion
for name, mod in list(sys.modules.items()):
    if name.startswith("okubo_e8"):
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
count_per_object(lattice.LatticeZ, "det", "det")
count_per_object(orders.OrderBasis, "inner_products", "k_gram")
checks.run_all(0)
print(json.dumps({
    **calls,
    **{f"{key}_most": max(n for _, n in objs.values()) for key, objs in computed.items()},
    "lattices_with_det": len(computed["det"]),
    "scaled_k_grams": sum(n for basis, n in computed["k_gram"].values()
                          if basis.label == "scaled"),
    "inclusions_most": max(inclusions.values()),
    "conductor_inclusions": inclusions["okubo-conductor", "coxeter-dickson"],
}))
"""


def test_one_run_computes_each_lattice_value_once():
    """One run_all computes each lattice's determinant and each order
    basis's K-Gram once: E8's determinant is shared by the basis-forms
    check, the conductor invariants and the catalog row (three Bareiss
    eliminations before), and the scaled K-Gram by the scaled-order check,
    its lattice and the trace lattice (two before).  The gluing reads the
    conductor's discriminant order from its determinant, so one Smith form
    of a Gram is left, the discriminant check's, with the Smith invariants
    of the inclusion matrix (3 and 2 before).  Eight lattices take a
    determinant: E8, the conductor, the five other catalog rows and the
    glued lattice; the ninth elimination is the conductor's index.  Each
    inclusion matrix is solved once: the conductor invariants and the
    gluing share that of the conductor in E8 (two solves before)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", VALUE_COUNTER], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    counts = json.loads(proc.stdout)
    assert counts["det_most"] == counts["k_gram_most"] == 1
    assert counts["scaled_k_grams"] == 1
    assert counts["smith_invariants"] == 2
    assert counts["discriminant_group"] == 1
    assert counts["mat_det"] == counts["lattices_with_det"] + 1 == 9
    assert counts["inclusions_most"] == counts["conductor_inclusions"] == 1
