"""Report schema, serialization determinism, CLI exit codes, and the
claim-to-check coverage of the full suite."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import sys
from fractions import Fraction

import pytest

from conftest import time_limit
from okubo_e8 import checks, claims, cli
from okubo_e8 import lattice as lat
from okubo_e8 import stabilizer as stab
from okubo_e8.cli import build_parser, main
from okubo_e8.exact import QuadExt
from okubo_e8.orders import cd_lattice, dump_structure_constants, structure_constants
from okubo_e8.report import (
    DIFF,
    FAIL,
    PASS,
    CheckReport,
    compare,
    exit_code,
    jsonable,
    serialize,
)


def mk(check="sample", status=PASS, tag="trivial", expected=1, actual=1):
    return CheckReport(
        check=check,
        anchor="anchor",
        convention="cd1946",
        status=status,
        expected=expected,
        expected_tag=tag,
        actual=actual,
    )


class TestCheckReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            mk(status="maybe")
        with pytest.raises(ValueError):
            mk(tag="gospel")

    def test_schema_fields(self):
        d = mk().to_dict()
        assert set(d) == {
            "check", "anchor", "convention", "status", "expected",
            "actual", "details",
        }
        assert set(d["expected"]) == {"value", "tag"}

    def test_jsonable_exact_values(self):
        assert jsonable(Fraction(3, 2)) == "3/2"
        assert jsonable(QuadExt(1, Fraction(1, 2))) == "1/1 + 1/2*s3"
        assert jsonable((1, Fraction(1, 2))) == [1, "1/2"]

    def test_compare_statuses(self):
        assert compare("c", "a", 1, "trivial", 1).status == PASS
        assert compare("c", "a", 1, "trivial", 2).status == FAIL
        assert compare("c", "a", 1, "trivial", 2, record_only=True).status == DIFF


class TestSerialize:
    def test_empty_json(self):
        assert serialize([], "json") == "[]"

    def test_json_round_trip_and_order(self):
        reports = [mk(check="b"), mk(check="a")]
        text = serialize(reports, "json")
        data = json.loads(text)
        assert [d["check"] for d in data] == ["a", "b"]

    def test_byte_identical(self):
        reports = [mk(check="x", expected=Fraction(1, 3), actual=Fraction(1, 3))]
        assert serialize(reports, "json") == serialize(reports, "json")
        assert serialize(reports, "text") == serialize(reports, "text")

    def test_text_one_line_per_check(self):
        text = serialize([mk(check="a"), mk(check="b")], "text")
        assert len(text.strip().splitlines()) == 2

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            serialize([], "yaml")


class TestExitCodes:
    def test_all_pass(self):
        assert exit_code([mk()]) == 0

    def test_diff_recorded_is_ok(self):
        assert exit_code([mk(status=DIFF, actual=2)]) == 0

    def test_fail(self):
        assert exit_code([mk(), mk(check="z", status=FAIL, actual=2)]) == 1


class TestCli:
    def test_shells_line(self, capsys):
        rc = main(["verify", "shells", "--max", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"shell-n1 pass .*n=1 count=240 formula=240", out)

    def test_para_closure_pass(self, capsys):
        assert main(["verify", "para-closure"]) == 0

    def test_corrupted_constants_fail(self, tmp_path, capsys):
        text = dump_structure_constants(structure_constants("para"))
        lines = text.splitlines()
        lines[0] = "0 0 0 1/2 0/1"  # introduce a half coefficient
        bad = tmp_path / "constants.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["verify", "para-closure", "--constants", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "para-closure fail" in out

    def test_long_distinct_denominators_stay_cheap(self, tmp_path, capsys):
        """A dump whose 512 entries have distinct 300-digit denominators is
        read and certified in well under a second: each entry keeps its own
        denominator.  Clearing them to one shared lcm (about 150k digits)
        would put that number into every later operation."""
        rng = random.Random(18)
        lines = []
        for i, j, k in itertools.product(range(8), repeat=3):
            den = rng.randrange(10 ** 299, 10 ** 300)
            lines.append(f"{i} {j} {k} {rng.randrange(1, den)}/{den} 0/1")
        f = tmp_path / "constants.txt"
        f.write_text("\n".join(lines) + "\n")
        with time_limit(5, "verify para-closure on long denominators"):
            rc = main(["verify", "para-closure", "--constants", str(f)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.err == ""
        assert "para-closure fail" in captured.out

    def test_constants_with_all_rejected(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text(dump_structure_constants(structure_constants("para")))
        for suite in ("all", "scaled-order", "scaling-search", "bridges",
                      "matrix-laws"):
            assert main(["verify", suite, "--constants", str(f)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "para-closure and okubo-obstruction" in captured.err

    def test_verify_suites_come_from_registry(self, capsys):
        parser = build_parser()
        assert len(checks.REGISTRY) == 19
        for suite in ("all", *checks.REGISTRY):
            assert parser.parse_args(["verify", suite]).suite == suite
        for suite in ("check-para-closure", "para_closure", "shell-formula"):
            with pytest.raises(SystemExit):
                parser.parse_args(["verify", suite])

    def test_single_group_suite(self, capsys):
        rc = main(["verify", "trace16", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [d["check"] for d in data] == sorted(checks.REGISTRY["trace16"].ids)

    def test_okubo_obstruction_suite(self, tmp_path, capsys):
        """The suite runs its own group, with or without a dump; the
        denominators are the `denominators` suite's."""
        assert main(["verify", "okubo-obstruction", "--format", "json"]) == 0
        plain = {d["check"] for d in json.loads(capsys.readouterr().out)}
        assert plain == set(checks.REGISTRY["okubo-obstruction"].ids)
        f = tmp_path / "c.txt"
        f.write_text(dump_structure_constants(structure_constants("okubo")))
        rc = main(["verify", "okubo-obstruction", "--constants", str(f),
                   "--format", "json"])
        dumped = {d["check"] for d in json.loads(capsys.readouterr().out)}
        assert rc == 0
        assert dumped == set(checks.REGISTRY["okubo-obstruction"].ids)

    def test_lattice_flags_only_where_used(self, capsys):
        """`lattice invariants` takes --fixture and --format; a flag of
        `verify` is a usage error there, and --fixture one of `verify`."""
        fixture = ["lattice", "invariants", "--fixture", "/nonexistent"]
        for argv in ([*fixture, "--max", "3"], [*fixture, "--constants", "/nonexistent"],
                     [*fixture, "--name", "hurwitz"],
                     ["verify", "shells", "--fixture", "/nonexistent"]):
            rc, out, err = run_cli(argv, capsys)
            assert (rc, out) == (2, "")
            assert "unrecognized arguments" in err

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_convention_exit_2(self, capsys):
        """There is one convention, so there is no flag to name it."""
        for name in ("mystery", claims.CONVENTION):
            rc, out, _ = run_cli(["verify", "para-closure", "--fano", name], capsys)
            assert (rc, out) == (2, "")

    def test_unknown_catalog_name_exit_2(self, capsys):
        """An unknown row is refused with the list of known ones; `all` is
        no row, as `verify catalog` alone runs every row."""
        for name in ("unobtainium", "all"):
            rc, out, err = run_cli(["verify", "catalog", "--name", name], capsys)
            assert (rc, out) == (2, "")
            assert all(known in err for known in claims.CLASSICAL_TABLE)

    def test_missing_constants_file_exit_2(self, capsys):
        assert main(["verify", "para-closure", "--constants", "/nonexistent"]) == 2

    def test_catalog_single(self, capsys):
        rc = main(["verify", "catalog", "--name", "gaussian", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert [d["check"] for d in data] == ["catalog-gaussian"]
        assert data[0]["status"] == "pass"

    def test_fixture_invariants(self, tmp_path, capsys):
        from okubo_e8.lattice import lattice_to_fixture
        from okubo_e8.orders import conductor_lattice

        f = tmp_path / "lat.json"
        f.write_text(lattice_to_fixture(conductor_lattice()))
        rc = main(["lattice", "invariants", "--fixture", str(f), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert {d["check"] for d in data} == {
            "fixture-det-vs-smith", "fixture-discriminant-order",
        }

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_determinant_past_digit_limit_exit_2(self, tmp_path, capsys, monkeypatch, fmt):
        """A valid fixture whose entries have 601 digits but whose
        determinant has about 4,800: rendering that determinant passes the
        interpreter's int-to-str limit, so it is refused before the Smith
        form, with a message that names the value and exit 2, not a
        traceback."""
        monkeypatch.setattr(lat, "smith_invariants", None)  # calling it would raise
        v, n = 10 ** 300 + 7, 8

        def diag(d):
            return [[str(d) if i == j else "0" for j in range(n)] for i in range(n)]

        f = tmp_path / "lat.json"
        f.write_text(json.dumps({"basis": diag(v), "ambient_gram": diag(1),
                                 "gram": diag(v * v)}))
        rc = main(["lattice", "invariants", "--fixture", str(f), "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: okubo-e8")
        assert ("okubo-e8: the fixture determinant has about 4,801 digits, more "
                f"than the {sys.get_int_max_str_digits():,} a report can show\n"
                ) in captured.err

    #: a 4,401-digit integer: past the default int-to-str limit of 4,300
    LONG = "1" + "0" * 4400

    def _digit_limit_exit_2(self, capsys, argv, fmt, where):
        """exit 2 with the usage line and one short message that names the
        place and the digit count and quotes only the first digits"""
        rc = main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: okubo-e8")
        assert captured.err.endswith(
            f"okubo-e8: {where} has 4,401 digits, more than the "
            f"{sys.get_int_max_str_digits():,} a number can have: '100000000000'...\n")
        assert len(captured.err) < 300

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("literal", [False, True], ids=["string", "json-integer"])
    def test_fixture_entry_past_digit_limit_exit_2(self, tmp_path, capsys, fmt, literal):
        """A fixture entry longer than int() reads, as a string or as a
        JSON integer literal, is named by matrix and position."""
        payload = json.loads(lat.lattice_to_fixture(cd_lattice()))
        payload["basis"][1][2] = self.LONG
        text = json.dumps(payload)
        if literal:
            text = text.replace(f'"{self.LONG}"', self.LONG)
        f = tmp_path / "lat.json"
        f.write_text(text)
        self._digit_limit_exit_2(capsys, ["lattice", "invariants", "--fixture", str(f)],
                                 fmt, "fixture basis entry (1, 2)")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("field, where", [(3, "number 1"), (4, "number 2"), (1, "index 2")])
    def test_constant_past_digit_limit_exit_2(self, tmp_path, capsys, fmt, field, where):
        """A dump number (or index) longer than int() reads is named by
        line and position, and the line is not echoed."""
        lines = dump_structure_constants(structure_constants("para")).splitlines()
        parts = lines[5].split(" ")
        parts[field] = self.LONG if field != 4 else f"{self.LONG}/3"
        lines[5] = " ".join(parts)
        bad = tmp_path / "constants.txt"
        bad.write_text("\n".join(lines) + "\n")
        self._digit_limit_exit_2(capsys, ["verify", "para-closure", "--constants", str(bad)],
                                 fmt, f"structure-constant line 6, {where}")

    def test_malformed_constants_exit_2(self, tmp_path, capsys):
        lines = dump_structure_constants(structure_constants("para")).splitlines()
        bad = tmp_path / "constants.txt"
        bad.write_text("\n".join(["9 0 0 1/1 0/1"] + lines[1:]) + "\n")
        assert main(["verify", "para-closure", "--constants", str(bad)]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["1e5", "1.5", "1_000", " 3/4"])
    @pytest.mark.parametrize("field", [3, 4])
    def test_non_grammar_constant_exit_2(self, tmp_path, capsys, entry, field):
        lines = dump_structure_constants(structure_constants("para")).splitlines()
        parts = lines[0].split(" ")
        parts[field] = entry
        bad = tmp_path / "constants.txt"
        bad.write_text("\n".join([" ".join(parts)] + lines[1:]) + "\n")
        assert main(["verify", "para-closure", "--constants", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # a leading space is a second separator, which the line grammar rejects
        want = "bad structure-constant line" if entry[0] == " " else "not an integer"
        assert want in captured.err

    # int() accepts a non-ASCII digit and surrounding whitespace; the
    # grammar accepts neither, nor a bare or doubled sign
    @pytest.mark.parametrize("entry", ["1e5", "1.5", "1_000", " 3/4", "\u0663", "++1",
                                       "+", "5 ", "\t5", "-"])
    @pytest.mark.parametrize("key", ["gram", "basis", "ambient_gram"])
    def test_non_grammar_fixture_exit_2(self, tmp_path, capsys, entry, key):
        payload = {"gram": [["1"]], "basis": [["1"]], "ambient_gram": [["1"]]}
        payload[key] = [[entry]]
        f = tmp_path / "lat.json"
        f.write_text(json.dumps(payload))
        assert main(["lattice", "invariants", "--fixture", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not an integer or a fraction string" in captured.err

    def test_empty_shell_range_exit_2(self, capsys):
        assert main(["verify", "shells", "--max", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_six_shells(self, capsys):
        assert main(["verify", "shells", "--max", "6"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            f"shell-n{n}" for n in range(1, 7)]
        assert re.search(r"shell-n5 pass .*n=5 count=30240 formula=30240", out)
        assert re.search(r"shell-n6 pass .*n=6 count=60480 formula=60480", out)

    def test_shell_range_above_guard_exit_2(self, capsys):
        assert main(["verify", "shells", "--max", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "maxn <= 6" in captured.err

    def test_blocks_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "stabilizer", "--blocks", "bogus"])
        assert err.value.code == 2

    def test_seed_only_on_verify(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["lattice", "invariants", "--fixture", "/nonexistent", "--seed", "1"])
        assert err.value.code == 2

    def test_stabilizer_search(self, capsys):
        rc = main(["verify", "stabilizer", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        by_id = {d["check"]: d for d in data}
        assert by_id["stabilizer-metric-count"]["status"] == "diff-recorded"
        assert by_id["stabilizer-product-set"]["status"] == "pass"


def run_cli(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call, usage errors
    included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def cold_parser():
    """The cached parser is dropped before and after the test, so no test
    sees a parser another one built."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


class TestOneParser:
    """``main`` parses with one parser per process; repeated calls share it
    and leave nothing behind in it."""

    def test_built_once(self, cold_parser, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        calls = (["verify", "shells", "--max", "1"],
                 ["verify", "catalog", "--name", "gaussian"],
                 ["verify", "para-closure", "--fano", "mystery"],
                 ["verify", "no-such-suite"],
                 ["verify", "shells", "--max", "1"])
        assert [run_cli(argv, capsys)[0] for argv in calls] == [0, 0, 2, 2, 0]
        # the top-level parser and its two subcommand parsers, once
        assert len(built) == 3
        assert build_parser() is build_parser()
        assert build_parser.cache_info().misses == 1

    def test_no_state_between_calls(self, cold_parser, tmp_path, monkeypatch,
                                    capsys):
        """A sequence of calls in one process gives, call by call, what each
        gives with a freshly built parser."""
        f = tmp_path / "para.txt"
        f.write_text(dump_structure_constants(structure_constants("para")))
        steps = (
            ["verify", "para-closure", "--constants", str(f)],
            ["verify", "para-closure"],
            ["verify", "shells", "--max", "6"],
            ["verify", "shells"],
            ["verify", "all", "--max", "3"],
            ["verify", "no-such-suite"],
            ["verify", "catalog", "--name", "gaussian"],
            ["verify", "scaling-search", "--format", "json"],
            ["verify", "scaling-search"],
        )

        def run_steps():
            return [run_cli(argv, capsys) for argv in steps]

        shared = run_steps()
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = run_steps()
        assert [r[0] for r in shared] == [0, 0, 0, 0, 2, 2, 0, 0, 0]
        assert shared == fresh
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv, stream", [
        (["--help"], 1),
        (["lattice", "--help"], 1),
        (["verify", "no-such-suite"], 2),
    ])
    def test_help_and_usage_unchanged(self, cold_parser, monkeypatch, capsys,
                                      argv, stream):
        """Help and usage text from the shared parser, used before and
        after, are byte-identical to a freshly built parser's."""
        shared = run_cli(argv, capsys)
        again = run_cli(argv, capsys)
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = run_cli(argv, capsys)
        assert shared[stream]
        assert shared == again == fresh


@pytest.fixture(scope="module")
def all_reports():
    return checks.run_all(seed=0)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "verify_all.json")


def test_golden_verify_all(all_reports):
    """`okubo-e8 verify all --format json` must stay byte-identical: any
    change to the golden file is a behaviour change."""
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    assert (serialize(all_reports, "json") + "\n").encode("utf-8") == golden


REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference.json")


def test_golden_matches_benchmark_reference():
    """The golden report and the benchmark's recorded certificate are one
    record: same sha256, same byte count, and the exit code its statuses
    give.  Re-recording one without the other fails here."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)["certify-all"]
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    assert hashlib.sha256(golden).hexdigest() == ref["sha256"]
    assert len(golden) == ref["bytes"]
    reports = [CheckReport(check=d["check"], anchor=d["anchor"],
                           convention=d["convention"], status=d["status"],
                           expected=d["expected"]["value"],
                           expected_tag=d["expected"]["tag"],
                           actual=d["actual"], details=d["details"])
               for d in json.loads(golden)]
    assert exit_code(reports) == ref["exit"]


@pytest.mark.parametrize("seed", [1, 42])
def test_seeded_groups_match_golden(seed):
    """The two groups that take a seed give the golden reports at seeds
    other than 0 as well."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = {d["check"]: d for d in json.load(fh)}
    reports = checks.check_matrix_laws(seed=seed) + checks.check_bridges(seed=seed)
    ids = checks.REGISTRY["matrix-laws"].ids + checks.REGISTRY["bridges"].ids
    assert sorted(r.check for r in reports) == sorted(ids)
    for r in reports:
        assert json.loads(json.dumps(r.to_dict())) == golden[r.check]


#: each removed spelling whose output a `verify` suite now gives: the
#: replacement, and the ids the removed spelling printed
REMOVED_SPELLINGS = {
    "catalog verify all": (["verify", "catalog"], checks.REGISTRY["catalog"].ids),
    "lattice glue": (["verify", "saturation-gluing"],
                     [i for i in checks.REGISTRY["saturation-gluing"].ids
                      if i.startswith("glue-")]),
    "lattice saturate": (["verify", "saturation-gluing"],
                         ["saturation-recovers-e8", "saturated-okubo-closure-fails"]),
    "lattice shells": (["verify", "shells"], checks.REGISTRY["shells"].ids),
    "lattice trace16": (["verify", "trace16"], checks.REGISTRY["trace16"].ids),
    "stabilizer search": (["verify", "stabilizer"], checks.REGISTRY["stabilizer"].ids),
}

#: every command that reports checks of `verify all`: each suite with its
#: default options, each catalog row, and the replacement of each removed
#: spelling, under that spelling's name
GOLDEN_COMMANDS = (
    [pytest.param(["verify", suite], None, id=f"verify {suite}") for suite in checks.REGISTRY]
    + [pytest.param(["verify", "catalog", "--name", name], None,
                    id=f"verify catalog --name {name}") for name in claims.CLASSICAL_TABLE]
    + [pytest.param(argv, spelling, id=spelling)
       for spelling, (argv, _) in REMOVED_SPELLINGS.items()]
)


@pytest.mark.parametrize("argv, removed", GOLDEN_COMMANDS)
def test_every_command_matches_golden(argv, removed, capsys):
    """Each command exits 0, and each entry it emits equals the entry with
    the same check id in the golden `verify all` report.  A removed spelling
    exits 2 with empty stdout, and its replacement emits every id it
    printed."""
    if removed is not None:
        rc, out, _ = run_cli(removed.split() + ["--format", "json"], capsys)
        assert (rc, out) == (2, "")
    rc = main(argv + ["--format", "json"])
    emitted = json.loads(capsys.readouterr().out)
    assert rc == 0 and emitted
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = {d["check"]: d for d in json.load(fh)}
    for entry in emitted:
        assert entry == golden[entry["check"]]
    if removed is not None:
        assert set(REMOVED_SPELLINGS[removed][1]) <= {e["check"] for e in emitted}


def test_discriminant_routes_must_agree(monkeypatch):
    """A Hermite diagonal whose product is not the Smith order fails both
    discriminant checks."""
    real = lat.hermite_form

    def perturbed(m):
        hermite = real(m)
        hermite[-1][-1] *= 2
        return hermite

    assert [r.status for r in checks.check_discriminant()] == ["pass", "pass"]
    monkeypatch.setattr(lat, "hermite_form", perturbed)
    reports = checks.check_discriminant()
    assert [r.status for r in reports] == ["fail", "fail"]
    assert reports[0].actual == {"smith_order": 16777216, "hermite_order": 33554432}


def test_planted_product_filter_fails_the_certificate(monkeypatch):
    """A product filter that lets every metric survivor through breaks the
    paper's "only the identity preserves the product": no other check sees
    it, so stabilizer-product-set must fail, and `verify all` exits 1."""
    monkeypatch.setattr(stab, "preserves_product", lambda cand, m_constants: True)
    reports = checks.run_all(seed=0)
    assert [r.check for r in reports if r.status == FAIL] == ["stabilizer-product-set"]
    assert exit_code(reports) == 1


def test_bumped_trace_pattern_fails(monkeypatch):
    """A claimed trace pattern the order basis does not have fails
    basis-trace-formula."""
    bumped = (claims.TRACE_PATTERN[0] + 1,) + claims.TRACE_PATTERN[1:]
    before = {r.check: r.status for r in checks.check_basis_forms()}
    monkeypatch.setattr(claims, "TRACE_PATTERN", bumped)
    after = {r.check: r.status for r in checks.check_basis_forms()}
    assert before["basis-trace-formula"] == PASS
    assert after == {**before, "basis-trace-formula": FAIL}


def test_bumped_shell_value_fails(monkeypatch):
    """Each shell count is compared with its claimed value, so a claimed
    value the lattice does not have fails its shell id alone."""
    bumped = list(claims.SHELL_VALUES)
    bumped[2] += 1
    before = {r.check: r.status for r in checks.check_shells()}
    monkeypatch.setattr(claims, "SHELL_VALUES", tuple(bumped))
    after = {r.check: r.status for r in checks.check_shells()}
    assert before == dict.fromkeys(("shell-n1", "shell-n2", "shell-n3", "shell-n4"), PASS)
    assert after == {**before, "shell-n3": FAIL}


def test_sigma3_formula_is_checked(monkeypatch, capsys):
    """Each shell count is compared with 240 sigma_3(n) as well: a formula
    that disagrees with the count fails every shell id, and reports both
    values as the actual."""
    monkeypatch.setattr(lat, "sigma3", lambda n: 7)
    reports = checks.check_shells()
    assert {r.check: r.status for r in reports} == dict.fromkeys(
        ("shell-n1", "shell-n2", "shell-n3", "shell-n4"), FAIL)
    assert reports[0].actual == {"count": 240, "formula": 1680}
    assert main(["verify", "shells"]) == 1


class TestOneRoute:
    """`verify SUITE` is the one route to each check group, and its flags
    are the group parameters, derived from the registry."""

    #: a value for each flag that its suites accept
    VALUES = {"--seed": "1", "--max": "5", "--name": "hurwitz"}

    def test_every_group_parameter_has_a_flag(self):
        params = {param for param, *_ in cli.FLAGS.values()}
        assert set().union(*(g.params for g in checks.REGISTRY.values())) == params
        assert set(cli.SUITE_PARAMS) == {"all", *checks.REGISTRY}

    @pytest.mark.parametrize("flag", sorted(cli.FLAGS))
    def test_flag_accepted_exactly_where_its_group_takes_it(self, flag, tmp_path, capsys):
        param = cli.FLAGS[flag][0]
        dumps = {}
        for suite, product in (("para-closure", "para"), ("okubo-obstruction", "okubo")):
            dumps[suite] = tmp_path / f"{product}.txt"
            dumps[suite].write_text(dump_structure_constants(structure_constants(product)))
        accepted = []
        takers = [suite for suite, group in checks.REGISTRY.items() if param in group.params]
        for suite in ("all", *checks.REGISTRY):
            value = str(dumps.get(suite, "/nonexistent")) if flag == "--constants" \
                else self.VALUES[flag]
            rc, out, err = run_cli(["verify", suite, flag, value, "--format", "json"], capsys)
            takes = param in (checks.REGISTRY[suite].params if suite != "all" else {"seed"})
            if takes:
                accepted.append(suite)
                assert rc == 0 and err == ""
                group = checks.REGISTRY.get(suite)
                emitted = [d["check"] for d in json.loads(out)]
                if flag == "--max":
                    assert emitted == [f"shell-n{n}" for n in range(1, 6)]
                elif flag == "--name":
                    assert emitted == ["catalog-hurwitz"]
                elif group is not None:
                    assert sorted(emitted) == sorted(group.ids)
            else:
                assert (rc, out) == (2, "")
                assert f"{flag} applies only to the " in err
                assert all(taker in err for taker in takers)
        assert tuple(accepted) == cli.SUITES_OF[flag]

    @pytest.mark.parametrize("argv", [
        ["stabilizer", "search"], ["catalog", "verify"], ["catalog", "verify", "all"],
        ["catalog", "verify", "hurwitz"], ["lattice", "shells"], ["lattice", "glue"],
        ["lattice", "saturate"], ["lattice", "trace16"], ["lattice", "invariants"],
        ["verify", "para-closure", "--fano", "cd1946"],
        # a prefix of a flag is not the flag
        ["verify", "shells", "--ma", "6"], ["verify", "all", "--s", "3"],
        ["lattice", "invariants", "--fix", "/nonexistent", "--form", "json"],
    ], ids=" ".join)
    def test_deleted_spelling_exit_2(self, argv, capsys):
        rc, out, _ = run_cli(argv, capsys)
        assert (rc, out) == (2, "")

    def test_every_flag_prefix_is_refused(self, capsys):
        """Every proper prefix of every flag, after its `--`, is refused on
        each command that takes the flag; the full spelling parses."""
        verify = {flag: ["verify", suites[0], flag, self.VALUES.get(flag, "F")]
                  for flag, suites in cli.SUITES_OF.items()}
        cases = [*verify.items(),
                 ("--format", ["verify", "all", "--format", "json"]),
                 ("--format", ["lattice", "invariants", "--fixture", "F", "--format", "json"]),
                 ("--fixture", ["lattice", "invariants", "--fixture", "F"])]
        parser = build_parser()
        for flag, argv in cases:
            parser.parse_args(argv)
            for end in range(3, len(flag)):
                rc, out, _ = run_cli([flag[:end] if arg == flag else arg for arg in argv],
                                     capsys)
                assert (rc, out) == (2, ""), flag[:end]

    def test_format_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("OKUBO_E8_FORMAT", "json")
        rc, out, _ = run_cli(["verify", "denominators"], capsys)
        assert rc == 0 and out.startswith("okubo-denominators pass")


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme_command_line():
    """The text of README's "Command line" section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_commands_parse(tmp_path):
    """Each `okubo-e8 ...` line of the section's command block parses, with
    FILE standing for a written file; nothing runs.  In its table of removed
    spellings, each spelling of the first column is refused and each
    replacement in the second parses."""
    section = _readme_command_line()
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("okubo-e8 ")]
    cells = [line.strip("|").split("|")[:2] for line in section.splitlines()
             if line.startswith("| `okubo-e8 ")]
    removed, replacements = (
        [argv.split() for cell in column for argv in re.findall(r"`okubo-e8 ([^`]*)`", cell)]
        for column in zip(*cells))
    assert len(commands) >= 5 and len(removed) >= 9 and len(replacements) >= len(removed)
    path = tmp_path / "input"
    path.write_text("")
    parser = build_parser()

    def parse(argv):
        return parser.parse_args([str(path) if arg == "FILE" else arg for arg in argv])

    for argv in commands + replacements:
        parse(argv)
    for argv in removed:
        with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            parse(argv)


class TestCoverage:
    def test_run_all_matches_check_map(self, all_reports):
        emitted = {r.check for r in all_reports}
        assert emitted == {cid for g in checks.REGISTRY.values() for cid in g.ids}
        assert len(all_reports) == len(emitted)  # ids unique

    def test_anchor_consistency(self, all_reports):
        by_id = {r.check: r.anchor for r in all_reports}
        for group in checks.REGISTRY.values():
            for cid in group.ids:
                assert by_id[cid] == group.anchor

    def test_docs_table_is_rendered_registry(self):
        """docs/checks.md is exactly the rendering of the registry;
        regenerate it with `python -m okubo_e8.checks > docs/checks.md`."""
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "docs", "checks.md"), encoding="utf-8") as fh:
            assert fh.read() == checks.docs_markdown()

    def test_undeclared_id_rejected(self):
        with pytest.raises(KeyError):
            checks._cmp("no-such-check", 0, "trivial", 0)
        assert checks._cmp("shell-n6", 1, "claimed", 1).anchor == "shell-formula"
        with pytest.raises(ValueError):
            checks.check("shell-formula", "again", ["shell-n9"])(lambda: [])

    def test_every_report_carries_convention_and_tag(self, all_reports):
        for r in all_reports:
            assert r.convention == "cd1946"
            assert r.expected_tag in ("claimed", "trivial", "derived")
