"""Report schema, serialization determinism, CLI exit codes, and the
claim-to-check coverage of the full suite."""

import json
import os
import re
from fractions import Fraction

import pytest

from okubo_e8 import checks
from okubo_e8 import lattice as lat
from okubo_e8.cli import build_parser, main
from okubo_e8.exact import QuadExt
from okubo_e8.orders import dump_structure_constants, structure_constants
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
        assert compare("c", "a", "v", 1, "trivial", 1).status == PASS
        assert compare("c", "a", "v", 1, "trivial", 2).status == FAIL
        assert compare("c", "a", "v", 1, "trivial", 2, record_only=True).status == DIFF


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
        rc = main(["lattice", "shells", "--max", "1"])
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
        assert main(["verify", "okubo-obstruction", "--format", "json"]) == 0
        plain = {d["check"] for d in json.loads(capsys.readouterr().out)}
        assert plain == {*checks.REGISTRY["okubo-obstruction"].ids,
                         "okubo-denominators"}
        f = tmp_path / "c.txt"
        f.write_text(dump_structure_constants(structure_constants("okubo")))
        rc = main(["verify", "okubo-obstruction", "--constants", str(f),
                   "--format", "json"])
        dumped = {d["check"] for d in json.loads(capsys.readouterr().out)}
        assert rc == 0
        assert dumped == set(checks.REGISTRY["okubo-obstruction"].ids)

    def test_lattice_flags_only_where_used(self, capsys):
        for argv in (["lattice", "trace16", "--fixture", "/nonexistent"],
                     ["lattice", "shells", "--fixture", "/nonexistent"],
                     ["lattice", "glue", "--max", "3"],
                     ["lattice", "invariants", "--max", "3"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "applies only to" in captured.err

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_convention_exit_2(self, capsys):
        assert main(["verify", "para-closure", "--fano", "mystery"]) == 2

    def test_unknown_catalog_name_exit_2(self, capsys):
        assert main(["catalog", "verify", "unobtainium"]) == 2

    def test_missing_constants_file_exit_2(self, capsys):
        assert main(["verify", "para-closure", "--constants", "/nonexistent"]) == 2

    def test_catalog_single(self, capsys):
        rc = main(["catalog", "verify", "gaussian", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data[0]["check"] == "catalog-gaussian"
        assert data[0]["status"] == "pass"

    def test_env_format_override(self, capsys, monkeypatch):
        monkeypatch.setenv("OKUBO_E8_FORMAT", "json")
        rc = main(["verify", "scaling-search"])
        out = capsys.readouterr().out
        assert rc == 0
        json.loads(out)  # valid JSON

    def test_bad_env_format_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("OKUBO_E8_FORMAT", "xml")
        assert main(["verify", "scaling-search"]) == 2

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

    @pytest.mark.parametrize("entry", ["1e5", "1.5", "1_000", " 3/4"])
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
        assert main(["lattice", "shells", "--max", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_six_shells(self, capsys):
        assert main(["lattice", "shells", "--max", "6"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 6
        assert re.search(r"shell-n5 pass .*n=5 count=30240 formula=30240", out)
        assert re.search(r"shell-n6 pass .*n=6 count=60480 formula=60480", out)

    def test_shell_range_above_guard_exit_2(self, capsys):
        assert main(["lattice", "shells", "--max", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "maxn <= 6" in captured.err

    def test_blocks_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["stabilizer", "search", "--blocks", "bogus"])
        assert err.value.code == 2

    def test_seed_only_on_verify(self, capsys):
        for argv in (["lattice", "trace16"], ["stabilizer", "search"],
                     ["catalog", "verify", "gaussian"]):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--seed", "1"])
            assert err.value.code == 2

    def test_stabilizer_search(self, capsys):
        rc = main(["stabilizer", "search", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        by_id = {d["check"]: d for d in data}
        assert by_id["stabilizer-metric-count"]["status"] == "diff-recorded"
        assert by_id["stabilizer-product-set"]["status"] == "pass"


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


def test_discriminant_routes_must_agree(monkeypatch):
    """A Hermite diagonal whose product is not the Smith order fails both
    discriminant checks."""
    real = lat.hnf_with_transform

    def perturbed(m):
        hermite, transform = real(m)
        hermite[-1][-1] *= 2
        return hermite, transform

    assert [r.status for r in checks.check_discriminant()] == ["pass", "pass"]
    monkeypatch.setattr(lat, "hnf_with_transform", perturbed)
    reports = checks.check_discriminant()
    assert [r.status for r in reports] == ["fail", "fail"]
    assert reports[0].actual == {"smith_order": 16777216, "hermite_order": 33554432}


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
