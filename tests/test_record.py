"""The package builds its value types and its check registry without
generated code: ``@record`` against the standard library's frozen
dataclass as the oracle, each check group's parameter names against
``inspect.signature``, and a fresh interpreter that imports the command
line without ``dataclasses`` or ``inspect`` (nor ``ast``, ``dis`` and
``tokenize``, which ``inspect`` brings)."""

import ast
import inspect
import subprocess
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import pytest

from okubo_e8 import checks
from okubo_e8._record import record
from okubo_e8.report import CheckReport

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: modules ``import okubo_e8.cli`` must leave unloaded
NOT_IMPORTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _twin(decorate):
    """One record class, made by ``decorate``: a defaulted field, a check
    after construction and a cached property."""

    class Rec:
        a: int
        b: tuple
        c: str = "c"

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a must not be negative")

        @cached_property
        def total(self):
            return self.a + len(self.b) + len(self.c)

    return decorate(Rec)


OURS, ORACLE = _twin(record), _twin(dataclass(frozen=True))
#: a second class with the same name and fields
OTHER = _twin(record)

CALLS = [
    ((1, (2,)), {}),
    ((1, (2,), "x"), {}),
    ((1,), {"b": (2,), "c": "x"}),
    ((), {"c": "c", "b": (2,), "a": 1}),
    ((0, ()), {}),
]

BAD_CALLS = [
    ((), {}),                          # missing
    ((1,), {}),                        # missing
    ((1, (), "c", 4), {}),             # extra positional
    ((1, ()), {"d": 4}),               # unknown keyword
    ((1,), {"a": 2, "b": ()}),         # repeated
]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_repr_hash_and_cached_property_match_the_oracle(args, kwargs):
    ours, oracle = OURS(*args, **kwargs), ORACLE(*args, **kwargs)
    assert repr(ours) == repr(oracle)
    assert hash(ours) == hash(oracle)
    assert ours.total == oracle.total
    assert vars(ours) == vars(oracle)  # the fields, then the cached value
    assert ours.total is ours.total
    assert repr(ours) == repr(oracle)  # the cached value is not a field


def test_equality_matches_the_oracle():
    for x_args, x_kwargs in CALLS:
        for y_args, y_kwargs in CALLS:
            assert ((OURS(*x_args, **x_kwargs) == OURS(*y_args, **y_kwargs))
                    == (ORACLE(*x_args, **x_kwargs) == ORACLE(*y_args, **y_kwargs)))
    x = OURS(1, (2,))
    x.total  # a cached value is not compared
    assert x == OURS(1, (2,))


def test_no_equality_across_classes():
    ours = OURS(1, (2,))
    for other in (OTHER(1, (2,)), ORACLE(1, (2,))):
        assert ours != other and other != ours
        assert not (ours == other) and not (other == ours)
    assert ours.__eq__(OTHER(1, (2,))) is NotImplemented


@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_bad_arguments_raise_what_the_oracle_raises(args, kwargs):
    with pytest.raises(TypeError):
        ORACLE(*args, **kwargs)
    with pytest.raises(TypeError):
        OURS(*args, **kwargs)


def test_post_init_runs():
    for cls in (ORACLE, OURS):
        with pytest.raises(ValueError, match="must not be negative"):
            cls(-1, ())


@pytest.mark.parametrize("change", [
    lambda r: setattr(r, "a", 2),
    lambda r: setattr(r, "new", 2),
    lambda r: delattr(r, "a"),
], ids=["assign-field", "assign-other", "delete"])
def test_records_are_frozen(change):
    # the oracle raises FrozenInstanceError, a subclass of AttributeError
    for cls in (ORACLE, OURS):
        r = cls(1, (2,))
        with pytest.raises(AttributeError):
            change(r)
        assert r == cls(1, (2,))


def test_check_report_rejects_a_bad_status_or_tag():
    fields = dict(check="c", anchor="a", convention="v", status="pass",
                  expected=1, expected_tag="derived", actual=1)
    assert CheckReport(**fields).details is None
    with pytest.raises(ValueError, match="bad status"):
        CheckReport(**{**fields, "status": "bogus"})
    with pytest.raises(ValueError, match="bad provenance tag"):
        CheckReport(**{**fields, "expected_tag": "bogus"})


def test_record_compiles_nothing():
    tree = ast.parse((SRC / "okubo_e8" / "_record.py").read_text())
    called = {getattr(node.func, "id", None) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert not called & {"exec", "eval", "compile"}


@pytest.mark.parametrize("suite", sorted(checks.REGISTRY))
def test_group_params_match_the_signature(suite):
    group = checks.REGISTRY[suite]
    fn = getattr(checks, group.name)
    assert group.params == frozenset(inspect.signature(fn).parameters)


def test_cli_import_loads_no_code_generation():
    probe = ("import sys\n"
             f"sys.path.insert(0, {str(SRC)!r})\n"
             "import okubo_e8.cli\n"
             f"print(' '.join(m for m in {NOT_IMPORTED!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
