"""The benchmark tracer (perfbench/tracer.py) wraps package objects by
name.  A rename or a reordered check group would break traced runs
without failing anything else, so its tables are checked here against
the package.  The tracer module is only imported, never modified."""

import importlib
import importlib.util
from pathlib import Path

from okubo_e8 import checks, exact

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_and_counters_resolve():
    tracer = _tracer()
    for module, name in tracer.SPANS + tracer.COUNTED:
        mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_dunders_are_class_attributes():
    for cls_name, dunder, _ in _tracer().DUNDERS:
        assert dunder in vars(getattr(exact, cls_name)), f"{cls_name}.{dunder}"


def test_check_groups_follow_the_registry():
    assert _tracer().CHECK_GROUPS == [g.name for g in checks.REGISTRY.values()]
