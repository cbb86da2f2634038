"""One seeded pass of the benchmark's ``fixture-audit`` workload: the
inputs ``perfbench/fixtures.py`` writes, run through ``cli.main`` as the
benchmark's child process runs them, and checked by that workload's own
checkers.  A reader change that breaks the workload fails here, not only
in the benchmark's pass rate.  The perfbench files are only read."""

import contextlib
import importlib.util
import io
from pathlib import Path

from okubo_e8 import cli

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_step(argv):
    """exit code and stdout bytes of one step, as perfbench/child.py takes them"""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode("utf-8")


def test_one_seeded_pass(tmp_path, monkeypatch):
    fixtures, run = _load("fixtures"), _load("run")
    monkeypatch.delenv(cli.ENV_FORMAT, raising=False)
    steps = fixtures.Inputs(711).steps(str(tmp_path))
    assert len(steps) == fixtures.FIXTURES + 2 * fixtures.DUMPS  # para and Okubo dumps
    outputs = [_run_step(argv) for argv, _ in steps]
    failed = [" ".join(argv) for (argv, check), (code, out) in zip(steps, outputs)
              if not run._checked(check, code, out)]
    assert not failed, failed
    # the checkers are not vacuous: each refuses the report of another kind
    # of step, and a right report with a wrong exit code
    first_dump = fixtures.FIXTURES
    for (_, check), (code, out) in ((steps[0], outputs[first_dump]),
                                    (steps[first_dump], outputs[0]),
                                    (steps[-1], outputs[first_dump])):
        assert not run._checked(check, code, out)
    assert not run._checked(steps[0][1], 1, outputs[0][1])
