import signal
import sys
from contextlib import contextmanager

import pytest

#: seconds one test may run before it fails instead of stalling the suite;
#: the slowest test takes a few seconds
TEST_TIMEOUT_S = 120


@contextmanager
def time_limit(seconds: int, name: str):
    """Raise TimeoutError naming ``name`` in the block once it has run
    ``seconds``, by SIGALRM, and again each second after until the block
    ends, in case the block swallows the error (Hypothesis does, and then
    replays and shrinks the example that raised it).  Without SIGALRM the
    block runs unlimited.  There is one alarm per process, so a limit set
    inside another replaces it, and disarms it when the inner block ends."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        signal.alarm(1)
        raise TimeoutError(f"{name} ran past its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _test_time_limit(request):
    with time_limit(TEST_TIMEOUT_S, request.node.nodeid):
        yield


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, after the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, ok in sorted(results):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:02d} {name}: {status}")
