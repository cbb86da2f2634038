"""The per-test time limit of ``conftest.py``: a test that runs past its
limit fails with TimeoutError instead of stalling the suite."""

import signal
import time

import pytest

from conftest import time_limit


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_sleep_past_the_limit_raises():
    with pytest.raises(TimeoutError, match="sleeper ran past its 1 s limit"):
        with time_limit(1, "sleeper"):
            time.sleep(5)
