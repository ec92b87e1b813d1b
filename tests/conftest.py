import contextlib
import os
import signal

import pytest


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test if the block outlives it."""
    return _deadline


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process behind, such as a forked batch worker."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
