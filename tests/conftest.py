import contextlib
import gc
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


@pytest.fixture(autouse=True)
def collector_left_running():
    """Fail any test that leaves the garbage collector frozen or disabled.

    Left so, it would keep every later test's cyclic garbage; it is set
    running again before the test fails.
    """
    yield
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    gc.unfreeze()
    gc.enable()
    assert (frozen, enabled) == (0, True), "the garbage collector was left frozen or disabled"
