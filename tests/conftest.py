"""Suite-wide hooks."""

import signal

import pytest

# the slowest test takes a few seconds; an exact elimination whose entries
# grow without bound would otherwise run on for minutes instead of failing
TEST_SECONDS = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_SECONDS.  Not an Exception, so
    the claim runner, which records an Exception as a failed claim and goes
    on to the next, lets it through."""


def _timed_out(signum, frame):
    raise TimeLimitExceeded(f"test ran past {TEST_SECONDS} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail any test that runs past TEST_SECONDS, counting its set-up and
    tear-down, so a module fixture that the test is the first to need is
    timed too."""
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
