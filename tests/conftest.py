import signal

import pytest


@pytest.fixture
def within_5_s():
    """Fails the test with a TimeoutError once it has run for 5 s, so a call
    that loops forever fails instead of hanging the suite."""

    def stop(*_):
        raise TimeoutError("still running after 5 s")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
