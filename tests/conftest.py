import threading

import pytest
from hypothesis import settings

# a failing property test prints the blob that replays its example
settings.register_profile("cordeslab", print_blob=True)
settings.load_profile("cordeslab")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running: the path-block and the
    fixed-point sweep pools must join their workers before they return,
    also when they raise."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


class FnEntry:
    """A moving scalar field entry given by a function ``fn(points, t)``:
    a coefficient the expression language cannot write, set on a field
    with ``dataclasses.replace``."""

    time_dependent = True

    def __init__(self, fn):
        self.fn = fn

    def eval_raw(self, x, t):
        return self.fn(x, t)
