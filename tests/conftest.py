import multiprocessing

import pytest
from hypothesis import settings

# Derandomized: each property test draws the same examples on every run, so
# two runs of one commit give the same result. Each test keeps its own
# max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a worker
    pool that was never joined."""
    yield
    assert multiprocessing.active_children() == []
