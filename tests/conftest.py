import multiprocessing
import os

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


@pytest.fixture(autouse=True)
def blas_threads_env_restored():
    """cli.main() without argv is the program, and sets OPENBLAS_NUM_THREADS
    when it is unset. Restore the suite's value, so that the subprocesses of
    later tests do not inherit it."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before
