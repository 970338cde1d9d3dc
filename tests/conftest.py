import os

import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run, and no
# per-example deadline, so a property test cannot flake on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def two_threads(monkeypatch):
    """Every bidirectional GRU pass runs its two directions on two threads,
    whatever its size and the CPUs this process may use; returns the list of
    worker threads started, in order."""
    from nprl import model as M

    started = []

    class Counted(M.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(M, "TWO_THREAD_WORK", 0)
    monkeypatch.setattr(M, "Thread", Counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return started
