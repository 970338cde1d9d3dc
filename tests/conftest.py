import os

import pytest
from hypothesis import settings

from simd import describe, simd_level

# CI runs with --hypothesis-profile=ci: the same examples on every run, and no
# per-example deadline, so a property test cannot flake on a slow runner.
settings.register_profile("ci", derandomize=True, deadline=None)


def pytest_report_header(config):
    """The SIMD level the run computes at: the golden digests of the model
    and training tests are looked up by it."""
    return f"SIMD level: {describe(simd_level())}"


@pytest.fixture
def two_threads(monkeypatch):
    """Every job pair that can run on two threads does, whatever its size and
    the CPUs this process may use: both directions of a bidirectional GRU
    pass, the two block ranges of any Adam update of two blocks or more, and
    the two GEMMs of an affine backward that needs both gradients. Returns
    the list of worker threads started by ``numgrad.run_pair``, in order."""
    from nprl import model as M
    from nprl import numgrad as ng

    started = []

    class Counted(ng.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(M, "TWO_THREAD_WORK", 0)
    monkeypatch.setattr(ng, "ADAM_SPLIT", 0)
    monkeypatch.setattr(ng, "AFFINE_SPLIT", 0)
    monkeypatch.setattr(ng, "Thread", Counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return started
