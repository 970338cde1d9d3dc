"""How fast the shared machine runs while a measured pass runs.

The benchmark's machine shares its cores with other tenants, and its speed
changes by up to a third in phases of seconds to minutes, which is as long as
a whole run. A wall time alone then says as much about the machine's phase as
about the program. So while a pass runs, a SIGALRM handler times a fixed
tick every :data:`INTERVAL_S`, and the pass's wall time is rescaled to a
machine on which the tick takes :data:`REFERENCE_TICK_S`. The tick does not
call `nprl`; its time is part of the pass's wall time (about 0.6 %), on both
sides of any comparison.

The tick is integer arithmetic in the interpreter. Of the ticks tried
against passes of all three workloads (see ``README.md``), it followed the
machine's speed best on every workload, and its own time depended least on
which workload it interrupted: ticks of small NumPy calls ran up to 1.6x
slower inside `cohort_io`, which leaves NumPy's code cold, than inside
`cv_h32`, so they would rescale a program that stops using NumPy.

Interrupted system calls are retried by Python (PEP 475), and the handler
runs between bytecodes, after a running NumPy call returns.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

INTERVAL_S = 0.02
_TICK_ITERATIONS = 1500
_BRACKET_TICKS = 20
# Mean tick time inside the passes on the machine the baseline was measured
# on, so rescaled times read near the wall times seen there.
REFERENCE_TICK_S = 1.2e-4


def time_tick() -> float:
    """Wall time of one fixed tick."""
    started = perf_counter()
    total = 0
    for i in range(_TICK_ITERATIONS):
        total += i * i % 7
    return perf_counter() - started


@contextmanager
def sampled() -> Iterator[list[float]]:
    """Time a tick at entry and every INTERVAL_S while the block runs; the
    yielded list fills with the tick times."""
    ticks = [time_tick()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(time_tick()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield ticks
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def bracketed(call: Callable[[], object]) -> tuple[float, float]:
    """Wall time of ``call()``, raw and rescaled, for work the handler cannot
    sample, such as a child process: the ticks are timed just before and just
    after the call, outside its time."""
    ticks = [time_tick() for _ in range(_BRACKET_TICKS)]
    started = perf_counter()
    call()
    wall = perf_counter() - started
    ticks += [time_tick() for _ in range(_BRACKET_TICKS)]
    return wall, at_reference_speed(wall, ticks)


def at_reference_speed(wall: float, ticks: list[float]) -> float:
    """``wall`` rescaled to a machine on which the tick takes REFERENCE_TICK_S."""
    return wall * REFERENCE_TICK_S / statistics.mean(ticks)
