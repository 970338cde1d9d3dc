"""The traced memory of one call, for tests that bound what a pass holds
at once."""

import tracemalloc


def traced_rises(call) -> tuple[int, int]:
    """Bytes by which ``call()`` raises the traced memory, as held when it
    returns and at its peak, above what was allocated when it began;
    NumPy's buffers are traced too."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        held, peak = tracemalloc.get_traced_memory()
        return held - start, peak - start
    finally:
        tracemalloc.stop()


def traced_peak_rise(call) -> int:
    """Bytes by which ``call()`` raises the traced peak, as in
    :func:`traced_rises`."""
    return traced_rises(call)[1]
