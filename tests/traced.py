"""The traced memory peak of one call, for tests that bound what a pass
holds at once."""

import tracemalloc


def traced_peak_rise(call) -> int:
    """Bytes by which ``call()`` raises the traced peak above what was
    allocated when it began; NumPy's buffers are traced too."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
