"""Peak traced memory of one call, for the tests that hold a kernel's
temporaries to a size.

numpy reports its array buffers to tracemalloc, so the peak counts arrays
and Python objects alike.
"""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak traced bytes above those traced when
    it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak
