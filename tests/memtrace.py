"""Memory of one call, measured with tracemalloc."""

import tracemalloc


def traced(fn, *args, **kwargs):
    """(fn(*args, **kwargs), bytes it left allocated, its peak in bytes),
    both counted from the call's start."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak
