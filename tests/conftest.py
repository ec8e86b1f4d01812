import tracemalloc

import numpy as np

from cldp import GrayImage


def gray(values) -> GrayImage:
    return GrayImage(np.asarray(values, dtype=np.float64))


def random_8bit(rng, h: int, w: int) -> np.ndarray:
    return np.floor(rng.uniform(0.0, 256.0, size=(h, w)))


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc traces while fn() runs, above what was traced
    when it started. numpy reports its array buffers to tracemalloc."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
