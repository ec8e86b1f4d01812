import os
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


class SharedLog:
    """Lines that any process may append, read back in the test process.

    Each line is one write to a file opened with O_APPEND, so lines from
    worker processes never interleave. Only os-level calls touch the file,
    so a test may patch builtins.open or os.mkdir and still log from them.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.clear()

    def clear(self) -> None:
        os.close(os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC))

    def append(self, line: str) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
        finally:
            os.close(fd)

    def lines(self) -> list:
        fd = os.open(self.path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
        return b"".join(chunks).decode("utf-8").splitlines()
