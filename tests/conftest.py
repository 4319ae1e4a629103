"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn)``: the most memory that tracemalloc saw allocated
    at once while ``fn()`` ran, beyond what was allocated before; numpy
    reports its array buffers to tracemalloc."""
    def measure(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return measure
