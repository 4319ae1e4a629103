"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

import s4is.surrogate


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


@pytest.fixture
def start_nlls(monkeypatch):
    """The value (``fun``) at which each L-BFGS-B start of a GP fit ended,
    in order, over every fit made while the test runs; a test clears the
    list to look at one fit. It stands in for ``s4is.surrogate.optimize``,
    the seam through which the benchmark's tracer counts the starts too.
    A fit's best objective is the least of its starts' values."""
    values = []
    real = s4is.surrogate.optimize

    class Recording:
        def __getattr__(self, name):
            return getattr(real, name)

        def minimize(self, *args, **kwargs):
            res = real.minimize(*args, **kwargs)
            values.append(res.fun)
            return res

    monkeypatch.setattr(s4is.surrogate, "optimize", Recording())
    return values
