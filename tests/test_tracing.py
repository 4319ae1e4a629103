"""The benchmark tracer's contract with the package: every name it patches
exists where it looks, and uninstalling puts every original back."""

import importlib.util
import sys
from pathlib import Path

import scipy.optimize

import s4is.surrogate

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing(monkeypatch):
    """bench/tracing.py, loaded from its file and registered only for the
    test (its dataclasses look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    tracing = _tracing(monkeypatch)
    originals = []
    for owner, attr, *_ in tracing._TARGETS:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"
        originals.append((owner, attr, getattr(owner, attr)))
    with tracing.Tracer():
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
        assert s4is.surrogate.optimize is not scipy.optimize
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    assert s4is.surrogate.optimize is scipy.optimize
