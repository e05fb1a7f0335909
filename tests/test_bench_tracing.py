"""Every name the benchmark's tracer wraps exists in topicpages.

bench/tracing.py wraps functions and Runner methods by name when a run is
traced; a name that no longer resolves would fail only a traced benchmark
run.  These tests make a rename fail the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from topicpages.pipeline import Runner

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize("module,function", sorted({**TRACING.SPANNED, **TRACING.COUNTED}))
def test_wrapped_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("method", sorted(TRACING.STAGE_LABELS))
def test_labelled_stage_method_exists(method):
    assert callable(getattr(Runner, method, None))
