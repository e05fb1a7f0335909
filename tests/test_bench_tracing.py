"""Every name the benchmark's tracer wraps exists in topicpages.

bench/tracing.py wraps functions and Runner methods by name when a run is
traced; a name that no longer resolves would fail only a traced benchmark
run.  These tests make a rename fail the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from topicpages.pipeline import Runner

from conftest import never_parse

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


@pytest.fixture
def tracer():
    """A Tracer installed for one test; every name it replaced is put back after."""
    import topicpages  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items()
               if name == "topicpages" or name.startswith("topicpages.")]
    saved = [(owner, dict(vars(owner))) for owner in (*modules, Runner)]
    tracer = TRACING.Tracer()
    tracer.install()
    yield tracer
    for owner, attrs in saved:
        for attr, value in attrs.items():
            if vars(owner).get(attr) is not value:
                setattr(owner, attr, value)


def test_embedding_load_is_one_span_on_a_cache_miss_and_on_a_hit(
    tracer, e2e_config, monkeypatch
):
    from topicpages import embeddings as embeddings_mod
    from topicpages.config import load_config
    from topicpages.pipeline import run_pipeline

    vocab = []
    for out in ("miss", "hit"):
        overrides = {"out_dir": str(e2e_config.parent / out)}
        config = load_config(e2e_config, env={}, overrides=overrides)
        assert run_pipeline(config)[0] == 0
        assert [span[0] for span in tracer.spans].count("embeddings.load") == 1
        vocab.append(tracer.vocab)
        tracer.spans, tracer.vocab = [], []
        # the second run is served from the entry the first run saved
        monkeypatch.setattr(embeddings_mod, "_parse_file", never_parse)
    assert len(vocab[0]) == 1 and vocab[1] == vocab[0]
