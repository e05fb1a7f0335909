"""Out-of-process tracing for one pipeline run: spans and counters, no code edits.

install() wraps, from outside the program:
  * every Runner.stage_* method and Runner.write_manifest, as stage spans;
  * run_pipeline, as the root span;
  * the snapshot-store and embedding-load functions, as nested spans;
  * hot module functions, as call counters.

A module function is replaced in every topicpages module that holds it, so
calls through `from .urls import registrable_domain` are counted too.  Spans
are kept in memory as (name, start, end, parent) and written by dump().
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

# Runner method -> stage label; stages added later keep their method name
STAGE_LABELS = {
    "stage_fetch": "fetch",
    "stage_extract": "extract",
    "stage_fit_thresholds": "fit",
    "stage_filter": "filter",
    "stage_classify": "classify",
    "stage_best_subpages": "best",
    "stage_track": "track",
    "stage_content": "content",
    "stage_cluster": "cluster",
    "stage_cluster_sweep": "sweep",
    "stage_report": "report",
    "write_manifest": "manifest",
}

# (module, function) -> span name
SPANNED = {
    ("topicpages.pipeline", "run_pipeline"): "pipeline",
    ("topicpages.embeddings", "load_embeddings_file"): "embeddings.load",
    ("topicpages.fetch", "save_snapshots"): "store.save",
    ("topicpages.fetch", "load_snapshot_index"): "store.index",
    ("topicpages.fetch", "read_snapshot"): "store.read",
}

# (module, function) -> counter name
COUNTED = {
    ("topicpages.urls", "normalize"): "urls.normalize.calls",
    ("topicpages.urls", "registrable_domain"): "urls.registrable_domain.calls",
    ("topicpages.urls", "url_metrics"): "thresholds.url_metrics.calls",
    ("topicpages.embeddings", "cosine"): "embeddings.cosine.calls",
    ("topicpages.embeddings", "combined_embedding"): "embeddings.combined_embedding.calls",
    ("topicpages.tracking", "record_third_parties"): "tracking.record_third_parties.calls",
    ("topicpages.content", "extract_text"): "content.extract_text.calls",
    ("topicpages.stemmer", "stem"): "stemmer.stem.calls",
    ("topicpages.cluster", "kmeans"): "cluster.kmeans.calls",
    ("topicpages.cluster", "gap_statistic"): "cluster.gap_statistic.calls",
    ("topicpages.cluster", "pca_fit"): "cluster.pca_fit.calls",
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index or None]
        self.counters: dict[str, int] = {}
        self.rss_after: dict[str, float] = {}
        self.vocab: list[int] = []
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name: str, fn, after=None):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_iters(self, result) -> None:
        self.counters["cluster.kmeans.iters"] += int(result.n_iter)

    def install(self) -> None:
        import topicpages  # noqa: F401  (loads every submodule)
        from topicpages.pipeline import Runner

        for attr in sorted(vars(Runner)):
            if attr.startswith("stage_") or attr == "write_manifest":
                label = STAGE_LABELS.get(attr, attr)
                wrapped = self.spanned(label, getattr(Runner, attr), self._stage_done(label))
                setattr(Runner, attr, wrapped)
        for (module, func), name in SPANNED.items():
            original = getattr(sys.modules[module], func)
            after = (lambda m: self.vocab.append(len(m))) if name == "embeddings.load" else None
            _replace_everywhere(original, self.spanned(name, original, after))
        self.counters["cluster.kmeans.iters"] = 0
        for (module, func), name in COUNTED.items():
            original = getattr(sys.modules[module], func)
            after = self._count_iters if func == "kmeans" else None
            _replace_everywhere(original, self.counted(name, original, after))

    def _stage_done(self, label: str):
        def after(_result) -> None:
            self.rss_after[label] = _rss_mb()

        return after

    def dump(self, path: Path) -> None:
        doc = {
            "spans": self.spans,
            "counters": self.counters,
            "rss_after": self.rss_after,
            "vocab": self.vocab,
        }
        path.write_text(json.dumps(doc), "utf-8")


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "topicpages" and not name.startswith("topicpages."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def span_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: (total duration, total self time).

    Self time is a span's duration minus the part covered by its direct
    children.  Nested spans of the same name (the store index read inside a
    store save) count once in the total.
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
        if parent is None or spans[parent][0].split(".")[0] != name.split(".")[0]:
            total[name] = total.get(name, 0.0) + duration
    return total, self_time
