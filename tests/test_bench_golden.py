"""Tier-1 smoke run of the benchmark's analytics workspace against its golden digest.

bench/golden.json holds, per workload and seed, one sha256 over the
machine-independent artifact digests of a run's manifest.  Reproducing the
seed-0 analytics digest here keeps every artifact byte-identical across
refactors without running the timed benchmark.
"""

import importlib.util
import json
from pathlib import Path

from topicpages.config import load_config
from topicpages.pipeline import run_pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_runner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_analytics_seed0_matches_golden(tmp_path, monkeypatch):
    bench = load_bench_runner(monkeypatch)
    ws = tmp_path / "ws"
    bench.generate("analytics", 0, ws, bench.SRC)
    config = load_config(ws / "run.conf", env={}, overrides={"out_dir": str(tmp_path / "out")})
    code, summary = run_pipeline(config)
    assert (code, summary["errors"]) == (0, [])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text("utf-8"))
    digests = {
        name: entry["sha256"]
        for name, entry in manifest["artifacts"].items()
        if name not in bench.EXCLUDED
    }
    golden = json.loads(bench.GOLDEN.read_text("utf-8"))["analytics"]["0"]
    assert bench._bundle_digest(digests) == golden
