"""Offline, seeded benchmark of the topicpages pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload links --seed 1 --seconds 20 --trace 0

It generates the workload's synthetic workspace from the seed (bench/
workspace.py), then starts fresh child processes (bench/child.py), each
running one whole run_pipeline over that workspace, until --seconds have
passed.  Every run's outputs are checked: exit code, stage errors, artifact
digests against the first run and the recorded golden (bench/golden.json),
fetch failures against the planted ones, and the selected section pages
against the planted truth.

The last stdout line is one JSON object: correct, attempted (pipeline runs),
failed (runs with a failed check) and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced runs
(bench/tracing.py) and reports the per-layer metrics.  --record-golden
stores this seed's digests in bench/golden.json instead of checking them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

from tracing import span_totals  # bench/ is sys.path[0] for this script
from workspace import PROFILES, generate

MIN_RUNS = 3
SERVER_DELAY_S = 0.02
RUN_LIMIT_S = 170.0

# manifest entries left out of the comparisons: the snapshot index's manifest
# path is absolute and cold-fetch stamps fetch times into it
EXCLUDED = ("snapshot-index",)
# their last digits come from the BLAS/LAPACK build (PCA eigensolver), so the
# golden, which may be checked on another machine, leaves them out; runs on
# one machine still compare them
PLATFORM_DEPENDENT = ("clusters-", "sweep-", "plots/cluster-scatter-", "plots/metric-curves-")

STAGE_SPANS = (
    "fetch", "extract", "fit", "filter", "classify", "best", "track",
    "content", "cluster", "sweep", "report", "manifest",
)


def _jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Server:
    """The loopback origin (bench/server.py) in its own process."""

    def __init__(self, workspace: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py"), "--workspace", str(workspace),
             "--delay", str(SERVER_DELAY_S)],
            stdout=subprocess.PIPE, text=True,
        )
        self.port = int(self.proc.stdout.readline())

    def stats(self) -> dict:
        """Request count and in-flight peak since the last call; resets both."""
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"http://127.0.0.1:{self.port}/__stats", timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _child_env(proxy_port: int | None) -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.pop("PYTHONPATH", None)
    # every fetch goes to the loopback server, or, where the workload only
    # reads the snapshot store, to a closed local port: never off the machine
    env["http_proxy"] = f"http://127.0.0.1:{proxy_port or 9}"
    env["https_proxy"] = env["http_proxy"]
    return env


def score_sections(best: list[dict], truth: dict) -> tuple[float, float]:
    """(recall over planted (site, topic) pairs, precision over best.jsonl rows)."""
    planted = {(site, topic): set(urls) for site, topics in truth.items() for topic, urls in topics.items()}
    hits = sum(1 for row in best if row["url"] in planted.get((row["site"], row["topic"]), ()))
    recall = hits / len(planted) if planted else 0.0
    precision = hits / len(best) if best else 0.0
    return recall, precision


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, record: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.record = record
        self.profile = PROFILES[workload]
        self.ws = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.runs: list[dict] = []
        self.reference: dict | None = None
        golden = json.loads(GOLDEN.read_text("utf-8")) if GOLDEN.exists() else {}
        self.golden = golden.get(workload, {}).get(str(seed))

    def run(self) -> dict:
        started = time.monotonic()
        generate(self.workload, self.seed, self.ws, SRC)
        self.truth = json.loads((self.ws / "truth.json").read_text("utf-8"))
        server = Server(self.ws) if self.profile.served else None
        try:
            deadline = time.monotonic() + self.seconds
            i = 0
            min_runs = 1 if self.record else 2 * MIN_RUNS if self.trace else MIN_RUNS
            while i < min_runs or time.monotonic() < deadline:
                # start a run only if one of typical length still fits
                spent = [r["wall_s"] for r in self.runs]
                typical = statistics.median(spent) if spent else 0.0
                if i >= min_runs and time.monotonic() + typical > deadline + typical / 2:
                    break
                if time.monotonic() - started > RUN_LIMIT_S - 20:
                    break
                traced = self.trace and i % 2 == 1
                t0 = time.monotonic()
                run = self.iteration(i, traced, server, started)
                run["wall_s"] = time.monotonic() - t0
                self.runs.append(run)
                i += 1
        finally:
            if server is not None:
                server.stop()
            shutil.rmtree(self.ws, ignore_errors=True)
        if self.record:
            self._record_golden()
        return self.report()

    # --- one child run --------------------------------------------------------

    def iteration(self, i: int, traced: bool, server: Server | None, started: float) -> dict:
        out = self.ws / f"out{i}"
        snapshots = self.ws / (f"snapshots{i}" if self.profile.served else "snapshots")
        trace_file = self.ws / f"trace{i}.json"
        argv = [sys.executable, str(BENCH / "child.py"), str(SRC), str(self.ws / "run.conf"),
                str(out), str(snapshots)] + ([str(trace_file)] if traced else [])
        snapshots.mkdir(exist_ok=True)
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - started))
        run: dict = {"traced": traced, "ok": True}
        try:
            t0 = time.monotonic()
            proc = subprocess.run(argv, env=_child_env(server and server.port),
                                  capture_output=True, text=True, timeout=timeout)
            if proc.returncode != 0:
                return self._fail(run, f"run {i}: child exited {proc.returncode}: {proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            run.update(setup_s=res["ready"] - t0, pipeline_s=res["pipeline_s"],
                       peak_rss_mb=res["peak_rss_mb"])
            stats = server.stats() if server is not None else {"requests": 0, "in_flight_max": 0}
            if res["code"] != 0 or res["summary"]["errors"]:
                return self._fail(run, f"run {i}: pipeline exit {res['code']}, errors {res['summary']['errors']}")
            self._check(run, i, res["summary"], out, snapshots, stats)
            if traced:
                trace = json.loads(trace_file.read_text("utf-8"))
                index = _jsonl(snapshots / "index.jsonl")
                run["layers"] = self._layers(trace, res["summary"], out, index, stats, res["pipeline_s"])
        except subprocess.TimeoutExpired:
            self._fail(run, f"run {i}: no result within {timeout:.0f} s")
        except (KeyError, IndexError, OSError, ValueError) as exc:
            self._fail(run, f"run {i}: unreadable outputs: {exc!r}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
            if self.profile.served:
                shutil.rmtree(snapshots, ignore_errors=True)
            trace_file.unlink(missing_ok=True)
        return run

    def _check(self, run: dict, i: int, summary: dict, out: Path, snapshots: Path, stats: dict) -> None:
        """Compare one run's outputs with the first run, the golden and the truth."""
        digests = {
            name: entry["sha256"]
            for name, entry in json.loads((out / "manifest.json").read_text("utf-8"))["artifacts"].items()
            if name not in EXCLUDED
        }
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(n for n in set(digests) | set(self.reference)
                             if digests.get(n) != self.reference.get(n))
            self._fail(run, f"run {i}: artifacts differ from run 0: {changed}")
        if self.golden is not None and not self.record and _bundle_digest(digests) != self.golden:
            self._fail(run, f"run {i}: artifact digests differ from the recorded golden")

        run["recall"], run["precision"] = score_sections(_jsonl(out / "best.jsonl"), self.truth["sections"])

        index = _jsonl(snapshots / "index.jsonl")
        requested = {row["url"] for row in index}
        failed = {row["url"]: row["error"] for row in index if row["error"]}
        if not self.profile.served:
            fetched = sum(summary[k]["fetched"] for k in ("fetch", "fetch-sections"))
            if fetched or failed:
                self._fail(run, f"run {i}: {fetched} fetches on a prebuilt store, failures {failed}")
            return
        missing = requested & set(self.truth["missing"])
        flaky = requested & set(self.truth["flaky"])
        if set(failed) != missing or any(e != "HTTP 404" for e in failed.values()):
            self._fail(run, f"run {i}: fetch failures {failed} differ from the planted 404s {sorted(missing)}")
        expected = len(requested) + len(missing) + len(flaky)
        if stats["requests"] != expected:
            self._fail(run, f"run {i}: origin saw {stats['requests']} requests, expected {expected}")

    def _fail(self, run: dict, message: str) -> dict:
        run["ok"] = False
        self.problems.append(message)
        return run

    # --- per-layer metrics from one traced run ------------------------------------

    def _layers(self, trace: dict, summary: dict, out: Path, index: list[dict], stats: dict,
                pipeline_s: float) -> dict:
        spans = trace["spans"]
        total, self_time = span_totals(spans)
        counters = trace["counters"]
        m: dict[str, tuple[float, str]] = {}
        for name in STAGE_SPANS:
            m[f"{name}.s"] = (total.get(name, 0.0), "s")

        fetches = [summary[k] for k in ("fetch", "fetch-sections") if k in summary]
        m["fetch.urls"] = (sum(f["fetched"] + f["reused"] for f in fetches), "count")
        m["fetch.reused"] = (sum(f["reused"] for f in fetches), "count")
        m["fetch.failed"] = (sum(1 for row in index if row["error"]), "count")
        m["fetch.save_calls"] = (sum(1 for s in spans if s[0] == "store.save"), "count")
        m["fetch.store_s"] = (sum(v for k, v in total.items() if k.startswith("store.")), "s")
        m["fetch.requests"] = (stats["requests"], "count")
        m["fetch.in_flight_max"] = (stats["in_flight_max"], "count")

        ex = summary["extract"]
        m["extract.internal"] = (ex["internal"], "count")
        m["extract.external"] = (ex["external"], "count")
        m["extract.skipped_hrefs"] = (ex["skipped_hrefs"], "count")
        m["extract.out_bytes"] = (
            (out / "internal.jsonl").stat().st_size + (out / "external.jsonl").stat().st_size, "bytes"
        )

        flt = summary["filter"]
        m["filter.kept"] = (flt["kept"], "count")
        m["filter.kept_frac"] = (flt["kept"] / max(1, flt["kept"] + flt["dropped"]), "frac")

        loads = [s for s in spans if s[0] == "embeddings.load"]
        m["embeddings.load_s"] = (sum(s[2] - s[1] for s in loads), "s")
        m["embeddings.loads"] = (len(loads), "count")
        m["embeddings.vocab"] = (trace["vocab"][0] if trace["vocab"] else 0, "count")

        cl = summary["classify"]
        m["classify.exact"] = (cl["exact"], "count")
        m["classify.embedding"] = (cl["embedding"], "count")
        m["classify.other"] = (cl["other"], "count")
        m["classify.useful_frac"] = ((cl["exact"] + cl["embedding"]) / max(1, cl["classified"]), "frac")
        subpaths = [sp.lower() for row in _jsonl(out / "filtered.jsonl") for sp in row["subpaths"]]
        m["classify.distinct_subpath_frac"] = (len(set(subpaths)) / max(1, len(subpaths)), "frac")
        m["best.selections"] = (summary["best-subpages"]["selections"], "count")

        m["track.records"] = (summary["track"]["records"], "count")
        m["track.third_parties"] = (summary["track"]["third_parties"], "count")
        cells = json.loads((out / "tracking-matrix.json").read_text("utf-8"))["cells"]
        m["track.distinct_rows"] = (len({tuple(r) for r in cells}), "count")

        m["content.pages"] = (len(_jsonl(out / "languages.jsonl")), "count")
        m["content.terms"] = (summary["content"]["terms"], "count")
        m["content.out_bytes"] = (
            (out / "content-matrix.json").stat().st_size + (out / "languages.jsonl").stat().st_size,
            "bytes",
        )

        sweep_rows = [
            line.split(",")
            for tag in ("tracking", "content")
            for line in (out / f"sweep-{tag}.csv").read_text("utf-8").splitlines()[1:]
        ]
        m["sweep.cells"] = (len(sweep_rows), "count")
        m["sweep.failed_cells"] = (sum(1 for r in sweep_rows if r[2] == ""), "count")
        m["cluster.kmeans.iters"] = (counters.get("cluster.kmeans.iters", 0), "count")

        for name, value in counters.items():
            if name.endswith(".calls"):
                m[name] = (value, "count")

        m["pipeline.self_s"] = (self_time["pipeline"], "s")
        m["pipeline.out_bytes"] = (_dir_bytes(out), "bytes")
        m["pipeline.failed_frac"] = (_failed_frac(summary, index), "frac")
        for name in STAGE_SPANS:
            if name != "manifest":
                m[f"{name}.rss_mb"] = (trace["rss_after"].get(name, 0.0), "MB")
        m["trace.pipeline_s"] = (pipeline_s, "s")
        return m

    # --- result ---------------------------------------------------------------------

    def report(self) -> dict:
        failed = sum(1 for r in self.runs if not r["ok"])
        good = [r for r in self.runs if "pipeline_s" in r]
        metrics: dict[str, dict] = {}
        if good:
            plain = [r for r in good if not r["traced"]]
            if self.trace:
                traced = [r for r in good if "layers" in r]
                names = traced[0]["layers"] if traced else {}
                for name, (_, unit) in names.items():
                    values = [r["layers"][name][0] for r in traced]
                    metrics[name] = {"value": statistics.median(values), "unit": unit}
                if traced and plain:
                    overhead = (statistics.median(r["pipeline_s"] for r in traced)
                                - statistics.median(r["pipeline_s"] for r in plain))
                    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            else:
                metrics = {
                    "pipeline_s": {"value": statistics.median(r["pipeline_s"] for r in plain), "unit": "s"},
                    "setup_s": {"value": statistics.median(r["setup_s"] for r in good), "unit": "s"},
                    "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
                    "section_recall": {"value": statistics.median(r["recall"] for r in good), "unit": "frac"},
                    "section_precision": {"value": statistics.median(r["precision"] for r in good), "unit": "frac"},
                }
        for message in self.problems:
            print(message, file=sys.stderr)
        return {
            "correct": not self.problems and bool(self.runs),
            "attempted": max(1, len(self.runs)),
            "failed": failed if self.runs else 1,
            "metrics": metrics,
        }

    def _record_golden(self) -> None:
        if self.reference is None or self.problems:
            return
        golden = json.loads(GOLDEN.read_text("utf-8")) if GOLDEN.exists() else {}
        golden.setdefault(self.workload, {})[str(self.seed)] = _bundle_digest(self.reference)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", "utf-8")


def _bundle_digest(digests: dict[str, str]) -> str:
    """One digest over the machine-independent artifacts of a bundle."""
    kept = {n: d for n, d in digests.items() if not n.startswith(PLATFORM_DEPENDENT)}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()


def _failed_frac(summary: dict, index: list[dict]) -> float:
    """(stage errors + failed URL fetches) / (stage attempts + URL fetches)."""
    stages = [k for k in summary if k not in ("manifest", "errors")]
    fetched = sum(summary[k].get("fetched", 0) for k in ("fetch", "fetch-sections") if k in summary)
    fetch_failures = sum(1 for row in index if row["error"])
    return (len(summary["errors"]) + fetch_failures) / (len(stages) + fetched)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PROFILES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    # a terminated run still stops its children and removes its workspace
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "topicpages" / "pipeline.py").is_file():
        print(f"no pipeline source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    result = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.record_golden).run()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
