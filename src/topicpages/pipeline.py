"""File-artifact stages and end-to-end orchestration.

Each stage reads upstream artifacts from a run directory and writes its own,
so any stage can be re-run in isolation.  A full run finishes by writing
manifest.json, the content-hash inventory of every artifact it produced;
two runs over the same inputs and seed produce byte-identical bundles.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import classify as classify_mod
from . import cluster as cluster_mod
from . import content as content_mod
from . import tracking as tracking_mod
from .config import PipelineConfig, parse_range
from .dictionary import TopicalDictionary, bundled_dictionary, load_dictionary_file
from .embeddings import EmbeddingModel, load_embeddings_file
from .errors import MissingStage, PipelineError
from .fetch import fetch_missing, load_snapshot_index, read_snapshot
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .thresholds import (
    DEFAULT_BUCKET_SIZES,
    Thresholds,
    build_histogram,
    filter_subpages,
    fit_thresholds,
    write_histogram_csv,
)
from .urls import (
    PageUrl,
    extract_links,
    load_suffixes,
    normalize,
    read_url_file,
    url_metrics,
    write_url_file,
)

MANIFEST_NAME = "manifest.json"


def read_homepage_list(path: str | Path) -> list[PageUrl]:
    """One homepage URL per line; blank lines and # comments are skipped."""
    out = []
    for line in Path(path).read_text("utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(normalize(line))
    return out


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n", "utf-8")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Shared state for one pipeline run rooted at config.out_dir."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, Path] = {}
        self._dictionary: TopicalDictionary | None = None
        self._embeddings: EmbeddingModel | None = None

    # --- shared resources --------------------------------------------------

    @property
    def snapshot_dir(self) -> Path:
        return Path(self.config.snapshots) if self.config.snapshots else self.out_dir / "snapshots"

    def dictionary(self) -> TopicalDictionary:
        if self._dictionary is None:
            if self.config.dictionary:
                self._dictionary = load_dictionary_file(self.config.dictionary)
            else:
                self._dictionary = bundled_dictionary()
        return self._dictionary

    def embeddings(self) -> EmbeddingModel:
        if self._embeddings is None:
            if not self.config.embeddings:
                raise MissingStage("no embeddings file configured")
            self._embeddings = load_embeddings_file(self.config.embeddings)
        return self._embeddings

    def classifier(self, cutoff: float = 0.4) -> classify_mod.TopicClassifier:
        return classify_mod.TopicClassifier(
            self.dictionary(), self.embeddings(), cutoff=cutoff, stopwords=self.stopword_set()
        )

    def stopword_set(self) -> frozenset[str]:
        return load_stopwords(self.config.stopwords) if self.config.stopwords else DEFAULT_STOPWORDS

    def suffix_set(self):
        return load_suffixes(self.config.suffixes) if self.config.suffixes else None

    def homepages(self) -> list[PageUrl]:
        if not self.config.urls:
            raise MissingStage("no homepage list configured")
        return read_homepage_list(self.config.urls)

    def _register(self, name: str, path: Path) -> Path:
        self.artifacts[name] = path
        return path

    def _require(self, name: str, filename: str) -> Path:
        path = self.out_dir / filename
        if not path.exists():
            raise MissingStage(f"{filename} is missing; run the {name} stage first")
        return path

    def thresholds(self) -> Thresholds:
        path = self._require("fit-thresholds", "thresholds.json")
        return Thresholds.from_dict(json.loads(path.read_text("utf-8")))

    # --- stages -------------------------------------------------------------

    def run_stage(self, stage: Stage, *inputs) -> dict:
        """Call a table entry's method, looked up at call time, on its files in out_dir."""
        args = (self.out_dir / name for name in stage.args)
        return getattr(self, stage.method)(*args, *inputs)

    def stage_fetch(self, urls: Sequence[PageUrl] | None = None) -> dict:
        """Make the snapshot store cover the homepage list (or given URLs)."""
        cfg = self.config
        targets = list(urls) if urls is not None else self.homepages()
        fetched, reused = fetch_missing(
            targets,
            self.snapshot_dir,
            live=cfg.live,
            parallelism=cfg.parallel,
            timeout=cfg.timeout,
            retries=cfg.retries,
            **({"user_agent": cfg.user_agent} if cfg.user_agent else {}),
            respect_robots=cfg.respect_robots,
        )
        self._register("snapshot-index", self.snapshot_dir / "index.jsonl")
        return {"fetched": fetched, "reused": reused}

    def stage_fetch_sections(self) -> dict:
        """Add the selected section pages to the snapshot store."""
        best = classify_mod.read_best_subpages(self._require("best-subpages", "best.jsonl"))
        return self.stage_fetch([normalize(row["url"]) for row in best])

    def stage_extract(self) -> dict:
        """Partition every homepage's links into internal / external files."""
        suffixes = self.suffix_set()
        index = load_snapshot_index(self.snapshot_dir)
        internal: list[tuple[PageUrl, str]] = []
        external: list[tuple[PageUrl, str]] = []
        skipped = 0
        missing: list[str] = []
        for homepage in self.homepages():
            row = index.get(homepage.normalized)
            if row is None or not row.get("path"):
                missing.append(homepage.normalized)
                continue
            partition = extract_links(read_snapshot(self.snapshot_dir, row), homepage, suffixes)
            internal.extend((u, homepage.domain) for u in partition.internal)
            external.extend((u, homepage.domain) for u in partition.external)
            skipped += partition.skipped
        write_url_file(self._register("internal", self.out_dir / "internal.jsonl"), internal)
        write_url_file(self._register("external", self.out_dir / "external.jsonl"), external)
        return {
            "internal": len(internal),
            "external": len(external),
            "skipped_hrefs": skipped,
            "missing_snapshots": missing,
        }

    def stage_fit_thresholds(self, urls_path: str | Path | None = None) -> dict:
        cfg = self.config
        source = Path(urls_path) if urls_path else self._require("extract", "internal.jsonl")
        train = [u for u, _ in read_url_file(source)]
        fitted = fit_thresholds(
            train,
            DEFAULT_BUCKET_SIZES,
            cosine_cutoff=cfg.cosine_cutoff,
            fallback_defaults=cfg.fallback_defaults,
        )
        _json_dump(fitted.to_dict(), self._register("thresholds", self.out_dir / "thresholds.json"))
        hist_dir = self.out_dir / "histograms"
        hist_dir.mkdir(exist_ok=True)
        metrics = [url_metrics(u) for u in train]
        series = {
            "url_length": ([m.url_length for m in metrics], DEFAULT_BUCKET_SIZES[0]),
            "subpath_length": ([m.max_subpath_length for m in metrics], DEFAULT_BUCKET_SIZES[1]),
            "hyphens": ([m.max_hyphens for m in metrics], DEFAULT_BUCKET_SIZES[2]),
        }
        for name, (values, bucket) in series.items():
            path = hist_dir / f"{name}.csv"
            write_histogram_csv(build_histogram(values, bucket), path)
            self._register(f"histogram-{name}", path)
        return fitted.to_dict()

    def stage_filter(self, urls_path: str | Path | None = None) -> dict:
        source = Path(urls_path) if urls_path else self._require("extract", "internal.jsonl")
        rows = read_url_file(source)
        thresholds = self.thresholds()
        kept_urls = set(
            u.normalized for u in filter_subpages([u for u, _ in rows], thresholds)
        )
        kept = [(u, site) for u, site in rows if u.normalized in kept_urls]
        write_url_file(self._register("filtered", self.out_dir / "filtered.jsonl"), kept)
        return {"kept": len(kept), "dropped": len(rows) - len(kept)}

    def stage_classify(self, urls_path: str | Path | None = None) -> dict:
        source = Path(urls_path) if urls_path else self._require("filter", "filtered.jsonl")
        rows = read_url_file(source)
        classifier = self.classifier(self.thresholds().cosine_cutoff)
        assignments = [
            classifier.classify(u) for u, _ in rows if u.subpaths
        ]
        classify_mod.write_assignments(
            self._register("assignments", self.out_dir / "assignments.jsonl"), assignments
        )
        methods = {"exact": 0, "embedding": 0, "other": 0}
        for a in assignments:
            methods[a.method] += 1
        return {"classified": len(assignments), **methods}

    def stage_best_subpages(self, assignments_path: str | Path | None = None) -> dict:
        source = (
            Path(assignments_path)
            if assignments_path
            else self._require("classify", "assignments.jsonl")
        )
        assignments = classify_mod.read_assignments(source, self.dictionary())
        results = self.classifier().select_best_subpages(assignments)
        classify_mod.write_best_subpages(
            self._register("best", self.out_dir / "best.jsonl"), results
        )
        return {"sites": len(results), "selections": sum(len(r.selections) for r in results)}

    def stage_track(self) -> dict:
        cfg = self.config
        if not cfg.crawl_logs:
            raise MissingStage("no crawl_logs configured")
        if not cfg.disconnect:
            raise MissingStage("no disconnect list configured")
        best_rows = classify_mod.read_best_subpages(self._require("best-subpages", "best.jsonl"))
        topic_names = {t.name for t in self.dictionary().topics()}
        topic_names.update(row["topic"] for row in best_rows)
        records = tracking_mod.read_crawl_log(cfg.crawl_logs, topics=topic_names)
        dl = tracking_mod.load_disconnect_file(cfg.disconnect)

        matrix_topics = {row["topic"] for row in best_rows}
        matrix_topics.add(tracking_mod.HOMEPAGE_TOPIC)
        matrix = tracking_mod.build_tracking_matrix(records, topics=matrix_topics)
        _json_dump(
            matrix.to_dict(),
            self._register("tracking-matrix", self.out_dir / "tracking-matrix.json"),
        )

        breakdown = tracking_mod.category_breakdown(records, dl)
        top_sites = cfg.top_sites_set()
        report = {
            "cookie_stats": {
                t: s.to_dict() for t, s in tracking_mod.cookie_stats_by_topic(records).items()
            },
            "category_breakdown": {
                "all": breakdown,
                "top_sites": (
                    tracking_mod.category_breakdown(records, dl, sites=top_sites)
                    if top_sites
                    else None
                ),
            },
            "percent_diff_vs_homepage": (
                tracking_mod.percent_diff_vs_homepage(breakdown)
                if tracking_mod.HOMEPAGE_TOPIC in breakdown
                else None
            ),
            "top_tp_coverage": [
                {"third_party": tp, "coverage": cov}
                for tp, cov in tracking_mod.top_tp_coverage(records, cfg.top_tp)
            ],
            "preferential_attachment": [
                {"third_party": tp, "topic": topic}
                for tp, topic in tracking_mod.preferential_attachment(matrix)
            ],
            "records": len(records),
        }
        _json_dump(
            report, self._register("tracking-report", self.out_dir / "tracking-report.json")
        )
        return {"records": len(records), "third_parties": len(matrix.third_parties)}

    def stage_content(self) -> dict:
        """Build per-topic documents from snapshots and weigh their terms."""
        best_rows = classify_mod.read_best_subpages(self._require("best-subpages", "best.jsonl"))
        index = load_snapshot_index(self.snapshot_dir)
        stopword_set = self.stopword_set()

        pages: list[tuple[str, str]] = []  # (topic, url) in deterministic order
        for row in sorted(best_rows, key=lambda r: (r["topic"], r["url"])):
            pages.append((row["topic"], row["url"]))
        try:
            homepage_urls = [u.normalized for u in self.homepages()]
        except MissingStage:
            homepage_urls = []
        pages.extend((tracking_mod.HOMEPAGE_TOPIC, u) for u in sorted(homepage_urls))

        texts: dict[str, list[str]] = {}
        languages: list[dict] = []
        missing: list[str] = []
        for topic, url in pages:
            row = index.get(url)
            if row is None or not row.get("path"):
                missing.append(url)
                continue
            text = content_mod.extract_text(read_snapshot(self.snapshot_dir, row))
            verdict = content_mod.detect_english(text, stopword_set)
            languages.append(
                {
                    "url": url,
                    "topic": topic,
                    "is_english": verdict.is_english,
                    "confident": verdict.confident,
                }
            )
            texts.setdefault(topic, []).append(text)

        docs = [
            content_mod.TopicDocument(topic=t, text=" ".join(chunks))
            for t, chunks in sorted(texts.items())
        ]
        matrix = content_mod.tfidf(docs, stopword_set, min_df=self.config.min_df)
        _json_dump(
            matrix.to_dict(),
            self._register("content-matrix", self.out_dir / "content-matrix.json"),
        )
        lang_path = self._register("languages", self.out_dir / "languages.jsonl")
        with open(lang_path, "w", encoding="utf-8") as fh:
            for entry in languages:
                fh.write(json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n")
        return {
            "documents": len(docs),
            "terms": len(matrix.terms),
            "missing_snapshots": missing,
        }

    # --- clustering over either matrix file -----------------------------------

    def stage_cluster(self, matrix: str | Path, out: str | Path) -> dict:
        """Reduce a matrix file, cluster it, and write the labeled result."""
        cfg = self.config
        labels, X = load_matrix_file(matrix)
        try:
            model, reduced = cluster_mod.pca_fit(X, cfg.pca_n)
        except ValueError as exc:
            # infeasible n for this matrix is a data condition, not a crash
            raise PipelineError(f"{Path(matrix).name}: {exc}") from exc
        report = cluster_mod.cluster_report(
            reduced, labels, cfg.k, seed=cfg.seed, restarts=cfg.restarts, b_refs=cfg.b_refs
        )
        payload = {
            "matrix": Path(matrix).name,
            "n": cfg.pca_n,
            "k": report.k,
            "seed": report.seed,
            "sse": report.sse,
            "silhouette": report.silhouette,
            "gap": report.gap,
            "degenerate": report.degenerate,
            "rank_deficient": model.rank_deficient,
            "explained_variance_ratio": [float(r) for r in model.explained_variance_ratio],
            "assignments": report.assignments,
            "points": {label: [float(v) for v in row] for label, row in zip(labels, reduced)},
        }
        _json_dump(payload, self._register(Path(out).stem, Path(out)))
        shown = ("matrix", "k", "sse", "silhouette", "gap")
        return {"out": str(out), **{key: payload[key] for key in shown}}

    def stage_cluster_sweep(self, matrix: str | Path, out: str | Path) -> dict:
        """Score every (dimension, cluster count) cell of a matrix file as CSV."""
        cfg = self.config
        _, X = load_matrix_file(matrix)
        sweep = cluster_mod.model_select(
            X,
            parse_range(cfg.n_range),
            parse_range(cfg.k_range),
            seed=cfg.seed,
            restarts=cfg.restarts,
            b_refs=cfg.b_refs,
        )
        self._register(Path(out).stem, Path(out)).write_text(sweep.to_csv(), "utf-8")
        return {
            "matrix": Path(matrix).name,
            "out": str(out),
            "cells": len(sweep.rows),
            "best": sweep.best,
        }

    # --- plot data ------------------------------------------------------------

    def stage_report(self, strict: bool = False) -> dict:
        emitted, missing = emit_plot_data(self.out_dir, strict=strict)
        for path in emitted:
            self._register(f"plots/{path.name}", path)
        return {"emitted": [p.name for p in emitted], "missing": missing}

    # --- manifest ---------------------------------------------------------------

    def write_manifest(self) -> Path:
        listing = {}
        for name, path in sorted(self.artifacts.items()):
            if not path.exists():
                continue
            try:
                rel = str(path.relative_to(self.out_dir))
            except ValueError:
                rel = str(path)
            listing[name] = {"path": rel, "sha256": _sha256(path)}
        manifest_path = self.out_dir / MANIFEST_NAME
        _json_dump({"artifacts": listing}, manifest_path)
        return manifest_path


def load_matrix_file(path: str | Path) -> tuple[tuple[str, ...], "np.ndarray"]:
    """Load either matrix artifact as (row labels, float matrix).

    The two formats are told apart by their payload key: presence matrices
    carry integer "cells", term-weight matrices carry "weights".
    """
    path = Path(path)
    if not path.exists():
        raise MissingStage(f"{path.name} is missing")
    obj = json.loads(path.read_text("utf-8"))
    if "cells" in obj:
        m = tracking_mod.TrackingMatrix.from_dict(obj)
        return m.topics, m.cells.astype(float)
    m = content_mod.ContentMatrix.from_dict(obj)
    return m.topics, m.weights


def emit_plot_data(out_dir: str | Path, strict: bool = False) -> tuple[list[Path], list[str]]:
    """Write plot-ready CSVs for whichever artifacts the bundle holds.

    Returns (emitted paths, missing upstream artifact names).  With
    strict=True a missing upstream raises MissingStage instead of being
    noted.
    """
    out_dir = Path(out_dir)
    plots = out_dir / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    emitted: list[Path] = []
    missing: list[str] = []

    def need(filename: str) -> Path | None:
        path = out_dir / filename
        if path.is_dir() if filename.endswith("/") else path.exists():
            return path
        if strict:
            raise MissingStage(f"{filename} is missing")
        missing.append(filename)
        return None

    def write_csv(name: str, header: str, rows: Iterable[str]) -> None:
        path = plots / name
        path.write_text(header + "\n" + "".join(r + "\n" for r in rows), "utf-8")
        emitted.append(path)

    def fmt(x: float) -> str:
        return f"{x:.12g}"

    # threshold histograms
    hist_dir = need("histograms/")
    if hist_dir:
        rows = []
        for csv_path in sorted(hist_dir.glob("*.csv")):
            for line in csv_path.read_text("utf-8").splitlines()[1:]:
                rows.append(f"{csv_path.stem},{line}")
        write_csv("threshold-histograms.csv", "parameter,bucket,count", rows)

    # topic coverage across sites
    best_path = need("best.jsonl")
    if best_path:
        rows_raw = [json.loads(line) for line in best_path.read_text("utf-8").splitlines() if line]
        internal_path = out_dir / "internal.jsonl"
        if internal_path.exists():
            sites = {json.loads(line)["site"] for line in internal_path.read_text("utf-8").splitlines() if line}
        else:
            sites = {r["site"] for r in rows_raw}
        per_topic: dict[str, set[str]] = {}
        for r in rows_raw:
            per_topic.setdefault(r["topic"], set()).add(r["site"])
        write_csv(
            "topic-coverage.csv",
            "topic,percent_of_sites",
            [
                f"{topic},{fmt(100.0 * len(covered) / len(sites))}"
                for topic, covered in sorted(per_topic.items())
            ]
            if sites
            else [],
        )

    # tracking analytics
    report_path = need("tracking-report.json")
    if report_path:
        report = json.loads(report_path.read_text("utf-8"))
        write_csv(
            "cookies-per-topic.csv",
            "topic,min,q1,median,mean,q3,max,count",
            [
                f"{t},{fmt(s['min'])},{fmt(s['q1'])},{fmt(s['median'])},"
                f"{fmt(s['mean'])},{fmt(s['q3'])},{fmt(s['max'])},{s['count']}"
                for t, s in sorted(report["cookie_stats"].items())
            ],
        )
        rows = []
        for scope in ("all", "top_sites"):
            breakdown = report["category_breakdown"].get(scope)
            if breakdown is None:
                continue
            for topic, counts in sorted(breakdown.items()):
                for category, count in sorted(counts.items()):
                    rows.append(f"{scope},{topic},{category},{count}")
        write_csv("category-breakdown.csv", "scope,topic,category,distinct_third_parties", rows)
        diff = report.get("percent_diff_vs_homepage")
        if diff:
            write_csv(
                "category-percent-diff.csv",
                "topic,category,percent_or_new",
                [
                    f"{topic},{category},{value if isinstance(value, str) else fmt(value)}"
                    for topic, row in sorted(diff.items())
                    for category, value in sorted(row.items())
                ],
            )
        write_csv(
            "top-tp-heatmap.csv",
            "third_party,topic,percent_of_pages",
            [
                f"{entry['third_party']},{topic},{fmt(pct)}"
                for entry in report["top_tp_coverage"]
                for topic, pct in sorted(entry["coverage"].items())
            ],
        )

    # cluster scatters and metric curves
    for tag in ("tracking", "content"):
        cluster_path = need(f"clusters-{tag}.json")
        if cluster_path:
            payload = json.loads(cluster_path.read_text("utf-8"))
            write_csv(
                f"cluster-scatter-{tag}.csv",
                "label,cluster," + ",".join(f"x{i}" for i in range(payload["n"])),
                [
                    f"{label},{payload['assignments'][label]},"
                    + ",".join(fmt(v) for v in coords)
                    for label, coords in sorted(payload["points"].items())
                ],
            )
        sweep_path = need(f"sweep-{tag}.csv")
        if sweep_path:
            target = plots / f"metric-curves-{tag}.csv"
            shutil.copyfile(sweep_path, target)
            emitted.append(target)

    notes = plots / "notes.txt"
    notes.write_text(
        "".join(f"missing: {name}\n" for name in missing) if missing else "complete\n", "utf-8"
    )
    emitted.append(notes)
    return emitted, missing


@dataclass(frozen=True)
class Stage:
    """One step of a full run, also reachable as the subcommand of that name."""

    name: str                        # summary key and subcommand
    method: str                      # Runner method, looked up at call time
    after: str | None = None         # stage that must have succeeded first
    requires: tuple[str, ...] = ()   # config keys the stage cannot run without
    args: tuple[str, ...] = ()       # leading file arguments, named in out_dir


# run order; a stage whose upstream failed or was skipped, or whose required
# keys are unset, is skipped
STAGES = (
    Stage("fetch", "stage_fetch", requires=("urls",)),
    Stage("extract", "stage_extract", "fetch", ("urls",)),
    Stage("fit-thresholds", "stage_fit_thresholds", "extract"),
    Stage("filter", "stage_filter", "fit-thresholds"),
    Stage("classify", "stage_classify", "filter", ("embeddings",)),
    Stage("best-subpages", "stage_best_subpages", "classify", ("embeddings",)),
    Stage("fetch-sections", "stage_fetch_sections", "best-subpages"),
    Stage("track", "stage_track", "best-subpages", ("crawl_logs", "disconnect")),
    Stage("cluster-tracking", "stage_cluster", "track",
          args=("tracking-matrix.json", "clusters-tracking.json")),
    Stage("sweep-tracking", "stage_cluster_sweep", "track",
          args=("tracking-matrix.json", "sweep-tracking.csv")),
    Stage("content", "stage_content", "best-subpages"),
    Stage("cluster-content", "stage_cluster", "content",
          args=("content-matrix.json", "clusters-content.json")),
    Stage("sweep-content", "stage_cluster_sweep", "content",
          args=("content-matrix.json", "sweep-content.csv")),
    Stage("report", "stage_report"),
)
STAGE_NAMED = {stage.name: stage for stage in STAGES}


def run_pipeline(config: PipelineConfig) -> tuple[int, dict]:
    """Run every stage the configuration enables; returns (exit code, summary).

    The config is validated first, with the first stage's keys required.
    Stage failures are collected rather than raised; downstream stages that
    depend on a failed stage are skipped, and the exit code is 0 only when
    nothing failed.
    """
    config.validate(STAGES[0].requires)
    runner = Runner(config)
    summary: dict[str, object] = {}
    errors: list[str] = []
    succeeded: set[str] = set()
    for stage in STAGES:
        if (stage.after and stage.after not in succeeded) or config.unset(stage.requires):
            continue
        try:
            summary[stage.name] = runner.run_stage(stage)
            succeeded.add(stage.name)
        except PipelineError as exc:
            errors.append(f"{stage.name}: {exc}")
            summary[stage.name] = {"error": str(exc)}
    runner.write_manifest()
    summary["manifest"] = str(runner.out_dir / MANIFEST_NAME)
    summary["errors"] = errors
    return (0 if not errors else 1), summary
