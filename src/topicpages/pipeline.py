"""File-artifact stages and end-to-end orchestration.

Each stage reads upstream artifacts from a run directory and writes its own,
so any stage can be re-run in isolation.  A full run finishes by writing
manifest.json, the content-hash inventory of every artifact it produced;
two runs over the same inputs and seed produce byte-identical bundles.

A Runner loads each run input when first used and keeps it for the run, and it
loads the embeddings through the parse cache in the snapshot store.  It keeps
what a later stage of the same run would otherwise parse again, and a full run
lets go of each kept value after its last reader:
- the rows of each URL file it writes that a stage reads, until the last
  stage that takes them (fit-thresholds and filter for internal.jsonl,
  classify for filtered.jsonl);
- the site set of internal.jsonl, for the report, to the end of the run;
- the visible text of each homepage, which extract parses for its links,
  until content, which takes it in place of a second parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
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
from .fetch import INDEX_NAME, fetch_missing, stored_bodies
from .lines import (
    file_sha256, read_json, read_lines, read_text, write_json, write_jsonl, write_text,
)
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .thresholds import (
    DEFAULT_BUCKET_SIZES,
    URL_SERIES,
    Thresholds,
    filter_subpages,
    fit_url_histograms,
    url_histograms,
    write_histogram_csv,
)
from .urls import (
    PageUrl, load_suffixes, normalize, partition_links, read_url_file, write_url_file,
)

MANIFEST_NAME = "manifest.json"


def read_homepage_list(path: str | Path) -> list[PageUrl]:
    """One homepage URL per line; blank lines, # comments and repeats of a URL are skipped."""
    first: dict[str, PageUrl] = {}
    for url in read_lines(path, normalize):
        first.setdefault(url.normalized, url)
    return list(first.values())


class Runner:
    """Shared state for one pipeline run rooted at config.out_dir."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.artifacts: dict[str, Path] = {}
        self._url_rows: dict[Path, tuple[tuple[PageUrl, str], ...]] = {}
        self._url_sites: dict[Path, frozenset[str]] = {}
        self._homepage_texts: dict[str, str] = {}  # normalized URL -> text, from extract

    # --- run inputs, each loaded when first used and kept for the run ---------

    @property
    def snapshot_dir(self) -> Path:
        return Path(self.config.snapshots) if self.config.snapshots else self.out_dir / "snapshots"

    @cached_property
    def dictionary(self) -> TopicalDictionary:
        cfg = self.config
        return load_dictionary_file(cfg.dictionary) if cfg.dictionary else bundled_dictionary()

    @cached_property
    def embeddings(self) -> EmbeddingModel:
        return load_embeddings_file(self.config.embeddings, cache=self.snapshot_dir)

    def classifier(self, cutoff: float) -> classify_mod.TopicClassifier:
        return classify_mod.TopicClassifier(
            self.dictionary, self.embeddings, cutoff=cutoff, stopwords=self.stopwords
        )

    @cached_property
    def stopwords(self) -> frozenset[str]:
        return load_stopwords(self.config.stopwords) if self.config.stopwords else DEFAULT_STOPWORDS

    @cached_property
    def suffixes(self) -> frozenset[str] | None:
        return load_suffixes(self.config.suffixes) if self.config.suffixes else None

    @cached_property
    def homepages(self) -> list[PageUrl]:
        """The configured homepage list; none when `urls` is unset."""
        return read_homepage_list(self.config.urls) if self.config.urls else []

    # --- URL files, each parsed at most once per run ---------------------------

    def url_rows(self, path: str | Path) -> Sequence[tuple[PageUrl, str]]:
        """A URL file's (url, site) rows: those this Runner wrote there, or else the file's."""
        kept = self._url_rows.get(Path(path))
        return kept if kept is not None else read_url_file(path)

    def url_sites(self, path: str | Path) -> frozenset[str]:
        """The sites of a URL file's rows: kept when this Runner wrote it, or else read."""
        kept = self._url_sites.get(Path(path))
        return kept if kept is not None else frozenset(site for _, site in read_url_file(path))

    def _write_url_rows(self, path: Path, rows: Sequence[tuple[PageUrl, str]]) -> None:
        """Write a URL file; keep its rows when a stage takes them, and its site set
        when the report reads it."""
        rows = tuple(rows)
        write_url_file(path, rows)
        if path.name in STAGE_NAMED["report"].reads:
            self._url_sites[path] = frozenset(site for _, site in rows)
        if path.name in LAST_ROW_READER:
            self._url_rows[path] = rows

    def release(self, stage: Stage) -> None:
        """Let go of the kept rows of each URL file whose rows *stage* is the last to take."""
        for name in stage.reads:
            if LAST_ROW_READER.get(name) == stage.name:
                self._url_rows.pop(self.out_dir / name, None)

    # --- stages -------------------------------------------------------------

    def inputs(self, stage: Stage, given: Sequence = (), strict: bool = False,
               ran: set[str] | None = None) -> list[Path | None]:
        """A table entry's read paths, *given* ones first in place of its leading reads,
        or MissingStage saying why it cannot run: a required key unset or a read absent.
        A read is present if its writer is in *ran*, the stages that succeeded in this
        run, or without *ran* if the file exists; an optional stage gets an absent read
        as None unless *strict*."""
        unset = self.config.unset(stage.requires)
        if unset:
            raise MissingStage(f"no {unset[0]} configured")
        paths: list[Path | None] = list(given)
        for name in stage.reads[len(given):]:
            path = self.out_dir / name
            if (WRITER[name] in ran) if ran is not None else path.exists():
                paths.append(path)
            elif stage.optional and not strict:
                paths.append(None)
            else:
                raise MissingStage(f"{name} is missing; run the {WRITER[name]} stage first")
        return paths

    def run_stage(self, stage: Stage, *given, strict: bool = False,
                  ran: set[str] | None = None) -> dict:
        """Call a table entry's method (looked up at call time) on its inputs(), then on
        its write paths, whose directories it creates, and register the writes.  An
        optional stage, which writes what its reads allow, first loses its old writes."""
        reads = self.inputs(stage, given, strict, ran)
        writes = [self.out_dir / name for name in stage.writes]
        for path in writes:
            path.parent.mkdir(parents=True, exist_ok=True)
            if stage.optional:
                path.unlink(missing_ok=True)
        summary = getattr(self, stage.method)(*reads, *writes)
        self.artifacts.update(zip(map(artifact_name, stage.writes), writes))
        return summary

    def stage_fetch(self, urls: Sequence[PageUrl] | None = None) -> dict:
        """Make the snapshot store cover the homepage list (or given URLs)."""
        cfg = self.config
        urls = urls if urls is not None else self.homepages
        if cfg.live:  # a refetched page may change, so its kept text no longer holds
            for url in urls:
                self._homepage_texts.pop(url.normalized, None)
        fetched, reused = fetch_missing(
            urls,
            self.snapshot_dir,
            live=cfg.live,
            parallelism=cfg.parallel,
            timeout=cfg.timeout,
            retries=cfg.retries,
            **({"user_agent": cfg.user_agent} if cfg.user_agent else {}),
            respect_robots=cfg.respect_robots,
        )
        self.artifacts["snapshot-index"] = self.snapshot_dir / INDEX_NAME
        return {"fetched": fetched, "reused": reused}

    def stage_fetch_sections(self, best: Path) -> dict:
        """Add the selected section pages to the snapshot store."""
        rows = classify_mod.read_best_subpages(best)
        return self.stage_fetch([normalize(row["url"]) for row in rows])

    def stage_extract(self, internal_path: Path, external_path: Path) -> dict:
        """Partition every homepage's links into internal / external files, and keep
        each homepage's text, from the same parse, for content."""
        internal: list[tuple[PageUrl, str]] = []
        external: list[tuple[PageUrl, str]] = []
        skipped = 0
        missing: list[str] = []
        bodies = stored_bodies(self.snapshot_dir, [u.normalized for u in self.homepages])
        for homepage, body in zip(self.homepages, bodies):
            if body is None:
                missing.append(homepage.normalized)
                continue
            hrefs, self._homepage_texts[homepage.normalized] = content_mod.read_page(body)
            partition = partition_links(hrefs, homepage, self.suffixes)
            internal.extend((u, homepage.domain) for u in partition.internal)
            external.extend((u, homepage.domain) for u in partition.external)
            skipped += partition.skipped
        self._write_url_rows(internal_path, internal)
        self._write_url_rows(external_path, external)
        return {
            "internal": len(internal),
            "external": len(external),
            "skipped_hrefs": skipped,
            "missing_snapshots": missing,
        }

    def stage_fit_thresholds(self, source: str | Path, thresholds: Path, *histograms: Path) -> dict:
        """Fit the URL-shape cutoffs; each histogram is written to the file named after it."""
        cfg = self.config
        hists = url_histograms([u for u, _ in self.url_rows(source)], DEFAULT_BUCKET_SIZES)
        fitted = fit_url_histograms(
            hists, cosine_cutoff=cfg.cosine_cutoff, fallback_defaults=cfg.fallback_defaults
        )
        write_json(thresholds, fitted.to_dict())
        for path in histograms:
            write_histogram_csv(hists[path.stem], path)
        return fitted.to_dict()

    def stage_filter(self, source: str | Path, thresholds: Path, filtered: Path) -> dict:
        rows = self.url_rows(source)
        fitted = read_json(thresholds, Thresholds.from_dict)
        kept_urls = set(
            u.normalized for u in filter_subpages([u for u, _ in rows], fitted)
        )
        kept = [(u, site) for u, site in rows if u.normalized in kept_urls]
        self._write_url_rows(filtered, kept)
        return {"kept": len(kept), "dropped": len(rows) - len(kept)}

    def stage_classify(self, source: str | Path, thresholds: Path, out: Path) -> dict:
        rows = self.url_rows(source)
        classifier = self.classifier(read_json(thresholds, Thresholds.from_dict).cosine_cutoff)
        assignments = [
            classifier.classify(u) for u, _ in rows if u.subpaths
        ]
        classify_mod.write_assignments(out, assignments)
        methods = dict.fromkeys(classify_mod.METHODS, 0)
        for a in assignments:
            methods[a.method] += 1
        return {"classified": len(assignments), **methods}

    def stage_best_subpages(self, source: str | Path, out: Path) -> dict:
        assignments = classify_mod.read_assignments(source, self.dictionary)
        results = self.classifier(self.config.cosine_cutoff).select_best_subpages(assignments)
        classify_mod.write_best_subpages(out, results)
        return {"sites": len(results), "selections": sum(len(r.selections) for r in results)}

    def stage_track(self, best: Path, matrix_path: Path, report_path: Path) -> dict:
        cfg = self.config
        best_rows = classify_mod.read_best_subpages(best)
        topic_names = {t.name for t in self.dictionary.topics()}
        topic_names.update(row["topic"] for row in best_rows)
        records = tracking_mod.read_crawl_log(cfg.crawl_logs, topics=topic_names)
        dl = tracking_mod.load_disconnect_file(cfg.disconnect)

        matrix_topics = {row["topic"] for row in best_rows}
        matrix_topics.add(tracking_mod.HOMEPAGE_TOPIC)
        matrix = tracking_mod.build_tracking_matrix(records, topics=matrix_topics)
        write_json(matrix_path, matrix.to_dict())

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
        write_json(report_path, report)
        return {"records": len(records), "third_parties": len(matrix.third_parties)}

    def stage_content(self, best: Path, matrix_path: Path, languages_path: Path) -> dict:
        """Build per-topic documents from snapshots and weigh their terms; a homepage
        that extract parsed in this run is not parsed again."""
        best_rows = classify_mod.read_best_subpages(best)

        pages: list[tuple[str, str]] = []  # (topic, url) in deterministic order
        for row in sorted(best_rows, key=lambda r: (r["topic"], r["url"])):
            pages.append((row["topic"], row["url"]))
        homepage_urls = [u.normalized for u in self.homepages]
        pages.extend((tracking_mod.HOMEPAGE_TOPIC, u) for u in sorted(homepage_urls))

        kept, self._homepage_texts = self._homepage_texts, {}  # content is their one reader
        texts: dict[str, list[str]] = {}
        languages: list[dict] = []
        missing: list[str] = []
        bodies = stored_bodies(self.snapshot_dir, [url for _, url in pages if url not in kept])
        for topic, url in pages:
            text = kept.get(url)
            if text is None:
                body = next(bodies)
                if body is None:
                    missing.append(url)
                    continue
                text = content_mod.extract_text(body)
            verdict = content_mod.detect_english(text, self.stopwords)
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
        matrix = content_mod.tfidf(docs, self.stopwords, min_df=self.config.min_df)
        write_json(matrix_path, matrix.to_dict())
        write_jsonl(languages_path, languages)
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
            "rank_deficient": model.rank_deficient,
            "explained_variance_ratio": [float(r) for r in model.explained_variance_ratio],
            "assignments": report.assignments,
            "points": {label: [float(v) for v in row] for label, row in zip(labels, reduced)},
        }
        write_json(out, payload)
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
        write_text(out, sweep.to_csv())
        return {
            "matrix": Path(matrix).name,
            "out": str(out),
            "cells": len(sweep.rows),
            "best": sweep.best,
        }

    # --- plot data ------------------------------------------------------------

    def stage_report(
        self, url_length, subpath_length, hyphens, internal, best, tracking_report,
        clusters_tracking, sweep_tracking, clusters_content, sweep_content,
        histograms_csv, coverage_csv, cookies_csv, breakdown_csv, percent_diff_csv,
        heatmap_csv, scatter_tracking, curves_tracking, scatter_content, curves_content, notes,
    ) -> dict:
        """Write plot-ready CSVs from whichever reads the bundle holds, an absent read
        being None, and list the absent ones in notes.txt."""
        reads = (url_length, subpath_length, hyphens, internal, best, tracking_report,
                 clusters_tracking, sweep_tracking, clusters_content, sweep_content)
        missing = [name for name, path in zip(STAGE_NAMED["report"].reads, reads) if path is None]
        emitted: list[Path] = []

        def write_csv(path: Path, header: str, rows: Iterable[str]) -> None:
            write_text(path, header + "\n" + "".join(r + "\n" for r in rows))
            emitted.append(path)

        def fmt(x: float) -> str:
            return f"{x:.12g}"

        # threshold histograms, each file's header line skipped
        histograms = sorted(path for path in (url_length, subpath_length, hyphens) if path)
        if histograms:
            rows = [f"{path.stem},{line}"
                    for path in histograms for line in islice(read_lines(path, str), 1, None)]
            write_csv(histograms_csv, "parameter,bucket,count", rows)

        # topic coverage across sites
        if best:
            chosen = classify_mod.read_best_subpages(best)
            sites = self.url_sites(internal) if internal else {r["site"] for r in chosen}
            per_topic: dict[str, set[str]] = {}
            for r in chosen:
                per_topic.setdefault(r["topic"], set()).add(r["site"])
            write_csv(
                coverage_csv,
                "topic,percent_of_sites",
                [
                    f"{topic},{fmt(100.0 * len(covered) / len(sites))}"
                    for topic, covered in sorted(per_topic.items())
                ]
                if sites
                else [],
            )

        # tracking analytics; a fault in the report's shape is a fault of its file
        def tracking_plots(report: dict) -> None:
            write_csv(
                cookies_csv,
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
            write_csv(breakdown_csv, "scope,topic,category,distinct_third_parties", rows)
            diff = report.get("percent_diff_vs_homepage")
            if diff:
                write_csv(
                    percent_diff_csv,
                    "topic,category,percent_or_new",
                    [
                        f"{topic},{category},{value if isinstance(value, str) else fmt(value)}"
                        for topic, row in sorted(diff.items())
                        for category, value in sorted(row.items())
                    ],
                )
            write_csv(
                heatmap_csv,
                "third_party,topic,percent_of_pages",
                [
                    f"{entry['third_party']},{topic},{fmt(pct)}"
                    for entry in report["top_tp_coverage"]
                    for topic, pct in sorted(entry["coverage"].items())
                ],
            )

        if tracking_report:
            read_json(tracking_report, tracking_plots)

        # cluster scatters and metric curves
        for clusters, sweep, scatter, curves in (
            (clusters_tracking, sweep_tracking, scatter_tracking, curves_tracking),
            (clusters_content, sweep_content, scatter_content, curves_content),
        ):
            if clusters:
                read_json(clusters, lambda payload: write_csv(
                    scatter,
                    "label,cluster," + ",".join(f"x{i}" for i in range(payload["n"])),
                    [
                        f"{label},{payload['assignments'][label]},"
                        + ",".join(fmt(v) for v in coords)
                        for label, coords in sorted(payload["points"].items())
                    ],
                ))
            if sweep:
                write_text(curves, read_text(sweep))
                emitted.append(curves)

        write_text(
            notes, "".join(f"missing: {name}\n" for name in missing) if missing else "complete\n"
        )
        emitted.append(notes)
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
            listing[name] = {"path": rel, "sha256": file_sha256(path)}
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.out_dir / MANIFEST_NAME
        write_json(manifest_path, {"artifacts": listing})
        return manifest_path


def load_matrix_file(path: str | Path) -> tuple[tuple[str, ...], "np.ndarray"]:
    """Load either matrix artifact as (row labels, float matrix).

    The two formats are told apart by their payload key: presence matrices
    carry integer "cells", term-weight matrices carry "weights".
    """
    return read_json(path, _labeled_matrix)


def _labeled_matrix(obj: dict) -> tuple[tuple[str, ...], "np.ndarray"]:
    if "cells" in obj:
        m = tracking_mod.TrackingMatrix.from_dict(obj)
        return m.topics, m.cells.astype(float)
    m = content_mod.ContentMatrix.from_dict(obj)
    return m.topics, m.weights


@dataclass(frozen=True)
class Stage:
    """One step of a full run.  Every stage but fetch-sections and the
    cluster-<tag>/sweep-<tag> entries is also the subcommand of that name."""

    name: str                        # summary key and subcommand
    method: str                      # Runner method, looked up at call time
    requires: tuple[str, ...] = ()   # config keys the stage cannot run without
    reads: tuple[str, ...] = ()      # upstream files in out_dir, passed first
    writes: tuple[str, ...] = ()     # files the stage writes in out_dir, passed next
    optional: bool = False           # absent reads passed as None, old writes removed


def artifact_name(filename: str) -> str:
    """A written file's manifest name: its stem, histogram-<stem> under histograms/,
    or the file name itself under plots/."""
    folder, stem = Path(filename).parent.name, Path(filename).stem
    return {"plots": filename, "histograms": f"histogram-{stem}"}.get(folder, stem)


HISTOGRAMS = tuple(f"histograms/{name}.csv" for name, _ in URL_SERIES)

# run order; run_pipeline skips a stage that Runner.inputs refuses
STAGES = (
    Stage("fetch", "stage_fetch", ("urls",)),
    Stage("extract", "stage_extract", ("urls",), writes=("internal.jsonl", "external.jsonl")),
    Stage("fit-thresholds", "stage_fit_thresholds", reads=("internal.jsonl",),
          writes=("thresholds.json", *HISTOGRAMS)),
    Stage("filter", "stage_filter",
          reads=("internal.jsonl", "thresholds.json"), writes=("filtered.jsonl",)),
    Stage("classify", "stage_classify", ("embeddings",),
          reads=("filtered.jsonl", "thresholds.json"), writes=("assignments.jsonl",)),
    Stage("best-subpages", "stage_best_subpages", ("embeddings",),
          reads=("assignments.jsonl",), writes=("best.jsonl",)),
    Stage("fetch-sections", "stage_fetch_sections", reads=("best.jsonl",)),
    Stage("track", "stage_track", ("crawl_logs", "disconnect"),
          reads=("best.jsonl",), writes=("tracking-matrix.json", "tracking-report.json")),
    Stage("cluster-tracking", "stage_cluster",
          reads=("tracking-matrix.json",), writes=("clusters-tracking.json",)),
    Stage("sweep-tracking", "stage_cluster_sweep",
          reads=("tracking-matrix.json",), writes=("sweep-tracking.csv",)),
    Stage("content", "stage_content",
          reads=("best.jsonl",), writes=("content-matrix.json", "languages.jsonl")),
    Stage("cluster-content", "stage_cluster",
          reads=("content-matrix.json",), writes=("clusters-content.json",)),
    Stage("sweep-content", "stage_cluster_sweep",
          reads=("content-matrix.json",), writes=("sweep-content.csv",)),
    Stage("report", "stage_report", optional=True,
          reads=(*HISTOGRAMS, "internal.jsonl", "best.jsonl", "tracking-report.json",
                 "clusters-tracking.json", "sweep-tracking.csv",
                 "clusters-content.json", "sweep-content.csv"),
          writes=tuple(f"plots/{name}" for name in (
              "threshold-histograms.csv", "topic-coverage.csv", "cookies-per-topic.csv",
              "category-breakdown.csv", "category-percent-diff.csv", "top-tp-heatmap.csv",
              "cluster-scatter-tracking.csv", "metric-curves-tracking.csv",
              "cluster-scatter-content.csv", "metric-curves-content.csv", "notes.txt"))),
)
STAGE_NAMED = {stage.name: stage for stage in STAGES}
WRITER = {name: stage.name for stage in STAGES for name in stage.writes}
# the last stage, in run order, that takes a file's rows; the report, the one optional
# stage, takes only a URL file's site set
LAST_ROW_READER = {name: stage.name for stage in STAGES if not stage.optional
                   for name in stage.reads}


def run_pipeline(config: PipelineConfig) -> tuple[int, dict]:
    """Run every stage the configuration enables; returns (exit code, summary).

    The config is validated first, with the first stage's keys required.
    Stage failures are collected rather than raised; a stage that Runner.inputs
    refuses is skipped, so one that reads a failed stage's file is, and the
    report reads only this run's files.  The exit code is 0 only when nothing failed.
    """
    config.validate(STAGES[0].requires)
    runner = Runner(config)
    # a manifest left by an earlier run must not vouch for a run that stops part way
    (runner.out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    summary: dict[str, object] = {}
    errors: list[str] = []
    succeeded: set[str] = set()
    for stage in STAGES:
        try:
            summary[stage.name] = runner.run_stage(stage, ran=succeeded)
            succeeded.add(stage.name)
        except MissingStage:
            pass
        except PipelineError as exc:
            errors.append(f"{stage.name}: {exc}")
            summary[stage.name] = {"error": str(exc)}
        runner.release(stage)
    runner.write_manifest()
    summary["manifest"] = str(runner.out_dir / MANIFEST_NAME)
    summary["errors"] = errors
    return (0 if not errors else 1), summary
