"""File-artifact stages and end-to-end orchestration.

Each stage reads upstream artifacts from a run directory and writes its own,
so any stage can be re-run in isolation.  A full run finishes by writing
manifest.json, the content-hash inventory of every artifact it produced;
two runs over the same inputs and seed produce byte-identical bundles.

A stage method writes nothing.  It returns its summary and, for each of its
write paths, the file's text and the value that file parses to.  Runner.run_stage
hands both to Runner.save, the one write path, which writes each text in one
step and keeps the value of each file a later STAGES entry reads.  A reader
takes the kept value when this Runner wrote the path it reads, and otherwise
parses the file, so a stage run alone, or given --input, reads the file.  A
matrix's array is read-only either way, so a reader that writes into it fails
instead of changing what later readers get.  A full run lets go of each kept
value once the last stage that reads it has run; the report takes only the
site set of internal.jsonl, so the file's rows give way to that set after
filter, their last other reader.

A Runner also loads each run input when first used and keeps it for the run,
the embeddings through the parse cache in the snapshot store, and keeps two
values that no file holds: the URL metrics of internal.jsonl's rows, measured
by fit-thresholds, beside the rows until filter, which takes them in place of
measuring again; and the visible text of each homepage, which extract parses
for its links, until content, which takes it in place of a second parse.

The analytics run in two halves that read only best.jsonl and their own files:
the tracking half (BRANCH: track, cluster-tracking, sweep-tracking) and the
content half (fetch-sections, content, cluster-content, sweep-content).  Once
best-subpages has run, a full run forks one worker, which runs the tracking half
on its copy of the Runner while the run goes on with the content half.  The
worker writes no file: its Runner.save encodes each text and holds the bytes.
Before the report, the run joins the worker.  It reads from a pipe one pickle of
the worker's stage outcomes, the stages that succeeded, and each held file with
the value still kept of it; it saves those files and registers the stages that
succeeded as an in-order run would, so from the join on its files, summary,
errors, manifest and kept values are those of a run in STAGES order.  Where a
fork would not pay (a crawl log and tracker list under BRANCH_MIN_BYTES) or is
not safe, the tracking half runs in order at the same point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

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
    _located, checked, encoded, file_sha256, json_text, jsonl_text, parsed, read_json,
    read_lines, read_text, write_json, write_text,
)
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .thresholds import (
    DEFAULT_BUCKET_SIZES,
    URL_SERIES,
    Thresholds,
    fit_url_histograms,
    histogram_csv,
    histogram_rows,
    histograms_of,
    measure,
)
from .urls import (
    PageUrl, UrlMetrics, load_suffixes, normalize, partition_links, read_url_file, url_lines,
)

MANIFEST_NAME = "manifest.json"

T = TypeVar("T")
# for each write path of a stage, the file's text (a str, bytes or an iterable of
# str) and what the file parses to; a stage method returns its summary and these
Outputs = dict[Path, tuple]
StageResult = tuple[dict, Outputs]


def read_homepage_list(path: str | Path, suffixes: frozenset[str] | None = None) -> list[PageUrl]:
    """One homepage URL per line, its domain the registrable domain under *suffixes*;
    blank lines, # comments and repeats of a URL are skipped."""
    first: dict[str, PageUrl] = {}
    for url in read_lines(path, lambda line: normalize(line, suffixes=suffixes)):
        first.setdefault(url.normalized, url)
    return list(first.values())


class Runner:
    """Shared state for one pipeline run rooted at config.out_dir."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.artifacts: dict[str, Path] = {}
        # each written file a later stage reads -> what it parses to, until its last reader
        self._kept: dict[Path, object] = {}
        self._read_later = {self.out_dir / name for name in LAST_READER}
        self._measured: dict[Path, tuple] = {}  # a URL file -> (its rows, their url_metrics)
        self._homepage_texts: dict[str, str] = {}  # normalized URL -> text, from extract
        self._held: dict[Path, bytes] | None = None  # in a forked worker: the files it saved

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
        return read_homepage_list(self.config.urls, self.suffixes) if self.config.urls else []

    # --- written files, each parsed at most once per run -----------------------

    def load(self, path: str | Path, read: Callable[[Path], T]) -> T:
        """What the file *path* parses to: the value kept when this Runner wrote that
        path, or else read(path)."""
        kept = self._kept.get(Path(path))
        return read(path) if kept is None else kept

    def save(self, outputs: Outputs) -> None:
        """Write each file's text in one step, and keep its value when a later stage
        reads the file.  In a forked worker the file's bytes are held instead, for the
        parent to save; a text that cannot be written fails here either way."""
        for path, (text, value) in outputs.items():
            if self._held is None:
                write_text(path, text)
            else:
                self._held[path] = encoded(path, text)
            if value is not None and path in self._read_later:
                self._kept[path] = value

    def release(self, stage: Stage) -> None:
        """Let go of the kept value of each file whose last reader is *stage*, and of the
        rows of internal.jsonl for their site set, all that the report takes, once the
        last other stage that reads them has run; metrics go with the rows they measure."""
        for name in stage.reads:
            path = self.out_dir / name
            if LAST_READER[name] == stage.name:
                self._kept.pop(path, None)
            elif SITES_AFTER.get(name) == stage.name and path in self._kept:
                self._kept[path] = frozenset(site for _, site in self._kept[path])
        self._measured = {p: m for p, m in self._measured.items() if self._kept.get(p) is m[0]}

    def url_rows(self, path: str | Path) -> Sequence[tuple[PageUrl, str]]:
        """A URL file's (url, site) rows: those this Runner wrote there, or else the file's."""
        return self.load(path, read_url_file)

    def measured_rows(self, path: str | Path) -> tuple[Sequence, list[UrlMetrics]]:
        """A URL file's url_rows and each row's url_metrics, measured once per rows read."""
        rows = self.url_rows(path)
        if self._measured.get(Path(path), (None,))[0] is not rows:
            self._measured[Path(path)] = rows, measure(u for u, _ in rows)
        return self._measured[Path(path)]

    def url_sites(self, path: str | Path) -> frozenset[str]:
        """The sites of a URL file's rows: the set kept in place of rows this Runner
        wrote there, or else the sites of the rows."""
        kept = self._kept.get(Path(path))
        if isinstance(kept, frozenset):
            return kept
        return frozenset(site for _, site in self.url_rows(path))

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
        its write paths, whose directories it creates, save what it returns and register
        the writes.  An optional stage, which writes what its reads allow, first loses its
        old writes."""
        reads = self.inputs(stage, given, strict, ran)
        writes = [self.out_dir / name for name in stage.writes]
        for path in writes:
            path.parent.mkdir(parents=True, exist_ok=True)
            if stage.optional:
                path.unlink(missing_ok=True)
        summary, outputs = getattr(self, stage.method)(*reads, *writes)
        self.save(outputs)
        self.register(stage)
        return summary

    def register(self, stage: Stage) -> None:
        """List each file a table entry writes among the artifacts the manifest covers."""
        self.artifacts.update((artifact_name(name), self.out_dir / name) for name in stage.writes)

    def stage_fetch(self, urls: Sequence[PageUrl] | None = None) -> StageResult:
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
        return {"fetched": fetched, "reused": reused}, {}

    def stage_fetch_sections(self, best: Path) -> StageResult:
        """Add the selected section pages to the snapshot store."""
        rows = self.load(best, classify_mod.read_best_subpages)
        return self.stage_fetch([normalize(row["url"]) for row in rows])

    def stage_extract(self, internal_path: Path, external_path: Path) -> StageResult:
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
        summary = {
            "internal": len(internal),
            "external": len(external),
            "skipped_hrefs": skipped,
            "missing_snapshots": missing,
        }
        return summary, {path: (url_lines(rows), rows) for path, rows in (
            (internal_path, tuple(internal)), (external_path, tuple(external)))}

    def stage_fit_thresholds(self, source: str | Path, thresholds: Path,
                             *histograms: Path) -> StageResult:
        """Fit the URL-shape cutoffs; each histogram is written to the file named after it."""
        cfg = self.config
        hists = histograms_of(self.measured_rows(source)[1], DEFAULT_BUCKET_SIZES)
        fitted = fit_url_histograms(
            hists, cosine_cutoff=cfg.cosine_cutoff, fallback_defaults=cfg.fallback_defaults
        )
        outputs = {thresholds: (json_text(fitted.to_dict()), fitted)}
        for path in histograms:
            outputs[path] = histogram_csv(hists[path.stem]), histogram_rows(hists[path.stem])
        return fitted.to_dict(), outputs

    def stage_filter(self, source: str | Path, thresholds: Path, filtered: Path) -> StageResult:
        rows, metrics = self.measured_rows(source)
        fitted = self.load(thresholds, _read_thresholds)
        kept_urls = {u.normalized for (u, _), m in zip(rows, metrics) if fitted.admits(m)}
        kept = tuple((u, site) for u, site in rows if u.normalized in kept_urls)
        summary = {"kept": len(kept), "dropped": len(rows) - len(kept)}
        return summary, {filtered: (url_lines(kept), kept)}

    def stage_classify(self, source: str | Path, thresholds: Path, out: Path) -> StageResult:
        rows = self.url_rows(source)
        classifier = self.classifier(self.load(thresholds, _read_thresholds).cosine_cutoff)
        assignments = [
            classifier.classify(u) for u, _ in rows if u.subpaths
        ]
        methods = dict.fromkeys(classify_mod.METHODS, 0)
        for a in assignments:
            methods[a.method] += 1
        text = jsonl_text(map(classify_mod.assignment_to_record, assignments))
        return {"classified": len(assignments), **methods}, {out: (text, assignments)}

    def stage_best_subpages(self, source: str | Path, out: Path) -> StageResult:
        assignments = self.load(
            source, lambda path: classify_mod.read_assignments(path, self.dictionary)
        )
        results = self.classifier(self.config.cosine_cutoff).select_best_subpages(assignments)
        rows = classify_mod.best_subpage_records(results)
        summary = {"sites": len(results), "selections": sum(len(r.selections) for r in results)}
        return summary, {out: (jsonl_text(rows), rows)}

    def stage_track(self, best: Path, matrix_path: Path, report_path: Path) -> StageResult:
        cfg = self.config
        best_rows = self.load(best, classify_mod.read_best_subpages)
        topic_names = {t.name for t in self.dictionary.topics()}
        topic_names.update(row["topic"] for row in best_rows)
        records = tracking_mod.read_crawl_log(cfg.crawl_logs, topics=topic_names)
        dl = tracking_mod.load_disconnect_file(cfg.disconnect)

        matrix_topics = {row["topic"] for row in best_rows}
        matrix_topics.add(tracking_mod.HOMEPAGE_TOPIC)
        matrix = tracking_mod.build_tracking_matrix(records, topics=matrix_topics)

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
        return {"records": len(records), "third_parties": len(matrix.third_parties)}, {
            matrix_path: (json_text(matrix.to_dict()), _labeled(matrix)),
            report_path: (json_text(report), report),
        }

    def stage_content(self, best: Path, matrix_path: Path, languages_path: Path) -> StageResult:
        """Build per-topic documents from snapshots and weigh their terms; a homepage
        that extract parsed in this run is not parsed again."""
        best_rows = self.load(best, classify_mod.read_best_subpages)
        pages = sorted((row["topic"], row["url"]) for row in best_rows)  # deterministic order
        homepage_urls = [u.normalized for u in self.homepages]
        pages.extend((tracking_mod.HOMEPAGE_TOPIC, u) for u in sorted(homepage_urls))

        kept, self._homepage_texts = self._homepage_texts, {}  # content is their one reader
        present: list[tuple[str, str]] = []
        missing: list[str] = []
        bodies = stored_bodies(self.snapshot_dir, [url for _, url in pages if url not in kept])

        def texts() -> Iterable[tuple[str, str]]:
            for topic, url in pages:
                text = kept.get(url)
                if text is None:
                    body = next(bodies)
                    if body is None:
                        missing.append(url)
                        continue
                    text = content_mod.extract_text(body)
                present.append((topic, url))
                yield topic, text

        matrix, verdicts = content_mod.weigh_pages(texts(), self.stopwords, self.config.min_df)
        languages = jsonl_text(
            {"url": url, "topic": topic, "is_english": v.is_english, "confident": v.confident}
            for (topic, url), v in zip(present, verdicts)
        )
        summary = {
            "documents": len(matrix.topics),
            "terms": len(matrix.terms),
            "missing_snapshots": missing,
        }
        return summary, {
            matrix_path: (json_text(matrix.to_dict()), _labeled(matrix)),
            languages_path: (languages, None),
        }

    # --- clustering over either matrix file -----------------------------------

    def stage_cluster(self, matrix: str | Path, out: str | Path) -> StageResult:
        """Reduce a matrix file, cluster it, and write the labeled result."""
        cfg = self.config
        labels, X = self.load(matrix, load_matrix_file)
        try:
            model, reduced = cluster_mod.pca_fit(X, cfg.pca_n)
            report = cluster_mod.cluster_report(
                reduced, labels, cfg.k, seed=cfg.seed, restarts=cfg.restarts, b_refs=cfg.b_refs
            )
        except (ValueError, PipelineError) as exc:  # a data condition of the file, not a crash
            raise _located(exc, str(matrix), PipelineError) from exc
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
        shown = ("matrix", "k", "sse", "silhouette", "gap")
        summary = {"out": str(out), **{key: payload[key] for key in shown}}
        return summary, {Path(out): (json_text(payload), payload)}

    def stage_cluster_sweep(self, matrix: str | Path, out: str | Path) -> StageResult:
        """Score every (dimension, cluster count) cell of a matrix file as CSV."""
        cfg = self.config
        _, X = self.load(matrix, load_matrix_file)
        n_range, k_range = parse_range(cfg.n_range), parse_range(cfg.k_range)
        try:
            sweep = cluster_mod.model_select(
                X, n_range, k_range, seed=cfg.seed, restarts=cfg.restarts, b_refs=cfg.b_refs
            )
        except (ValueError, PipelineError) as exc:  # a data condition of the file, not a crash
            raise _located(exc, str(matrix), PipelineError) from exc
        if all(row.error for row in sweep.rows):
            first = sweep.rows[0]
            raise PipelineError(f"{matrix}: no cell of the sweep could be scored; "
                                f"n={first.n}, k={first.k}: {first.error}")
        summary = {
            "matrix": Path(matrix).name,
            "out": str(out),
            "cells": len(sweep.rows),
            "best": sweep.best,
        }
        csv = sweep.to_csv()
        return summary, {Path(out): (csv, csv)}

    # --- plot data ------------------------------------------------------------

    def stage_report(
        self, url_length, subpath_length, hyphens, internal, best, tracking_report,
        clusters_tracking, sweep_tracking, clusters_content, sweep_content,
        histograms_csv, coverage_csv, cookies_csv, breakdown_csv, percent_diff_csv,
        heatmap_csv, scatter_tracking, curves_tracking, scatter_content, curves_content, notes,
    ) -> StageResult:
        """Plot-ready CSVs from whichever reads the bundle holds, an absent read being
        None, and notes.txt listing the absent ones."""
        reads = (url_length, subpath_length, hyphens, internal, best, tracking_report,
                 clusters_tracking, sweep_tracking, clusters_content, sweep_content)
        missing = [name for name, path in zip(STAGE_NAMED["report"].reads, reads) if path is None]
        plots: dict[Path, str] = {}

        # threshold histograms, each file's header line skipped
        histograms = sorted(path for path in (url_length, subpath_length, hyphens) if path)
        if histograms:
            plots[histograms_csv] = _csv("parameter,bucket,count", [
                f"{path.stem},{line}"
                for path in histograms for line in self.load(path, _read_histogram_rows)])

        # topic coverage across sites
        if best:
            chosen = self.load(best, classify_mod.read_best_subpages)
            sites = self.url_sites(internal) if internal else {r["site"] for r in chosen}
            per_topic: dict[str, set[str]] = {}
            for r in chosen:
                per_topic.setdefault(r["topic"], set()).add(r["site"])
            plots[coverage_csv] = _csv("topic,percent_of_sites", [
                f"{topic},{100.0 * len(covered) / len(sites):.12g}"
                for topic, covered in sorted(per_topic.items())
            ] if sites else [])

        # tracking analytics; a fault in the report's shape is a fault of its file
        def tracking_plots(report: dict) -> dict[Path, str]:
            checked(report, dict, "the report")
            stats = []
            for topic, s in _items(report["cookie_stats"], "cookie_stats"):
                s = checked(s, dict, f"cookie_stats.{topic}")
                numbers = ",".join(_number(s[key], f"cookie_stats.{topic}.{key}")
                                   for key in ("min", "q1", "median", "mean", "q3", "max"))
                stats.append(f"{topic},{numbers},{s['count']}")
            rows = []
            breakdowns = checked(report["category_breakdown"], dict, "category_breakdown")
            for scope in ("all", "top_sites"):
                breakdown = breakdowns.get(scope)
                if breakdown is None:
                    continue
                for topic, counts in _items(breakdown, f"category_breakdown.{scope}"):
                    for category, count in _items(counts, f"category_breakdown.{scope}.{topic}"):
                        rows.append(f"{scope},{topic},{category},{count}")
            plots = {cookies_csv: _csv("topic,min,q1,median,mean,q3,max,count", stats),
                     breakdown_csv: _csv("scope,topic,category,distinct_third_parties", rows)}
            diff = report.get("percent_diff_vs_homepage")
            if diff:
                plots[percent_diff_csv] = _csv("topic,category,percent_or_new", [
                    f"{topic},{category},"
                    + (value if isinstance(value, str) else _number(value, f"{what}.{category}"))
                    for topic, row in _items(diff, "percent_diff_vs_homepage")
                    for what in [f"percent_diff_vs_homepage.{topic}"]
                    for category, value in _items(row, what)])
            plots[heatmap_csv] = _csv("third_party,topic,percent_of_pages", [
                f"{entry['third_party']},{topic},{_number(pct, f'coverage.{topic}')}"
                for entry in checked(report["top_tp_coverage"], dict, "top_tp_coverage", each=True)
                for topic, pct in _items(entry["coverage"], "coverage")])
            return plots

        if tracking_report:
            plots.update(parsed(self.load(tracking_report, _read_document), tracking_plots,
                                tracking_report))

        # cluster scatters and metric curves
        def scatter_plot(payload: dict) -> str:
            checked(payload, dict, "the clusters file")
            assignments = checked(payload["assignments"], dict, "assignments")
            columns = ",".join(f"x{i}" for i in range(checked(payload["n"], int, "n")))
            return _csv("label,cluster," + columns, [
                f"{label},{assignments[label]},"
                + ",".join(_number(v, f"points.{label}")
                           for v in checked(coords, list, f"points.{label}"))
                for label, coords in _items(payload["points"], "points")])

        for clusters, sweep, scatter, curves in (
            (clusters_tracking, sweep_tracking, scatter_tracking, curves_tracking),
            (clusters_content, sweep_content, scatter_content, curves_content),
        ):
            if clusters:
                plots[scatter] = parsed(self.load(clusters, _read_document), scatter_plot, clusters)
            if sweep:
                plots[curves] = self.load(sweep, read_text)

        plots[notes] = "".join(f"missing: {name}\n" for name in missing) or "complete\n"
        summary = {"emitted": [path.name for path in plots], "missing": missing}
        return summary, {path: (text, None) for path, text in plots.items()}

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


def _read_thresholds(path: str | Path) -> Thresholds:
    return read_json(path, Thresholds.from_dict)


def _read_histogram_rows(path: str | Path) -> list[str]:
    """A histogram file's lines below its header."""
    return list(islice(read_lines(path, str), 1, None))


def _csv(header: str, rows: Iterable[str]) -> str:
    return header + "\n" + "".join(row + "\n" for row in rows)


def _number(value, what: str) -> str:
    """*value*, a finite JSON number, as a plot writes it; else a ValueError naming *what*."""
    return f"{checked(value, float, what):.12g}"


def _items(value, what: str) -> list[tuple]:
    """The sorted items of the JSON object *value*; else a ValueError naming *what*."""
    return sorted(checked(value, dict, what).items())


def _read_document(path: str | Path):
    """The JSON value a file holds, whatever its shape."""
    return read_json(path, lambda value: value)


def load_matrix_file(path: str | Path) -> tuple[tuple[str, ...], "np.ndarray"]:
    """Load either matrix artifact as (row labels, float matrix).

    The two formats are told apart by their payload key: presence matrices
    carry integer "cells", term-weight matrices carry "weights".
    """
    return read_json(path, _labeled_matrix)


def _labeled_matrix(obj: dict) -> tuple[tuple[str, ...], "np.ndarray"]:
    if "cells" in obj:
        return _labeled(tracking_mod.TrackingMatrix.from_dict(obj))
    return _labeled(content_mod.ContentMatrix.from_dict(obj))


def _labeled(m) -> tuple[tuple[str, ...], "np.ndarray"]:
    """A tracking or content matrix as (row labels, float matrix), the array read-only,
    so that a reader that writes into it fails instead of changing what others get."""
    X = m.cells.astype(float) if isinstance(m, tracking_mod.TrackingMatrix) else m.weights
    X.flags.writeable = False
    return m.topics, X


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
# the last stage, in run order, that reads a file
LAST_READER = {name: stage.name for stage in STAGES for name in stage.reads}
# the report, the one optional stage, takes only the site set of internal.jsonl, so
# that set is all that is kept of the file after the last other stage that reads it
SITES_AFTER = {name: stage.name for stage in STAGES if not stage.optional
               for name in stage.reads if name == "internal.jsonl"}
# the tracking half of the analytics, which a full run hands to one forked worker
# once the last stage whose file it reads has run, and joins before the first
# other stage that reads a file it writes
BRANCH = ("track", "cluster-tracking", "sweep-tracking")
# a branch whose configured input files (crawl log, tracker list) hold fewer bytes runs
# in order: below it the branch takes about as long as forking, the pages both processes
# then copy and the reaping (the links workload's 38 KB take the branch about 14 ms; a
# fork costs 8-25 ms, growing with the process)
BRANCH_MIN_BYTES = 64 * 1024


def _branch_points() -> tuple[int, int]:
    """(fork, join): the STAGES indices, with the branch left out, after which a full
    run starts the branch and before which it has the branch's result."""
    rest = [stage.name for stage in STAGES if stage.name not in BRANCH]
    writes = {name for name in WRITER if WRITER[name] in BRANCH}
    fork = 1 + max(rest.index(WRITER[name]) for branch in BRANCH
                   for name in STAGE_NAMED[branch].reads if WRITER[name] not in BRANCH)
    join = min(i for i, name in enumerate(rest) if writes.intersection(STAGE_NAMED[name].reads))
    return fork, join


def _input_bytes(config: PipelineConfig, stages: Iterable[Stage]) -> int:
    """The size of the files that *stages* take from *config*; one that is missing
    or unset counts 0."""
    total = 0
    for key in {key for stage in stages for key in stage.requires}:
        try:
            total += Path(getattr(config, key)).stat().st_size
        except (OSError, TypeError):
            pass
    return total


def _run_stages(runner: Runner, stages: Iterable[Stage], succeeded: set[str]) -> dict[str, dict]:
    """Run *stages* in order on *runner*, adding each that succeeds to *succeeded*;
    returns each run stage's summary, a failed one's being {"error": its message}.
    A stage that Runner.inputs refuses is skipped."""
    outcomes: dict[str, dict] = {}
    for stage in stages:
        try:
            outcomes[stage.name] = runner.run_stage(stage, ran=succeeded)
            succeeded.add(stage.name)
        except MissingStage:
            pass
        except PipelineError as exc:
            outcomes[stage.name] = {"error": str(exc)}
        runner.release(stage)
    return outcomes


def _worker(runner: Runner, stages: Sequence[Stage], succeeded: set[str], fd: int) -> None:
    """The forked worker: run *stages* on this copy of the Runner, which holds the
    files they save rather than write them, send down the pipe *fd* one pickle of what
    the parent needs to go on as if it had run them, those files included, and exit
    without returning.  An unexpected exception is sent instead, and the exit is 1."""
    import os
    import pickle
    import traceback

    code = 0
    try:
        runner._held = {}
        ran = set(succeeded)
        outcomes = _run_stages(runner, stages, ran)
        saved = {path: (held, runner._kept.get(path)) for path, held in runner._held.items()}
        data = pickle.dumps(("done", outcomes, ran - succeeded, saved))
    except BaseException as exc:  # a bug: the parent raises it after the join
        code = 1
        tb = traceback.format_exc()
        try:
            data = pickle.dumps(("raised", exc, tb))
        except Exception:  # an exception that cannot be pickled goes as its text
            data = pickle.dumps(("raised", RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
    finally:
        try:
            with os.fdopen(fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(code)


def _aside(runner: Runner, stages: Sequence[Stage],
           succeeded: set[str]) -> Callable[..., dict[str, dict]]:
    """Start *stages* in one forked worker, which runs them on its copy of *runner*,
    and return the join: join() waits for the worker and returns the stages'
    outcomes, having added to *runner* and *succeeded* what running them here would
    have added; join(kill=True) kills and reaps the worker unless it was joined.  Where
    a fork does not pay (input files under BRANCH_MIN_BYTES), is not safe (no os.fork,
    macOS, or another Python thread running) or fails (no pipe or process to be had),
    the stages run here and now, and the join only returns their outcomes.

    The thread check sees Python threads only.  The worker runs LAPACK (pca_fit's
    eigh), so it assumes that the BLAS numpy links is safe to use after a fork; that
    holds for OpenBLAS built on pthreads, which resets its pool in the child, and was
    verified with OpenBLAS 0.3.31 on Python 3.11 only.  A worker that hangs there would
    hang the join, which does not time out."""
    import os
    import pickle
    import signal
    import sys
    import threading

    pid = None
    if (_input_bytes(runner.config, stages) >= BRANCH_MIN_BYTES and hasattr(os, "fork")
            and sys.platform != "darwin" and threading.active_count() == 1):
        ends: tuple[int, ...] = ()
        try:
            ends = os.pipe()
            pid = os.fork()
        except OSError:  # EMFILE, EAGAIN, ENOMEM: the run goes on without a worker
            for end in ends:
                os.close(end)
    if pid is None:
        outcomes = _run_stages(runner, stages, succeeded)
        return lambda kill=False: outcomes
    read_end, write_end = ends
    if pid == 0:
        os.close(read_end)
        _worker(runner, stages, succeeded, write_end)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")

    def join(kill: bool = False) -> dict[str, dict]:
        if pipe.closed:  # joined or killed before
            return {}
        if kill:
            os.kill(pid, signal.SIGKILL)
        data = b"" if kill else pipe.read()  # all of it first: it may outgrow the pipe's buffer
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pipe.close()  # only once reaped, so that join(kill=True) reaps a worker still unreaped
        if kill:
            return {}
        names = ", ".join(stage.name for stage in stages)
        if not data or status not in (0, 1):  # died before, or while, sending its result
            ended = f"was killed by signal {-status}" if status < 0 else f"exited {status}"
            return {stages[0].name: {"error": f"the worker running {names} {ended} "
                                              "without a result"}}
        kind, *result = pickle.loads(data)
        if kind == "raised":
            exc, tb = result
            raise exc from RuntimeError(f"in the worker running {names}:\n{tb}")
        outcomes, ran, saved = result
        succeeded.update(ran)
        runner.save(saved)
        for stage in stages:
            if stage.name in ran:
                runner.register(stage)
            runner.release(stage)
        return outcomes

    return join


def run_pipeline(config: PipelineConfig) -> tuple[int, dict]:
    """Run every stage the configuration enables; returns (exit code, summary).

    The config is validated first, with the first stage's keys required.
    Stage failures are collected rather than raised; a stage that Runner.inputs
    refuses is skipped, so one that reads a failed stage's file is, and the
    report reads only this run's files.  The BRANCH stages run beside the rest
    (see _aside); the summary and errors list the stages in STAGES order.  The exit
    code is 0 only when nothing failed.
    """
    config.validate(STAGES[0].requires)
    runner = Runner(config)
    for name in (MANIFEST_NAME, *WRITER):  # the temporary files of a killed run's writes
        (runner.out_dir / f"{name}.tmp").unlink(missing_ok=True)
    # a manifest left by an earlier run must not vouch for a run that stops part way
    (runner.out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    succeeded: set[str] = set()
    rest = [stage for stage in STAGES if stage.name not in BRANCH]
    fork, join_at = _branch_points()
    outcomes = _run_stages(runner, rest[:fork], succeeded)
    join = _aside(runner, [STAGE_NAMED[name] for name in BRANCH], succeeded)
    try:
        outcomes.update(_run_stages(runner, rest[fork:join_at], succeeded))
        outcomes.update(join())
    finally:  # a worker outlives no run, whatever raised, KeyboardInterrupt included
        join(kill=True)
    outcomes.update(_run_stages(runner, rest[join_at:], succeeded))
    runner.write_manifest()
    summary: dict[str, object] = {
        stage.name: outcomes[stage.name] for stage in STAGES if stage.name in outcomes
    }
    errors = [f"{name}: {outcome['error']}"
              for name, outcome in summary.items() if name not in succeeded]
    summary["manifest"] = str(runner.out_dir / MANIFEST_NAME)
    summary["errors"] = errors
    return (0 if not errors else 1), summary
