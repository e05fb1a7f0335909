"""File-artifact stages and end-to-end orchestration.

Each stage reads upstream artifacts from a run directory and writes its own,
so any stage can be re-run in isolation.  A full run records each stage it runs
in one ledger, as the stage's summary or the PipelineError that failed it.  A read
is present when its writer's record is a summary, and the run's summary, errors
and manifest.json, the content-hash inventory of every file its succeeded stages
wrote, are read from the ledger.  Two runs over the same inputs and seed produce
byte-identical bundles.

A stage method writes nothing.  It returns its summary and, for each of its
write paths, the file's text and, when a later STAGES entry reads the file, the
value that file parses to.  Runner.run_stage hands both to Runner.save, the one
write path, which writes each text in one step and keeps each value.  A reader
takes the kept value when this Runner wrote the path it reads, and otherwise
parses the file, so a stage run alone, or given --input, reads the file; either
way it gets a value of one type.  A matrix's array is read-only either way, so
a reader that writes into it fails instead of changing what later readers get.
A full run lets go of each kept value once the last stage that reads it has run.
The rows of internal.jsonl (a urls.UrlRows) carry the URL metrics that
fit-thresholds measures and filter takes, and the report takes only their site
set, so after filter, their last other reader, the rows give way to that set.

A Runner also loads each run input when first used and keeps it for the run,
the embeddings through the parse cache in the snapshot store, and keeps one
value that no file holds: the visible text of each homepage, which extract
parses for its links, until content, which takes it in place of a second parse.

The analytics run in two halves that read only best.jsonl and their own files:
the tracking half (BRANCH: track, cluster-tracking, sweep-tracking) and the
content half (fetch-sections, content, cluster-content, sweep-content).  Once
best-subpages has run, a full run forks one worker, which runs the tracking half
on its copy of the Runner while the run goes on with the content half.  The
worker writes no file: its Runner.save encodes each text and holds the bytes.
Before the report, the run joins the worker.  It reads from a pipe one pickle of
the worker's stages' records and each held file with the value still kept of it;
it adds the records to its ledger and saves those files as an in-order run would,
so from the join on its files, ledger and kept values are those of a run in
STAGES order.  Where a fork would not pay (a crawl log and tracker list under
BRANCH_MIN_BYTES) or is not safe, the tracking half runs in order at the same point.
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
from .errors import KTooLarge, MissingStage, PipelineError
from .fetch import INDEX_NAME, fetch_missing, stored_bodies
from .lines import (
    _located, checked, encoded, file_sha256, json_text, jsonl_text, parsed, read_json,
    read_lines, read_text, read_words, write_text,
)
from .thresholds import (
    DEFAULT_BUCKET_SIZES,
    URL_SERIES,
    Thresholds,
    fit_url_histograms,
    histogram_csv,
    histogram_rows,
    histograms_of,
)
from .urls import (
    PageUrl, UrlRows, normalize, partition_links, read_url_file, registrable_domain, url_lines,
)

MANIFEST_NAME = "manifest.json"
# a comma, a quote and each line break str.splitlines knows: what splits a CSV row
_CSV_SPLITS = frozenset(',"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029')

T = TypeVar("T")
# for each write path of a stage, the file's text (a str, bytes or an iterable of
# str) and what the file parses to, None unless a later stage reads the file; a
# stage method returns its summary and these
Outputs = dict[Path, tuple]
StageResult = tuple[dict, Outputs]
# each stage a full run ran -> its summary, or the PipelineError that failed it
Ledger = dict[str, dict | PipelineError]


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
        # each written file a later stage reads -> what it parses to, until its last reader
        self._kept: dict[Path, object] = {}
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
        cfg = self.config
        return read_words(cfg.stopwords) if cfg.stopwords else content_mod.DEFAULT_STOPWORDS

    @cached_property
    def suffixes(self) -> frozenset[str] | None:
        return read_words(self.config.suffixes) if self.config.suffixes else None

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
        """Write each file's text in one step, and keep each value that is not None.
        In a forked worker the file's bytes are held instead, for the parent to save;
        a text that cannot be written fails here either way."""
        for path, (text, value) in outputs.items():
            if self._held is None:
                write_text(path, text)
            else:
                self._held[path] = encoded(path, text)
            if value is not None:
                self._kept[path] = value

    def release(self, stage: Stage) -> None:
        """Let go of the kept value of each file whose last reader is *stage*.  After
        the last other stage that reads internal.jsonl, its kept rows, with the metrics
        they carry, give way to their site set, all that the report takes."""
        for name in stage.reads:
            path = self.out_dir / name
            if LAST_READER[name] == stage.name:
                self._kept.pop(path, None)
            elif SITES_AFTER.get(name) == stage.name and path in self._kept:
                self._kept[path] = self._kept[path].sites

    # --- stages -------------------------------------------------------------

    def inputs(self, stage: Stage, given: Sequence = (), strict: bool = False,
               ran: Ledger | None = None) -> list[Path | None]:
        """A table entry's read paths, *given* ones first in place of its leading reads,
        or MissingStage saying why it cannot run: a required key unset or a read absent.
        A read is present if its writer's record in *ran*, the run's ledger, is a
        summary, or without *ran* if the file exists; an optional stage gets an absent
        read as None unless *strict*."""
        unset = self.config.unset(stage.requires)
        if unset:
            raise MissingStage(f"no {unset[0]} configured")
        paths: list[Path | None] = list(given)
        for name in stage.reads[len(given):]:
            path = self.out_dir / name
            if isinstance(ran.get(WRITER[name]), dict) if ran is not None else path.exists():
                paths.append(path)
            elif stage.optional and not strict:
                paths.append(None)
            else:
                raise MissingStage(f"{name} is missing; run the {WRITER[name]} stage first")
        return paths

    def run_stage(self, stage: Stage, *given, strict: bool = False,
                  ran: Ledger | None = None) -> dict:
        """Call a table entry's method (looked up at call time) on its inputs(), then on
        its write paths, whose directories it creates, save what it returns and return
        its summary.  An optional stage, which writes what its reads allow, first loses
        its old writes."""
        reads = self.inputs(stage, given, strict, ran)
        writes = [self.out_dir / name for name in stage.writes]
        for path in writes:
            path.parent.mkdir(parents=True, exist_ok=True)
            if stage.optional:
                path.unlink(missing_ok=True)
        summary, outputs = getattr(self, stage.method)(*reads, *writes)
        self.save(outputs)
        return summary

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
        return summary, {internal_path: (url_lines(internal), UrlRows(internal)),
                         external_path: (url_lines(external), None)}

    def stage_fit_thresholds(self, source: str | Path, thresholds: Path,
                             *histograms: Path) -> StageResult:
        """Fit the URL-shape cutoffs; each histogram is written to the file named after it."""
        cfg = self.config
        hists = histograms_of(self.load(source, read_url_file).metrics, DEFAULT_BUCKET_SIZES)
        fitted = fit_url_histograms(
            hists, cosine_cutoff=cfg.cosine_cutoff, fallback_defaults=cfg.fallback_defaults
        )
        outputs = {thresholds: (json_text(fitted.to_dict()), fitted)}
        for path in histograms:
            outputs[path] = histogram_csv(hists[path.stem]), histogram_rows(hists[path.stem])
        return fitted.to_dict(), outputs

    def stage_filter(self, source: str | Path, thresholds: Path, filtered: Path) -> StageResult:
        rows = self.load(source, read_url_file)
        fitted = self.load(thresholds, _read_thresholds)
        kept = UrlRows(row for row, m in zip(rows, rows.metrics) if fitted.admits(m))
        summary = {"kept": len(kept), "dropped": len(rows) - len(kept)}
        return summary, {filtered: (url_lines(kept), kept)}

    def stage_classify(self, source: str | Path, thresholds: Path, out: Path) -> StageResult:
        rows = self.load(source, read_url_file)
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
        records = tracking_mod.read_crawl_log(cfg.crawl_logs, topic_names, self.suffixes)
        dl = tracking_mod.load_disconnect_file(cfg.disconnect)

        matrix_topics = {row["topic"] for row in best_rows}
        matrix_topics.add(tracking_mod.HOMEPAGE_TOPIC)
        matrix = tracking_mod.build_tracking_matrix(records, topics=matrix_topics)

        breakdown = tracking_mod.category_breakdown(records, dl, suffixes=self.suffixes)
        top_sites = {registrable_domain(entry, self.suffixes) for entry in cfg.top_sites_set()}
        report = {
            "cookie_stats": {
                t: s.to_dict() for t, s in tracking_mod.cookie_stats_by_topic(records).items()
            },
            "category_breakdown": {
                "all": breakdown,
                "top_sites": (
                    tracking_mod.category_breakdown(records, dl, top_sites, self.suffixes)
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

    def _model_select(self, matrix: str | Path, X, n_range, k_range) -> cluster_mod.SweepResult:
        """The run's model_select of a matrix file's X, its faults located at the file."""
        cfg = self.config
        try:
            return cluster_mod.model_select(
                X, n_range, k_range, seed=cfg.seed, restarts=cfg.restarts, b_refs=cfg.b_refs
            )
        except (ValueError, PipelineError) as exc:  # a data condition of the file, not a crash
            raise _located(exc, str(matrix), PipelineError) from exc

    def stage_cluster(self, matrix: str | Path, out: str | Path) -> StageResult:
        """Reduce a matrix file, cluster it, and write the labeled result: the
        sweep's one cell at (pca_n, k)."""
        cfg = self.config
        labels, X = self.load(matrix, load_matrix_file)
        sweep = self._model_select(matrix, X, [cfg.pca_n], [cfg.k])
        (cell,) = sweep.rows
        if cell.error is not None:
            refused = KTooLarge if sweep.reductions else PipelineError  # PCA refused: no reduction
            raise refused(f"{matrix}: {cell.error}")
        model, reduced = sweep.reductions[cfg.pca_n]
        payload = {
            "k": cfg.k,
            "assignments": {label: int(c) for label, c in zip(labels, cell.fit.assignments)},
            "sse": cell.sse, "silhouette": cell.silhouette, "gap": cell.gap, "seed": cfg.seed,
            "matrix": Path(matrix).name,
            "n": cfg.pca_n,
            "rank_deficient": model.rank_deficient,
            "explained_variance_ratio": [float(r) for r in model.explained_variance_ratio],
            "points": {label: [float(v) for v in row] for label, row in zip(labels, reduced)},
        }
        shown = ("matrix", "k", "sse", "silhouette", "gap")
        summary = {"out": str(out), **{key: payload[key] for key in shown}}
        return summary, {Path(out): (json_text(payload), payload)}

    def stage_cluster_sweep(self, matrix: str | Path, out: str | Path) -> StageResult:
        """Score every (dimension, cluster count) cell of a matrix file as CSV."""
        cfg = self.config
        _, X = self.load(matrix, load_matrix_file)
        sweep = self._model_select(matrix, X, parse_range(cfg.n_range), parse_range(cfg.k_range))
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
            sites = (self.load(internal, lambda path: read_url_file(path).sites) if internal
                     else {r["site"] for r in chosen})
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
                what = f"cookie_stats.{topic}"
                s = checked(s, dict, what)
                numbers = ",".join(_number(s[key], f"{what}.{key}")
                                   for key in ("min", "q1", "median", "mean", "q3", "max"))
                stats.append(f"{topic},{numbers},{checked(s['count'], int, f'{what}.count')}")
            rows = []
            breakdowns = checked(report["category_breakdown"], dict, "category_breakdown")
            for scope in ("all", "top_sites"):
                breakdown = breakdowns.get(scope)
                if breakdown is None:
                    continue
                for topic, counts in _items(breakdown, f"category_breakdown.{scope}"):
                    what = f"category_breakdown.{scope}.{topic}"
                    for category, count in _items(counts, what):
                        rows.append(f"{scope},{topic},{category},"
                                    f"{checked(count, int, f'{what}.{category}')}")
            plots = {cookies_csv: _csv("topic,min,q1,median,mean,q3,max,count", stats),
                     breakdown_csv: _csv("scope,topic,category,distinct_third_parties", rows)}
            diff = report.get("percent_diff_vs_homepage")
            if diff:
                plots[percent_diff_csv] = _csv("topic,category,percent_or_new", [
                    f"{topic},{category},"
                    + (value if value == tracking_mod.NEW_MARKER
                       else _number(value, f"{what}.{category}"))
                    for topic, row in _items(diff, "percent_diff_vs_homepage")
                    for what in [f"percent_diff_vs_homepage.{topic}"]
                    for category, value in _items(row, what)])
            plots[heatmap_csv] = _csv("third_party,topic,percent_of_pages", [
                f"{_field(entry['third_party'], 'third_party')},{topic},"
                f"{_number(pct, f'coverage.{topic}')}"
                for entry in checked(report["top_tp_coverage"], dict, "top_tp_coverage", each=True)
                for topic, pct in _items(entry["coverage"], "coverage")])
            return plots

        if tracking_report:
            plots.update(parsed(self.load(tracking_report, read_json), tracking_plots,
                                tracking_report))

        # cluster scatters and metric curves
        def scatter_plot(payload: dict) -> str:
            checked(payload, dict, "the clusters file")
            assignments = checked(payload["assignments"], dict, "assignments")
            columns = ",".join(f"x{i}" for i in range(checked(payload["n"], int, "n")))
            return _csv("label,cluster," + columns, [
                f"{label},{checked(assignments[label], int, f'assignments.{label}')},"
                + ",".join(_number(v, f"points.{label}")
                           for v in checked(coords, list, f"points.{label}"))
                for label, coords in _items(payload["points"], "points")])

        for clusters, sweep, scatter, curves in (
            (clusters_tracking, sweep_tracking, scatter_tracking, curves_tracking),
            (clusters_content, sweep_content, scatter_content, curves_content),
        ):
            if clusters:
                plots[scatter] = parsed(self.load(clusters, read_json), scatter_plot, clusters)
            if sweep:
                plots[curves] = self.load(sweep, read_text)

        plots[notes] = "".join(f"missing: {name}\n" for name in missing) or "complete\n"
        summary = {"emitted": [path.name for path in plots], "missing": missing}
        return summary, {path: (text, None) for path, text in plots.items()}

    # --- manifest ---------------------------------------------------------------

    def write_manifest(self, ledger: Ledger) -> Path:
        """Write manifest.json: the path and sha256 of each existing file that a stage
        whose record in *ledger* is a summary writes, by artifact name, and of the
        snapshot index once fetch or fetch-sections has succeeded."""
        done = [name for name, record in ledger.items() if isinstance(record, dict)]
        paths = {artifact_name(file): self.out_dir / file
                 for name in done for file in STAGE_NAMED[name].writes}
        if {"fetch", "fetch-sections"}.intersection(done):
            paths["snapshot-index"] = self.snapshot_dir / INDEX_NAME
        listing = {}
        for name, path in sorted(paths.items()):
            if path.exists():  # the snapshot index may lie outside out_dir
                rel = path.relative_to(self.out_dir) if path.is_relative_to(self.out_dir) else path
                listing[name] = {"path": str(rel), "sha256": file_sha256(path)}
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.out_dir / MANIFEST_NAME
        self.save({manifest_path: (json_text({"artifacts": listing}), None)})
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


def _field(value, what: str) -> str:
    """*value*, a JSON string a plot writes as one CSV field; else a ValueError naming *what*."""
    if not _CSV_SPLITS.isdisjoint(checked(value, str, what)):
        raise ValueError(f"{what} {value!r} holds a comma, a quote or a line break")
    return value


def _items(value, what: str) -> list[tuple]:
    """The sorted items of the JSON object *value*, each key a _field; else a ValueError."""
    items = sorted(checked(value, dict, what).items())
    for key, _ in items:
        _field(key, f"{what} key")
    return items


def load_matrix_file(path: str | Path) -> tuple[tuple[str, ...], "np.ndarray"]:
    """Load either matrix artifact as (row labels, float matrix).

    The two formats are told apart by their payload key: presence matrices
    carry integer "cells", term-weight matrices carry "weights".
    """
    return read_json(path, lambda obj: _labeled((
        tracking_mod.TrackingMatrix if "cells" in obj else content_mod.ContentMatrix
    ).from_dict(obj)))


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


def _run_stages(runner: Runner, stages: Iterable[Stage], ledger: Ledger) -> None:
    """Run *stages* in order on *runner*, recording in *ledger* each one's summary, or
    the PipelineError that failed it.  A stage that Runner.inputs refuses is skipped
    and not recorded."""
    for stage in stages:
        try:
            ledger[stage.name] = runner.run_stage(stage, ran=ledger)
        except MissingStage:
            pass
        except PipelineError as exc:
            ledger[stage.name] = exc
        runner.release(stage)


def _worker(runner: Runner, stages: Sequence[Stage], ledger: Ledger, fd: int,
            run: int) -> None:
    """The forked worker of the run whose pid is *run*, which on Linux it dies with: run
    *stages* on this copy of the Runner and of its *ledger*, the Runner holding the
    files they save rather than writing them, send down the pipe *fd* one pickle of
    the stages' records and those files, and exit without returning.  An unexpected
    exception is sent instead, and the exit is 1."""
    import os
    import pickle
    import sys
    import traceback

    code = 0
    try:
        if sys.platform == "linux":
            import ctypes
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL: the kernel kills this worker with the run
            if os.getppid() != run:  # the run died before the call
                os._exit(1)
        runner._held = {}
        _run_stages(runner, stages, ledger)
        records = {stage.name: ledger[stage.name] for stage in stages if stage.name in ledger}
        saved = {path: (held, runner._kept.get(path)) for path, held in runner._held.items()}
        data = pickle.dumps(("done", records, saved))
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


def _aside(runner: Runner, stages: Sequence[Stage], ledger: Ledger) -> Callable[..., None]:
    """Start *stages* in one forked worker, which runs them on its copy of *runner*,
    and return the join: join() waits for the worker, adds the stages' records to
    *ledger* and saves their files in *runner*, as running them here would have;
    join(kill=True) kills and reaps the worker unless it was joined.  Where a fork
    does not pay (input files under BRANCH_MIN_BYTES), is not safe (no os.fork, macOS,
    or another Python thread running) or fails (no pipe or process to be had), the
    stages run here and now, and the join does nothing.

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

    pid, run = None, os.getpid()
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
        _run_stages(runner, stages, ledger)
        return lambda kill=False: None
    read_end, write_end = ends
    if pid == 0:
        os.close(read_end)
        _worker(runner, stages, ledger, write_end, run)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")

    def join(kill: bool = False) -> None:
        if pipe.closed:  # joined or killed before
            return
        if kill:
            os.kill(pid, signal.SIGKILL)
        data = b"" if kill else pipe.read()  # all of it first: it may outgrow the pipe's buffer
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pipe.close()  # only once reaped, so that join(kill=True) reaps a worker still unreaped
        if kill:
            return
        names = ", ".join(stage.name for stage in stages)
        if not data or status not in (0, 1):  # died before, or while, sending its result
            ended = f"was killed by signal {-status}" if status < 0 else f"exited {status}"
            ledger[stages[0].name] = PipelineError(
                f"the worker running {names} {ended} without a result")
            return
        kind, *result = pickle.loads(data)
        if kind == "raised":
            exc, tb = result
            raise exc from RuntimeError(f"in the worker running {names}:\n{tb}")
        records, saved = result
        ledger.update(records)
        runner.save(saved)
        for stage in stages:
            runner.release(stage)

    return join


def run_pipeline(config: PipelineConfig) -> tuple[int, dict]:
    """Run every stage the configuration enables; returns (exit code, summary).

    The config is validated first, with the first stage's keys required.  Stage
    failures are recorded in the ledger rather than raised; a stage that
    Runner.inputs refuses is skipped, so one that reads a failed stage's file is,
    and the report reads only this run's files.  The BRANCH stages run beside the
    rest (see _aside).  The summary, {"error": message} for a failed stage, and the
    errors list the ledger in STAGES order.  The exit code is 0 only when nothing
    failed.
    """
    config.validate(STAGES[0].requires)
    runner = Runner(config)
    for name in (MANIFEST_NAME, *WRITER):  # the temporary files of a killed run's writes
        (runner.out_dir / f"{name}.tmp").unlink(missing_ok=True)
    # a manifest left by an earlier run must not vouch for a run that stops part way
    (runner.out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    ledger: Ledger = {}
    rest = [stage for stage in STAGES if stage.name not in BRANCH]
    fork, join_at = _branch_points()
    _run_stages(runner, rest[:fork], ledger)
    join = _aside(runner, [STAGE_NAMED[name] for name in BRANCH], ledger)
    try:
        _run_stages(runner, rest[fork:join_at], ledger)
        join()
    finally:  # a worker outlives no run, whatever raised, KeyboardInterrupt included
        join(kill=True)
    _run_stages(runner, rest[join_at:], ledger)
    runner.write_manifest(ledger)
    records = [(stage.name, ledger[stage.name]) for stage in STAGES if stage.name in ledger]
    errors = [f"{name}: {record}" for name, record in records if isinstance(record, PipelineError)]
    summary: dict[str, object] = {
        name: {"error": str(record)} if isinstance(record, PipelineError) else record
        for name, record in records
    }
    summary.update(manifest=str(runner.out_dir / MANIFEST_NAME), errors=errors)
    return (0 if not errors else 1), summary
