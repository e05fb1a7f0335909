import dataclasses
import inspect
import json
import os
from pathlib import Path

import pytest

import topicpages.cli as cli_mod
import topicpages.cluster as cluster_mod
from topicpages.cli import main
from topicpages.config import TYPES, PipelineConfig, load_config
from topicpages.errors import ConfigError, EmptyInput, KTooLarge, MissingStage, PipelineError
from topicpages.fetch import load_snapshot_index
from topicpages.lines import write_json
from topicpages.pipeline import (
    STAGE_NAMED,
    STAGES,
    WRITER,
    Runner,
    artifact_name,
    read_homepage_list,
    run_pipeline,
)

from conftest import build_e2e_workspace

EXPECTED_BEST = [
    {"site": "alpha-news.example", "topic": "politics", "url": "https://alpha-news.example/politics/"},
    {"site": "alpha-news.example", "topic": "sports", "url": "https://alpha-news.example/sports/"},
    {"site": "beta-daily.example", "topic": "business", "url": "https://beta-daily.example/business/"},
    {"site": "beta-daily.example", "topic": "politics", "url": "https://beta-daily.example/topics/election/"},
    {"site": "beta-daily.example", "topic": "sports", "url": "https://beta-daily.example/cricket/"},
    {"site": "gamma-post.example", "topic": "business", "url": "https://gamma-post.example/economy/"},
    {"site": "gamma-post.example", "topic": "sports", "url": "https://gamma-post.example/football/"},
]


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_full_offline_run(self, e2e_config, capsys):
        code, out, _ = run_cli(capsys, "run", "--config", e2e_config)
        assert code == 0
        summary = json.loads(out)
        assert summary["errors"] == []
        # the prebuilt snapshot store must make this a no-network run
        assert summary["fetch"] == {"fetched": 0, "reused": 3}
        assert summary["fetch-sections"]["fetched"] == 0

        out_dir = e2e_config.parent / "out"
        for name in (
            "internal.jsonl",
            "external.jsonl",
            "thresholds.json",
            "filtered.jsonl",
            "assignments.jsonl",
            "best.jsonl",
            "tracking-matrix.json",
            "tracking-report.json",
            "content-matrix.json",
            "languages.jsonl",
            "clusters-tracking.json",
            "clusters-content.json",
            "sweep-tracking.csv",
            "sweep-content.csv",
            "manifest.json",
        ):
            assert (out_dir / name).exists(), name
        assert (out_dir / "histograms" / "url_length.csv").exists()
        assert (out_dir / "plots" / "notes.txt").read_text("utf-8") == "complete\n"

        rows = [
            json.loads(line)
            for line in (out_dir / "best.jsonl").read_text("utf-8").splitlines()
        ]
        assert rows == EXPECTED_BEST

        manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        assert "assignments" in manifest["artifacts"]
        assert len(manifest["artifacts"]["assignments"]["sha256"]) == 64

    def test_small_corpus_falls_back_to_default_thresholds(self, e2e_config, capsys):
        code, out, _ = run_cli(capsys, "run", "--config", e2e_config)
        assert code == 0
        thresholds = json.loads(
            (e2e_config.parent / "out" / "thresholds.json").read_text("utf-8")
        )
        assert thresholds["max_url_length"] == 80
        assert thresholds["max_subpath_length"] == 30
        assert thresholds["max_hyphens"] == 4
        assert thresholds["cosine_cutoff"] == 0.4

    def test_junk_url_filtered(self, e2e_config, capsys):
        run_cli(capsys, "run", "--config", e2e_config)
        kept = (e2e_config.parent / "out" / "filtered.jsonl").read_text("utf-8")
        assert "parliament-passes-landmark" not in kept
        assert "https://alpha-news.example/sports/" in kept

    def test_tracking_report_content(self, e2e_config, capsys):
        run_cli(capsys, "run", "--config", e2e_config)
        report = json.loads(
            (e2e_config.parent / "out" / "tracking-report.json").read_text("utf-8")
        )
        assert report["records"] == 10
        assert report["cookie_stats"]["homepage"]["count"] == 3
        pairs = [
            (row["third_party"], row["topic"]) for row in report["preferential_attachment"]
        ]
        assert pairs == [
            ("mystery-beacon.example", "sports"),
            ("social-widgets.example", "business"),
        ]


class TestStageIsolation:
    def test_classify_rewrites_only_assignments(self, e2e_config, capsys):
        run_cli(capsys, "run", "--config", e2e_config)
        out_dir = e2e_config.parent / "out"
        before = {
            name: (out_dir / name).read_bytes()
            for name in ("assignments.jsonl", "best.jsonl", "filtered.jsonl")
        }
        code, _, _ = run_cli(capsys, "classify", "--config", e2e_config)
        assert code == 0
        assert (out_dir / "assignments.jsonl").read_bytes() == before["assignments.jsonl"]
        assert (out_dir / "best.jsonl").read_bytes() == before["best.jsonl"]
        assert (out_dir / "filtered.jsonl").read_bytes() == before["filtered.jsonl"]

    def test_stage_with_missing_upstream_fails_cleanly(self, e2e_config, capsys):
        code, _, err = run_cli(capsys, "filter", "--config", e2e_config)
        assert code == 1
        assert "internal.jsonl is missing" in err
        assert "extract" in err

    def test_best_subpages_requires_classify_first(self, e2e_config, capsys):
        code, _, err = run_cli(capsys, "best-subpages", "--config", e2e_config)
        assert code == 1
        assert "assignments.jsonl is missing" in err

    def test_stage_sequence_matches_full_run(self, e2e_config, capsys, tmp_path):
        # the same artifacts and summaries built one subcommand at a time
        _, out, _ = run_cli(capsys, "run", "--config", e2e_config)
        summary = json.loads(out)

        staged = build_e2e_workspace(tmp_path / "staged")
        staged_out = staged.parent / "out"
        for command in (
            "fetch", "extract", "fit-thresholds", "filter", "classify", "best-subpages",
            "track", "content",
        ):
            code, out, err = run_cli(capsys, command, "--config", staged)
            assert code == 0, (command, err)
            assert json.loads(out) == summary[command], command
        # the run's cluster/sweep stages, through the matrix-file commands
        for tag in ("tracking", "content"):
            matrix = staged_out / f"{tag}-matrix.json"
            for command, stage, name in (
                ("cluster", f"cluster-{tag}", f"clusters-{tag}.json"),
                ("cluster-sweep", f"sweep-{tag}", f"sweep-{tag}.csv"),
            ):
                code, out, err = run_cli(
                    capsys, command, "--config", staged, "--matrix", matrix,
                    "--out", staged_out / name,
                )
                assert code == 0, (command, tag, err)
                printed = json.loads(out)
                expected = summary[stage]
                assert printed["out"] == str(staged_out / name)
                assert expected["out"] == str(e2e_config.parent / "out" / name)
                assert {**printed, "out": None} == {**expected, "out": None}, (command, tag)
        code, out, err = run_cli(capsys, "report", "--config", staged)
        assert code == 0, err
        assert json.loads(out) == summary["report"]

        run_out = e2e_config.parent / "out"
        run_files = sorted(
            p.relative_to(run_out) for p in run_out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        staged_files = sorted(p.relative_to(staged_out) for p in staged_out.rglob("*") if p.is_file())
        assert staged_files == run_files
        for rel in run_files:
            assert (staged_out / rel).read_bytes() == (run_out / rel).read_bytes(), rel


class TestRunnerDirect:
    def test_missing_embeddings_is_reported_not_raised(self, e2e_config, capsys, tmp_path):
        # a config without embeddings still completes the URL stages
        text = e2e_config.read_text("utf-8")
        trimmed = "".join(
            line + "\n" for line in text.splitlines() if not line.startswith("embeddings")
        )
        config_path = tmp_path / "trimmed.toml"
        config_path.write_text(trimmed, "utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", config_path)
        assert code == 0
        summary = json.loads(out)
        assert "classify" not in summary
        assert summary["filter"]["kept"] > 0

    @pytest.mark.parametrize(
        "data,fault",
        [
            (b"1 1\na \xff\n", ":2: not UTF-8: "),
            (b"9 2\na 1 2\nb 1\n", ":3: expected 2 values, got 1"),
        ],
    )
    def test_bad_embeddings_file_is_a_classify_error_naming_it(
        self, e2e_config, tmp_path, data, fault
    ):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(data)
        cfg = load_config(e2e_config, env={}, overrides={"embeddings": str(vectors)})
        code, summary = run_pipeline(cfg)
        assert code == 1
        assert len(summary["errors"]) == 1
        assert summary["errors"][0].startswith(f"classify: {vectors}{fault}")

    def test_nan_never_reaches_an_artifact(self, e2e_config, monkeypatch):
        # a NaN gap makes each cluster stage fail, naming its artifact, which
        # is not written
        monkeypatch.setattr(cluster_mod, "_gap", lambda *args: float("nan"))
        cfg = load_config(e2e_config, env={})
        code, summary = run_pipeline(cfg)
        assert code == 1
        assert [e.split(": ")[:2] for e in summary["errors"]] == [
            ["cluster-tracking", "clusters-tracking.json"],
            ["cluster-content", "clusters-content.json"],
        ]
        out = Path(cfg.out_dir)
        assert not (out / "clusters-tracking.json").exists()
        assert not (out / "clusters-content.json").exists()
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert "clusters-content" not in manifest["artifacts"]

    def test_failed_stage_leaves_no_stale_manifest_entry(self, e2e_config, monkeypatch):
        # the second run's cluster stages fail; the files the first run
        # wrote stay as they were, but this run's manifest does not list them
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        out = Path(cfg.out_dir)
        before = (out / "clusters-content.json").read_bytes()
        monkeypatch.setattr(cluster_mod, "_gap", lambda *args: float("nan"))
        assert run_pipeline(cfg)[0] == 1
        assert (out / "clusters-content.json").read_bytes() == before
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert "clusters-content" not in manifest["artifacts"]
        assert "clusters-tracking" not in manifest["artifacts"]
        assert "tracking-matrix" in manifest["artifacts"]

    @pytest.mark.parametrize(
        "key,stage", [("crawl_logs", "track"), ("disconnect", "track"), ("urls", "fetch")]
    )
    def test_input_that_is_not_utf8_is_one_stage_error(self, e2e_config, tmp_path, key, stage):
        cfg = load_config(e2e_config, env={})
        bad = tmp_path / f"bad-{key}"
        bad.write_bytes(Path(getattr(cfg, key)).read_bytes() + b'{"site": "\xff"}\n')
        cfg = load_config(e2e_config, env={}, overrides={key: str(bad)})
        code, summary = run_pipeline(cfg)
        assert code == 1
        # extract reads the homepage list too, and fails on it after fetch
        stages = [stage, "extract"] if key == "urls" else [stage]
        assert [e.split(": ")[0] for e in summary["errors"]] == stages
        for name, error in zip(stages, summary["errors"]):
            assert error.startswith(f"{name}: {bad}:")
            assert ": not UTF-8: " in error

    def test_homepage_body_that_is_not_utf8_is_one_extract_error(self, e2e_config):
        cfg = load_config(e2e_config, env={})
        index = load_snapshot_index(cfg.snapshots)
        body = Path(cfg.snapshots) / index["https://alpha-news.example/"]["path"]
        data = body.read_bytes() + b"\n<p>\xff</p>\n"
        body.write_bytes(data)
        lineno = data.count(b"\n", 0, data.index(b"\xff")) + 1
        code, summary = run_pipeline(cfg)
        assert code == 1
        assert [e for e in summary["errors"] if e.startswith("extract: ")] == [
            f"extract: {body}:{lineno}: not UTF-8: invalid start byte"
        ]

    @pytest.mark.parametrize("key", ["crawl_logs", "disconnect", "embeddings", "snapshots"])
    def test_configured_path_of_the_wrong_kind_is_a_config_error(
        self, e2e_config, capsys, tmp_path, monkeypatch, key
    ):
        wrong = tmp_path / "wrong"
        if key == "snapshots":
            wrong.write_text("", "utf-8")
        else:
            wrong.mkdir()
        cfg = load_config(e2e_config, env={}, overrides={key: str(wrong)})
        kind = "directory" if key == "snapshots" else "file"
        with pytest.raises(ConfigError, match=f"^{key}: not a {kind}: "):
            run_pipeline(cfg)
        monkeypatch.setenv(f"TOPICPAGES_{key.upper()}", str(wrong))
        code, _, err = run_cli(capsys, "run", "--config", e2e_config)
        assert code == 2
        assert f"{key}: not a {kind}: {wrong}" in err

    def test_run_without_tracking_inputs_skips_the_tracking_branch(
        self, e2e_config, capsys, tmp_path
    ):
        text = e2e_config.read_text("utf-8")
        trimmed = "".join(
            line + "\n"
            for line in text.splitlines()
            if not line.startswith(("crawl_logs", "disconnect"))
        )
        config_path = tmp_path / "trimmed.toml"
        config_path.write_text(trimmed, "utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", config_path)
        assert code == 0
        summary = json.loads(out)
        assert summary["errors"] == []
        for name in ("track", "cluster-tracking", "sweep-tracking"):
            assert name not in summary
        for name in ("content", "cluster-content", "sweep-content"):
            assert "error" not in summary[name], name

    def test_failed_track_skips_only_its_downstream(self, e2e_config, capsys):
        (e2e_config.parent / "crawl_log.jsonl").write_text("{not json\n", "utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", e2e_config)
        assert code == 1
        summary = json.loads(out)
        assert "error" in summary["track"]
        assert "cluster-tracking" not in summary
        assert "sweep-tracking" not in summary
        for name in ("content", "cluster-content", "sweep-content"):
            assert "error" not in summary[name], name
        assert len(summary["errors"]) == 1
        assert summary["errors"][0].startswith("track:")

    def test_cluster_stage_names_a_missing_matrix(self, e2e_config):
        runner = Runner(load_config(e2e_config, env={}))
        for name in ("cluster-tracking", "sweep-content"):
            with pytest.raises(MissingStage, match=r"-matrix\.json is missing"):
                runner.run_stage(STAGE_NAMED[name])

    def test_track_requires_best_subpages(self, e2e_config):
        cfg = load_config(e2e_config, env={})
        with pytest.raises(MissingStage, match="best.jsonl"):
            Runner(cfg).run_stage(STAGE_NAMED["track"])

    def test_cluster_stage_refuses_k_above_distinct_rows(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        matrix = {"topics": ["a", "b", "c", "d"], "third_parties": ["x", "y", "z"],
                  "cells": [[1, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 1]]}
        write_json(out / "tracking-matrix.json", matrix)
        cfg = PipelineConfig(out_dir=str(out), k=3, restarts=2, b_refs=2)
        runner = Runner(cfg)
        with pytest.raises(KTooLarge, match=r"^k=3 exceeds 2 distinct rows$"):
            runner.run_stage(STAGE_NAMED["cluster-tracking"])
        assert not (out / "clusters-tracking.json").exists()
        assert runner.artifacts == {}

    def test_failed_fit_leaves_its_histograms_missing_for_report(self, tmp_path):
        out = tmp_path / "out"
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", "utf-8")
        runner = Runner(PipelineConfig(out_dir=str(out)))
        with pytest.raises(EmptyInput):
            runner.run_stage(STAGE_NAMED["fit-thresholds"], empty)
        assert (out / "histograms").is_dir()  # made when the stage started
        assert runner.artifacts == {}
        histograms = [
            f"histograms/{name}.csv" for name in ("url_length", "subpath_length", "hyphens")
        ]
        assert runner.run_stage(STAGE_NAMED["report"])["missing"][:3] == histograms
        notes = (out / "plots" / "notes.txt").read_text("utf-8")
        assert notes.startswith("".join(f"missing: {name}\n" for name in histograms))

    def test_report_removes_a_stale_plot_and_does_not_list_it(self, e2e_config):
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        out = Path(cfg.out_dir)
        stale = out / "plots" / "cookies-per-topic.csv"
        assert stale.exists()
        (out / "tracking-report.json").unlink()
        runner = Runner(cfg)
        assert runner.run_stage(STAGE_NAMED["report"])["missing"] == ["tracking-report.json"]
        listing = json.loads(runner.write_manifest().read_text("utf-8"))["artifacts"]
        assert not stale.exists()
        assert "plots/cookies-per-topic.csv" not in listing
        assert "plots/topic-coverage.csv" in listing
        notes = (out / "plots" / "notes.txt").read_text("utf-8")
        assert notes == "missing: tracking-report.json\n"

    def test_metric_curves_are_the_sweep_bytes_written_in_one_step(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        sweep = b"n,k,sse,silhouette,gap\n1,2,0.5,,0.25\n"
        (out / "sweep-content.csv").write_bytes(sweep)
        runner = Runner(PipelineConfig(out_dir=str(out)))
        runner.run_stage(STAGE_NAMED["report"])
        curves = out / "plots" / "metric-curves-content.csv"
        assert curves.read_bytes() == sweep
        replace = os.replace

        def failing_replace(src, dst):
            if Path(dst).name.startswith("metric-curves-"):
                raise OSError("planted")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="planted"):
            runner.run_stage(STAGE_NAMED["report"])
        # the earlier run's plots were removed first, and the failed write left no part
        assert list((out / "plots").iterdir()) == []

    def test_rerun_does_not_plot_a_skipped_stage_file(self, e2e_config):
        # the second run has no crawl log, so track and its cluster stages are
        # skipped; the files they wrote in the first run stay but are not read
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        out = Path(cfg.out_dir)
        assert (out / "plots" / "cookies-per-topic.csv").exists()
        code, summary = run_pipeline(dataclasses.replace(cfg, crawl_logs=None, disconnect=None))
        assert code == 0
        assert "track" not in summary
        assert (out / "tracking-report.json").exists()
        assert not (out / "plots" / "cookies-per-topic.csv").exists()
        assert not (out / "plots" / "cluster-scatter-tracking.csv").exists()
        notes = (out / "plots" / "notes.txt").read_text("utf-8")
        tracking_reads = ("tracking-report.json", "clusters-tracking.json", "sweep-tracking.csv")
        assert notes == "".join(f"missing: {name}\n" for name in tracking_reads)
        listing = json.loads((out / "manifest.json").read_text("utf-8"))["artifacts"]
        assert [name for name in listing if "tracking" in name] == []
        assert "plots/cluster-scatter-content.csv" in listing

    def test_repeated_homepage_is_read_once(self, e2e_config, tmp_path):
        # the first URL again, as written and as a line that normalizes to it
        cfg = load_config(e2e_config, env={})
        lines = Path(cfg.urls).read_text("utf-8").splitlines()
        planted = tmp_path / "planted.txt"
        planted.write_text("".join(f"{u}\n" for u in [*lines, lines[0], lines[0] + "#top"]))
        bundles = []
        for urls, out in ((cfg.urls, tmp_path / "once"), (planted, tmp_path / "twice")):
            overrides = {"urls": str(urls), "out_dir": str(out)}
            assert run_pipeline(load_config(e2e_config, env={}, overrides=overrides))[0] == 0
            bundles.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                            if p.is_file()})
        assert bundles[0] == bundles[1]

    def test_homepage_list_parsing(self, tmp_path):
        listing = tmp_path / "urls.txt"
        listing.write_text(
            "# comment\n\nhttps://a.example\nhttps://b.example/x/\nHTTPS://A.example/?q#f\n"
        )
        urls = read_homepage_list(listing)
        assert [(u.raw, u.normalized) for u in urls] == [
            ("https://a.example", "https://a.example/"),
            ("https://b.example/x/", "https://b.example/x/"),
        ]


# what each stage needs first: its first required key, and its first read
# with the stage that writes it
UNSET_KEY = {
    "fetch": "urls",
    "extract": "urls",
    "classify": "embeddings",
    "best-subpages": "embeddings",
    "track": "crawl_logs",
}
FIRST_READ = {
    "fit-thresholds": ("internal.jsonl", "extract"),
    "filter": ("internal.jsonl", "extract"),
    "classify": ("filtered.jsonl", "filter"),
    "best-subpages": ("assignments.jsonl", "classify"),
    "fetch-sections": ("best.jsonl", "best-subpages"),
    "track": ("best.jsonl", "best-subpages"),
    "cluster-tracking": ("tracking-matrix.json", "track"),
    "sweep-tracking": ("tracking-matrix.json", "track"),
    "content": ("best.jsonl", "best-subpages"),
    "cluster-content": ("content-matrix.json", "content"),
    "sweep-content": ("content-matrix.json", "content"),
    "report": ("histograms/url_length.csv", "fit-thresholds"),  # with strict
}


# the stages a run skips when one fails: those that read a file it writes,
# directly or through a stage skipped for it
AFTER_BEST = ("fetch-sections", "track", "cluster-tracking", "sweep-tracking",
              "content", "cluster-content", "sweep-content")
SKIPPED_WHEN_FAILED = {
    "fetch": (),
    "extract": ("fit-thresholds", "filter", "classify", "best-subpages", *AFTER_BEST),
    "fit-thresholds": ("filter", "classify", "best-subpages", *AFTER_BEST),
    "filter": ("classify", "best-subpages", *AFTER_BEST),
    "classify": ("best-subpages", *AFTER_BEST),
    "best-subpages": AFTER_BEST,
    "fetch-sections": (),
    "track": ("cluster-tracking", "sweep-tracking"),
    "cluster-tracking": (),
    "sweep-tracking": (),
    "content": ("cluster-content", "sweep-content"),
    "cluster-content": (),
    "sweep-content": (),
    "report": (),
}


class TestStageTable:
    def test_every_read_has_one_earlier_writer(self):
        written: set[str] = set()
        for stage in STAGES:
            for name in stage.reads:
                assert name in written, (stage.name, name)
            for name in stage.writes:
                assert name not in written, (stage.name, name)
                written.add(name)
        assert set(WRITER) == written

    def test_failed_stage_skips_exactly_its_readers(self, tmp_path, monkeypatch):
        # each method stubbed to touch its stage's writes, or to fail for one stage
        failing = []

        def stub(method):
            def stage_method(self, *paths):
                for stage in STAGES:
                    writes = tuple(self.out_dir / name for name in stage.writes)
                    if stage.method == method and paths[len(paths) - len(writes):] == writes:
                        break
                if stage.name in failing:
                    raise PipelineError("planted")
                for path in writes:
                    path.touch()
                return {}
            return stage_method

        for method in {stage.method for stage in STAGES}:
            monkeypatch.setattr(Runner, method, stub(method))
        given = tmp_path / "given"
        given.touch()
        keys = {key: str(given) for key in ("urls", "embeddings", "crawl_logs", "disconnect")}
        cfg = PipelineConfig(out_dir=str(tmp_path / "out"), **keys)
        assert set(SKIPPED_WHEN_FAILED) == set(STAGE_NAMED)
        for name, skipped in SKIPPED_WHEN_FAILED.items():
            failing[:] = [name]
            code, summary = run_pipeline(cfg)
            assert (code, summary["errors"]) == (1, [f"{name}: planted"])
            assert set(STAGE_NAMED) - set(summary) == set(skipped), name

    def test_each_method_takes_one_path_per_declared_file(self):
        for stage in STAGES:
            method = getattr(Runner, stage.method, None)
            assert callable(method), stage.name
            params = list(inspect.signature(method).parameters.values())[1:]
            paths = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty]
            takes_rest = any(p.kind is p.VAR_POSITIONAL for p in params)
            files = len(stage.reads) + len(stage.writes)
            assert len(paths) == files or (takes_rest and len(paths) < files), stage.name

    def test_expected_prerequisites_cover_the_table(self):
        assert set(UNSET_KEY) | set(FIRST_READ) == {
            stage.name for stage in STAGES if stage.reads or stage.requires
        }

    @pytest.mark.parametrize("name", sorted(UNSET_KEY))
    def test_unset_key_is_named_and_nothing_created(self, tmp_path, name):
        out = tmp_path / "out"
        with pytest.raises(MissingStage, match=f"^no {UNSET_KEY[name]} configured$"):
            Runner(PipelineConfig(out_dir=str(out))).run_stage(STAGE_NAMED[name])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(FIRST_READ))
    def test_missing_read_names_its_writer_and_nothing_created(self, e2e_config, tmp_path, name):
        out = tmp_path / "out"
        cfg = load_config(e2e_config, env={}, overrides={"out_dir": str(out)})
        read, writer = FIRST_READ[name]
        stage = STAGE_NAMED[name]
        with pytest.raises(MissingStage) as caught:
            Runner(cfg).run_stage(stage, strict=stage.optional)
        assert str(caught.value) == f"{read} is missing; run the {writer} stage first"
        assert not out.exists()

    def test_manifest_lists_every_declared_write(self, e2e_config):
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        out = Path(cfg.out_dir)
        listing = json.loads((out / "manifest.json").read_text("utf-8"))["artifacts"]
        declared = {artifact_name(name): name for stage in STAGES for name in stage.writes}
        assert set(listing) == set(declared) | {"snapshot-index"}
        for name, filename in declared.items():
            assert listing[name]["path"] == filename, name
        assert artifact_name("histograms/hyphens.csv") == "histogram-hyphens"
        assert artifact_name("plots/notes.txt") == "plots/notes.txt"


COMMANDS = (
    "fetch", "extract", "fit-thresholds", "filter", "classify", "best-subpages", "track",
    "content", "cluster", "cluster-sweep", "report", "assist-dictionary", "run",
)
REQUIRED = {"cluster": ("--matrix", "m.json"), "cluster-sweep": ("--matrix", "m.json")}


def _flag(field):
    return "--" + field.name.replace("_", "-")


class TestConfigFlags:
    """Every configuration key is a flag --<key> on every subcommand."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_key_flag_reaches_the_config(self, command, capsys, monkeypatch):
        given = {str: "x", int: "7", float: "0.5"}
        argv, expected = [command, *REQUIRED.get(command, ())], {}
        for field in dataclasses.fields(PipelineConfig):
            if TYPES[field.name] is bool:
                argv.append(_flag(field))
                expected[field.name] = True
            else:
                argv += [_flag(field), given[TYPES[field.name]]]
                expected[field.name] = TYPES[field.name](given[TYPES[field.name]])
        loaded = []

        def load(*args, **kwargs):
            loaded.append(load_config(*args, **kwargs))
            raise ConfigError("stop")

        monkeypatch.setattr(cli_mod, "load_config", load)
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (2, "error: stop\n")
        assert {key: getattr(loaded[0], key) for key in expected} == expected

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_every_key_flag_with_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        shown = " ".join(capsys.readouterr().out.split())
        for field in dataclasses.fields(PipelineConfig):
            assert field.metadata["help"]
            assert f"{_flag(field)} " in shown and field.metadata["help"] in shown, field.name

    def test_run_flags_override_the_config_file(self, e2e_config, capsys, monkeypatch, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(Path(load_config(e2e_config).embeddings).read_bytes())
        ran = []
        monkeypatch.setattr(cli_mod, "run_pipeline", lambda cfg: (ran.append(cfg), (0, {}))[1])
        code, _, _ = run_cli(
            capsys, "run", "--config", e2e_config, "--k", "3", "--embeddings", vectors
        )
        assert code == 0
        assert (ran[0].k, ran[0].embeddings) == (3, str(vectors))
        assert ran[0].urls == load_config(e2e_config).urls

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("run", "--k", "4.9"), "k: cannot interpret '4.9'"),
            (("cluster-sweep", "--matrix", "m.json", "--k", "2..8"), "k: cannot interpret '2..8'"),
            (("fetch", "--timeout", "soon"), "timeout: cannot interpret 'soon'"),
        ],
    )
    def test_bad_flag_value_exits_2(self, argv, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--n", "--out", "--top"])
    def test_flags_are_not_abbreviated(self, flag, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["run", flag, "2"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_out_of_range_knob_exits_2_before_any_stage(self, e2e_config, capsys):
        with open(e2e_config, "a", encoding="utf-8") as fh:
            fh.write("top_tp = 0\n")
        code, out, err = run_cli(capsys, "run", "--config", e2e_config)
        assert (code, out, err) == (2, "", "error: top_tp must be at least 1\n")
        assert not (e2e_config.parent / "out").exists()


class TestOtherCommands:
    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.toml"
        config.write_bytes(b"seed = 1\nuser_agent = \xff\n")
        code, _, err = run_cli(capsys, "run", "--config", config)
        assert code == 2
        assert err.startswith(f"error: {config}:2: not UTF-8: ")

    def test_url_record_of_the_wrong_types_exits_1(self, e2e_config, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        row = {"raw": 1, "normalized": 1, "domain": 1, "subpaths": [], "site": 1}
        bad.write_text(json.dumps(row) + "\n", "utf-8")
        code, _, err = run_cli(
            capsys, "fit-thresholds", "--config", e2e_config, "--input", bad
        )
        assert code == 1
        assert err.startswith(f"error: {bad}:1: ")

    def test_assist_dictionary_lists_unmatched_subpaths(self, e2e_config, capsys):
        run_cli(capsys, "run", "--config", e2e_config)
        code, out, _ = run_cli(capsys, "assist-dictionary", "--config", e2e_config)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert ["about-us", "1"] in rows
        assert ["quiz", "1"] in rows
        assert all(count == "1" for _, count in rows)

    def test_assist_dictionary_names_the_missing_assignments(self, e2e_config, capsys):
        code, out, err = run_cli(capsys, "assist-dictionary", "--config", e2e_config)
        assert (code, out) == (1, "")
        assert err == "error: assignments.jsonl is missing; run the classify stage first\n"

    def test_cluster_command(self, e2e_config, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "run", "--config", e2e_config)
        matrix = e2e_config.parent / "out" / "tracking-matrix.json"
        target = tmp_path / "clusters.json"
        code, out, _ = run_cli(
            capsys,
            "cluster",
            "--matrix", matrix,
            "--out", target,
            "--pca-n", "2",
            "--k", "2",
            "--restarts", "2",
            "--b-refs", "2",
        )
        assert code == 0
        payload = json.loads(target.read_text("utf-8"))
        printed = json.loads(out)
        assert printed["out"] == str(target)
        for key in ("k", "sse", "silhouette", "gap"):
            assert printed[key] == payload[key], key
        assert payload["k"] == 2
        assert sorted(payload["assignments"]) == ["business", "homepage", "politics", "sports"]
        assert len(payload["points"]["sports"]) == 2

    def test_cluster_sweep_command(self, e2e_config, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "run", "--config", e2e_config)
        matrix = e2e_config.parent / "out" / "content-matrix.json"
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "cluster-sweep",
            "--matrix", matrix,
            "--out", target,
            "--n-range", "1..2",
            "--k-range", "2..3",
            "--restarts", "2",
            "--b-refs", "2",
        )
        assert code == 0
        lines = target.read_text("utf-8").splitlines()
        assert lines[0] == "n,k,sse,silhouette,gap"
        assert len(lines) == 5
        printed = json.loads(out)
        assert printed["out"] == str(target)
        assert printed["cells"] == 4
        assert len(printed["best"]) == 2

    def test_cluster_commands_resolve_paths_against_working_dir(
        self, e2e_config, capsys, tmp_path, monkeypatch
    ):
        run_cli(capsys, "run", "--config", e2e_config)
        work = tmp_path / "work"
        work.mkdir()
        matrix = e2e_config.parent / "out" / "tracking-matrix.json"
        (work / "m.json").write_bytes(matrix.read_bytes())
        monkeypatch.chdir(work)
        run_dir = tmp_path / "elsewhere"
        for command, out_name in (("cluster", "c.json"), ("cluster-sweep", "s.csv")):
            code, out, err = run_cli(
                capsys, command, "--out-dir", run_dir, "--matrix", "m.json", "--out", out_name,
                "--restarts", "2", "--b-refs", "2",
            )
            assert code == 0, err
            assert json.loads(out)["out"] == out_name
            assert (work / out_name).is_file()
            assert not (run_dir / out_name).exists()

    def test_commands_without_run_artifacts_leave_no_run_directory(
        self, e2e_config, capsys, tmp_path, monkeypatch
    ):
        run_cli(capsys, "run", "--config", e2e_config)
        run_out = e2e_config.parent / "out"
        work = tmp_path / "empty"
        work.mkdir()
        monkeypatch.chdir(work)
        fast = ("--restarts", "2", "--b-refs", "2")
        commands = (
            ("cluster", "--matrix", run_out / "tracking-matrix.json",
             "--out", tmp_path / "c.json", *fast),
            ("cluster-sweep", "--matrix", run_out / "content-matrix.json",
             "--out", tmp_path / "s.csv", "--n-range", "1..2", "--k-range", "2..3", *fast),
            ("assist-dictionary", "--input", run_out / "assignments.jsonl",
             "--dictionary", load_config(e2e_config).dictionary),
        )
        for argv in commands:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert out
            assert list(work.iterdir()) == [], argv[0]
        # a full run still creates its (nested) run directory and the whole bundle
        code, out, _ = run_cli(capsys, "run", "--config", e2e_config, "--out-dir", "a/b")
        assert code == 0
        manifest = json.loads((work / "a" / "b" / "manifest.json").read_text("utf-8"))
        assert len(manifest["artifacts"]) == len(
            json.loads((run_out / "manifest.json").read_text("utf-8"))["artifacts"]
        )
        assert json.loads(out)["errors"] == []

    def test_cluster_missing_matrix_fails_cleanly(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for command in ("cluster", "cluster-sweep"):
            code, _, err = run_cli(capsys, command, "--matrix", "absent-matrix.json")
            assert code == 1
            assert err.startswith("error:")
            assert "absent-matrix.json" in err

    def test_cluster_infeasible_n_fails_cleanly(self, e2e_config, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "run", "--config", e2e_config)
        matrix = e2e_config.parent / "out" / "tracking-matrix.json"
        code, _, err = run_cli(
            capsys,
            "cluster",
            "--matrix", matrix,
            "--out", tmp_path / "clusters.json",
            "--pca-n", "9",
            "--k", "2",
        )
        assert code == 1
        assert err.startswith("error:")
        assert "tracking-matrix.json" in err

    def test_report_strict_fails_on_empty_bundle(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "report", "--strict", "--out-dir", tmp_path / "empty"
        )
        assert code == 1
        assert err == "error: histograms/url_length.csv is missing; run the fit-thresholds stage first\n"
        assert not (tmp_path / "empty").exists()

    def test_report_lenient_notes_missing(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "report", "--out-dir", tmp_path / "empty")
        assert code == 0
        notes = (tmp_path / "empty" / "plots" / "notes.txt").read_text("utf-8")
        assert notes == "".join(f"missing: {name}\n" for name in STAGE_NAMED["report"].reads)
        assert "missing: best.jsonl\n" in notes
        assert json.loads(out)["emitted"] == ["notes.txt"]

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_assist_dictionary_refuses_top_below_1(self, top, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["assist-dictionary", "--top", top])
        assert exit_.value.code == 2
        assert f"argument --top: must be at least 1: {top}" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config", tmp_path / "absent.toml")
        assert code == 2
        assert "not found" in err

    def test_config_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config", tmp_path)
        assert code == 2
        assert err == f"error: config file is not a file: {tmp_path}\n"

    def test_missing_required_input_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "fetch")
        assert code == 2
        assert "urls is required" in err

    def test_flag_overrides_config_file(self, e2e_config, capsys, tmp_path):
        out_dir = tmp_path / "elsewhere"
        code, _, _ = run_cli(
            capsys, "fetch", "--config", e2e_config, "--out-dir", out_dir
        )
        assert code == 0
        # fetch now reports against the overridden run directory, whose
        # snapshot store is the configured (already warm) one
        assert not (e2e_config.parent / "out" / "internal.jsonl").exists()
