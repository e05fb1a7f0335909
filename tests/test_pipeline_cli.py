import dataclasses
import errno
import inspect
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topicpages.cli as cli_mod
import topicpages.cluster as cluster_mod
import topicpages.content as content_mod
import topicpages.lines as lines_mod
import topicpages.pipeline as pipeline_mod
import topicpages.tracking as tracking_mod
from topicpages.cli import main
from topicpages.config import TYPES, PipelineConfig, load_config
from topicpages.errors import ConfigError, EmptyInput, KTooLarge, MissingStage, PipelineError
from topicpages.fetch import load_snapshot_index, save_snapshots
from topicpages.lines import write_json, write_text
from topicpages.classify import assignment_to_record, read_assignments, read_best_subpages
from topicpages.urls import read_url_file, url_lines
from topicpages.pipeline import (
    BRANCH,
    STAGE_NAMED,
    STAGES,
    WRITER,
    Runner,
    artifact_name,
    read_homepage_list,
    run_pipeline,
)

from conftest import build_e2e_workspace, snapshot_result

EXPECTED_BEST = [
    {"site": "alpha-news.example", "topic": "politics", "url": "https://alpha-news.example/politics/"},
    {"site": "alpha-news.example", "topic": "sports", "url": "https://alpha-news.example/sports/"},
    {"site": "beta-daily.example", "topic": "business", "url": "https://beta-daily.example/business/"},
    {"site": "beta-daily.example", "topic": "politics", "url": "https://beta-daily.example/topics/election/"},
    {"site": "beta-daily.example", "topic": "sports", "url": "https://beta-daily.example/cricket/"},
    {"site": "gamma-post.example", "topic": "business", "url": "https://gamma-post.example/economy/"},
    {"site": "gamma-post.example", "topic": "sports", "url": "https://gamma-post.example/football/"},
]


# where os.fork may be used, run_pipeline runs BRANCH in a forked worker once its input
# files reach BRANCH_MIN_BYTES
FORKS = hasattr(os, "fork") and sys.platform != "darwin"
needs_fork = pytest.mark.skipif(not FORKS, reason="the branch runs in order without os.fork")


@pytest.fixture()
def forking(monkeypatch):
    """Fork for the BRANCH stages whatever the size of their input files."""
    monkeypatch.setattr(pipeline_mod, "BRANCH_MIN_BYTES", 0)


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

    def test_best_subpages_groups_by_the_site_extract_recorded(self, e2e_config):
        # github.io is a public suffix of the bundled list; a suffix file without it
        # makes sports.github.io a part of the site github.io
        ws = e2e_config.parent
        home = "https://github.io/"
        body = ('<html><body><a href="https://sports.github.io/cricket/">Cricket</a>'
                '<a href="/politics/">Politics</a></body></html>')
        sections = {"https://sports.github.io/cricket/": "<p>cricket scores</p>",
                    "https://github.io/politics/": "<p>the vote</p>"}
        save_snapshots([snapshot_result(home, body)]
                       + [snapshot_result(url, page) for url, page in sections.items()],
                       ws / "snapshots")
        with open(ws / "urls.txt", "a", encoding="utf-8") as fh:
            fh.write(home + "\n")
        (ws / "suffixes.txt").write_text("io\nexample\n", "utf-8")
        with open(e2e_config, "a", encoding="utf-8") as fh:
            fh.write(f'suffixes = "{ws / "suffixes.txt"}"\n')
        cfg = load_config(e2e_config, env={})
        code, summary = run_pipeline(cfg)
        assert code == 0, summary["errors"]
        best = Path(cfg.out_dir) / "best.jsonl"
        rows = [json.loads(line) for line in best.read_text("utf-8").splitlines()]
        assert [row for row in rows if "github.io" in row["url"]] == [
            {"site": "github.io", "topic": "politics", "url": "https://github.io/politics/"},
            {"site": "github.io", "topic": "sports", "url": "https://sports.github.io/cricket/"},
        ]
        written = best.read_bytes()
        Runner(cfg).run_stage(STAGE_NAMED["best-subpages"])
        assert best.read_bytes() == written

    def test_homepage_site_follows_the_suffix_file(self, e2e_config):
        # with news.example a public suffix, city.news.example is a site of its own,
        # so its root-relative /sport/ is internal and metro.news.example external
        ws = e2e_config.parent
        home = "http://city.news.example/"
        body = ('<html><body><a href="/sport/">Sport</a>'
                '<a href="http://metro.news.example/politics/">Politics</a></body></html>')
        save_snapshots([snapshot_result(home, body),
                        snapshot_result(home + "sport/", "<p>cricket scores</p>")],
                       ws / "snapshots")
        with open(ws / "urls.txt", "a", encoding="utf-8") as fh:
            fh.write(home + "\n")
        (ws / "suffixes.txt").write_text("news.example\n", "utf-8")
        with open(e2e_config, "a", encoding="utf-8") as fh:
            fh.write(f'suffixes = "{ws / "suffixes.txt"}"\n')
        cfg = load_config(e2e_config, env={})
        code, summary = run_pipeline(cfg)
        assert code == 0, summary["errors"]
        out = Path(cfg.out_dir)

        def city_rows(name):
            return [(u.normalized, site) for u, site in read_url_file(out / name)
                    if ".news.example/" in u.normalized]

        assert city_rows("internal.jsonl") == [("http://city.news.example/sport/",
                                                 "city.news.example")]
        assert city_rows("external.jsonl") == [("http://metro.news.example/politics/",
                                                 "city.news.example")]

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

    def test_interrupted_rerun_leaves_no_manifest(self, e2e_config, monkeypatch):
        # the first run's manifest would list files the second run rewrites or
        # never reaches, so the second run removes it before its first stage
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        manifest = Path(cfg.out_dir) / "manifest.json"
        assert manifest.exists()

        def interrupted(self, *args):
            raise KeyboardInterrupt

        monkeypatch.setattr(Runner, "stage_filter", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(cfg)
        assert not manifest.exists()

    def test_rerun_removes_the_temporary_files_a_killed_run_left(self, e2e_config, monkeypatch):
        # a kill between a write's open and its rename leaves <file>.tmp; the next run
        # removes each such file before its first stage, and touches no other file
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        out = Path(cfg.out_dir)
        clean = _bundle(out)
        planted = [out / "internal.jsonl.tmp", out / "histograms" / "url_length.csv.tmp",
                   out / "manifest.json.tmp"]
        for path in planted:
            path.write_text('{"half a row', "utf-8")
        other = out / "notes.tmp"
        other.write_text("not ours", "utf-8")
        at_first_stage = []
        fetch = Runner.stage_fetch

        def first_stage(self, *args):
            at_first_stage.extend(path.name for path in planted if path.exists())
            return fetch(self, *args)

        monkeypatch.setattr(Runner, "stage_fetch", first_stage)
        assert run_pipeline(cfg)[0] == 0
        assert at_first_stage == []
        assert [path.name for path in planted if path.exists()] == []
        assert other.read_text("utf-8") == "not ours"
        other.unlink()
        assert _bundle(out) == clean

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
        with pytest.raises(KTooLarge) as raised:
            runner.run_stage(STAGE_NAMED["cluster-tracking"])
        assert str(raised.value) == f"{out / 'tracking-matrix.json'}: k=3 exceeds 2 distinct rows"
        assert not (out / "clusters-tracking.json").exists()
        assert runner.artifacts == {}

    @pytest.mark.parametrize("name", ["cluster-content", "sweep-content"])
    def test_cluster_stage_names_a_matrix_it_cannot_cluster(self, e2e_config, name):
        # a weight whose squared distances overflow when k-means++ sums them, planted in
        # each row in turn: wherever it is and wherever k-means++ starts, the verdict holds
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        path = Path(cfg.out_dir) / "content-matrix.json"
        matrix = json.loads(path.read_text("utf-8"))
        for row in range(len(matrix["topics"])):
            planted = json.loads(json.dumps(matrix))
            planted["weights"][row][0] = 1e154
            write_json(path, planted)
            with pytest.raises(PipelineError) as raised:
                Runner(cfg).run_stage(STAGE_NAMED[name])
            assert str(raised.value) == f"{path}: k-means++ distances are not finite"

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


class TestEachFileParsedOnce:
    def test_run_reads_no_url_file_it_wrote(self, e2e_config, monkeypatch):
        def never_read(path):
            raise AssertionError(f"{path} was parsed again")

        monkeypatch.setattr(pipeline_mod, "read_url_file", never_read)
        code, summary = run_pipeline(load_config(e2e_config, env={}))
        assert code == 0, summary["errors"]
        assert summary["report"]["missing"] == []

    def test_kept_rows_are_the_file_rows_and_only_of_read_files(self, e2e_config):
        # every stage run on one Runner, which lets go of nothing: each kept value is
        # what a stage run alone reads from the file, and only files a stage reads are kept
        runner = Runner(load_config(e2e_config, env={}))
        for stage in STAGES:
            runner.run_stage(stage)
        document = pipeline_mod._read_document
        readers = {
            "internal.jsonl": read_url_file,
            "filtered.jsonl": read_url_file,
            "thresholds.json": pipeline_mod._read_thresholds,
            "assignments.jsonl": lambda path: read_assignments(path, runner.dictionary),
            "best.jsonl": read_best_subpages,
            "tracking-matrix.json": pipeline_mod.load_matrix_file,
            "content-matrix.json": pipeline_mod.load_matrix_file,
            "tracking-report.json": document,
            "clusters-tracking.json": document,
            "clusters-content.json": document,
            "sweep-tracking.csv": lambda path: path.read_text("utf-8"),
            "sweep-content.csv": lambda path: path.read_text("utf-8"),
            **{name: pipeline_mod._read_histogram_rows for name in pipeline_mod.HISTOGRAMS},
        }
        assert set(readers) == {name for stage in STAGES for name in stage.reads}
        assert set(runner._kept) == {runner.out_dir / name for name in readers}

        def comparable(name, value):
            if name.endswith("matrix.json"):
                return value[0], value[1].tolist()
            if name == "assignments.jsonl":  # a kept URL keeps its href as raw
                return [assignment_to_record(a) for a in value]
            return list(value) if isinstance(value, tuple) else value

        for name, read in readers.items():
            path = runner.out_dir / name
            assert comparable(name, runner._kept[path]) == comparable(name, read(path)), name
        assert isinstance(runner.url_rows(runner.out_dir / "internal.jsonl"), tuple)

    def test_run_parses_each_page_once_as_content_alone_does(self, e2e_config, monkeypatch):
        fed = []
        read_page = content_mod.read_page

        def recording(html):
            fed.append(html)
            return read_page(html)

        # every page parse, by the regex scan or by HTMLParser, goes through read_page
        monkeypatch.setattr(content_mod, "read_page", recording)
        code, summary = run_pipeline(load_config(e2e_config, env={}))
        assert code == 0, summary["errors"]
        # the three homepages in extract, the selected section pages in content
        assert len(fed) == len(set(fed)) == 3 + len(EXPECTED_BEST)
        out = e2e_config.parent / "out"
        written = {name: (out / name).read_bytes()
                   for name in ("content-matrix.json", "languages.jsonl")}
        # a stage run alone parses the homepages from the store
        Runner(load_config(e2e_config, env={})).run_stage(STAGE_NAMED["content"])
        assert {name: (out / name).read_bytes() for name in written} == written

    def test_run_lets_go_of_kept_values_after_their_last_reader(self, e2e_config, monkeypatch):
        kept = {}

        sites = {}

        class Recording(Runner):
            def record(self, name):
                kept[name] = (sorted(path.relative_to(self.out_dir).as_posix()
                                     for path in self._kept), len(self._homepage_texts))
                internal = self._kept.get(self.out_dir / "internal.jsonl")
                sites[name] = internal if isinstance(internal, frozenset) else None

            def run_stage(self, stage, **kwargs):
                self.record(stage.name)
                return super().run_stage(stage, **kwargs)

            def write_manifest(self):
                self.record("manifest")
                return super().write_manifest()

        monkeypatch.setattr(pipeline_mod, "Runner", Recording)
        # the e2e fixture's crawl log is too small to fork for; then the branch is made to fork
        for forks in (False, True) if FORKS else (False,):
            if forks:
                monkeypatch.setattr(pipeline_mod, "BRANCH_MIN_BYTES", 0)
            kept.clear()
            sites.clear()
            assert run_pipeline(load_config(e2e_config, env={}))[0] == 0
            histograms = list(pipeline_mod.HISTOGRAMS)
            assert kept["fit-thresholds"] == (["internal.jsonl"], 3)
            assert kept["classify"] == (
                sorted(["filtered.jsonl", "internal.jsonl", "thresholds.json", *histograms]), 3)
            # of internal.jsonl, only the site set the report takes outlives filter
            assert sites["filter"] is None and sites["classify"] == sites["report"] == {
                "alpha-news.example", "beta-daily.example", "gamma-post.example"}
            # a forked worker's kept values arrive at the join; in order, track's are kept on
            tracking = [] if forks else [
                "tracking-report.json", "clusters-tracking.json", "sweep-tracking.csv"]
            assert kept["content"] == (
                sorted(["best.jsonl", "internal.jsonl", *histograms, *tracking]), 3)
            assert kept["sweep-content"] == (
                sorted(["best.jsonl", "internal.jsonl", *histograms, *tracking,
                        "content-matrix.json", "clusters-content.json"]), 0)
            assert kept["report"] == (sorted(STAGE_NAMED["report"].reads), 0)
            assert kept["manifest"] == ([], 0)

    def test_url_metrics_are_kept_beside_their_rows_until_filter(self, e2e_config, monkeypatch):
        measured = {}

        class Recording(Runner):
            def run_stage(self, stage, **kwargs):
                measured[stage.name] = sorted(path.name for path in self._measured)
                return super().run_stage(stage, **kwargs)

        monkeypatch.setattr(pipeline_mod, "Runner", Recording)
        assert run_pipeline(load_config(e2e_config, env={}))[0] == 0
        assert measured["fit-thresholds"] == []
        assert measured["filter"] == ["internal.jsonl"]
        assert measured["classify"] == []

    def test_rows_written_again_are_measured_again(self, e2e_config):
        runner = Runner(load_config(e2e_config, env={}))
        runner.run_stage(STAGE_NAMED["fetch"])
        runner.run_stage(STAGE_NAMED["extract"])
        internal = runner.out_dir / "internal.jsonl"
        rows, metrics = runner.measured_rows(internal)
        assert runner.measured_rows(internal)[1] is metrics
        runner.run_stage(STAGE_NAMED["extract"])
        again, remeasured = runner.measured_rows(internal)
        assert again is not rows and remeasured is not metrics
        assert remeasured == metrics

    def test_given_source_is_read_not_rows_kept_from_another_path(
        self, e2e_config, tmp_path, capsys
    ):
        runner = Runner(load_config(e2e_config, env={}))
        runner.run_stage(STAGE_NAMED["fetch"])
        runner.run_stage(STAGE_NAMED["extract"])
        given = tmp_path / "given.jsonl"
        write_text(given, url_lines(runner.url_rows(runner.out_dir / "internal.jsonl")[:1]))

        def counted_rows(out_dir):
            lines = (out_dir / "histograms" / "url_length.csv").read_text("utf-8").splitlines()
            return sum(int(line.split(",")[1]) for line in lines[1:])

        runner.run_stage(STAGE_NAMED["fit-thresholds"], given)
        assert counted_rows(runner.out_dir) == 1
        code, _, err = run_cli(capsys, "fit-thresholds", "--config", e2e_config, "--input", given)
        assert code == 0, err
        assert counted_rows(runner.out_dir) == 1

    def test_report_checks_whole_internal_url_records(self, e2e_config, capsys):
        # the report reads internal.jsonl as fit-thresholds and filter do, not only its sites
        assert run_cli(capsys, "run", "--config", e2e_config)[0] == 0
        internal = e2e_config.parent / "out" / "internal.jsonl"
        lines = internal.read_text("utf-8").splitlines()
        row = json.loads(lines[1])
        del row["raw"]
        lines[1] = json.dumps(row)
        internal.write_text("".join(line + "\n" for line in lines), "utf-8")
        code, _, err = run_cli(capsys, "report", "--config", e2e_config)
        assert code == 1
        assert err.startswith(f"error: {internal}:2: ")

    def test_run_opens_no_file_it_wrote_but_to_hash_it(self, e2e_config, monkeypatch):
        out = (e2e_config.parent / "out").resolve()
        opened: list[str] = []
        hashing: list[bool] = []

        def recording_open(path, mode="r", *args, **kwargs):
            if "r" in mode and not hashing and Path(path).resolve().is_relative_to(out):
                opened.append(Path(path).resolve().relative_to(out).as_posix())
            return open(path, mode, *args, **kwargs)

        write_manifest = Runner.write_manifest

        def hashed(self):
            hashing.append(True)
            return write_manifest(self)

        # every reader of the line and JSON files opens them through lines.open
        monkeypatch.setattr(lines_mod, "open", recording_open, raising=False)
        monkeypatch.setattr(Runner, "write_manifest", hashed)
        code, summary = run_pipeline(load_config(e2e_config, env={}))
        assert code == 0, summary["errors"]
        assert summary["report"]["missing"] == []
        assert opened == []
        # a stage run alone reads the files
        hashing.clear()
        Runner(load_config(e2e_config, env={})).run_stage(STAGE_NAMED["report"])
        assert set(opened) == set(STAGE_NAMED["report"].reads)

    def test_a_reader_that_writes_into_a_kept_matrix_raises(self, e2e_config):
        runner = Runner(load_config(e2e_config, env={}))
        for stage in STAGES:
            if stage.name == "cluster-content":
                break
            runner.run_stage(stage)
        for name in ("tracking-matrix.json", "content-matrix.json"):
            labels, X = runner.load(runner.out_dir / name, pipeline_mod.load_matrix_file)
            with pytest.raises(ValueError, match="read-only"):
                X[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                X -= X.mean(axis=0)
        fresh = Runner(runner.config)  # keeps nothing, so it parses each file
        for name in ("tracking-matrix.json", "content-matrix.json"):
            _, X = fresh.load(fresh.out_dir / name, pipeline_mod.load_matrix_file)
            with pytest.raises(ValueError, match="read-only"):
                X[0, 0] = 1.0

    def test_each_stage_rerun_alone_rewrites_its_files_byte_for_byte(self, e2e_config):
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        out = Path(cfg.out_dir)

        def bundle():
            return {path.relative_to(out).as_posix(): path.read_bytes()
                    for path in out.rglob("*") if path.is_file() and path.name != "manifest.json"}

        written = bundle()
        for stage in STAGES:
            Runner(cfg).run_stage(stage)
            assert bundle() == written, stage.name


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
                return {}, dict.fromkeys(writes, ("", None))
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


def _bundle(out: Path) -> dict[str, bytes]:
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


class TestBranch:
    def test_branch_reads_what_is_written_before_the_fork_or_by_itself(self):
        fork, join = pipeline_mod._branch_points()
        rest = [stage for stage in STAGES if stage.name not in BRANCH]
        assert (rest[fork - 1].name, rest[fork].name) == ("best-subpages", "fetch-sections")
        before_fork = {name for stage in rest[:fork] for name in stage.writes}
        by_branch: set[str] = set()
        for name in BRANCH:
            for read in STAGE_NAMED[name].reads:
                assert read in before_fork or read in by_branch, (name, read)
            by_branch.update(STAGE_NAMED[name].writes)

    def test_no_stage_reads_a_branch_write_before_the_report(self):
        _, join = pipeline_mod._branch_points()
        rest = [stage for stage in STAGES if stage.name not in BRANCH]
        assert rest[join].name == "report"
        branch_writes = {name for name in WRITER if WRITER[name] in BRANCH}
        for stage in rest[:join]:
            assert not branch_writes.intersection(stage.reads), stage.name

    def test_branch_succeeds_with_an_empty_snapshot_directory(self, e2e_config, tmp_path):
        # the branch runs while fetch-sections fills the store, so it must not read it
        cfg = load_config(e2e_config, env={})
        assert run_pipeline(cfg)[0] == 0
        out = Path(cfg.out_dir)
        writes = [name for branch in BRANCH for name in STAGE_NAMED[branch].writes]
        written = {name: (out / name).read_bytes() for name in writes}
        empty = tmp_path / "empty"
        empty.mkdir()
        runner = Runner(dataclasses.replace(cfg, snapshots=str(empty)))
        for name in BRANCH:
            runner.run_stage(STAGE_NAMED[name])
        assert {name: (out / name).read_bytes() for name in writes} == written
        assert list(empty.iterdir()) == []

    @needs_fork
    @pytest.mark.usefixtures("forking")
    def test_run_equals_the_in_order_run(self, e2e_config, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(True) or fork())
        cfg = load_config(e2e_config, env={})
        out = Path(cfg.out_dir)
        forked = run_pipeline(cfg)
        forked_bundle = _bundle(out)
        assert forks == [True]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.delattr(os, "fork")
        in_order = run_pipeline(cfg)
        assert forked == in_order
        assert forked[0] == 0
        assert list(forked[1]) == list(in_order[1]) == [*STAGE_NAMED, "manifest", "errors"]
        assert forked_bundle == _bundle(out)

    @needs_fork
    def test_branch_forks_once_its_input_files_reach_the_bound(self, e2e_config, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(True) or fork())
        cfg = load_config(e2e_config, env={})
        inputs = [Path(cfg.crawl_logs), Path(cfg.disconnect)]
        assert sum(path.stat().st_size for path in inputs) < pipeline_mod.BRANCH_MIN_BYTES
        code, summary = run_pipeline(cfg)
        assert forks == []
        # blank lines, which the crawl-log reader skips, up to the bound
        short = pipeline_mod.BRANCH_MIN_BYTES - sum(path.stat().st_size for path in inputs)
        with open(cfg.crawl_logs, "a", encoding="utf-8") as fh:
            fh.write("\n" * short)
        assert run_pipeline(cfg) == (code, summary)
        assert forks == [True]

    @pytest.mark.usefixtures("forking")
    def test_a_fork_that_fails_runs_the_branch_in_order(self, e2e_config, monkeypatch):
        cfg = load_config(e2e_config, env={})
        out = Path(cfg.out_dir)
        monkeypatch.delattr(os, "fork", raising=False)
        in_order = run_pipeline(cfg)
        in_order_bundle = _bundle(out)
        ends = []
        pipe = os.pipe

        def piping():
            ends.extend(pipe())
            return tuple(ends[-2:])

        def fails():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "pipe", piping)
        monkeypatch.setattr(os, "fork", fails, raising=False)
        assert run_pipeline(cfg) == in_order
        assert _bundle(out) == in_order_bundle
        for end in ends:  # the pipe made for the worker is closed again
            with pytest.raises(OSError):
                os.fstat(end)

    @needs_fork
    @pytest.mark.usefixtures("forking")
    def test_malformed_crawl_log_fails_as_in_order(self, e2e_config, monkeypatch):
        cfg = load_config(e2e_config, env={})
        with open(cfg.crawl_logs, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        forked = run_pipeline(cfg)
        written = _bundle(Path(cfg.out_dir))
        monkeypatch.delattr(os, "fork")
        in_order = run_pipeline(cfg)
        assert forked == in_order
        assert _bundle(Path(cfg.out_dir)) == written
        code, summary = forked
        assert code == 1
        assert [error.split(": ")[:2] for error in summary["errors"]] == [
            ["track", f"{cfg.crawl_logs}:{len(Path(cfg.crawl_logs).read_text().splitlines())}"]]
        assert "cluster-tracking" not in summary and "sweep-tracking" not in summary

    @needs_fork
    @pytest.mark.usefixtures("forking")
    @pytest.mark.parametrize("method,error", [
        ("stage_track", ZeroDivisionError), ("stage_content", ZeroDivisionError),
        ("stage_content", KeyboardInterrupt),
    ])
    def test_a_bug_in_either_half_propagates_and_leaves_no_worker(
        self, e2e_config, monkeypatch, method, error
    ):
        def buggy(self, *paths):
            raise error("planted")

        monkeypatch.setattr(Runner, method, buggy)
        with pytest.raises(error) as raised:
            run_pipeline(load_config(e2e_config, env={}))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if method == "stage_track":  # the worker's traceback is the cause
            assert "in buggy" in str(raised.value.__cause__)

    @needs_fork
    @pytest.mark.usefixtures("forking")
    @pytest.mark.parametrize("death,ended", [
        (lambda: os._exit(3), "exited 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit", "sigkill"])
    def test_a_worker_that_dies_without_a_result_is_an_error(
        self, e2e_config, monkeypatch, death, ended
    ):
        parent = os.getpid()

        def dies(self, *paths):
            assert os.getpid() != parent, "track ran in the parent"
            death()

        monkeypatch.setattr(Runner, "stage_track", dies)
        cfg = load_config(e2e_config, env={})
        code, summary = run_pipeline(cfg)
        assert code == 1
        assert summary["errors"] == [
            f"track: the worker running {', '.join(BRANCH)} {ended} without a result"]
        assert "cluster-tracking" not in summary and "sweep-tracking" not in summary
        assert summary["report"]["missing"] == [
            "tracking-report.json", "clusters-tracking.json", "sweep-tracking.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_fork
    @pytest.mark.usefixtures("forking")
    def test_a_refused_value_fails_its_branch_stage_as_in_order(self, e2e_config, monkeypatch):
        cfg = load_config(e2e_config, env={})
        out = Path(cfg.out_dir)
        clean = run_pipeline(cfg)[1]
        monkeypatch.setattr(tracking_mod, "top_tp_coverage",
                            lambda records, k: [("x.example", {"sports": math.nan})])
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(True) or fork())
        runs = []
        for forked in (True, False):
            if not forked:
                monkeypatch.delattr(os, "fork")
            shutil.rmtree(out)
            runs.append((run_pipeline(cfg), _bundle(out)))
            assert not (out / "tracking-report.json").exists()
            assert not (out / "tracking-report.json.tmp").exists()
        assert forks == [True]
        assert runs[0] == runs[1]
        (code, summary), bundle = runs[0]
        assert code == 1
        [error] = summary["errors"]
        assert error.startswith("track: tracking-report.json: Out of range float values")
        assert "tracking-matrix.json" in bundle  # written before the refused file, as in order
        tracking = {"track", "cluster-tracking", "sweep-tracking", "report"}
        assert {name: summary.get(name) for name in STAGE_NAMED if name not in tracking} == {
            name: clean.get(name) for name in STAGE_NAMED if name not in tracking}
        assert summary["report"]["missing"] == [
            "tracking-report.json", "clusters-tracking.json", "sweep-tracking.csv"]

    @needs_fork
    @pytest.mark.usefixtures("forking")
    def test_a_worker_whose_run_was_killed_writes_nothing(self, e2e_config, monkeypatch):
        # the run's process is killed while its worker is inside track; the worker, let
        # go on, ends its stages and exits, and no file in out_dir changes after the kill
        cfg = load_config(e2e_config, env={})
        out = Path(cfg.out_dir)
        said_r, said_w = os.pipe()  # the worker -> this test: its pid, then "out"
        go_r, go_w = os.pipe()  # this test -> the worker: go on with track
        track = Runner.stage_track

        def slowed(self, *paths):
            if os.getpid() != run_pid:
                os.write(said_w, f"{os.getpid()}\n".encode())
                os.read(go_r, 1)
                result = track(self, *paths)
                os.write(said_w, b"out")
                return result
            return track(self, *paths)

        monkeypatch.setattr(Runner, "stage_track", slowed)
        run_pid = os.fork()
        if run_pid == 0:
            run_pid = os.getpid()
            try:
                os.close(said_r)
                os.close(go_w)
                run_pipeline(cfg)
            finally:
                os._exit(0)
        os.close(said_w)
        os.close(go_r)
        worker, ended = None, False

        def said(timeout=10.0):
            assert select.select([said_r], [], [], timeout)[0], "the worker said nothing"
            return os.read(said_r, 64)

        def files():
            return {path: (path.stat().st_mtime_ns, path.read_bytes())
                    for path in out.rglob("*") if path.is_file()}

        try:
            try:
                worker = int(said())
            finally:  # the run's process is killed and reaped whatever its worker said
                os.kill(run_pid, signal.SIGKILL)
                os.waitpid(run_pid, 0)
            at_kill = files()
            os.write(go_w, b"g")
            told = b""
            while chunk := said():  # until the worker's end of the pipe closes at its exit
                told += chunk
            ended = True
            assert told == b"out"
            assert files() == at_kill
            assert not any(path.name.startswith("tracking") for path in at_kill)
        finally:
            os.close(go_w)
            os.close(said_r)
            if worker is not None and not ended:
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass


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

    def test_cluster_sweep_in_which_every_cell_failed_fails(
        self, e2e_config, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "run", "--config", e2e_config)
        matrix = e2e_config.parent / "out" / "tracking-matrix.json"
        fast = ("--restarts", "2", "--b-refs", "2")
        target = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, "cluster-sweep", "--matrix", matrix, "--out", target,
            "--n-range", "2..3", "--k-range", "20..21", *fast,
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {matrix}: no cell of the sweep could be scored")
        assert "n=2, k=20: k=20 exceeds" in err
        assert not target.exists()
        # a sweep with a scored cell stands, even when no cell has a silhouette
        code, out, err = run_cli(
            capsys, "cluster-sweep", "--matrix", matrix, "--out", target,
            "--n-range", "2", "--k-range", "1", *fast,
        )
        assert code == 0, err
        assert json.loads(out)["best"] is None
        assert target.read_text("utf-8").splitlines()[1].startswith("2,1,")

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


@pytest.fixture(scope="module")
def fresh_interpreter(tmp_path_factory):
    """The modules loaded by importing topicpages.pipeline in a new interpreter, and then
    by a full run of the end-to-end workspace there."""
    config = build_e2e_workspace(tmp_path_factory.mktemp("fresh") / "ws")
    script = (
        "import json, sys\n"
        "import topicpages.pipeline as pipeline\n"
        "from topicpages.config import load_config\n"
        "imported = sorted(sys.modules)\n"
        f"code, summary = pipeline.run_pipeline(load_config({str(config)!r}, env={{}}))\n"
        "print(json.dumps({'code': code, 'imported': imported, 'ran': sorted(sys.modules)}))\n"
    )
    src = Path(pipeline_mod.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestFreshInterpreter:
    def test_import_leaves_the_http_client_unloaded(self, fresh_interpreter):
        for name in ("http.client", "urllib.request", "concurrent.futures", "urllib.robotparser"):
            assert name not in fresh_interpreter["imported"], name

    def test_run_that_fetches_nothing_never_loads_numpy_ma_or_the_http_client(
        self, fresh_interpreter
    ):
        assert fresh_interpreter["code"] == 0
        assert "numpy.ma" not in fresh_interpreter["ran"]
        assert "http.client" not in fresh_interpreter["ran"]

