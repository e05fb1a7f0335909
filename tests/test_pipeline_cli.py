import json
from pathlib import Path

import pytest

from topicpages.cli import main
from topicpages.config import load_config
from topicpages.errors import MissingStage
from topicpages.pipeline import STAGE_NAMED, Runner, read_homepage_list

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
            Runner(cfg).stage_track()

    def test_homepage_list_parsing(self, tmp_path):
        listing = tmp_path / "urls.txt"
        listing.write_text("# comment\n\nhttps://a.example\nhttps://b.example/x/\n")
        urls = read_homepage_list(listing)
        assert [u.normalized for u in urls] == [
            "https://a.example/",
            "https://b.example/x/",
        ]


class TestOtherCommands:
    def test_assist_dictionary_lists_unmatched_subpaths(self, e2e_config, capsys):
        run_cli(capsys, "run", "--config", e2e_config)
        code, out, _ = run_cli(capsys, "assist-dictionary", "--config", e2e_config)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert ["about-us", "1"] in rows
        assert ["quiz", "1"] in rows
        assert all(count == "1" for _, count in rows)

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
            "--n", "1..2",
            "--k", "2..3",
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
        assert "missing" in err

    def test_report_lenient_notes_missing(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "report", "--out-dir", tmp_path / "empty")
        assert code == 0
        notes = (tmp_path / "empty" / "plots" / "notes.txt").read_text("utf-8")
        assert "missing: best.jsonl" in notes

    def test_config_error_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", "--config", tmp_path / "absent.toml")
        assert code == 2
        assert "not found" in err

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
