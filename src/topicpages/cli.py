"""Command-line front end: one subcommand per pipeline stage plus `run`.

Global options (--config, --seed, --parallel, --out-dir) are accepted by
every subcommand.  Values resolve as defaults < config file < TOPICPAGES_*
environment < command-line flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .classify import dictionary_assist, read_assignments
from .config import PipelineConfig, load_config
from .errors import ConfigError, PipelineError
from .pipeline import STAGE_NAMED, Runner, run_pipeline


def _global_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("global options")
    g.add_argument("--config", metavar="FILE", help="key = value configuration file")
    g.add_argument("--seed", type=int, help="master random seed")
    g.add_argument("--parallel", type=int, help="max concurrent fetches")
    g.add_argument("--out-dir", dest="out_dir", help="run directory for artifacts")
    return parent


def _config_from(args: argparse.Namespace, require: tuple[str, ...] = ()) -> PipelineConfig:
    overrides = {}
    for field in fields(PipelineConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    cfg = load_config(getattr(args, "config", None), overrides=overrides)
    cfg.validate(require)
    return cfg


def _emit(summary: dict) -> None:
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parent = _global_parser()
    parser = argparse.ArgumentParser(
        prog="topicpages",
        description="Find and analyze the topical section pages of news sites.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("fetch", parents=[parent], help="snapshot the configured homepages")
    p.add_argument("--urls", help="homepage list file, one URL per line")
    p.add_argument("--snapshots", help="snapshot store directory")
    p.add_argument("--live", action="store_true", default=None, help="refetch even when cached")
    p.add_argument("--timeout", type=float, help="per-request timeout in seconds")
    p.add_argument("--retries", type=int, help="extra attempts per URL")
    p.add_argument("--user-agent", dest="user_agent", help="User-Agent header")
    p.add_argument(
        "--respect-robots",
        dest="respect_robots",
        action="store_true",
        default=None,
        help="skip URLs disallowed by robots.txt",
    )

    p = sub.add_parser(
        "extract", parents=[parent], help="split homepage links into internal and external"
    )
    p.add_argument("--urls", help="homepage list file, one URL per line")
    p.add_argument("--snapshots", help="snapshot store directory")
    p.add_argument("--suffixes", help="public-suffix override file")

    p = sub.add_parser(
        "fit-thresholds", parents=[parent], help="fit URL-shape cutoffs from histograms"
    )
    p.add_argument("--input", metavar="JSONL", help="URL records to fit on (default: extracted internal links)")
    p.add_argument(
        "--fallback-defaults",
        dest="fallback_defaults",
        action="store_true",
        default=None,
        help="fall back to published defaults when a histogram is not bimodal",
    )
    p.add_argument("--cosine-cutoff", dest="cosine_cutoff", type=float)

    p = sub.add_parser("filter", parents=[parent], help="drop URLs that exceed the thresholds")
    p.add_argument("--input", metavar="JSONL", help="URL records to filter (default: extracted internal links)")

    p = sub.add_parser("classify", parents=[parent], help="assign a topic to every kept URL")
    p.add_argument("--input", metavar="JSONL", help="URL records to classify (default: filtered links)")
    p.add_argument("--dictionary", help="topical dictionary JSON (default: bundled)")
    p.add_argument("--embeddings", help="word2vec text embeddings")
    p.add_argument("--stopwords", help="stopword list, one word per line")

    p = sub.add_parser(
        "best-subpages", parents=[parent], help="pick each site's best page per topic"
    )
    p.add_argument("--input", metavar="JSONL", help="assignments to select from (default: classified links)")
    p.add_argument("--dictionary", help="topical dictionary JSON (default: bundled)")
    p.add_argument("--embeddings", help="word2vec text embeddings")
    p.add_argument("--stopwords", help="stopword list, one word per line")

    p = sub.add_parser("track", parents=[parent], help="third-party analytics from crawl logs")
    p.add_argument("--crawl-logs", dest="crawl_logs", help="crawl-log JSONL")
    p.add_argument("--disconnect", help="tracker category list TSV")
    p.add_argument("--top-sites", dest="top_sites", help="comma-separated popular sites")
    p.add_argument("--top-tp", dest="top_tp", type=int, help="third parties on the coverage board")

    p = sub.add_parser("content", parents=[parent], help="term weights per topic from snapshots")
    p.add_argument("--snapshots", help="snapshot store directory")
    p.add_argument("--stopwords", help="stopword list, one word per line")
    p.add_argument("--min-df", dest="min_df", type=int, help="drop terms in fewer documents")

    p = sub.add_parser("cluster", parents=[parent], help="reduce and cluster a matrix file")
    p.add_argument("--matrix", required=True, metavar="JSON", help="matrix artifact to cluster")
    p.add_argument("--pca-n", dest="pca_n", type=int, help="components to keep (default 2)")
    p.add_argument("--k", type=int, help="number of clusters (default 4)")
    p.add_argument("--out", default="clusters.json", metavar="JSON", help="output path")
    p.add_argument("--restarts", type=int)
    p.add_argument("--b-refs", dest="b_refs", type=int, help="reference draws for the gap statistic")

    p = sub.add_parser("cluster-sweep", parents=[parent], help="score every (n, k) combination")
    p.add_argument("--matrix", required=True, metavar="JSON", help="matrix artifact to sweep")
    p.add_argument("--n", dest="n_range", metavar="A..B", help="component range (default 2..15)")
    p.add_argument("--k", dest="k_range", metavar="A..B", help="cluster-count range (default 2..15)")
    p.add_argument("--out", default="sweep.csv", metavar="CSV", help="output path")
    p.add_argument("--restarts", type=int)
    p.add_argument("--b-refs", dest="b_refs", type=int)

    p = sub.add_parser("report", parents=[parent], help="emit plot-ready CSVs for the bundle")
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first missing upstream artifact instead of noting it",
    )

    p = sub.add_parser(
        "assist-dictionary",
        parents=[parent],
        help="frequent unmatched subpaths, candidates for new keywords",
    )
    p.add_argument("--input", metavar="JSONL", help="assignments to mine (default: classified links)")
    p.add_argument("--dictionary", help="topical dictionary JSON (default: bundled)")
    p.add_argument("--top", type=int, default=30, help="rows to print")

    sub.add_parser("run", parents=[parent], help="run every configured stage end to end")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = STAGE_NAMED.get(args.command)
    try:
        if stage is not None:
            cfg = _config_from(args, require=stage.requires)
            given = [args.input] if getattr(args, "input", None) else []
            options = {"strict": args.strict} if hasattr(args, "strict") else {}
            _emit(Runner(cfg).run_stage(stage, *given, **options))
        elif args.command == "cluster":
            _emit(Runner(_config_from(args)).stage_cluster(args.matrix, args.out))
        elif args.command == "cluster-sweep":
            _emit(Runner(_config_from(args)).stage_cluster_sweep(args.matrix, args.out))
        elif args.command == "assist-dictionary":
            cfg = _config_from(args)
            dictionary = Runner(cfg).dictionary()
            source = args.input or str(Path(cfg.out_dir) / "assignments.jsonl")
            assignments = read_assignments(source, dictionary)
            skip = set(dictionary.generic_subpaths)
            for subpath, count in dictionary_assist(assignments, skip)[: args.top]:
                print(f"{subpath}\t{count}")
        elif args.command == "run":
            code, summary = run_pipeline(_config_from(args))
            _emit(summary)
            return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
