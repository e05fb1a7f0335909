"""Command-line front end: one subcommand per pipeline stage plus `run`.

Every subcommand takes --config FILE and one flag --<key> per configuration
key, `_` written `-` (--out-dir, --n-range, ...): a flag for a boolean key
sets it true, and any other flag's value is read as its key's type, as in
the config file.  Values resolve as defaults < config file < TOPICPAGES_*
environment < command-line flags.  Subcommands add only their own options:
--input, --matrix, --out, --strict and --top.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .classify import dictionary_assist, read_assignments
from .config import TYPES, PipelineConfig, load_config
from .errors import ConfigError, PipelineError
from .pipeline import STAGE_NAMED, Runner, Stage, run_pipeline


def _global_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("configuration")
    g.add_argument("--config", metavar="FILE", help="key = value configuration file")
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        if TYPES[f.name] is bool:
            g.add_argument(flag, action="store_true", default=None, help=f.metadata["help"])
        else:
            shown = "" if f.default in (None, "") else f" (default {f.default})"
            metavar = "PATH" if f.default is None else TYPES[f.name].__name__.upper()
            g.add_argument(flag, metavar=metavar, help=f.metadata["help"] + shown)
    return parent


def _config_from(args: argparse.Namespace, require: tuple[str, ...] = ()) -> PipelineConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    cfg = load_config(args.config, overrides=overrides)
    cfg.validate(require)
    return cfg


def _at_least_one(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text}")
    return int(text)


# assist-dictionary reads what best-subpages reads, without the embeddings that stage requires
_ASSIST = Stage("assist-dictionary", "", reads=STAGE_NAMED["best-subpages"].reads)


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

    def command(name: str, summary: str, records: str | None = None):
        # no prefix abbreviations: among 27 key flags --n or --out would silently pick one
        p = sub.add_parser(name, parents=[parent], help=summary, allow_abbrev=False)
        if records:  # what --input replaces: the stage's first read
            read = STAGE_NAMED.get(name, _ASSIST).reads[0]
            p.add_argument("--input", metavar="JSONL", help=f"{records} (default: {read})")
        return p

    command("fetch", "snapshot the configured homepages")
    command("extract", "split homepage links into internal and external")
    command("fit-thresholds", "fit URL-shape cutoffs from histograms", "URL records to fit on")
    command("filter", "drop URLs that exceed the thresholds", "URL records to filter")
    command("classify", "assign a topic to every kept URL", "URL records to classify")
    command("best-subpages", "pick each site's best page per topic", "assignments to select from")
    command("track", "third-party analytics from crawl logs")
    command("content", "term weights per topic from snapshots")

    p = command("cluster", "reduce and cluster a matrix file")
    p.add_argument("--matrix", required=True, metavar="JSON", help="matrix artifact to cluster")
    p.add_argument("--out", default="clusters.json", metavar="JSON", help="output path")

    p = command("cluster-sweep", "score every (n, k) combination")
    p.add_argument("--matrix", required=True, metavar="JSON", help="matrix artifact to sweep")
    p.add_argument("--out", default="sweep.csv", metavar="CSV", help="output path")

    p = command("report", "emit plot-ready CSVs for the bundle")
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first missing upstream artifact instead of noting it",
    )

    p = command(_ASSIST.name, "frequent unmatched subpaths, candidates for new keywords",
                "assignments to mine")
    p.add_argument("--top", type=_at_least_one, default=30, help="rows to print")

    command("run", "run every configured stage end to end")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = STAGE_NAMED.get(args.command)
    given = [args.input] if getattr(args, "input", None) else []
    try:
        if stage is not None:
            cfg = _config_from(args, require=stage.requires)
            _emit(Runner(cfg).run_stage(stage, *given, strict=getattr(args, "strict", False)))
        elif args.command in ("cluster", "cluster-sweep"):
            runner = Runner(_config_from(args))
            method = getattr(runner, "stage_" + args.command.replace("-", "_"))
            summary, outputs = method(args.matrix, args.out)
            runner.save(outputs)
            _emit(summary)
        elif args.command == "assist-dictionary":
            runner = Runner(_config_from(args))
            [source] = runner.inputs(_ASSIST, given)
            dictionary = runner.dictionary
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
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
