"""Pipeline configuration.

One flat TOML-style key-value file configures a whole run.  Precedence,
lowest to highest: built-in defaults, config file, TOPICPAGES_* environment
variables, command-line flags.  PipelineConfig states each key once: its
default, whose type every source's value is read as, and its help text.
Every path named by the active configuration must exist, as a file or as
the snapshot directory, at validation time so failures happen before any
stage runs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping

from .classify import COSINE_CUTOFF
from .errors import ConfigError
from .lines import read_lines

ENV_PREFIX = "TOPICPAGES_"


def _key(default, help: str):
    """A configuration key; a default of None makes it a path, unset until configured."""
    return field(default=default, metadata={"help": help})


@dataclass
class PipelineConfig:
    # input locations
    urls: str | None = _key(None, "homepage list, one URL per line")
    snapshots: str | None = _key(None, "snapshot store directory")
    dictionary: str | None = _key(None, "topical dictionary JSON (default: bundled)")
    embeddings: str | None = _key(None, "word2vec text embeddings")
    stopwords: str | None = _key(None, "stopword list, one word per line (default: bundled)")
    disconnect: str | None = _key(None, "tracker category list TSV")
    crawl_logs: str | None = _key(None, "crawl-log JSONL")
    suffixes: str | None = _key(None, "public-suffix override file")
    out_dir: str = _key("out", "run directory for artifacts")

    # pipeline knobs
    seed: int = _key(42, "master random seed")
    parallel: int = _key(4, "max concurrent fetches")
    timeout: float = _key(10.0, "per-request timeout in seconds")
    retries: int = _key(1, "extra attempts per URL")
    user_agent: str = _key("", "User-Agent header")
    respect_robots: bool = _key(False, "skip URLs disallowed by robots.txt")
    live: bool = _key(False, "refetch even when cached")
    fallback_defaults: bool = _key(
        False, "fall back to published defaults when a histogram is not bimodal"
    )
    cosine_cutoff: float = _key(COSINE_CUTOFF, "least cosine of an embedding match")
    top_sites: str = _key("", "comma-separated registrable domains of popular sites")
    min_df: int = _key(1, "drop terms in fewer documents")
    pca_n: int = _key(2, "PCA components to keep")
    k: int = _key(4, "number of clusters")
    n_range: str = _key("2..15", "sweep's component range A..B")
    k_range: str = _key("2..15", "sweep's cluster-count range A..B")
    restarts: int = _key(10, "k-means restarts")
    b_refs: int = _key(10, "reference draws for the gap statistic")
    top_tp: int = _key(25, "third parties on the coverage board")

    def top_sites_set(self) -> frozenset[str]:
        return frozenset(s.strip() for s in self.top_sites.split(",") if s.strip())

    def unset(self, keys: Iterable[str]) -> list[str]:
        """The keys among *keys* that are not configured."""
        return [key for key in keys if getattr(self, key) in (None, "")]

    def validate(self, require: tuple[str, ...] = ()) -> None:
        """Check the knobs' ranges, and that every configured path exists and
        is of its kind: the snapshot store a directory, every other path a file.

        *require* names path keys that must be configured for the intended
        stages (e.g. ("dictionary", "embeddings") for classification).
        """
        problems = [f"{key} is required but not configured" for key in self.unset(require)]
        for key in (f.name for f in fields(self) if f.default is None):
            value = getattr(self, key)
            if not value:
                continue
            path = Path(value)
            if not path.exists():
                problems.append(f"{key}: no such path: {value}")
            elif key == "snapshots" and not path.is_dir():
                problems.append(f"{key}: not a directory: {value}")
            elif key != "snapshots" and not path.is_file():
                problems.append(f"{key}: not a file: {value}")
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                problems.append(f"{key} must be at least {least}")
        if not 0.0 < self.timeout < math.inf:
            problems.append("timeout must be a positive number of seconds")
        if not 0.0 <= self.cosine_cutoff <= 1.0:
            problems.append("cosine_cutoff must lie in [0, 1]")
        for key in ("n_range", "k_range"):
            try:
                if parse_range(getattr(self, key)).start < 1:
                    problems.append(f"{key} must start at 1 or above")
            except ConfigError as exc:
                problems.append(f"{key}: {exc}")
        if problems:
            raise ConfigError("; ".join(problems))


# each key's type: its default's, or str for a path
TYPES = {f.name: str if f.default is None else type(f.default) for f in fields(PipelineConfig)}

# the least value of each integer knob
_LEAST = {"seed": 0, "parallel": 1, "retries": 0, "min_df": 1, "pca_n": 1, "k": 1,
          "restarts": 1, "b_refs": 1, "top_tp": 1}


def _coerce(key: str, value) -> object:
    """*value*, a string or a value of the key's type, as the type of *key*."""
    if key not in TYPES:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        if TYPES[key] is bool and not isinstance(value, bool):
            return {"true": True, "false": False}[str(value).lower()]
        return TYPES[key](value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot interpret {value!r}") from exc


def _config_pair(line: str) -> tuple[str, object]:
    """A `key = value` line: the value, its quotes stripped, read as the key's type."""
    key, sep, raw = line.partition("=")
    key, raw = key.strip(), raw.strip()
    if not sep:
        raise ConfigError("expected 'key = value'")
    if not key:
        raise ConfigError("empty key")
    if not raw:
        raise ConfigError("missing value")
    if raw[0] in "\"'":
        if len(raw) < 2 or raw[-1] != raw[0]:
            raise ConfigError("unterminated string")
        raw = raw[1:-1]
    return key, _coerce(key, raw)


def load_config(
    config_file: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> PipelineConfig:
    """Merge defaults, file, environment, and explicit overrides (flags).

    A config-file fault is a ConfigError starting "<path>:<line>: "; a None
    override leaves the key to the lower sources.
    """
    if env is None:
        env = os.environ
    values: dict[str, object] = {}
    if config_file is not None:
        path = Path(config_file)
        if not path.exists():
            raise ConfigError(f"config file not found: {config_file}")
        if not path.is_file():
            raise ConfigError(f"config file is not a file: {config_file}")
        values.update(read_lines(path, _config_pair, ConfigError))
    for name, value in env.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX):].lower()
            values[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _coerce(key, value)
    return PipelineConfig(**values)


def parse_range(spec: str) -> range:
    """Parse "a..b" (inclusive) or a single integer into a range."""
    spec = spec.strip()
    if ".." in spec:
        lo_text, _, hi_text = spec.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise ConfigError(f"bad range {spec!r}") from exc
        if hi < lo:
            raise ConfigError(f"bad range {spec!r}: end below start")
        return range(lo, hi + 1)
    try:
        value = int(spec)
    except ValueError as exc:
        raise ConfigError(f"bad range {spec!r}") from exc
    return range(value, value + 1)
