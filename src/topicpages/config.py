"""Pipeline configuration.

One flat TOML-style key-value file configures a whole run.  Precedence,
lowest to highest: built-in defaults, config file, TOPICPAGES_* environment
variables, command-line flags.  Every path named by the active
configuration must exist, as a file or as the snapshot directory, at
validation time so failures happen before any stage runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ConfigError
from .lines import parse_lines, read_lines

ENV_PREFIX = "TOPICPAGES_"

_PATH_KEYS = (
    "urls",
    "snapshots",
    "dictionary",
    "embeddings",
    "stopwords",
    "disconnect",
    "crawl_logs",
    "suffixes",
)


@dataclass
class PipelineConfig:
    # input locations (None means "not configured")
    urls: str | None = None          # homepage list, one URL per line
    snapshots: str | None = None     # snapshot store directory
    dictionary: str | None = None    # topical dictionary JSON
    embeddings: str | None = None    # word2vec text file
    stopwords: str | None = None     # one word per line; bundled list if unset
    disconnect: str | None = None    # tracker list TSV
    crawl_logs: str | None = None    # crawl-log JSONL
    suffixes: str | None = None      # public-suffix override file
    out_dir: str = "out"

    # pipeline knobs
    seed: int = 42
    parallel: int = 4
    timeout: float = 10.0
    retries: int = 1
    user_agent: str = ""
    respect_robots: bool = False
    live: bool = False
    fallback_defaults: bool = False
    cosine_cutoff: float = 0.4
    top_sites: str = ""              # comma-separated registrable domains
    min_df: int = 1
    pca_n: int = 2
    k: int = 4
    n_range: str = "2..15"
    k_range: str = "2..15"
    restarts: int = 10
    b_refs: int = 10
    top_tp: int = 25

    def top_sites_set(self) -> frozenset[str]:
        return frozenset(s.strip() for s in self.top_sites.split(",") if s.strip())

    def unset(self, keys: Iterable[str]) -> list[str]:
        """The keys among *keys* that are not configured."""
        return [key for key in keys if getattr(self, key) in (None, "")]

    def validate(self, require: tuple[str, ...] = ()) -> None:
        """Check basic ranges, and that every configured path exists and is
        of its kind: the snapshot store a directory, every other path a file.

        *require* names path keys that must be configured for the intended
        stages (e.g. ("dictionary", "embeddings") for classification).
        """
        problems = [f"{key} is required but not configured" for key in self.unset(require)]
        for key in _PATH_KEYS:
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
        if self.seed < 0:
            problems.append("seed must be non-negative")
        if self.parallel < 1:
            problems.append("parallel must be positive")
        if not 0.0 <= self.cosine_cutoff <= 1.0:
            problems.append("cosine_cutoff must lie in [0, 1]")
        if self.min_df < 1:
            problems.append("min_df must be at least 1")
        if problems:
            raise ConfigError("; ".join(problems))


def _parse_value(raw: str):
    raw = raw.strip()
    if not raw:
        raise ConfigError("missing value")
    if raw[0] in "\"'":
        if len(raw) < 2 or raw[-1] != raw[0]:
            raise ConfigError("unterminated string")
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw  # bare string


def _config_pair(line: str) -> tuple[str, object]:
    key, sep, raw = line.partition("=")
    if not sep:
        raise ConfigError("expected 'key = value'")
    if not key.strip():
        raise ConfigError("empty key")
    return key.strip(), _parse_value(raw)


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` lines; # starts a comment line."""
    return dict(parse_lines(text.split("\n"), _config_pair))


def _coerce(key: str, value, target_type) -> object:
    try:
        if target_type is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ValueError(value)
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot interpret {value!r}") from exc


def load_config(
    config_file: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> PipelineConfig:
    """Merge defaults, file, environment, and explicit overrides (flags)."""
    if env is None:
        env = os.environ
    merged: dict[str, object] = {}
    if config_file is not None:
        path = Path(config_file)
        if not path.exists():
            raise ConfigError(f"config file not found: {config_file}")
        if not path.is_file():
            raise ConfigError(f"config file is not a file: {config_file}")
        merged.update(read_lines(path, _config_pair, ConfigError))
    for name, value in env.items():
        if name.startswith(ENV_PREFIX):
            merged[name[len(ENV_PREFIX):].lower()] = value
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})

    config = PipelineConfig()
    type_of = {
        f.name: type(getattr(config, f.name)) if getattr(config, f.name) is not None else str
        for f in fields(PipelineConfig)
    }
    for key, value in merged.items():
        if key not in type_of:
            raise ConfigError(f"unknown configuration key {key!r}")
        setattr(config, key, _coerce(key, value, type_of[key]))
    return config


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
