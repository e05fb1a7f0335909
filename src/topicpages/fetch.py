"""Bounded-concurrency page fetching and the on-disk snapshot store.

Fetching is the only stage that touches the network.  Results land in a
snapshot directory (content-addressed files plus an index), and every other
stage reads snapshots, which keeps whole-pipeline runs reproducible.
"""

from __future__ import annotations

import hashlib
import http.client
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence
from urllib import robotparser
from urllib.parse import quote, urlsplit, urlunsplit

from .errors import MalformedRecord
from .lines import read_jsonl, read_text, write_jsonl
from .urls import PageUrl

# one fixed desktop browser identity for every request in a crawl
DEFAULT_USER_AGENT = (
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
    "(KHTML, like Gecko) Chrome/87.0.4280.88 Safari/537.36"
)

INDEX_NAME = "index.jsonl"


@dataclass(frozen=True)
class FetchResult:
    """Outcome of one URL fetch: either a body or an error, never both."""

    url: PageUrl
    status: int | None
    body: str | None
    fetched_at: datetime
    error: str | None

    def __post_init__(self):
        ok = self.status is not None and self.body is not None and self.error is None
        failed = self.status is None and self.body is None and self.error is not None
        if not (ok or failed):
            raise ValueError("exactly one of (status, body) or error must be set")


def _now() -> datetime:
    return datetime.now(timezone.utc)


def _uri(url: str) -> str:
    """*url* with its path percent-encoded as UTF-8 outside RFC 3986's path characters,
    %XX escapes kept; a path that needs no escaping is left as it is."""
    parts = urlsplit(url)
    path = quote(parts.path, safe="/%:@!$&'()*+,;=")
    return url if path == parts.path else urlunsplit(parts._replace(path=path))


def _fetch_once(url: str, timeout: float, user_agent: str) -> tuple[int, str]:
    request = urllib.request.Request(_uri(url), headers={"User-Agent": user_agent})
    # urllib's default redirect handler follows up to 10 redirects
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        body = resp.read().decode("utf-8", errors="replace")
        return int(resp.status), body


def fetch_one(
    url: PageUrl,
    timeout: float = 10.0,
    retries: int = 1,
    user_agent: str = DEFAULT_USER_AGENT,
) -> FetchResult:
    """Fetch one page, retrying transient failures.

    *retries* counts re-attempts after the first try.  4xx/5xx responses,
    timeouts, connection errors and malformed responses all surface as
    error-populated results after the attempts are exhausted; a failed page
    never aborts a batch.
    """
    attempts = 1 + max(0, retries)
    error = "unknown error"
    for _ in range(attempts):
        try:
            status, body = _fetch_once(url.normalized, timeout, user_agent)
            return FetchResult(url=url, status=status, body=body, fetched_at=_now(), error=None)
        except urllib.error.HTTPError as exc:
            error = f"HTTP {exc.code}"
        except urllib.error.URLError as exc:
            error = f"unreachable: {exc.reason}"
        except (TimeoutError, OSError) as exc:
            error = f"unreachable: {exc}"
        except (http.client.HTTPException, ValueError) as exc:
            error = f"failed: {exc!r}"
    return FetchResult(url=url, status=None, body=None, fetched_at=_now(), error=error)


class _RobotsCache:
    """Per-host robots.txt decisions, fetched once per host."""

    def __init__(self, timeout: float, user_agent: str) -> None:
        self._timeout = timeout
        self._user_agent = user_agent
        self._parsers: dict[str, robotparser.RobotFileParser | None] = {}
        self._lock = threading.Lock()

    def allowed(self, url: str) -> bool:
        parts = urlsplit(url)
        origin = f"{parts.scheme}://{parts.netloc}"
        with self._lock:
            if origin not in self._parsers:
                self._parsers[origin] = self._load(origin)
            parser = self._parsers[origin]
        if parser is None:
            return True  # unreadable robots.txt blocks nothing
        return parser.can_fetch(self._user_agent, url)

    def _load(self, origin: str) -> robotparser.RobotFileParser | None:
        try:
            _, text = _fetch_once(f"{origin}/robots.txt", self._timeout, self._user_agent)
        except Exception:
            return None
        parser = robotparser.RobotFileParser()
        parser.parse(text.splitlines())
        return parser


def fetch_all(
    urls: Sequence[PageUrl],
    parallelism: int = 4,
    timeout: float = 10.0,
    retries: int = 1,
    user_agent: str = DEFAULT_USER_AGENT,
    respect_robots: bool = False,
) -> list[FetchResult]:
    """Fetch every URL with at most *parallelism* requests in flight.

    Results come back in input order, one per URL, regardless of which
    fetches failed.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    robots = _RobotsCache(timeout, user_agent) if respect_robots else None

    def work(u: PageUrl) -> FetchResult:
        if robots is not None and not robots.allowed(u.normalized):
            return FetchResult(
                url=u, status=None, body=None, fetched_at=_now(), error="blocked by robots.txt"
            )
        return fetch_one(u, timeout=timeout, retries=retries, user_agent=user_agent)

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(work, urls))


# --- snapshot store ----------------------------------------------------------

def _snapshot_name(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:24] + ".html"


def _index_entry(obj: dict) -> tuple[str, dict]:
    url, path = obj["url"], obj.get("path")
    if not isinstance(url, str) or not isinstance(path, (str, type(None))):
        raise TypeError("url must be a string and path a string or null")
    return url, obj


def load_snapshot_index(directory: str | Path) -> dict[str, dict]:
    """Read the snapshot index; an absent index is an empty store."""
    index_path = Path(directory) / INDEX_NAME
    if not index_path.exists():
        return {}
    return dict(read_jsonl(index_path, _index_entry))


def save_snapshots(results: Iterable[FetchResult], directory: str | Path) -> Path:
    """Store fetched bodies under *directory* and update its index.

    Files are named by body hash, so identical bodies share one file and
    re-running a fetch leaves existing bytes untouched.  Returns the index
    path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = load_snapshot_index(directory)
    for result in results:
        path = None
        if result.body is not None:
            path = _snapshot_name(result.body)
            target = directory / path
            if not target.exists():
                target.write_text(result.body, encoding="utf-8")
        rows[result.url.normalized] = {
            "url": result.url.normalized,
            "path": path,
            "status": result.status,
            "fetched_at": result.fetched_at.isoformat(),
            "error": result.error,
        }
    index_path = directory / INDEX_NAME
    write_jsonl(index_path, (rows[url] for url in sorted(rows)))
    return index_path


def read_snapshot(directory: str | Path, row: dict) -> str:
    if not row.get("path"):
        raise MalformedRecord(f"no snapshot body for {row.get('url')!r}")
    return read_text(Path(directory) / row["path"])


def stored_bodies(directory: str | Path, urls: Iterable[str]) -> Iterator[str | None]:
    """Each URL's stored body, in order, or None when the store holds no body for
    it; the index is read once, now, and each body when its turn comes."""
    index = load_snapshot_index(directory)
    rows = (index.get(url, {}) for url in urls)
    return (read_snapshot(directory, row) if row.get("path") else None for row in rows)


def fetch_missing(
    urls: Sequence[PageUrl],
    directory: str | Path,
    live: bool = False,
    **fetch_kwargs,
) -> tuple[int, int]:
    """Ensure the snapshot store covers *urls*; returns (fetched, reused).

    Only URLs absent from the index are fetched unless *live* forces a
    refresh of everything, so downstream stages can be re-run offline.
    """
    directory = Path(directory)
    index = load_snapshot_index(directory)
    todo = [u for u in urls if live or u.normalized not in index]
    if todo:
        save_snapshots(fetch_all(todo, **fetch_kwargs), directory)
    return len(todo), len(urls) - len(todo)
