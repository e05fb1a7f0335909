"""URL normalization, metrics, and homepage link partitioning.

Identity of a site is its registrable domain (eTLD+1), resolved against a
bundled public-suffix snapshot that callers can override with their own file.
Normalized URLs are lowercase-host, query- and fragment-free, and always end
with a trailing slash, so string equality is URL equality downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from html.parser import HTMLParser
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple
from urllib.parse import urljoin, urlparse

from .errors import MalformedRecord, MalformedUrl
from .lines import read_jsonl, read_lines, write_jsonl

# hrefs with these prefixes are navigation chrome, not pages
_DISCARD_PREFIXES = ("javascript:", "mailto:", "#")

_DEFAULT_PORTS = {"http": 80, "https": 443}

# root-relative hrefs that resolve to the base's origin plus their non-empty
# segments, unless a segment is "." or ".."
_PLAIN_PATH = re.compile(r"/(?:[A-Za-z0-9_~-][A-Za-z0-9._~/-]*)?")


@cache
def public_suffixes() -> frozenset[str]:
    """The bundled public-suffix snapshot, loaded once per process."""
    return load_suffixes(resources.files("topicpages") / "data/public_suffixes.txt")


def load_suffixes(path: str | Path) -> frozenset[str]:
    """Read a suffix file: one suffix per line, # comments, lowercased."""
    return frozenset(read_lines(path, str.lower))


def registrable_domain(host: str, suffixes: frozenset[str] | None = None) -> str:
    """Return the eTLD+1 of *host*.

    IP literals and single-label hosts (e.g. "localhost") are returned
    unchanged.  Unknown TLDs fall back to the default rule: the last label
    is the suffix.
    """
    host = host.strip().lower().rstrip(".")
    if not host:
        return host
    if ":" in host or host.replace(".", "").isdigit():
        return host
    labels = host.split(".")
    if len(labels) == 1:
        return host
    if suffixes is None:
        suffixes = public_suffixes()
    # scan from the longest candidate suffix down
    for i in range(len(labels)):
        if ".".join(labels[i:]) in suffixes:
            if i == 0:
                return host
            return ".".join(labels[i - 1:])
    return ".".join(labels[-2:])


@dataclass(frozen=True)
class PageUrl:
    """A normalized page URL.

    subpaths holds the path segments in order; the homepage has none.
    """

    raw: str
    normalized: str
    domain: str
    subpaths: tuple[str, ...]

    def __str__(self) -> str:
        return self.normalized


class UrlMetrics(NamedTuple):
    url_length: int
    max_subpath_length: int
    max_hyphens: int


def normalize(raw: str, base: PageUrl | None = None, suffixes: frozenset[str] | None = None) -> PageUrl:
    """Parse *raw* (resolving relative references against *base*) into a PageUrl.

    Queries and fragments are dropped: section pages are path-addressed and
    tracking parameters would otherwise split one page into many identities.

    Raises MalformedUrl for anything that is not an absolute http(s) URL
    after resolution.
    """
    candidate = raw.strip()
    if not candidate:
        raise MalformedUrl("empty URL")
    try:
        if base is not None:
            candidate = urljoin(base.normalized, candidate)
        parsed = urlparse(candidate)
        host = parsed.hostname
        port = parsed.port
    except ValueError as exc:
        raise MalformedUrl(f"unparseable URL {raw!r}: {exc}") from exc
    if parsed.scheme not in ("http", "https") or not host:
        raise MalformedUrl(f"not an absolute http(s) URL: {raw!r}")
    host = host.lower()
    netloc = host
    if port is not None and port != _DEFAULT_PORTS[parsed.scheme]:
        netloc = f"{host}:{port}"
    subpaths = tuple(seg for seg in parsed.path.split("/") if seg)
    tail = "/".join(subpaths) + "/" if subpaths else ""
    return PageUrl(
        raw=raw,
        normalized=f"{parsed.scheme}://{netloc}/{tail}",
        domain=registrable_domain(host, suffixes),
        subpaths=subpaths,
    )


def url_metrics(u: PageUrl) -> UrlMetrics:
    """Character length of the normalized URL plus per-subpath maxima."""
    return UrlMetrics(
        url_length=len(u.normalized),
        max_subpath_length=max((len(s) for s in u.subpaths), default=0),
        max_hyphens=max((s.count("-") for s in u.subpaths), default=0),
    )


class _HrefCollector(HTMLParser):
    """Collects href attribute values from any element, in document order."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        for name, value in attrs:
            if name.lower() == "href" and value:
                self.hrefs.append(value)


@dataclass(frozen=True)
class LinkPartition:
    """Links found on a homepage, split by site membership.

    skipped counts hrefs that failed to parse; intentional discards
    (fragment-only, javascript:, mailto:) are not errors and not counted.
    """

    internal: tuple[PageUrl, ...]
    external: tuple[PageUrl, ...]
    skipped: int = 0


def _resolve_plain_path(href: str, origin: PageUrl) -> PageUrl | None:
    """normalize(href, base) for a plain root-relative href, else None.

    *origin* is normalize("/", base), which gives the scheme, host and port
    of every root-relative href on the page and their registrable domain.
    """
    if not _PLAIN_PATH.fullmatch(href):
        return None
    subpaths = tuple(seg for seg in href.split("/") if seg)
    if "." in subpaths or ".." in subpaths:
        return None
    tail = "/".join(subpaths) + "/" if subpaths else ""
    return PageUrl(
        raw=href, normalized=origin.normalized + tail, domain=origin.domain, subpaths=subpaths
    )


def extract_links(html: str, base: PageUrl, suffixes: frozenset[str] | None = None) -> LinkPartition:
    """Extract, normalize, and dedupe every href in *html*.

    A link is internal iff its registrable domain equals the base page's;
    subdomains of the same registrable domain therefore count as internal.
    """
    collector = _HrefCollector()
    collector.feed(html)
    collector.close()
    try:
        # the base's origin and domain, for the plain root-relative hrefs
        probe = normalize("/", base=base, suffixes=suffixes)
    except MalformedUrl:
        probe = None
    seen: set[str] = set()
    internal: list[PageUrl] = []
    external: list[PageUrl] = []
    skipped = 0
    for href in collector.hrefs:
        href = href.strip()
        if not href or href.lower().startswith(_DISCARD_PREFIXES):
            continue
        url = _resolve_plain_path(href, probe) if probe is not None else None
        if url is None:
            try:
                url = normalize(href, base=base, suffixes=suffixes)
            except MalformedUrl:
                skipped += 1
                continue
        if url.normalized in seen:
            continue
        seen.add(url.normalized)
        if url.domain == base.domain:
            internal.append(url)
        else:
            external.append(url)
    return LinkPartition(tuple(internal), tuple(external), skipped)


# --- URL list files (JSON Lines) -------------------------------------------

def url_to_record(u: PageUrl, site: str) -> dict:
    return {
        "raw": u.raw,
        "normalized": u.normalized,
        "domain": u.domain,
        "subpaths": list(u.subpaths),
        "site": site,
    }


def url_from_record(obj: dict) -> tuple[PageUrl, str]:
    fields = (obj["raw"], obj["normalized"], obj["domain"], obj["site"])
    subpaths = obj["subpaths"]
    if not isinstance(subpaths, list) or not all(isinstance(f, str) for f in (*fields, *subpaths)):
        raise MalformedRecord("URL record fields must be strings, subpaths a list of strings")
    raw, normalized, domain, site = fields
    return PageUrl(raw, normalized, domain, tuple(subpaths)), site


def write_url_file(path: str | Path, rows: Iterable[tuple[PageUrl, str]]) -> None:
    """Write (url, site) pairs as one JSON object per line."""
    write_jsonl(path, (url_to_record(u, site) for u, site in rows))


def read_url_file(path: str | Path) -> list[tuple[PageUrl, str]]:
    return list(read_jsonl(path, url_from_record))
