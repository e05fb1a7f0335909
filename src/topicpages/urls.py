"""URL normalization, metrics, and homepage link partitioning.

Identity of a site is its registrable domain (eTLD+1), resolved against a
bundled public-suffix snapshot that callers can override with their own file.
Normalized URLs are lowercase-host, query- and fragment-free, and always end
with a trailing slash, so string equality is URL equality downstream.

normalize defines how an href resolves.  partition_links resolves the plain
hrefs that make up most of a homepage without urljoin: a root-relative path,
or a lowercase http:// or https:// URL whose host is ASCII labels joined by
dots, with no port, userinfo or trailing dot.  The path holds only letters,
digits and "._~-/", and a ?query or #fragment may follow it.  normalize
resolves such an href to its scheme, lowercased host and non-empty path
segments, which the shortcut builds directly, looking each host's registrable
domain up once per page.  An href with a "." or ".." segment, and every other
href, goes through normalize.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import urljoin, urlparse

from .errors import MalformedUrl
from .lines import _STRING, checked, read_jsonl, read_lines

# hrefs with these prefixes are navigation chrome, not pages
_DISCARD_PREFIXES = ("javascript:", "mailto:", "#")

_DEFAULT_PORTS = {"http": 80, "https": 443}

# hrefs that resolve to a scheme and host (the base's for a root-relative path)
# plus their path's non-empty segments, unless a segment is "." or ".."
_PLAIN_HREF = re.compile(
    r"(?:(https?)://([A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+)(?=[/?#]|\Z)|(?=/(?!/)))"
    r"(/[A-Za-z0-9._~/-]*)?(?:[?#].*)?",
    re.DOTALL,
)


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
    Dot segments are removed from every path, so an absolute href and its
    root-relative form give one URL.

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
    if "." in subpaths or ".." in subpaths:  # urljoin removes them from relative hrefs only
        subpaths = _without_dot_segments(parsed.path)
    tail = "/".join(subpaths) + "/" if subpaths else ""
    return PageUrl(
        raw=raw,
        normalized=f"{parsed.scheme}://{netloc}/{tail}",
        domain=registrable_domain(host, suffixes),
        subpaths=subpaths,
    )


def _without_dot_segments(path: str) -> tuple[str, ...]:
    """The non-empty segments of an absolute *path* once its dot segments are removed as
    RFC 3986 section 5.2.4 removes them, and as urljoin does for a relative href: "."
    goes, and ".." goes with the segment before it, an empty one included."""
    kept: list[str] = []
    for seg in path.split("/")[1:]:
        if seg == "..":
            if kept:
                kept.pop()
        elif seg != ".":
            kept.append(seg)
    return tuple(filter(None, kept))


def url_metrics(u: PageUrl) -> UrlMetrics:
    """Character length of the normalized URL plus per-subpath maxima."""
    return UrlMetrics(
        len(u.normalized),
        max(map(len, u.subpaths), default=0),
        max(map(str.count, u.subpaths, repeat("-")), default=0),
    )


@dataclass(frozen=True)
class LinkPartition:
    """Links found on a homepage, split by site membership.

    skipped counts hrefs that failed to parse; intentional discards
    (fragment-only, javascript:, mailto:) are not errors and not counted.
    """

    internal: tuple[PageUrl, ...]
    external: tuple[PageUrl, ...]
    skipped: int = 0


def _resolve_plain(
    href: str, origin: PageUrl, domains: dict[str, str], suffixes: frozenset[str] | None
) -> PageUrl | None:
    """normalize(href, base, suffixes) for a plain href, else None.

    *origin* is normalize("/", base, suffixes), which gives the scheme, host and
    port of every root-relative href on the page and their registrable domain.
    *domains* maps each absolute host seen on the page to its registrable domain.
    """
    match = _PLAIN_HREF.fullmatch(href)
    if match is None:
        return None
    scheme, host, path = match.groups()
    subpaths = tuple(filter(None, path.split("/"))) if path else ()
    if "." in subpaths or ".." in subpaths:
        return None
    tail = "/".join(subpaths) + "/" if subpaths else ""
    if scheme is None:
        return PageUrl(href, origin.normalized + tail, origin.domain, subpaths)
    host = host.lower()
    domain = domains.get(host)
    if domain is None:
        domain = domains[host] = registrable_domain(host, suffixes)
    return PageUrl(href, f"{scheme}://{host}/{tail}", domain, subpaths)


def partition_links(
    hrefs: Iterable[str], base: PageUrl, suffixes: frozenset[str] | None = None
) -> LinkPartition:
    """Normalize and dedupe the hrefs found on the page *base*, in order.

    A link is internal iff its registrable domain equals the base page's;
    subdomains of the same registrable domain therefore count as internal.
    """
    try:
        # the base's origin and domain, for the plain root-relative hrefs
        probe = normalize("/", base=base, suffixes=suffixes)
    except MalformedUrl:
        probe = None
    domains: dict[str, str] = {}
    seen: set[str] = set()
    internal: list[PageUrl] = []
    external: list[PageUrl] = []
    skipped = 0
    for href in hrefs:
        href = href.strip()
        if not href or href.lower().startswith(_DISCARD_PREFIXES):
            continue
        url = _resolve_plain(href, probe, domains, suffixes) if probe is not None else None
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
    raw, normalized, domain, site = (
        checked(obj[key], str, key) for key in ("raw", "normalized", "domain", "site"))
    subpaths = tuple(checked(obj["subpaths"], str, "subpaths", each=True))
    return PageUrl(raw, normalized, domain, subpaths), site


def url_lines(rows: Iterable[tuple[PageUrl, str]]) -> Iterator[str]:
    """The text of a URL file of (url, site) rows, whose fields are strings, joined
    1,024 lines at a time: each line is lines._ROW's text of url_to_record(u, site) and
    "\\n", built in sorted key order by json's string encoder."""
    s = _STRING
    rows = iter(rows)
    while chunk := list(islice(rows, 1024)):
        yield "".join(
            f'{{"domain": {s(u.domain)}, "normalized": {s(u.normalized)}, "raw": {s(u.raw)}, '
            f'"site": {s(site)}, "subpaths": [{", ".join(map(s, u.subpaths))}]}}\n'
            for u, site in chunk)


def read_url_file(path: str | Path) -> list[tuple[PageUrl, str]]:
    return list(read_jsonl(path, url_from_record))
