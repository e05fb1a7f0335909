"""Crawl-log ingestion and third-party tracking analytics.

Crawl logs are JSON Lines, one page visit per line, carrying the cookies
observed and the third-party request domains.  Each visit's site and third
parties are resolved once at ingest, rather than trusted from the logger, by
urls.registrable_domain under the run's suffix set: the sites and third parties
here are the sites extract splits a homepage's links by.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import PipelineError
from .lines import checked, read_jsonl, read_lines
from .stats import Summary, summary
from .urls import PageUrl, normalize, registrable_domain

HOMEPAGE_TOPIC = "homepage"

ADVERTISING = "Advertising"
CONTENT_SOCIAL = "Content & Social"
ANALYTICS = "Analytics"
FINGERPRINTING = "Fingerprinting"
UNKNOWN = "Unknown"

CATEGORIES = (ADVERTISING, CONTENT_SOCIAL, ANALYTICS, FINGERPRINTING)

@dataclass(frozen=True)
class CrawlRecord:
    page_url: PageUrl
    site: str
    topic: str  # a configured topic name, or "homepage"
    crawl_id: str
    tp_cookies: tuple[str, ...]  # registrable domain of each third-party cookie
    third_parties: frozenset[str]  # every third-party registrable domain seen
    redirects: int


def _clean_domain(domain: str) -> str:
    return domain.strip().lower().lstrip(".")


def _logged_domain(domain: str, suffixes: frozenset[str] | None, what: str) -> str:
    """The registrable domain of a *domain* from a crawl log; a ValueError naming
    *what* when, once cleaned, it is empty or holds whitespace, a comma or a quote."""
    cleaned = _clean_domain(domain)
    if cleaned.split() != [cleaned] or "," in cleaned or '"' in cleaned:
        raise ValueError(f"{what} {domain!r} is not a hostname")
    return registrable_domain(cleaned, suffixes)


def _parse_record(obj, topics: Collection[str] | None, suffixes: frozenset[str] | None) -> CrawlRecord:
    checked(obj, dict, "record")
    site = _logged_domain(checked(obj["site"], str, "site"), suffixes, "site")
    cookies = [c["cookie_domain"] for c in obj.get("cookies", [])]
    requests = [r["request_domain"] for r in obj.get("requests", [])]
    tp_cookies, third_parties = record_third_parties(
        site,
        checked(cookies, str, "cookie domains", each=True),
        checked(requests, str, "request domains", each=True),
        suffixes,
    )
    redirects = checked(obj.get("redirects", 0), int, "redirects")
    if redirects < 0:
        raise ValueError("redirects must be non-negative")
    page_url = normalize(checked(obj["page_url"], str, "page_url"), suffixes=suffixes)
    topic = checked(obj["topic"], str, "topic")
    if topics is not None and topic != HOMEPAGE_TOPIC and topic not in topics:
        raise PipelineError(f"topic {topic!r} is not configured")
    return CrawlRecord(
        page_url=page_url,
        site=site,
        topic=topic,
        crawl_id=checked(obj.get("crawl_id", ""), str, "crawl_id"),
        tp_cookies=tp_cookies,
        third_parties=third_parties,
        redirects=redirects,
    )


def read_crawl_log(
    path: str | Path, topics: Collection[str] | None = None, suffixes: frozenset[str] | None = None
) -> list[CrawlRecord]:
    """Read a crawl log into records, each site and third party the registrable
    domain under *suffixes*.

    When *topics* is given, any record whose topic is neither in the set
    nor "homepage" is an error.  is_third_party flags in the input
    are ignored: third parties are resolved against the record's site.
    """
    return list(read_jsonl(path, partial(_parse_record, topics=topics, suffixes=suffixes)))


def record_third_parties(
    site: str, cookie_domains: Iterable[str], request_domains: Iterable[str],
    suffixes: frozenset[str] | None = None,
) -> tuple[tuple[str, ...], frozenset[str]]:
    """Resolve one visit's domains against its registrable *site* under *suffixes*.

    Returns the registrable domain of each third-party cookie, one entry per
    cookie, and the set of every third-party registrable domain on the visit.  A
    domain that is empty or holds whitespace, a comma or a quote once cleaned is a
    ValueError.
    """

    def third(domains: Iterable[str], what: str) -> list[str]:
        regs = map(_logged_domain, domains, repeat(suffixes), repeat(what))
        return [reg for reg in regs if reg != site]

    tp_cookies = tuple(third(cookie_domains, "cookie domain"))
    return tp_cookies, frozenset(tp_cookies).union(third(request_domains, "request domain"))


def cookie_stats_by_topic(records: Sequence[CrawlRecord]) -> dict[str, Summary]:
    """Distribution of per-visit third-party cookie counts, per topic."""
    per_topic: dict[str, list[int]] = {}
    for r in records:
        per_topic.setdefault(r.topic, []).append(len(r.tp_cookies))
    return {topic: summary(counts) for topic, counts in sorted(per_topic.items())}


# --- tracker categorization --------------------------------------------------

def _disconnect_entry(line: str) -> tuple[str, str]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise PipelineError("expected 'domain<TAB>category'")
    domain, category = _clean_domain(parts[0]), parts[1].strip()
    if category not in CATEGORIES:
        raise PipelineError(f"unknown category {category!r}")
    return domain, category


def load_disconnect_file(path: str | Path) -> dict[str, str]:
    """Read the canonical two-column (domain, category) TSV as {tracker domain: category};
    the first entry for a domain wins."""
    out: dict[str, str] = {}
    for domain, category in read_lines(path, _disconnect_entry):
        out.setdefault(domain, category)
    return out


def categorize(tp_domain: str, dl: Mapping[str, str], suffixes: frozenset[str] | None = None) -> str:
    """Category of a third-party domain; subdomains inherit parent entries."""
    host = _clean_domain(tp_domain)
    reg = registrable_domain(host, suffixes)
    probe = host
    while True:
        category = dl.get(probe)
        if category is not None:
            return category
        if probe == reg or "." not in probe:
            return UNKNOWN
        probe = probe.split(".", 1)[1]


def category_breakdown(
    records: Sequence[CrawlRecord],
    dl: Mapping[str, str],
    sites: Collection[str] | None = None,
    suffixes: frozenset[str] | None = None,
) -> dict[str, dict[str, int]]:
    """Distinct third parties per category for each topic, categorized under *suffixes*.

    Pass *sites* to restrict the statistic to a subset of sites (e.g. the
    most trafficked ones).  All five category keys are always present.
    """
    tps_by_topic: dict[str, set[str]] = {}
    for r in records:
        if sites is not None and r.site not in sites:
            continue
        tps_by_topic.setdefault(r.topic, set()).update(r.third_parties)
    out: dict[str, dict[str, int]] = {}
    for topic, tps in sorted(tps_by_topic.items()):
        counts = dict.fromkeys(CATEGORIES + (UNKNOWN,), 0)
        for tp in tps:
            counts[categorize(tp, dl, suffixes)] += 1
        out[topic] = counts
    return out


NEW_MARKER = "new"


def percent_diff_vs_homepage(
    breakdown: Mapping[str, Mapping[str, int]],
) -> dict[str, dict[str, float | str]]:
    """Per-topic percent change of category counts relative to the homepage row.

    A category absent on homepages but present on a topic has no base to
    divide by and is reported as the string "new".
    """
    if HOMEPAGE_TOPIC not in breakdown:
        raise ValueError("breakdown lacks a homepage row")
    home = breakdown[HOMEPAGE_TOPIC]
    out: dict[str, dict[str, float | str]] = {}
    for topic, counts in breakdown.items():
        if topic == HOMEPAGE_TOPIC:
            continue
        row: dict[str, float | str] = {}
        for category in CATEGORIES + (UNKNOWN,):
            base = home.get(category, 0)
            value = counts.get(category, 0)
            if base == 0:
                row[category] = NEW_MARKER if value > 0 else 0.0
            else:
                row[category] = 100.0 * (value - base) / base
        out[topic] = row
    return out


# --- the topic x third-party matrix ------------------------------------------

@dataclass(frozen=True, eq=False)
class TrackingMatrix:
    """Binary presence of each third party on each topic's pages."""

    topics: tuple[str, ...]
    third_parties: tuple[str, ...]
    cells: np.ndarray

    def to_dict(self) -> dict:
        return {
            "topics": list(self.topics),
            "third_parties": list(self.third_parties),
            "cells": np.asarray(self.cells, dtype=int).tolist(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrackingMatrix":
        """The to_dict() shape: distinct string labels and non-negative integer cells."""
        topics = tuple(checked(obj["topics"], str, "topics", each=True))
        tps = tuple(checked(obj["third_parties"], str, "third_parties", each=True))
        if len(set(topics)) < len(topics) or len(set(tps)) < len(tps):
            raise ValueError("a topic or third-party label repeats")
        rows = checked(obj["cells"], list, "cells", each=True)
        cells = np.asarray([checked(row, int, "a cells row", each=True) for row in rows], dtype=int)
        if cells.shape != (len(topics), len(tps)):
            raise ValueError("cells shape does not match labels")
        if (cells < 0).any():
            raise ValueError("cells must be non-negative")
        return cls(topics, tps, cells)


def build_tracking_matrix(
    records: Sequence[CrawlRecord],
    topics: Collection[str] | None = None,
) -> TrackingMatrix:
    """Rows are topics (lexicographic), columns third parties (lexicographic).

    Configured topics without records appear as zero rows, so matrices from
    different crawls line up.
    """
    row_labels = {r.topic for r in records}
    if topics is not None:
        row_labels.update(topics)
    tps: set[str] = set()
    presence: dict[str, set[str]] = {t: set() for t in row_labels}
    for r in records:
        tps.update(r.third_parties)
        presence[r.topic].update(r.third_parties)
    topic_order = tuple(sorted(row_labels))
    tp_order = tuple(sorted(tps))
    cells = np.zeros((len(topic_order), len(tp_order)), dtype=int)
    tp_index = {tp: j for j, tp in enumerate(tp_order)}
    for i, topic in enumerate(topic_order):
        for tp in presence.get(topic, ()):
            cells[i, tp_index[tp]] = 1
    return TrackingMatrix(topic_order, tp_order, cells)


def top_tp_coverage(
    records: Sequence[CrawlRecord],
    k: int,
) -> list[tuple[str, dict[str, float]]]:
    """Per-topic page coverage of the k third parties setting the most cookies.

    Coverage of a third party on a topic is the percentage of that topic's
    visits where the third party appears.  Ranking ties break by name.
    """
    if k < 1:
        raise ValueError("k must be positive")
    cookie_counts = Counter(tp for r in records for tp in r.tp_cookies)
    visits = sorted(Counter(r.topic for r in records).items())
    present = Counter((tp, r.topic) for r in records for tp in r.third_parties)
    pool = {tp for tp, _ in present}
    ranked = sorted(pool, key=lambda tp: (-cookie_counts[tp], tp))[:k]
    return [
        (tp, {topic: 100.0 * present[tp, topic] / n for topic, n in visits})
        for tp in ranked
    ]


def preferential_attachment(m: TrackingMatrix) -> list[tuple[str, str]]:
    """Third parties present in exactly one topic row, homepage excluded.

    These are trackers whose interest is the audience of one section, not
    the site in general; the homepage row says nothing about that, so it
    does not participate in the count.
    """
    topic_rows = [i for i, t in enumerate(m.topics) if t != HOMEPAGE_TOPIC]
    pairs: list[tuple[str, str]] = []
    for j, tp in enumerate(m.third_parties):
        col = m.cells[topic_rows, j] if topic_rows else np.zeros(0, dtype=int)
        if int(col.sum()) == 1:
            row = topic_rows[int(np.argmax(col))]
            pairs.append((tp, m.topics[row]))
    return sorted(pairs)
