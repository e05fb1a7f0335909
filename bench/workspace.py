"""Seeded synthetic workspace: every input the pipeline reads, plus the truth.

generate(workload, seed, root) writes, under root:

  urls.txt          homepage list (http://siteNNNN.example/)
  vectors.txt       word2vec text file
  crawl_log.jsonl   crawl log, one visit per line
  disconnect.tsv    tracker list
  run.conf          pipeline config naming the files above
  snapshots/        prebuilt snapshot store (workloads that read the store)
  pages.json        URL -> body map for the loopback server (cold-fetch)
  truth.json        planted answers; never named in run.conf

The same (workload, seed) always gives the same bytes.  Sizes are fixed per
workload, so seeds change the data but not the amount of work.

Embedding geometry: the first len(topics) coordinates are topic axes.  Topic
keyword tokens and planted near-keyword section words lie on their topic's
axis (cosine to the topic embedding above 0.9); every other word used in a
URL has zero topic coordinates, so its cosine to any topic is 0.  Planted
sections are therefore classified by construction, far from the 0.4 cutoff,
and section_recall / section_precision test the mining stages, not the
random draw.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+")
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"

# structural pages every site links to; none is a dictionary keyword
GENERIC_PAGES = (
    "about-us", "contact-us", "careers", "advertise-with-us", "epaper",
    "sitemap", "subscribe", "login", "newsletters", "archives", "faq",
    "corrections", "feedback", "authors",
)

CATEGORIES = ("Advertising", "Content & Social", "Analytics", "Fingerprinting")


@dataclass(frozen=True)
class Profile:
    sites: int
    topics_per_site: int
    articles: int            # article links per homepage
    externals: int           # external links per homepage
    article_anchor_words: tuple[int, int]
    filler_vocab: int        # extra embedding rows no URL uses
    dim: int
    section_words: int       # words of body text per section page
    crawls: int              # crawl passes over every logged page
    log_sites: int           # sites whose homepage and section pages are logged
    trackers: int
    trackers_per_visit: tuple[int, int]
    n_range: str
    k_range: str
    restarts: int            # k-means restarts and gap reference sets
    served: bool             # pages come from the loopback server
    missing_homepages: int = 0   # served: homepages answering 404
    missing_sections: int = 0    # served: section pages answering 404
    flaky_share: float = 0.0     # served: share of pages answering one 503 first


PROFILES = {
    # URL mining and embedding loads dominate: many long link lists, a large
    # embedding vocabulary, a short crawl log over a few sites, short sections
    "links": Profile(
        sites=32, topics_per_site=6, articles=300, externals=16,
        article_anchor_words=(0, 0), filler_vocab=42000, dim=48,
        section_words=8, crawls=1, log_sites=4, trackers=60,
        trackers_per_visit=(6, 12), n_range="2..2", k_range="2..2", restarts=3, served=False,
    ),
    # tracking, content and clustering dominate: few short homepages, a long
    # crawl log with long-tail topic-dependent trackers, long section pages
    "analytics": Profile(
        sites=16, topics_per_site=8, articles=60, externals=4,
        article_anchor_words=(2, 4), filler_vocab=2000, dim=32,
        section_words=600, crawls=3, log_sites=16, trackers=400,
        trackers_per_visit=(12, 30), n_range="2..3", k_range="2..7", restarts=8, served=False,
    ),
    # fetching dominates: an empty snapshot store filled from a loopback
    # server with a fixed per-response delay, planted 404s and one-shot 503s
    "cold-fetch": Profile(
        sites=36, topics_per_site=6, articles=60, externals=4,
        article_anchor_words=(1, 3), filler_vocab=2000, dim=32,
        section_words=60, crawls=1, log_sites=12, trackers=60,
        trackers_per_visit=(6, 12), n_range="2..2", k_range="2..3", restarts=3, served=True,
        missing_homepages=2, missing_sections=8, flaky_share=0.1,
    ),
}


class _Words:
    """Unique pronounceable pseudo-words, none colliding with *reserved*."""

    def __init__(self, rng: random.Random, reserved: set[str]) -> None:
        self._rng = rng
        self._used = set(reserved)

    def take(self, n: int, syllables: tuple[int, int] = (2, 4)) -> list[str]:
        out = []
        while len(out) < n:
            w = "".join(
                self._rng.choice(_CONSONANTS) + self._rng.choice(_VOWELS)
                for _ in range(self._rng.randint(*syllables))
            )
            if w not in self._used:
                self._used.add(w)
                out.append(w)
        return out


def _tokens(slug: str) -> list[str]:
    return _TOKEN_RE.findall(slug.lower())


def _load_dictionary(src: Path) -> dict:
    path = src / "topicpages" / "data" / "topical_dictionary.json"
    return json.loads(path.read_text("utf-8"))


def _load_stopwords(src: Path) -> set[str]:
    path = src / "topicpages" / "data" / "stopwords_english.txt"
    return set(path.read_text("utf-8").split())


def _page(title: str, body: str) -> str:
    return (
        f"<html><head><title>{title}</title>"
        "<style>body{margin:0}</style><script>var ga=1;</script></head>"
        f"<body>{body}</body></html>"
    )


def generate(workload: str, seed: int, root: Path, src: Path) -> dict:
    """Write the workspace for (workload, seed) under *root*; return its summary.

    *src* is the checkout's source directory, read for the bundled topical
    dictionary and stopword list that the pipeline itself uses.
    """
    p = PROFILES[workload]
    rng = random.Random(f"{workload}:{seed}")
    nprng = np.random.default_rng(rng.getrandbits(64))
    root.mkdir(parents=True, exist_ok=True)

    dictionary = _load_dictionary(src)
    stopwords = _load_stopwords(src)
    topics = sorted(dictionary["topics"])
    keywords = {t: list(dictionary["topics"][t]) for t in topics}
    reserved = set(stopwords) | set(dictionary.get("generic_subpaths", ()))
    for kws in keywords.values():
        for kw in kws:
            reserved.add(kw)
            reserved.update(_tokens(kw))
    for g in GENERIC_PAGES:
        reserved.update(_tokens(g))
    words = _Words(rng, reserved)

    near = {t: words.take(6) for t in topics}          # near-keyword section words
    article_vocab = words.take(1500, (2, 3))
    anchor_vocab = words.take(120, (2, 3))
    common_text = words.take(400, (1, 3))
    topic_text = {t: words.take(120, (2, 4)) for t in topics}
    filler = words.take(p.filler_vocab, (3, 5))

    # --- embeddings --------------------------------------------------------
    n_topics = len(topics)
    dim = max(p.dim, n_topics + 8)
    axis = {t: i for i, t in enumerate(topics)}
    topic_tokens: dict[str, set[str]] = {}
    for t in topics:
        for kw in keywords[t]:
            for tok in _tokens(kw):
                if tok not in stopwords:
                    topic_tokens.setdefault(tok, set()).add(t)
    rows: list[tuple[str, np.ndarray]] = []
    for tok in sorted(topic_tokens):
        v = np.zeros(dim)
        for t in topic_tokens[tok]:
            v[axis[t]] += 1.0 / len(topic_tokens[tok])
        v[n_topics:] = nprng.normal(0.0, 0.05, dim - n_topics)
        rows.append((tok, v))
    for t in topics:
        for w in near[t]:
            v = np.zeros(dim)
            v[axis[t]] = 1.0
            v[n_topics:] = nprng.normal(0.0, 0.1, dim - n_topics)
            rows.append((w, v))
    off_topic = (
        [tok for g in GENERIC_PAGES for tok in _tokens(g) if tok not in stopwords]
        + article_vocab
        + anchor_vocab
    )
    for w in sorted(set(off_topic)):
        v = np.zeros(dim)
        v[n_topics:] = nprng.normal(0.0, 1.0, dim - n_topics)
        rows.append((w, v))
    filler_vectors = nprng.normal(0.0, 0.5, (len(filler), dim))
    rows.extend(zip(filler, filler_vectors))
    rng.shuffle(rows)
    fmt = " ".join(["%.5f"] * dim)
    with open(root / "vectors.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {dim}\n")
        fh.writelines(f"{tok} {fmt % tuple(vec)}\n" for tok, vec in rows)

    # --- sites, homepages and section pages ----------------------------------
    pages: dict[str, str] = {}
    truth: dict[str, dict[str, list[str]]] = {}
    homepages: list[str] = []
    site_topics: dict[str, list[str]] = {}
    for i in range(p.sites):
        domain = f"site{i:04d}.example"
        home = f"http://{domain}/"
        homepages.append(home)
        chosen = sorted(rng.sample(topics, p.topics_per_site))
        site_topics[domain] = chosen
        sections: list[tuple[str, str, str]] = []  # (topic, path, anchor)
        truth[domain] = {}
        for t in chosen:
            if rng.random() < 0.6:
                primary = rng.choice(keywords[t])
            else:
                a, b = rng.sample(near[t], 2)
                primary = a if rng.random() < 0.5 else f"{a}-{b}"
            paths = [f"/{primary}/"]
            if rng.random() < 0.4:
                paths.append(f"/{primary}/{rng.choice(near[t])}/")
            if rng.random() < 0.2:
                paths.append(f"/{rng.choice(sorted(dictionary['generic_subpaths']))}/{rng.choice(near[t])}/")
            truth[domain][t] = [f"http://{domain}{path}" for path in paths]
            sections.extend((t, path, primary.replace("-", " ")) for path in paths)

        links: list[str] = []
        for t, path, anchor in sections:
            href = path if rng.random() < 0.7 else f"http://{domain}{path}"
            if rng.random() < 0.1:
                href += "?ref=nav"
            links.append(f'<a href="{href}">{anchor}</a>')
        for g in GENERIC_PAGES:
            links.append(f'<a href="/{g}/">{g.replace("-", " ")}</a>')
        for j in range(p.articles):
            section = rng.choice(sections)[1].strip("/").split("/")[0]
            slug = "-".join(rng.choice(article_vocab) for _ in range(rng.randint(9, 11)))
            href = f"/{section}/{slug}-{rng.randrange(10**6, 10**7)}/"
            if rng.random() < 0.15:
                href = f"http://{domain}{href}#comments"
            text = " ".join(
                rng.choice(anchor_vocab) for _ in range(rng.randint(*p.article_anchor_words))
            )
            links.append(f'<a href="{href}">{text}</a>')
        for j in range(p.externals):
            ext = f"partner{rng.randrange(200):03d}.example"
            links.append(f'<a href="https://www.{ext}/{rng.choice(article_vocab)}/">partner</a>')
        links.extend(
            [
                '<a href="#top">top</a>',
                '<a href="javascript:void(0)">menu</a>',
                f'<a href="mailto:desk@{domain}">mail</a>',
                '<a href="http://[broken/">broken</a>',
                '<a href="ftp://files.example/">files</a>',
            ]
        )
        rng.shuffle(links)
        pages[home] = _page(domain, "<nav>" + "".join(links) + "</nav>")

        for t, path, anchor in sections:
            body_words = [
                rng.choice(topic_text[t]) if rng.random() < 0.45
                else rng.choice(common_text) if rng.random() < 0.7
                else rng.choice(("the", "and", "of", "in", "to", "a", "is"))
                for _ in range(p.section_words)
            ]
            chunks = [" ".join(body_words[k:k + 40]) for k in range(0, len(body_words), 40)]
            body = f"<h1>{anchor}</h1>" + "".join(f"<p>{c}</p>" for c in chunks)
            pages[f"http://{domain}{path}"] = _page(anchor, body)

    (root / "urls.txt").write_text("".join(h + "\n" for h in homepages), "utf-8")

    # --- crawl log and tracker list ------------------------------------------
    trackers = [f"{w}.example" for w in words.take(p.trackers, (2, 3))]
    base = 1.0 / np.arange(1, p.trackers + 1) ** 1.1
    head = min(8, p.trackers)
    weights: dict[str, np.ndarray] = {}
    for t in ["homepage"] + topics:
        order = list(range(head, p.trackers))
        rng.shuffle(order)
        w = base.copy()
        w[head:] = base[head:][np.argsort(order)]
        weights[t] = w / w.sum()
    with open(root / "crawl_log.jsonl", "w", encoding="utf-8") as fh:
        for crawl in range(p.crawls):
            for domain, chosen in list(site_topics.items())[: p.log_sites]:
                visits = [("homepage", f"http://{domain}/")]
                visits += [(t, truth[domain][t][0]) for t in chosen]
                for topic, url in visits:
                    m = rng.randint(*p.trackers_per_visit)
                    picked = nprng.choice(p.trackers, size=m, replace=False, p=weights[topic])
                    cookies = [{"name": "sid", "cookie_domain": f".{domain}", "is_third_party": False}]
                    requests = [{"request_domain": f"cdn.{domain}", "is_third_party": False}]
                    for j in sorted(int(x) for x in picked):
                        tp = trackers[j]
                        requests.append({"request_domain": f"px.{tp}", "is_third_party": True})
                        if rng.random() < 0.6:
                            cookies.append(
                                {"name": f"c{j}", "cookie_domain": f".{tp}", "is_third_party": True}
                            )
                    fh.write(json.dumps({
                        "page_url": url, "site": domain, "topic": topic,
                        "crawl_id": f"crawl{crawl}", "cookies": cookies,
                        "requests": requests, "redirects": rng.randint(0, 2),
                    }, sort_keys=True) + "\n")
    with open(root / "disconnect.tsv", "w", encoding="utf-8") as fh:
        for j, tp in enumerate(trackers):
            if rng.random() < 0.75:
                fh.write(f"{tp}\t{CATEGORIES[j % len(CATEGORIES)]}\n")

    # --- page store and failure plan ------------------------------------------
    missing: list[str] = []
    flaky: list[str] = []
    if p.served:
        section_urls = sorted(set(pages) - set(homepages))
        missing = sorted(rng.sample(homepages, p.missing_homepages)) + sorted(
            rng.sample(section_urls, p.missing_sections)
        )
        served = sorted(set(pages) - set(missing))
        flaky = sorted(rng.sample(served, round(p.flaky_share * len(served))))
        (root / "pages.json").write_text(json.dumps(pages, sort_keys=True), "utf-8")
    else:
        _write_store(pages, root / "snapshots", src)

    truth_doc = {"sections": truth, "missing": missing, "flaky": flaky}
    (root / "truth.json").write_text(json.dumps(truth_doc, sort_keys=True), "utf-8")

    conf = {
        "urls": root / "urls.txt",
        "snapshots": root / "snapshots",
        "embeddings": root / "vectors.txt",
        "crawl_logs": root / "crawl_log.jsonl",
        "disconnect": root / "disconnect.tsv",
        "fallback_defaults": "true",
        "top_sites": ",".join(sorted(site_topics)[:5]),
        "n_range": p.n_range,
        "k_range": p.k_range,
        "restarts": p.restarts,
        "b_refs": p.restarts,
        # fetch concurrency never above the core count
        "parallel": min(2, os.cpu_count() or 1),
    }
    (root / "run.conf").write_text("".join(f'{k} = "{v}"\n' for k, v in conf.items()), "utf-8")
    return {"homepages": len(homepages), "pages": len(pages), "vocab": len(rows)}


def _write_store(pages: dict[str, str], directory: Path, src: Path) -> None:
    """Prebuild the snapshot store with the program's own writer."""
    import sys
    from datetime import datetime, timezone

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from topicpages.fetch import FetchResult, save_snapshots
    from topicpages.urls import normalize

    stamp = datetime(2024, 1, 1, tzinfo=timezone.utc)
    save_snapshots(
        [
            FetchResult(url=normalize(u), status=200, body=b, fetched_at=stamp, error=None)
            for u, b in sorted(pages.items())
        ],
        directory,
    )
