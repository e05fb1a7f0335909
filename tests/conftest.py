"""Shared fixtures: toy dictionaries, embeddings, and a tiny three-site
workspace with a prebuilt snapshot store for end-to-end runs."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

from topicpages import load_dictionary_file, load_embeddings_file, normalize
from topicpages.fetch import FetchResult, save_snapshots

DATA = Path(__file__).parent / "data"

FROZEN_TIME = datetime(2024, 3, 17, 12, 0, 0, tzinfo=timezone.utc)


def text_file(directory: str | Path, text: str, name: str = "input.txt") -> Path:
    """A file *name* in *directory* that holds *text* as UTF-8, its line ends as given."""
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.fixture(scope="session")
def toy_dictionary():
    return load_dictionary_file(DATA / "toy_dictionary.json")


@pytest.fixture(scope="session")
def toy_model():
    return load_embeddings_file(DATA / "toy_vectors.txt")


@pytest.fixture(scope="session")
def selection_dictionary():
    return load_dictionary_file(DATA / "selection_dictionary.json")


@pytest.fixture(scope="session")
def selection_model():
    return load_embeddings_file(DATA / "selection_vectors.txt")


def snapshot_result(url: str, body: str, status: int = 200) -> FetchResult:
    return FetchResult(
        url=normalize(url), status=status, body=body, fetched_at=FROZEN_TIME, error=None
    )


# --- the three-site end-to-end workspace -------------------------------------

ALPHA_HOME = """<html><head><title>Alpha News</title></head><body><nav>
<a href="/sports/">Sports</a>
<a href="https://alpha-news.example/sports/cricket/">Cricket</a>
<a href="/politics/">Politics</a>
<a href="/about-us/">About us</a>
<a href="/news/politics/parliament-passes-landmark-education-reform-bill-after-marathon-debate-9834712/">Top story</a>
<a href="https://partner-site.example/deals/">Partner deals</a>
<a href="mailto:desk@alpha-news.example">Write to us</a>
<a href="javascript:void(0)">Menu</a>
<a href="#top">Back to top</a>
<a href="/sports/">Sports again</a>
</nav></body></html>"""

BETA_HOME = """<html><head><title>Beta Daily</title></head><body>
<ul>
<li><a href="/cricket/">Cricket</a></li>
<li><a href="/business/">Business</a></li>
<li><a href="/contact/">Contact</a></li>
<li><a href="/topics/election/">Election coverage</a></li>
<li><a href="https://social-widgets.example/share">Share</a></li>
</ul></body></html>"""

GAMMA_HOME = """<html><body>
<div class="menu">
<a href="/football/">Football</a>
<a href="/economy/">Economy</a>
<a href="/quiz/">Daily quiz</a>
<a href="weather/">Weather</a>
</div></body></html>"""

SECTION_PAGES = {
    "https://alpha-news.example/sports/": (
        "<html><body><h1>Sports desk</h1><p>The sports desk follows the season "
        "with reports from every ground and the scores that matter to fans.</p></body></html>"
    ),
    "https://alpha-news.example/politics/": (
        "<html><body><h1>Politics</h1><p>Coverage of the assembly, the cabinet and "
        "the campaign trail, with analysis of every vote in the house.</p></body></html>"
    ),
    "https://alpha-news.example/sports/cricket/": (
        "<html><body><p>Cricket scores and match reports from the league, with "
        "overs and innings broken down for the weekend fixtures.</p></body></html>"
    ),
    "https://beta-daily.example/cricket/": (
        "<html><body><p>The cricket page of the daily, carrying the innings "
        "summaries and the bowling figures from every tour match.</p></body></html>"
    ),
    "https://beta-daily.example/business/": (
        "<html><body><p>Business and markets from the trading floor, with the "
        "index moves and the earnings that shaped the day for investors.</p></body></html>"
    ),
    "https://beta-daily.example/topics/election/": (
        "<html><body><p>The election desk tracks the constituencies and the "
        "polling numbers as the campaign enters its final week.</p></body></html>"
    ),
    "https://gamma-post.example/football/": (
        "<html><body><p>Football transfers and fixtures, with the table standings "
        "and the manager interviews after the derby.</p></body></html>"
    ),
    "https://gamma-post.example/economy/": (
        "<html><body><p>The economy section explains the budget, the inflation "
        "numbers and what the central bank decided this quarter.</p></body></html>"
    ),
}

E2E_HOMEPAGES = {
    "https://alpha-news.example/": ALPHA_HOME,
    "https://beta-daily.example/": BETA_HOME,
    "https://gamma-post.example/": GAMMA_HOME,
}


def _e2e_crawl_rows() -> list[dict]:
    def visit(site, topic, path, cookie_domains, request_domains=()):
        return {
            "page_url": f"https://{site}/{path}",
            "site": site,
            "topic": topic,
            "crawl_id": "e2e",
            "cookies": [
                {"name": f"c{i}", "cookie_domain": d, "is_third_party": True}
                for i, d in enumerate(cookie_domains)
            ],
            "requests": [{"request_domain": d, "is_third_party": True} for d in request_domains],
            "redirects": 0,
        }

    A, P, S, M = (
        "ad-serve.example",
        "pixel-track.example",
        "social-widgets.example",
        "mystery-beacon.example",
    )
    return [
        visit("alpha-news.example", "homepage", "", [A, P]),
        visit("beta-daily.example", "homepage", "", [A], [S]),
        visit("gamma-post.example", "homepage", "", [A, P, M]),
        visit("alpha-news.example", "sports", "sports/", [A, P]),
        visit("beta-daily.example", "sports", "cricket/", [A, P]),
        visit("gamma-post.example", "sports", "football/", [A, P, M]),
        visit("alpha-news.example", "politics", "politics/", [A]),
        visit("beta-daily.example", "politics", "topics/election/", [A]),
        visit("beta-daily.example", "business", "business/", [P, S]),
        visit("gamma-post.example", "business", "economy/", [P, S]),
    ]


def build_e2e_workspace(root: Path) -> Path:
    """Lay out a complete offline workspace under *root*; returns the config path.

    The snapshot store is prebuilt with every homepage and section page, so
    a pipeline run fetches nothing and is fully deterministic.
    """
    root.mkdir(parents=True, exist_ok=True)
    (root / "urls.txt").write_text("".join(u + "\n" for u in sorted(E2E_HOMEPAGES)), "utf-8")
    results = [snapshot_result(u, body) for u, body in E2E_HOMEPAGES.items()]
    results += [snapshot_result(u, body) for u, body in SECTION_PAGES.items()]
    save_snapshots(results, root / "snapshots")
    with open(root / "crawl_log.jsonl", "w", encoding="utf-8") as fh:
        for row in _e2e_crawl_rows():
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    config = root / "run.toml"
    config.write_text(
        "\n".join(
            [
                f'urls = "{root / "urls.txt"}"',
                f'snapshots = "{root / "snapshots"}"',
                f'dictionary = "{DATA / "toy_dictionary.json"}"',
                f'embeddings = "{DATA / "toy_vectors.txt"}"',
                f'disconnect = "{DATA / "disconnect.tsv"}"',
                f'crawl_logs = "{root / "crawl_log.jsonl"}"',
                f'out_dir = "{root / "out"}"',
                "seed = 42",
                "fallback_defaults = true",
                "pca_n = 2",
                "k = 2",
                'n_range = "1..3"',
                'k_range = "2..5"',
                "restarts = 4",
                "b_refs = 4",
                "top_tp = 3",
                "",
            ]
        ),
        "utf-8",
    )
    return config


@pytest.fixture()
def e2e_config(tmp_path):
    return build_e2e_workspace(tmp_path / "ws")
