"""Run the whole pipeline end to end against a prebuilt snapshot store, so
the demo works offline and produces the same artifacts every time.  The
workspace is laid out in a temp directory: homepage list, page snapshots, a
crawl log, a dictionary and an embedding file.

Run with:  python3 demos/07_full_pipeline.py
"""

import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from topicpages import normalize, run_pipeline, save_snapshots
from topicpages.config import PipelineConfig
from topicpages.fetch import FetchResult

HOMEPAGE = """<html><body><nav>
<a href="/sports/">Sports</a>
<a href="/sports/cricket/">Cricket</a>
<a href="/politics/">Politics</a>
<a href="/about-us/">About us</a>
<a href="/news/cabinet-approves-new-highway-corridor-after-long-review-8912345/">Top story</a>
<a href="https://partner-site.example/deals/">Partner deals</a>
</nav></body></html>"""

SECTIONS = {
    "https://daily.example/sports/": "<html><body><p>Scores, fixtures and match "
    "reports from every ground, updated through the weekend.</p></body></html>",
    "https://daily.example/sports/cricket/": "<html><body><p>Cricket innings "
    "summaries and bowling figures from the tour matches.</p></body></html>",
    "https://daily.example/politics/": "<html><body><p>Assembly debates, cabinet "
    "decisions and the campaign trail, covered daily.</p></body></html>",
}

DICTIONARY = json.dumps(
    {
        "topics": {"sports": ["sports", "cricket"], "politics": ["politics", "election"]},
        "generic_subpaths": ["topics"],
        "other_name": "other",
    }
)

VECTORS = "4 2\nsports 1 0\ncricket 0.8 0.6\npolitics 0 1\nelection 0.1 0.9\n"

CRAWL_ROWS = [
    {
        "page_url": "https://daily.example/",
        "site": "daily.example",
        "topic": "homepage",
        "crawl_id": "demo",
        "cookies": [{"name": "a", "cookie_domain": "ad-serve.example", "is_third_party": True}],
        "requests": [],
        "redirects": 0,
    },
    {
        "page_url": "https://daily.example/sports/",
        "site": "daily.example",
        "topic": "sports",
        "crawl_id": "demo",
        "cookies": [
            {"name": "a", "cookie_domain": "ad-serve.example", "is_third_party": True},
            {"name": "p", "cookie_domain": "pixel-track.example", "is_third_party": True},
        ],
        "requests": [],
        "redirects": 0,
    },
    {
        "page_url": "https://daily.example/politics/",
        "site": "daily.example",
        "topic": "politics",
        "crawl_id": "demo",
        "cookies": [{"name": "a", "cookie_domain": "ad-serve.example", "is_third_party": True}],
        "requests": [],
        "redirects": 0,
    },
]

DISCONNECT_TSV = "ad-serve.example\tAdvertising\npixel-track.example\tAnalytics\n"

SNAPSHOT_TIME = datetime(2024, 3, 17, 12, 0, 0, tzinfo=timezone.utc)


def build_workspace(root: Path) -> PipelineConfig:
    root.mkdir(parents=True, exist_ok=True)
    (root / "urls.txt").write_text("https://daily.example/\n", "utf-8")
    (root / "dictionary.json").write_text(DICTIONARY, "utf-8")
    (root / "vectors.txt").write_text(VECTORS, "utf-8")
    (root / "disconnect.tsv").write_text(DISCONNECT_TSV, "utf-8")
    with open(root / "crawl_log.jsonl", "w", encoding="utf-8") as fh:
        for row in CRAWL_ROWS:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    pages = {"https://daily.example/": HOMEPAGE, **SECTIONS}
    results = [
        FetchResult(url=normalize(u), status=200, body=body, fetched_at=SNAPSHOT_TIME, error=None)
        for u, body in pages.items()
    ]
    save_snapshots(results, root / "snapshots")

    return PipelineConfig(
        urls=str(root / "urls.txt"),
        snapshots=str(root / "snapshots"),
        dictionary=str(root / "dictionary.json"),
        embeddings=str(root / "vectors.txt"),
        disconnect=str(root / "disconnect.tsv"),
        crawl_logs=str(root / "crawl_log.jsonl"),
        out_dir=str(root / "out"),
        fallback_defaults=True,  # too few URLs here to fit a histogram
        pca_n=2,
        k=2,
        n_range="1..2",
        k_range="2..3",
        restarts=4,
        b_refs=4,
        top_tp=3,
    )


def relative(value, root: Path):
    """A summary value with each path under *root* written relative to it, so
    the output is the same from run to run."""
    if isinstance(value, dict):
        return {key: relative(item, root) for key, item in value.items()}
    if isinstance(value, str) and Path(value).is_relative_to(root):
        return str(Path(value).relative_to(root))
    return value


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ws"
        cfg = build_workspace(root)
        code, result = run_pipeline(cfg)
        print(f"pipeline exit code: {code}")
        for stage, info in result.items():
            print(f"  {stage}: {relative(info, root)}")

        out = Path(cfg.out_dir)
        best = [json.loads(l) for l in (out / "best.jsonl").read_text().splitlines()]
        print("\nbest subpage per topic:")
        for row in best:
            print(f"  {row['topic']:10} {row['url']}")

        manifest = json.loads((out / "manifest.json").read_text())
        print(f"\nmanifest lists {len(manifest['artifacts'])} artifacts:")
        for name in sorted(manifest["artifacts"]):
            print(f"  {name}")


if __name__ == "__main__":
    main()
