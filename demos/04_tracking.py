"""Analyze third-party presence across topical subpages: the topic-by-tracker
matrix, trackers attached to exactly one topic, and category breakdowns
against a Disconnect-style service list.

Run with:  python3 demos/04_tracking.py
"""

import json
import tempfile
from pathlib import Path

from topicpages import (
    build_tracking_matrix,
    category_breakdown,
    cookie_stats_by_topic,
    load_disconnect_file,
    percent_diff_vs_homepage,
    preferential_attachment,
    read_crawl_log,
    top_tp_coverage,
)

DISCONNECT_TSV = """\
ad-serve.example\tAdvertising
pixel-track.example\tAnalytics
social-widgets.example\tContent & Social
"""


def visit(site, topic, path, cookie_domains):
    return {
        "page_url": f"https://{site}/{path}",
        "site": site,
        "topic": topic,
        "crawl_id": "demo",
        "cookies": [
            {"name": f"c{i}", "cookie_domain": d, "is_third_party": True}
            for i, d in enumerate(cookie_domains)
        ],
        "requests": [],
        "redirects": 0,
    }


ROWS = [
    visit("daily.example", "homepage", "", ["ad-serve.example", "pixel-track.example"]),
    visit("daily.example", "sports", "sports/", ["ad-serve.example", "niche-sports-ads.example"]),
    visit("daily.example", "politics", "politics/", ["ad-serve.example"]),
    visit("daily.example", "business", "business/", ["pixel-track.example", "social-widgets.example"]),
    visit("weekly.example", "homepage", "", ["ad-serve.example"]),
    visit("weekly.example", "sports", "cricket/", ["ad-serve.example", "niche-sports-ads.example"]),
    visit("weekly.example", "politics", "election/", ["ad-serve.example", "pixel-track.example"]),
]


def main() -> None:
    # the crawler writes a JSON Lines log; the service list is a TSV file
    with tempfile.TemporaryDirectory() as tmp:
        crawl_log = Path(tmp) / "crawl_log.jsonl"
        crawl_log.write_text("".join(json.dumps(r) + "\n" for r in ROWS), "utf-8")
        disconnect = Path(tmp) / "disconnect.tsv"
        disconnect.write_text(DISCONNECT_TSV, "utf-8")
        records = read_crawl_log(crawl_log)
        dl = load_disconnect_file(disconnect)
    print(f"ingested {len(records)} crawl records")

    matrix = build_tracking_matrix(records)
    print(f"\ntracking matrix ({len(matrix.topics)} topics x {len(matrix.third_parties)} third parties):")
    width = max(len(t) for t in matrix.topics)
    for topic, row in zip(matrix.topics, matrix.cells):
        print(f"  {topic:{width}}  {' '.join(str(int(v)) for v in row)}")
    print("  columns:", ", ".join(matrix.third_parties))

    print("\ntrackers seen on exactly one topic (homepage aside):")
    for domain, topic in preferential_attachment(matrix):
        print(f"  {domain} -> {topic}")

    breakdown = category_breakdown(records, dl)
    print("\ncategory counts per topic:")
    for topic, counts in sorted(breakdown.items()):
        print(f"  {topic:10} {counts}")

    print("\npercent difference vs homepage:")
    for topic, diffs in sorted(percent_diff_vs_homepage(breakdown).items()):
        print(f"  {topic:10} {diffs}")

    print("\ncookie count summary per topic:")
    for topic, s in sorted(cookie_stats_by_topic(records).items()):
        print(f"  {topic:10} median={s.median:.1f} mean={s.mean:.2f} max={s.max}")

    print("\ncoverage of the top trackers (percent of pages per topic):")
    for domain, coverage in top_tp_coverage(records, k=2):
        print(f"  {domain}: {coverage}")


if __name__ == "__main__":
    main()
