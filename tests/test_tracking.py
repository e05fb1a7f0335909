import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topicpages import (
    TrackingMatrix,
    build_tracking_matrix,
    categorize,
    category_breakdown,
    cookie_stats_by_topic,
    load_disconnect_file,
    percent_diff_vs_homepage,
    preferential_attachment,
    read_crawl_log,
    top_tp_coverage,
)
import topicpages.tracking as tracking_mod
from topicpages.errors import MalformedRecord, UnknownTopic
from topicpages.stats import summary
from topicpages.tracking import UNKNOWN
from topicpages.urls import registrable_domain

from conftest import text_file

DATA = Path(__file__).parent / "data"

TOPICS = ("business", "entertainment", "politics", "sports")
TPS = (
    "ad-serve.example",
    "cdn-static.example",
    "fingerprint-js.example",
    "mystery-beacon.example",
    "niche-sports-ads.example",
    "pixel-track.example",
    "politics-poll-tracker.example",
    "social-widgets.example",
)


def raw_line(crawl_id):
    for line in (DATA / "crawl_log.jsonl").read_text("utf-8").splitlines():
        obj = json.loads(line)
        if obj["crawl_id"] == crawl_id:
            return obj
    raise KeyError(crawl_id)


@pytest.fixture(scope="module")
def records():
    return read_crawl_log(DATA / "crawl_log.jsonl", topics=TOPICS)


@pytest.fixture(scope="module")
def disconnect():
    return load_disconnect_file(DATA / "disconnect.tsv")


class TestIngest:
    def test_all_records_parsed(self, records):
        assert len(records) == 25
        assert records[0].crawl_id == "c01"
        assert records[0].redirects == 1

    def test_first_party_cookie_flag_overridden(self, records):
        # c01 ships a session cookie on www.alpha-news.example marked
        # third-party; resolution against the site must drop it
        c01 = records[0]
        assert c01.site == "alpha-news.example"
        assert c01.site not in c01.tp_cookies
        assert c01.site not in c01.third_parties
        assert c01.tp_cookies == ("ad-serve.example", "pixel-track.example")

    def test_third_party_cookie_flag_overridden(self, records):
        # c07's tracker cookie arrives marked first-party
        c07 = next(r for r in records if r.crawl_id == "c07")
        assert len(c07.tp_cookies) == len(raw_line("c07")["cookies"])
        assert c07.tp_cookies == ("niche-sports-ads.example",)

    def test_leading_dot_cookie_domain_cleaned(self, records):
        c02 = next(r for r in records if r.crawl_id == "c02")
        assert len(c02.tp_cookies) == 4
        assert all(not d.startswith(".") for d in c02.tp_cookies)

    def test_subdomain_collapses_to_registrable(self, records):
        c05 = next(r for r in records if r.crawl_id == "c05")
        assert "pixel-track.example" in c05.third_parties
        assert "trk.pixel-track.example" not in c05.third_parties

    def test_unknown_topic_rejected(self, tmp_path):
        line = json.dumps(
            {"page_url": "https://a.example/x/", "site": "a.example", "topic": "mystery"}
        )
        p = text_file(tmp_path, line + "\n")
        with pytest.raises(UnknownTopic, match=f"^{re.escape(str(p))}:1: "):
            read_crawl_log(p, topics=("sports",))

    def test_homepage_always_allowed(self, tmp_path):
        line = json.dumps(
            {"page_url": "https://a.example/", "site": "a.example", "topic": "homepage"}
        )
        assert read_crawl_log(text_file(tmp_path, line), topics=("sports",))[0].topic == "homepage"

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            json.dumps({"site": "a.example", "topic": "t"}),  # no page_url
            json.dumps({"page_url": "https://a.example/", "topic": "t"}),  # no site
            json.dumps(
                {
                    "page_url": "https://a.example/",
                    "site": "a.example",
                    "topic": "t",
                    "redirects": -1,
                }
            ),
            json.dumps(
                {
                    "page_url": "https://a.example/",
                    "site": "a.example",
                    "topic": "t",
                    "cookies": [{"name": "sid", "is_third_party": True}],
                }
            ),
            json.dumps(
                {
                    "page_url": "https://a.example/",
                    "site": "a.example",
                    "topic": "t",
                    "requests": [{"is_third_party": True}],
                }
            ),
        ],
    )
    def test_malformed_records(self, tmp_path, line):
        p = text_file(tmp_path, line + "\n")
        with pytest.raises(MalformedRecord, match=f"^{re.escape(str(p))}:1: "):
            read_crawl_log(p)

    def test_blank_lines_skipped(self, tmp_path):
        assert read_crawl_log(text_file(tmp_path, "\n  \n")) == []

    def test_each_cleaned_domain_resolved_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(host):
            calls.append(host)
            return registrable_domain(host)

        tracking_mod._registrable.cache_clear()
        monkeypatch.setattr(tracking_mod, "registrable_domain", counting)
        visit = {
            "page_url": "https://www.site.example/sports/",
            "site": "www.site.example",
            "topic": "sports",
            "cookies": [{"cookie_domain": d} for d in (".ADS.example", "ads.example", " ads.example")],
            "requests": [{"request_domain": d} for d in ("cdn.ads.example", "WWW.SITE.EXAMPLE")],
        }
        records = read_crawl_log(text_file(tmp_path, (json.dumps(visit) + "\n") * 3))
        assert sorted(calls) == ["ads.example", "cdn.ads.example", "www.site.example"]
        assert records[0].tp_cookies == ("ads.example",) * 3
        assert records[0].third_parties == {"ads.example"}


class TestCookieStats:
    def test_per_topic_summaries(self, records):
        stats = cookie_stats_by_topic(records)
        assert sorted(stats) == ["business", "entertainment", "homepage", "politics", "sports"]
        expect = {
            # third-party cookie counts per visit, after recomputation:
            # business [2,2,6,8], entertainment [3,5,7,9,12],
            # homepage [2,4,4,5,7,8], politics [0,2,4,4,5], sports [1,3,3,6,10]
            "business": (4.0, 4.5, 8, 2, 2.0, 6.5, 4),
            "entertainment": (7.0, 7.2, 12, 3, 5.0, 9.0, 5),
            "homepage": (4.5, 5.0, 8, 2, 4.0, 6.5, 6),
            "politics": (4.0, 3.0, 5, 0, 2.0, 4.0, 5),
            "sports": (3.0, 4.6, 10, 1, 3.0, 6.0, 5),
        }
        for topic, (median, mean, mx, mn, q1, q3, count) in expect.items():
            s = stats[topic]
            assert s.median == median, topic
            assert s.mean == pytest.approx(mean, abs=1e-12), topic
            assert (s.max, s.min) == (mx, mn), topic
            assert (s.q1, s.q3) == (q1, q3), topic
            assert s.count == count, topic


class TestDisconnectList:
    def test_tsv_fixture(self, disconnect):
        assert disconnect.entries["ad-serve.example"] == "Advertising"
        assert disconnect.entries["cdn-static.example"] == "Content & Social"
        assert len(disconnect.entries) == 5

    def test_tsv_first_entry_wins(self, tmp_path):
        p = text_file(tmp_path, "a.example\tAdvertising\na.example\tAnalytics\n")
        assert load_disconnect_file(p).entries["a.example"] == "Advertising"

    def test_tsv_bad_category(self, tmp_path):
        p = text_file(tmp_path, "a.example\tAdTech\n")
        with pytest.raises(MalformedRecord, match=f"^{re.escape(str(p))}:1: "):
            load_disconnect_file(p)

    def test_tsv_bad_width(self, tmp_path):
        p = text_file(tmp_path, "a.example Advertising\n")
        with pytest.raises(MalformedRecord, match=f"^{re.escape(str(p))}:1: "):
            load_disconnect_file(p)

    def test_categorize_subdomain_inherits(self, disconnect):
        assert categorize("cdn.ad-serve.example", disconnect) == "Advertising"
        assert categorize("ad-serve.example", disconnect) == "Advertising"
        assert categorize("nobody.example", disconnect) == UNKNOWN


class TestCategoryBreakdown:
    def test_distinct_counts_per_topic(self, records, disconnect):
        b = category_breakdown(records, disconnect)
        assert b["business"] == {
            "Advertising": 1,
            "Content & Social": 2,
            "Analytics": 1,
            "Fingerprinting": 0,
            "Unknown": 1,
        }
        assert b["entertainment"]["Fingerprinting"] == 1
        assert b["politics"] == {
            "Advertising": 1,
            "Content & Social": 1,
            "Analytics": 1,
            "Fingerprinting": 0,
            "Unknown": 2,
        }
        assert b["sports"]["Unknown"] == 2
        assert b["homepage"]["Fingerprinting"] == 0

    def test_site_restriction(self, records, disconnect):
        b = category_breakdown(records, disconnect, sites={"alpha-news.example"})
        # alpha's sports visit only sees its niche tracker and ad-serve
        assert b["sports"] == {
            "Advertising": 1,
            "Content & Social": 0,
            "Analytics": 0,
            "Fingerprinting": 0,
            "Unknown": 1,
        }

    def test_percent_diff(self, records, disconnect):
        diffs = percent_diff_vs_homepage(category_breakdown(records, disconnect))
        assert "homepage" not in diffs
        assert diffs["business"] == {
            "Advertising": 0.0,
            "Content & Social": 0.0,
            "Analytics": 0.0,
            "Fingerprinting": 0.0,
            "Unknown": 0.0,
        }
        assert diffs["entertainment"]["Fingerprinting"] == "new"
        assert diffs["politics"]["Content & Social"] == -50.0
        assert diffs["politics"]["Unknown"] == 100.0
        assert diffs["sports"]["Content & Social"] == -50.0

    def test_percent_diff_requires_homepage_row(self):
        with pytest.raises(ValueError):
            percent_diff_vs_homepage({"sports": {"Advertising": 1}})


class TestTrackingMatrix:
    def test_fixture_matrix(self, records):
        m = build_tracking_matrix(records)
        assert m.topics == ("business", "entertainment", "homepage", "politics", "sports")
        assert m.third_parties == TPS
        expected = np.array(
            [
                [1, 1, 0, 1, 0, 1, 0, 1],  # business
                [1, 1, 1, 1, 0, 1, 0, 1],  # entertainment
                [1, 1, 0, 1, 0, 1, 0, 1],  # homepage
                [1, 0, 0, 1, 0, 1, 1, 1],  # politics
                [1, 0, 0, 1, 1, 1, 0, 1],  # sports
            ]
        )
        assert np.array_equal(m.cells, expected)

    def test_configured_topic_gets_zero_row(self, records):
        m = build_tracking_matrix(records, topics=("unvisited",))
        i = m.topics.index("unvisited")
        assert np.all(m.cells[i] == 0)

    def test_round_trip(self, records):
        m = build_tracking_matrix(records)
        assert TrackingMatrix.from_dict(m.to_dict()).equals(m)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TrackingMatrix.from_dict(
                {"topics": ["a"], "third_parties": ["x", "y"], "cells": [[1]]}
            )


class TestPreferentialAttachment:
    def test_fixture_pairs(self, records):
        pairs = preferential_attachment(build_tracking_matrix(records))
        assert pairs == [
            ("fingerprint-js.example", "entertainment"),
            ("niche-sports-ads.example", "sports"),
            ("politics-poll-tracker.example", "politics"),
        ]

    def test_homepage_only_presence_is_not_preferential(self):
        m = TrackingMatrix(
            topics=("homepage", "sports"),
            third_parties=("only-home.example", "only-sports.example"),
            cells=np.array([[1, 0], [0, 1]]),
        )
        assert preferential_attachment(m) == [("only-sports.example", "sports")]


class TestTopTpCoverage:
    def test_fixture_ranking_and_coverage(self, records):
        ranked = top_tp_coverage(records, 3)
        assert [tp for tp, _ in ranked] == [
            "ad-serve.example",
            "pixel-track.example",
            "social-widgets.example",
        ]
        by_tp = dict(ranked)
        assert by_tp["ad-serve.example"] == {
            "business": 100.0,
            "entertainment": 100.0,
            "homepage": 100.0,
            "politics": 80.0,
            "sports": 100.0,
        }
        assert by_tp["pixel-track.example"] == {
            "business": 75.0,
            "entertainment": 100.0,
            "homepage": 100.0,
            "politics": 80.0,
            "sports": 60.0,
        }
        assert by_tp["social-widgets.example"] == {
            "business": 50.0,
            "entertainment": 100.0,
            "homepage": 83.33333333333333,
            "politics": 20.0,
            "sports": 40.0,
        }

    def test_k_larger_than_pool(self, records):
        ranked = top_tp_coverage(records, 100)
        assert len(ranked) == 8

    def test_invalid_k(self, records):
        with pytest.raises(ValueError):
            top_tp_coverage(records, 0)


# --- oracle: every analysis against a brute-force reference -------------------

ORACLE_SITES = ("alpha-news.example", "beta.co.uk", "gamma.example")
ORACLE_TRACKERS = ("ad-serve.example", "pixel.co.uk", "beacon.example", "cdn.net")
ORACLE_TOPICS = ("homepage", "politics", "sports")
ORACLE_DISCONNECT_TSV = (
    "ad-serve.example\tAdvertising\nbeacon.example\tAnalytics\nsub.cdn.net\tContent & Social\n"
)

# a logged domain: a site or tracker, maybe under a subdomain, maybe with a
# leading dot, in any case; is_third_party labels are drawn independently
logged_domain = st.builds(
    lambda base, sub, dot, case: case(dot + sub + base),
    st.sampled_from(ORACLE_SITES + ORACLE_TRACKERS),
    st.sampled_from(("", "www.", "trk.", "a.b.", "sub.")),
    st.sampled_from(("", ".")),
    st.sampled_from((str.lower, str.upper, str.title)),
)
crawl_line = st.builds(
    lambda site, topic, cookies, requests: json.dumps(
        {
            "page_url": f"https://{site}/" + ("" if topic == "homepage" else f"{topic}/"),
            "site": site,
            "topic": topic,
            "cookies": [
                {"name": f"c{i}", "cookie_domain": d, "is_third_party": flag}
                for i, (d, flag) in enumerate(cookies)
            ],
            "requests": [{"request_domain": d, "is_third_party": flag} for d, flag in requests],
        }
    ),
    st.sampled_from(ORACLE_SITES),
    st.sampled_from(ORACLE_TOPICS),
    st.lists(st.tuples(logged_domain, st.booleans()), max_size=5),
    st.lists(st.tuples(logged_domain, st.booleans()), max_size=5),
)


def reference_visits(lines):
    """(site, topic, third-party cookie domains, third parties) per raw line,
    resolving every occurrence separately."""

    def reg(domain):
        return registrable_domain(domain.strip().lower().lstrip("."))

    visits = []
    for line in lines:
        obj = json.loads(line)
        site = reg(obj["site"])
        cookies = [reg(c["cookie_domain"]) for c in obj["cookies"]]
        requests = [reg(r["request_domain"]) for r in obj["requests"]]
        tp_cookies = [d for d in cookies if d != site]
        tps = {d for d in cookies + requests if d != site}
        visits.append((site, obj["topic"], tp_cookies, tps))
    return visits


class TestOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(crawl_line, min_size=1, max_size=12), st.integers(1, 10))
    def test_analyses_match_brute_force(self, lines, k):
        with tempfile.TemporaryDirectory() as tmp:
            records = read_crawl_log(text_file(tmp, "\n".join(lines), "crawl_log.jsonl"))
            dl = load_disconnect_file(text_file(tmp, ORACLE_DISCONNECT_TSV, "disconnect.tsv"))
        visits = reference_visits(lines)

        per_topic = {}
        for _, topic, tp_cookies, _ in visits:
            per_topic.setdefault(topic, []).append(len(tp_cookies))
        assert {t: s.to_dict() for t, s in cookie_stats_by_topic(records).items()} == {
            t: summary(counts).to_dict() for t, counts in sorted(per_topic.items())
        }

        for sites in (None, {ORACLE_SITES[0]}):
            expect = {}
            for site, topic, _, tps in visits:
                if sites is None or site in sites:
                    expect.setdefault(topic, set()).update(tps)
            for topic, tps in expect.items():
                counts = dict.fromkeys(
                    ("Advertising", "Content & Social", "Analytics", "Fingerprinting", UNKNOWN), 0
                )
                for tp in tps:
                    counts[categorize(tp, dl)] += 1
                expect[topic] = counts
            assert category_breakdown(records, dl, sites=sites) == expect

        m = build_tracking_matrix(records, topics=("unvisited",))
        topics = sorted({topic for _, topic, _, _ in visits} | {"unvisited"})
        pool = sorted(set().union(*(tps for *_, tps in visits)))
        assert m.topics == tuple(topics)
        assert m.third_parties == tuple(pool)
        assert m.cells.tolist() == [
            [int(any(t == topic and tp in tps for _, t, _, tps in visits)) for tp in pool]
            for topic in topics
        ]

        cookie_counts = Counter(d for *_, tp_cookies, _ in visits for d in tp_cookies)
        ranked = sorted(pool, key=lambda tp: (-cookie_counts[tp], tp))[:k]
        visited = sorted({topic for _, topic, _, _ in visits})
        expect_coverage = []
        for tp in ranked:
            coverage = {}
            for topic in visited:
                on_topic = [tps for _, t, _, tps in visits if t == topic]
                coverage[topic] = 100.0 * sum(tp in tps for tps in on_topic) / len(on_topic)
            expect_coverage.append((tp, coverage))
        assert top_tp_coverage(records, k) == expect_coverage
