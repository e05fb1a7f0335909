"""Acceptance gate: eleven checks the package must pass before a release.

Every check pins its expectations to bundled fixtures and oracles computed
independently inside this file (plain-Python hand formulas), with explicit
tolerances.  Nothing here reaches the network; the fetcher checks run
against a local loopback server.
"""

import json
import math
import threading
import time
from bisect import bisect_right
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from topicpages import (
    build_tracking_matrix,
    category_breakdown,
    cohens_kappa,
    fetch_all,
    filter_subpages,
    gap_statistic,
    kmeans,
    ks_two_sample,
    load_dictionary_file,
    load_embeddings_file,
    model_select,
    normalize,
    pca_fit,
    preferential_attachment,
    read_crawl_log,
    silhouette,
)
from topicpages.classify import TopicClassifier
from topicpages.cluster import pca_fit as _pca_fit
from topicpages.config import PipelineConfig, load_config
from topicpages.embeddings import EmbeddingModel
from topicpages.pipeline import STAGE_NAMED, Runner, run_pipeline
from topicpages.thresholds import (
    DEFAULT_BUCKET_SIZES,
    DEFAULT_THRESHOLDS,
    fit_url_histograms,
    url_histograms,
)

from conftest import DATA, build_e2e_workspace

# --- shared hand-math helpers -------------------------------------------------

def hand_cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def parse_vector_file(path: Path) -> dict[str, list[float]]:
    vectors = {}
    for line in path.read_text("utf-8").splitlines()[1:]:
        parts = line.split()
        if parts:
            vectors[parts[0]] = [float(x) for x in parts[1:]]
    return vectors


def combine(tokens, vectors, dim=2):
    acc = [0.0] * dim
    for t in tokens:
        if t in vectors:
            acc = [a + b for a, b in zip(acc, vectors[t])]
    return acc


# --- 1: threshold recovery on planted regimes ---------------------------------

LETTERS = list("abcdefghijklmnopqrstuvwxyz")


def _segment(rng, length, hyphens):
    chars = [str(c) for c in rng.choice(LETTERS, size=length)]
    if hyphens:
        for pos in rng.choice(np.arange(1, length - 1), size=hyphens, replace=False):
            chars[pos] = "-"
    return "".join(chars)


def _lengths(rng, mean, sd, lo, hi, count):
    # rejection sampling: clipping would pile mass into boundary atoms
    out: list[int] = []
    while len(out) < count:
        draws = np.rint(rng.normal(mean, sd, size=count * 2)).astype(int)
        out.extend(int(v) for v in draws if lo <= v <= hi)
    return out[:count]


class TestThresholdRecovery:
    def test_two_regime_training_set(self):
        rng = np.random.default_rng(31415)
        prefix = "https://a.ex/"  # 13 chars; full URL length = segment + 14

        def build(count, mean, sd, lo, hi, h_lo, h_hi):
            urls = []
            for total in _lengths(rng, mean, sd, lo, hi, count):
                h = int(rng.integers(h_lo, h_hi + 1))
                urls.append(normalize(f"{prefix}{_segment(rng, total - 14, h)}/"))
            return urls

        subpages = build(1000, 35, 8, 24, 70, 0, 2)
        articles = build(1000, 130, 15, 90, 190, 5, 9)
        urls = subpages + articles

        started = time.perf_counter()
        fitted = fit_url_histograms(url_histograms(urls, DEFAULT_BUCKET_SIZES))
        assert time.perf_counter() - started < 1.0

        sub_len = [len(u.normalized) for u in subpages]
        art_len = [len(u.normalized) for u in articles]
        sub_seg = [max(len(s) for s in u.subpaths) for u in subpages]
        art_seg = [max(len(s) for s in u.subpaths) for u in articles]

        # each cutoff lands in the planted gap, one bucket of slack
        assert max(sub_len) - 1 <= fitted.max_url_length <= min(art_len) + 1
        assert max(sub_seg) - 5 <= fitted.max_subpath_length <= min(art_seg) + 5
        assert 2 - 1 <= fitted.max_hyphens <= 5 + 1

        # and the fitted cutoffs separate the regimes exactly
        assert filter_subpages(urls, fitted) == subpages


# --- 2: default thresholds on the hand-labeled URL fixture --------------------

class TestFilterGolden:
    def test_fifty_url_fixture(self):
        lines = [
            line.strip()
            for line in (DATA / "filter_urls.txt").read_text("utf-8").splitlines()
        ]
        urls = [normalize(line) for line in lines if line and not line.startswith("#")]
        assert len(urls) == 50
        subpages, junk = urls[:30], urls[30:]

        kept = filter_subpages(urls, DEFAULT_THRESHOLDS)
        golden = [
            line.strip()
            for line in (DATA / "filter_golden.txt").read_text("utf-8").splitlines()
            if line.strip()
        ]
        assert sorted(u.normalized for u in kept) == golden

        kept_set = {u.normalized for u in kept}
        assert not kept_set & {u.normalized for u in junk}  # no junk survives
        lost = [u for u in subpages if u.normalized not in kept_set]
        assert len(lost) <= 2


# --- 3: classification on the five-topic plane fixture ------------------------

class CountingModel(EmbeddingModel):
    def __init__(self, base):
        super().__init__(base.dimension, dict(base.items()))
        self.lookups = 0

    def vector(self, token):
        self.lookups += 1
        return super().vector(token)


@pytest.fixture(scope="module")
def plane_dictionary():
    return load_dictionary_file(DATA / "accept_dictionary.json")


@pytest.fixture(scope="module")
def plane_model():
    return load_embeddings_file(DATA / "accept_vectors.txt")


BATTERY = (
    "https://news-site.example/sports/",
    "https://news-site.example/category/cricket/",
    "https://news-site.example/zzqq/",
    "https://news-site.example/football/",
    "https://news-site.example/minister/",
    "https://news-site.example/economy/",
    "https://news-site.example/cinema/",
    "https://news-site.example/fitness/",
)


class TestClassification:
    def test_exact_match(self, plane_dictionary, plane_model):
        a = TopicClassifier(plane_dictionary, plane_model, 0.4).classify(normalize(BATTERY[0]))
        assert (a.topic.name, a.method, a.score) == ("sports", "exact", 1.0)

    def test_exact_match_never_consults_embeddings(self, plane_dictionary, plane_model):
        counting = CountingModel(plane_model)
        classifier = TopicClassifier(plane_dictionary, counting, cutoff=0.4)
        counting.lookups = 0  # construction may precompute topic embeddings
        a = classifier.classify(normalize(BATTERY[0]))
        assert a.method == "exact"
        assert counting.lookups == 0

    def test_generic_skip_then_embedding(self, plane_dictionary, plane_model):
        vectors = parse_vector_file(DATA / "accept_vectors.txt")
        # only "sports" of the sports keywords is in-vocabulary
        expected = hand_cosine(vectors["cricket"], vectors["sports"])
        a = TopicClassifier(plane_dictionary, plane_model, 0.4).classify(normalize(BATTERY[1]))
        assert a.topic.name == "sports"
        assert a.method == "embedding"
        assert a.matched_subpath == "cricket"
        assert a.score == pytest.approx(expected, abs=1e-12)
        assert a.score == pytest.approx(0.9, abs=1e-9)
        # runner-up topic stays far below the winner
        assert hand_cosine(vectors["cricket"], vectors["politics"]) == pytest.approx(
            0.1, abs=1e-9
        )

    def test_out_of_vocabulary_is_other(self, plane_dictionary, plane_model):
        a = TopicClassifier(plane_dictionary, plane_model, 0.4).classify(normalize(BATTERY[2]))
        assert (a.topic.name, a.method, a.score) == ("other", "other", 0.0)

    def test_scale_invariance_at_7_3(self, plane_dictionary, plane_model):
        scaled = EmbeddingModel(
            plane_model.dimension, {t: 7.3 * v for t, v in plane_model.items()}
        )
        for raw in BATTERY:
            url = normalize(raw)
            a = TopicClassifier(plane_dictionary, plane_model, 0.4).classify(url)
            b = TopicClassifier(plane_dictionary, scaled, 0.4).classify(url)
            assert (a.topic.name, a.method, a.matched_subpath) == (
                b.topic.name,
                b.method,
                b.matched_subpath,
            ), raw
            assert b.score == pytest.approx(a.score, abs=1e-12)


# --- 4: best-subpage weights and selection branches ---------------------------

@pytest.fixture(scope="module")
def setup(selection_dictionary, selection_model):
    classifier = TopicClassifier(selection_dictionary, selection_model, cutoff=0.4)
    vectors = parse_vector_file(DATA / "selection_vectors.txt")
    return classifier, vectors, selection_dictionary, selection_model


class TestBestSubpageSelection:
    def hand_weight(self, tokens, vectors):
        c = hand_cosine(combine(tokens, vectors), combine(["sports", "cricket"], vectors))
        return c / len(tokens)

    def test_weights_match_hand_calculation(self, setup):
        classifier, vectors, dictionary, _ = setup
        topic = dictionary.topic_named("sports")
        cases = [
            ("https://news-site.example/sports/", ["sports"]),
            ("https://news-site.example/sports/cricket/", ["sports", "cricket"]),
            ("https://news-site.example/cricket-news/", ["cricket", "news"]),
        ]
        for raw, tokens in cases:
            got = classifier.selection_weight(normalize(raw), topic)
            assert got == pytest.approx(self.hand_weight(tokens, vectors), abs=1e-9), raw
        # and the hand values themselves, frozen
        assert self.hand_weight(["sports"], vectors) == pytest.approx(
            0.9486832980505138, abs=1e-12
        )
        assert self.hand_weight(["sports", "cricket"], vectors) == pytest.approx(0.5, abs=1e-12)
        assert self.hand_weight(["cricket", "news"], vectors) == pytest.approx(
            0.35355339059327373, abs=1e-12
        )

    def _assignments(self, classifier, raws):
        return [classifier.classify(normalize(r)) for r in raws]

    def test_top_ranked_keyword_candidate_wins(self, setup):
        classifier, _, _, _ = setup
        candidates = self._assignments(
            classifier,
            [
                "https://news-site.example/sports/",
                "https://news-site.example/sports/cricket/",
                "https://news-site.example/cricket-news/",
            ],
        )
        best = classifier.select_best_subpage(candidates)
        assert best.normalized == "https://news-site.example/sports/"
        assert best in [c.url for c in candidates]

    def test_keyword_candidate_overrides_higher_weight(self, setup):
        classifier, vectors, _, _ = setup
        candidates = self._assignments(
            classifier,
            [
                "https://news-site.example/sports-news/",
                "https://news-site.example/sports/cricket/extra/",
            ],
        )
        # the non-keyword candidate ranks first by weight ...
        weights = sorted(
            (
                self.hand_weight(["sports", "news"], vectors),
                self.hand_weight(["sports", "cricket", "extra"], vectors),
            ),
            reverse=True,
        )
        assert weights[0] == pytest.approx(0.4472135954999579, abs=1e-12)
        # ... yet the first candidate whose top subpath is a keyword is chosen
        best = classifier.select_best_subpage(candidates)
        assert best.normalized == "https://news-site.example/sports/cricket/extra/"

    def test_fallback_to_top_ranked_without_keyword(self, setup):
        classifier, _, _, _ = setup
        candidates = self._assignments(
            classifier,
            [
                "https://news-site.example/cricket-news/",
                "https://news-site.example/sports-news/",
            ],
        )
        best = classifier.select_best_subpage(candidates)
        assert best.normalized == "https://news-site.example/sports-news/"


# --- 5: agreement and distribution statistics ---------------------------------

def scan_d(a, b):
    a_sorted, b_sorted = sorted(a), sorted(b)
    best = 0.0
    for x in sorted(set(a_sorted) | set(b_sorted)):
        fa = bisect_right(a_sorted, x) / len(a_sorted)
        fb = bisect_right(b_sorted, x) / len(b_sorted)
        best = max(best, abs(fa - fb))
    return best


class TestStatistics:
    def test_kappa_hand_case(self):
        # p_o = 3/4, p_e = 1/2 -> kappa = 1/2
        assert cohens_kappa([1, 1, 0, 0], [1, 0, 0, 0]) == pytest.approx(0.5, abs=1e-12)

    def test_ks_identical_samples(self):
        result = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.d_statistic == 0.0
        assert result.p_value == 1.0

    def test_ks_disjoint_samples(self):
        result = ks_two_sample([1.0, 2.0], [10.0, 11.0, 12.0])
        assert result.d_statistic == 1.0

    def test_ks_matches_scan_oracle_on_100_pairs(self):
        rng = np.random.default_rng(424242)
        for trial in range(100):
            n1 = int(rng.integers(2, 60))
            n2 = int(rng.integers(2, 60))
            if trial % 2:
                a = rng.normal(size=n1).tolist()
                b = rng.normal(loc=rng.normal(), size=n2).tolist()
            else:  # heavy ties
                a = rng.integers(0, 6, size=n1).astype(float).tolist()
                b = rng.integers(0, 6, size=n2).astype(float).tolist()
            got = ks_two_sample(a, b).d_statistic
            assert abs(got - scan_d(a, b)) <= 1e-12, trial


# --- 6: tracking analytics on the crawl-log fixture ---------------------------

HAND_TOPICS = ("business", "entertainment", "homepage", "politics", "sports")
HAND_TPS = (
    "ad-serve.example",
    "cdn-static.example",
    "fingerprint-js.example",
    "mystery-beacon.example",
    "niche-sports-ads.example",
    "pixel-track.example",
    "politics-poll-tracker.example",
    "social-widgets.example",
)
HAND_CELLS = [
    [1, 1, 0, 1, 0, 1, 0, 1],  # business
    [1, 1, 1, 1, 0, 1, 0, 1],  # entertainment
    [1, 1, 0, 1, 0, 1, 0, 1],  # homepage
    [1, 0, 0, 1, 0, 1, 1, 1],  # politics
    [1, 0, 0, 1, 1, 1, 0, 1],  # sports
]
PLANTED_SINGLE_TOPIC = [
    ("fingerprint-js.example", "entertainment"),
    ("niche-sports-ads.example", "sports"),
    ("politics-poll-tracker.example", "politics"),
]


@pytest.fixture(scope="module")
def records():
    return read_crawl_log(DATA / "crawl_log.jsonl")


class TestTrackingAnalytics:
    def test_matrix_equals_hand_matrix(self, records):
        m = build_tracking_matrix(records)
        assert m.topics == HAND_TOPICS
        assert m.third_parties == HAND_TPS
        assert np.array_equal(m.cells, np.array(HAND_CELLS))

    def test_preferential_attachment_planted(self, records):
        assert preferential_attachment(build_tracking_matrix(records)) == PLANTED_SINGLE_TOPIC

    def test_category_counts_match_hand_counts(self, records):
        from topicpages.tracking import load_disconnect_file

        breakdown = category_breakdown(records, load_disconnect_file(DATA / "disconnect.tsv"))
        assert breakdown["homepage"] == {
            "Advertising": 1,
            "Content & Social": 2,
            "Analytics": 1,
            "Fingerprinting": 0,
            "Unknown": 1,
        }
        assert breakdown["politics"]["Unknown"] == 2
        assert breakdown["entertainment"]["Fingerprinting"] == 1
        assert breakdown["sports"]["Content & Social"] == 1

    def test_track_stage_under_a_second(self, tmp_path):
        cfg = PipelineConfig(
            crawl_logs=str(DATA / "crawl_log.jsonl"),
            disconnect=str(DATA / "disconnect.tsv"),
            out_dir=str(tmp_path / "out"),
        )
        runner = Runner(cfg)
        runner.out_dir.mkdir()  # the upstream stage's run directory
        with open(runner.out_dir / "best.jsonl", "w", encoding="utf-8") as fh:
            for topic in ("business", "entertainment", "politics", "sports"):
                row = {
                    "site": "alpha-news.example",
                    "topic": topic,
                    "url": f"https://alpha-news.example/{topic}/",
                }
                fh.write(json.dumps(row) + "\n")
        started = time.perf_counter()
        summary = runner.run_stage(STAGE_NAMED["track"])
        assert time.perf_counter() - started < 1.0
        assert summary == {"records": 25, "third_parties": 8}

        artifact = json.loads((runner.out_dir / "tracking-matrix.json").read_text("utf-8"))
        assert artifact["topics"] == list(HAND_TOPICS)
        assert artifact["cells"] == HAND_CELLS


# --- 7: term weighting --------------------------------------------------------

class TestTermWeights:
    def test_everywhere_terms_zero_and_hand_weight(self):
        from topicpages.content import weigh_pages

        pages = [("a", "cricket cricket bat sun"), ("b", "minister sun")]
        matrix = weigh_pages(pages, stopwords=frozenset())[0]
        weights = {t: dict(zip(matrix.terms, row)) for t, row in zip(matrix.topics, matrix.weights)}
        assert weights["a"]["sun"] == 0.0  # present in every document
        assert weights["b"]["sun"] == 0.0
        expected = 0.5 * math.log(2.0)  # 2 of 4 tokens, in 1 of 2 docs
        assert weights["a"]["cricket"] == pytest.approx(expected, abs=1e-12)


# --- 8: dimensionality reduction ------------------------------------------------

class TestVarianceAccounting:
    def test_sixteen_row_matrix(self):
        rng = np.random.default_rng(271828)
        X = rng.standard_normal((16, 20))
        model, reduced = pca_fit(X, 15)
        assert not model.rank_deficient
        assert float(np.sum(model.explained_variance_ratio)) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(reduced @ model.components + model.mean, X, atol=1e-8)


# --- 9: clustering metrics on the three-blob fixture ----------------------------

class TestClusterMetrics:
    def test_blobs_recovered_and_metrics_agree(self):
        rng = np.random.default_rng(777)
        centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)]
        X = np.vstack([c + rng.normal(scale=0.5, size=(20, 2)) for c in centers])
        started = time.perf_counter()

        result = kmeans(X, 3, seed=42, restarts=5)
        blocks = [result.assignments[i * 20 : (i + 1) * 20] for i in range(3)]
        assert all(len(set(b)) == 1 for b in blocks)
        assert len({b[0] for b in blocks}) == 3

        scores = {
            k: silhouette(X, kmeans(X, k, seed=42, restarts=5).assignments)
            for k in range(2, 7)
        }
        assert max(scores, key=scores.get) == 3

        gaps = {k: gap_statistic(X, k, seed=42, b_refs=5, restarts=5) for k in (2, 3, 4)}
        assert gaps[3] > gaps[2]
        assert gaps[3] > gaps[4]

        sweeps = [
            model_select(X, range(1, 3), range(2, 7), seed=42, restarts=3, b_refs=3).to_csv()
            for _ in range(3)
        ]
        assert sweeps[0] == sweeps[1] == sweeps[2]
        assert time.perf_counter() - started < 5.0


# --- 10: end-to-end determinism -------------------------------------------------

def _relative_config(ws: Path) -> Path:
    build_e2e_workspace(ws)
    path = ws / "rel.toml"
    path.write_text(
        "\n".join(
            [
                'urls = "urls.txt"',
                'snapshots = "snapshots"',
                f'dictionary = "{DATA / "toy_dictionary.json"}"',
                f'embeddings = "{DATA / "toy_vectors.txt"}"',
                f'disconnect = "{DATA / "disconnect.tsv"}"',
                'crawl_logs = "crawl_log.jsonl"',
                'out_dir = "out"',
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
    return path


def _run_bundle(ws: Path, monkeypatch) -> tuple[bytes, dict[str, bytes]]:
    monkeypatch.chdir(ws)
    code, summary = run_pipeline(load_config("rel.toml", env={}))
    assert code == 0, summary.get("errors")
    manifest_path = ws / "out" / "manifest.json"
    listing = json.loads(manifest_path.read_text("utf-8"))["artifacts"]
    blobs = {}
    for name, entry in listing.items():
        path = ws / "out" / entry["path"]
        if not path.exists():
            path = ws / entry["path"]
        blobs[name] = path.read_bytes()
    return manifest_path.read_bytes(), blobs


class TestEndToEndDeterminism:
    def test_two_runs_byte_identical(self, tmp_path, monkeypatch):
        _relative_config(tmp_path / "first")
        _relative_config(tmp_path / "second")
        manifest_a, blobs_a = _run_bundle(tmp_path / "first", monkeypatch)
        manifest_b, blobs_b = _run_bundle(tmp_path / "second", monkeypatch)
        assert manifest_a == manifest_b
        assert sorted(blobs_a) == sorted(blobs_b)
        for name, blob in blobs_a.items():
            assert blob == blobs_b[name], name


# --- 11: fetcher robustness ------------------------------------------------------

class _AcceptanceHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        if self.path == "/ok/":
            body = b"<html>ok</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/forbid/":
            self.send_error(403)
        elif self.path == "/slow/":
            time.sleep(1.5)
            self.send_error(504)
        elif self.path.startswith("/track/"):
            srv = self.server
            with srv.lock:
                srv.in_flight += 1
                srv.max_in_flight = max(srv.max_in_flight, srv.in_flight)
            time.sleep(0.2)
            with srv.lock:
                srv.in_flight -= 1
            self.send_response(200)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"ok")
        else:
            self.send_error(404)


@pytest.fixture(scope="class")
def accept_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _AcceptanceHandler)
    httpd.lock = threading.Lock()
    httpd.in_flight = 0
    httpd.max_in_flight = 0
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    yield httpd
    httpd.shutdown()


class TestFetcherRobustness:
    def test_batch_never_aborts(self, accept_server):
        base = f"http://127.0.0.1:{accept_server.server_address[1]}"
        urls = [
            normalize(base + path)
            for path in ("/ok/", "/forbid/", "/slow/", "/ok/", "/forbid/")
        ]
        results = fetch_all(urls, parallelism=2, timeout=0.3, retries=0)
        assert [r.url for r in results] == urls  # one result per URL, in order
        assert results[0].status == 200
        assert results[1].error == "HTTP 403"
        assert results[2].status is None and results[2].error is not None
        assert results[3].status == 200
        assert results[4].error == "HTTP 403"

    def test_parallelism_bound_respected(self, accept_server):
        base = f"http://127.0.0.1:{accept_server.server_address[1]}"
        with accept_server.lock:
            accept_server.in_flight = 0
            accept_server.max_in_flight = 0
        urls = [normalize(f"{base}/track/{i}/") for i in range(6)]
        results = fetch_all(urls, parallelism=2, timeout=5.0, retries=0)
        assert all(r.status == 200 for r in results)
        assert 2 == accept_server.max_in_flight
