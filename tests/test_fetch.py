import json
import threading
import time
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from topicpages import fetch_all, fetch_missing, fetch_one, normalize, save_snapshots
from topicpages.cli import main
from topicpages.errors import MalformedRecord
from topicpages.fetch import (
    FetchResult,
    load_snapshot_index,
    read_snapshot,
)

BODY_OK = "<html><body>hello world</body></html>"
BODY_OTHER = "<html><body>something else entirely</body></html>"
# each path as written in a link, and the request target the origin must see
ESCAPED = {"/café/": "/caf%C3%A9/", "/खेल/": "/%E0%A4%96%E0%A5%87%E0%A4%B2/", "/a b/": "/a%20b/"}


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _send(self, status, body, headers=()):
        data = body.encode("utf-8")
        self.send_response(status)
        for k, v in headers:
            self.send_header(k, v)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        srv = self.server
        path = self.path
        if path == "/robots.txt":
            if srv.robots_text is None:
                self._send(404, "no robots here")
            else:
                self._send(200, srv.robots_text)
        elif path == "/ok/" or path == "/dup/":
            self._send(200, BODY_OK)
        elif path == "/other/":
            self._send(200, BODY_OTHER)
        elif path == "/missing/":
            self._send(404, "gone")
        elif path == "/redirect/":
            self._send(302, "", headers=[("Location", "/ok/")])
        elif path == "/slow/":
            time.sleep(srv.slow_seconds)
            self._send(200, "finally")
        elif path == "/flaky/":
            with srv.lock:
                srv.flaky_hits += 1
                attempt = srv.flaky_hits
            if attempt == 1:
                self._send(500, "try again")
            else:
                self._send(200, "recovered")
        elif path.startswith("/track/"):
            with srv.lock:
                srv.in_flight += 1
                srv.max_in_flight = max(srv.max_in_flight, srv.in_flight)
            time.sleep(0.2)
            with srv.lock:
                srv.in_flight -= 1
            self._send(200, "tracked " + path)
        elif path == "/private/x/":
            self._send(200, "secret")
        elif path in ESCAPED.values():
            self._send(200, f'<a href="/ok/">seen {path}</a>')
        elif path == "/bad-status/":
            self.wfile.write(b"garbage\r\n\r\n")
            self.close_connection = True
        elif path == "/short/":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b"short")
            self.close_connection = True
        else:
            self._send(404, "no route")


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.lock = threading.Lock()
    httpd.robots_text = None
    httpd.slow_seconds = 1.0
    httpd.flaky_hits = 0
    httpd.in_flight = 0
    httpd.max_in_flight = 0
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()


@pytest.fixture()
def base(server):
    # reset per-test server state
    with server.lock:
        server.flaky_hits = 0
        server.in_flight = 0
        server.max_in_flight = 0
    server.robots_text = None
    return f"http://127.0.0.1:{server.server_address[1]}"


def u(base, path):
    return normalize(base + path)


class TestFetchOne:
    def test_success(self, base):
        result = fetch_one(u(base, "/ok/"), timeout=5.0)
        assert result.status == 200
        assert result.body == BODY_OK
        assert result.error is None
        assert result.fetched_at.tzinfo is not None

    def test_http_error_becomes_result(self, base):
        result = fetch_one(u(base, "/missing/"), timeout=5.0, retries=0)
        assert result.status is None
        assert result.body is None
        assert result.error == "HTTP 404"

    def test_redirect_followed(self, base):
        result = fetch_one(u(base, "/redirect/"), timeout=5.0)
        assert result.status == 200
        assert result.body == BODY_OK

    def test_timeout_becomes_result(self, base):
        result = fetch_one(u(base, "/slow/"), timeout=0.25, retries=0)
        assert result.status is None
        assert result.error.startswith("unreachable")

    def test_retry_recovers_transient_failure(self, base, server):
        result = fetch_one(u(base, "/flaky/"), timeout=5.0, retries=1)
        assert result.status == 200
        assert result.body == "recovered"
        assert server.flaky_hits == 2

    def test_no_retries_keeps_first_failure(self, base):
        result = fetch_one(u(base, "/flaky/"), timeout=5.0, retries=0)
        assert result.error == "HTTP 500"

    @pytest.mark.parametrize("path", sorted(ESCAPED))
    def test_path_is_requested_in_uri_form(self, base, path):
        result = fetch_one(u(base, path), timeout=5.0, retries=0)
        assert result.status == 200
        assert result.body == f'<a href="/ok/">seen {ESCAPED[path]}</a>'

    def test_connection_refused(self):
        # a port with nothing listening
        result = fetch_one(normalize("http://127.0.0.1:9/x/"), timeout=0.5, retries=0)
        assert result.error.startswith("unreachable")


class TestFetchResultShape:
    def test_body_and_error_both_set_rejected(self, base):
        with pytest.raises(ValueError):
            FetchResult(
                url=u(base, "/ok/"),
                status=200,
                body="x",
                fetched_at=datetime.now(timezone.utc),
                error="boom",
            )

    def test_neither_set_rejected(self, base):
        with pytest.raises(ValueError):
            FetchResult(
                url=u(base, "/ok/"),
                status=None,
                body=None,
                fetched_at=datetime.now(timezone.utc),
                error=None,
            )


class TestFetchAll:
    def test_order_preserved_and_failures_do_not_abort(self, base):
        urls = [u(base, p) for p in ("/other/", "/missing/", "/ok/")]
        results = fetch_all(urls, parallelism=3, timeout=5.0, retries=0)
        assert len(results) == 3
        assert [r.url for r in results] == urls
        assert [r.status for r in results] == [200, None, 200]
        assert results[0].body == BODY_OTHER
        assert results[1].error == "HTTP 404"
        assert results[2].body == BODY_OK

    def test_in_flight_never_exceeds_parallelism(self, base, server):
        urls = [u(base, f"/track/{i}/") for i in range(6)]
        results = fetch_all(urls, parallelism=2, timeout=5.0, retries=0)
        assert all(r.status == 200 for r in results)
        assert server.max_in_flight <= 2
        assert server.max_in_flight >= 2  # it did actually run concurrently

    def test_malformed_responses_become_rows_beside_a_good_url(self, base):
        urls = [u(base, p) for p in ("/bad-status/", "/ok/", "/short/")]
        results = fetch_all(urls, parallelism=2, timeout=5.0, retries=0)
        assert [r.status for r in results] == [None, 200, None]
        assert results[0].error.startswith("failed: BadStatusLine(")
        assert results[1].body == BODY_OK
        assert results[2].error.startswith("failed: IncompleteRead(")

    def test_run_on_a_non_ascii_homepage_ends_with_a_summary(self, base, tmp_path, capsys):
        urls = tmp_path / "urls.txt"
        urls.write_text(f"{base}/café/\n", "utf-8")
        store = tmp_path / "snapshots"
        store.mkdir()
        code = main(["run", "--urls", str(urls), "--snapshots", str(store),
                     "--out-dir", str(tmp_path / "out"), "--fallback-defaults"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0, summary["errors"]
        assert summary["fetch"] == {"fetched": 1, "reused": 0}
        assert summary["extract"]["internal"] == 1
        (row,) = load_snapshot_index(store).values()
        assert (row["url"], row["status"]) == (f"{base}/café/", 200)

    def test_parallelism_validated(self, base):
        with pytest.raises(ValueError):
            fetch_all([u(base, "/ok/")], parallelism=0)

    def test_timeout_validated(self, base):
        with pytest.raises(ValueError):
            fetch_all([u(base, "/ok/")], timeout=0)

    def test_robots_disallow_blocks(self, base, server):
        server.robots_text = "User-agent: *\nDisallow: /private/\n"
        urls = [u(base, "/private/x/"), u(base, "/ok/")]
        results = fetch_all(urls, parallelism=2, timeout=5.0, respect_robots=True)
        assert results[0].error == "blocked by robots.txt"
        assert results[1].status == 200

    def test_missing_robots_blocks_nothing(self, base):
        results = fetch_all([u(base, "/private/x/")], timeout=5.0, respect_robots=True)
        assert results[0].status == 200

    def test_robots_ignored_by_default(self, base, server):
        server.robots_text = "User-agent: *\nDisallow: /\n"
        results = fetch_all([u(base, "/ok/")], timeout=5.0)
        assert results[0].status == 200


def ok_result(url, body):
    return FetchResult(
        url=url, status=200, body=body, fetched_at=datetime.now(timezone.utc), error=None
    )


def err_result(url, message):
    return FetchResult(
        url=url, status=None, body=None, fetched_at=datetime.now(timezone.utc), error=message
    )


class TestSnapshotStore:
    def test_bodies_content_addressed(self, tmp_path):
        a = ok_result(normalize("https://a.example/x/"), BODY_OK)
        b = ok_result(normalize("https://b.example/y/"), BODY_OK)
        save_snapshots([a, b], tmp_path)
        html_files = list(tmp_path.glob("*.html"))
        assert len(html_files) == 1  # identical bodies share one file
        index = load_snapshot_index(tmp_path)
        assert index["https://a.example/x/"]["path"] == html_files[0].name
        assert index["https://b.example/y/"]["path"] == html_files[0].name

    def test_round_trip(self, tmp_path):
        url = normalize("https://a.example/x/")
        save_snapshots([ok_result(url, BODY_OTHER), err_result(normalize("https://a.example/z/"), "HTTP 404")], tmp_path)
        index = load_snapshot_index(tmp_path)
        row = index["https://a.example/x/"]
        assert row["status"] == 200
        assert read_snapshot(tmp_path, row) == BODY_OTHER
        bad = index["https://a.example/z/"]
        assert bad["path"] is None
        assert bad["error"] == "HTTP 404"
        # fetched_at survives as parseable ISO text
        assert datetime.fromisoformat(row["fetched_at"]).tzinfo is not None

    def test_read_snapshot_without_body(self, tmp_path):
        save_snapshots([err_result(normalize("https://a.example/z/"), "HTTP 500")], tmp_path)
        (row,) = load_snapshot_index(tmp_path).values()
        with pytest.raises(MalformedRecord):
            read_snapshot(tmp_path, row)

    def test_resave_merges_and_sorts(self, tmp_path):
        save_snapshots([ok_result(normalize("https://b.example/"), BODY_OK)], tmp_path)
        save_snapshots([ok_result(normalize("https://a.example/"), BODY_OTHER)], tmp_path)
        index = load_snapshot_index(tmp_path)
        assert set(index) == {"https://a.example/", "https://b.example/"}
        lines = (tmp_path / "index.jsonl").read_text().splitlines()
        urls = [json.loads(line)["url"] for line in lines]
        assert urls == sorted(urls)

    def test_missing_index_is_empty_store(self, tmp_path):
        assert load_snapshot_index(tmp_path / "nowhere") == {}

    def test_corrupt_index_line_reported(self, tmp_path):
        (tmp_path / "index.jsonl").write_text('{"url": "https://a.example/"}\nnot json\n')
        with pytest.raises(MalformedRecord, match=":2:"):
            load_snapshot_index(tmp_path)


class TestFetchMissing:
    def test_only_absent_urls_fetched(self, base, tmp_path):
        urls = [u(base, "/ok/"), u(base, "/other/")]
        assert fetch_missing(urls, tmp_path, parallelism=2, timeout=5.0) == (2, 0)
        assert fetch_missing(urls, tmp_path, parallelism=2, timeout=5.0) == (0, 2)
        more = urls + [u(base, "/dup/")]
        assert fetch_missing(more, tmp_path, parallelism=2, timeout=5.0) == (1, 2)
        index = load_snapshot_index(tmp_path)
        assert len(index) == 3

    def test_live_refetches_everything(self, base, tmp_path):
        urls = [u(base, "/ok/")]
        fetch_missing(urls, tmp_path, timeout=5.0)
        assert fetch_missing(urls, tmp_path, live=True, timeout=5.0) == (1, 0)
