"""Loopback HTTP server standing in for the web during the cold-fetch workload.

Run:  python3 bench/server.py --workspace DIR --delay SECONDS

It binds 127.0.0.1 on a free port and prints the port on its first stdout
line.  The pipeline reaches it as an HTTP proxy (http_proxy=...), so requests
arrive with absolute URIs and pages keep their http://siteNNNN.example/ hosts.
Every response waits --delay seconds.  URLs planted as missing in
truth.json answer 404; URLs planted as flaky answer 503 on their first
request and 200 after.  GET /__stats returns and resets the request count
and the in-flight peak, and re-arms the flaky URLs.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class _State:
    def __init__(self, pages: dict[str, str], flaky: set[str]) -> None:
        self.pages = pages
        self.flaky = flaky
        self.lock = threading.Lock()
        self.requests = self.in_flight = self.in_flight_max = 0
        self.armed = set(flaky)

    def reset(self) -> dict:
        """Counters since the last reset; re-arms the flaky URLs."""
        with self.lock:
            stats = {"requests": self.requests, "in_flight_max": self.in_flight_max}
            self.requests = self.in_flight_max = 0
            self.armed = set(self.flaky)
        return stats


class _Handler(BaseHTTPRequestHandler):
    server_version = "bench-origin"

    def log_message(self, *args):
        pass

    def _send(self, status: int, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        state: _State = self.server.state
        if self.path == "/__stats":
            self._send(200, json.dumps(state.reset()))
            return
        with state.lock:
            state.requests += 1
            state.in_flight += 1
            state.in_flight_max = max(state.in_flight_max, state.in_flight)
            first_try = self.path in state.armed
            state.armed.discard(self.path)
        time.sleep(self.server.delay)
        # leave the in-flight count before answering: once the client has the
        # response it may send its next request
        with state.lock:
            state.in_flight -= 1
        body = state.pages.get(self.path)
        if body is None:
            self._send(404, "not found")
        elif first_try:
            self._send(503, "busy")
        else:
            self._send(200, body)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workspace", required=True, type=Path)
    ap.add_argument("--delay", required=True, type=float)
    args = ap.parse_args(argv)
    pages = json.loads((args.workspace / "pages.json").read_text("utf-8"))
    truth = json.loads((args.workspace / "truth.json").read_text("utf-8"))
    for url in truth["missing"]:
        pages.pop(url, None)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.state = _State(pages, set(truth["flaky"]))
    server.delay = args.delay
    print(server.server_address[1], flush=True)
    server.serve_forever()  # until terminated
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
