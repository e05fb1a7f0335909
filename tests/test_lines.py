"""Every file reader's faults name the file and line; writers replace files whole."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topicpages import PipelineConfig, load_config, normalize
from topicpages.classify import read_assignments, read_best_subpages
from topicpages.dictionary import load_dictionary_file
from topicpages.embeddings import load_embeddings_file
from topicpages.errors import PipelineError
from topicpages.fetch import load_snapshot_index, read_snapshot
from topicpages.lines import read_json, write_json, write_jsonl
from topicpages.pipeline import STAGE_NAMED, Runner, load_matrix_file, read_homepage_list
from topicpages.stopwords import load_stopwords
from topicpages.thresholds import Thresholds
from topicpages.tracking import load_disconnect_file, read_crawl_log
from topicpages.urls import load_suffixes, read_url_file, url_to_record

from conftest import DATA


def _rows(*rows):
    return [json.dumps(row, sort_keys=True) for row in rows]


def _document(obj):
    return json.dumps(obj, indent=2).split("\n")


VISIT = {"page_url": "https://a.example/x/", "site": "a.example", "topic": "sports"}
ASSIGNMENT = {
    "url": "https://a.example/sports/",
    "topic": "sports",
    "method": "exact",
    "score": 1.0,
    "matched_subpath": "sports",
}
BEST = {"site": "a.example", "topic": "sports", "url": "https://a.example/sports/"}
URL_ROW = url_to_record(normalize("https://a.example/sports/"), "a.example")
REPORT = {
    "cookie_stats": {
        "sports": {"min": 0, "q1": 0, "median": 1, "mean": 1, "q3": 1, "max": 2, "count": 3}
    },
    "category_breakdown": {"all": {"sports": {"Advertising": 1}}, "top_sites": None},
    "percent_diff_vs_homepage": None,
    "top_tp_coverage": [{"third_party": "ads.example", "coverage": {"sports": 50.0}}],
}
CLUSTERS = {"n": 1, "assignments": {"a": 0, "b": 1}, "points": {"a": [0.5], "b": [-0.5]}}
SPORTS = load_dictionary_file(DATA / "toy_dictionary.json")


def _plots(path):
    out_dir = path.parent.parent if path.parent.name == "histograms" else path.parent
    return Runner(PipelineConfig(out_dir=str(out_dir))).run_stage(STAGE_NAMED["report"])


# (file name, its lines, how it is parsed: "jsonl", "json" (whole) or
# "text", and the reader)
READERS = {
    "url-file": ("urls.jsonl", _rows(URL_ROW) * 3, "jsonl", read_url_file),
    "assignments": (
        "assignments.jsonl", _rows(ASSIGNMENT) * 3, "jsonl",
        lambda p: read_assignments(p, SPORTS),
    ),
    "best-subpages": ("best.jsonl", _rows(BEST) * 3, "jsonl", read_best_subpages),
    "crawl-log": ("crawl_log.jsonl", _rows(VISIT) * 3, "jsonl", read_crawl_log),
    "snapshot-index": (
        "index.jsonl", _rows(*({"url": f"https://{s}.example/", "path": None} for s in "abc")),
        "jsonl", lambda p: load_snapshot_index(p.parent),
    ),
    "snapshot-body": (
        "page.html", ["<html>", "<p>a</p>", "</html>"], "text",
        lambda p: read_snapshot(p.parent, {"path": p.name}),
    ),
    "homepage-list": (
        "urls.txt", ["# sites", "https://a.example/", "https://b.example/"], "text",
        read_homepage_list,
    ),
    "disconnect": (
        "disconnect.tsv",
        ["a.example\tAdvertising", "b.example\tAnalytics", "c.example\tAnalytics"],
        "text", load_disconnect_file,
    ),
    "stopwords": ("stop.txt", ["the", "and", "of"], "text", load_stopwords),
    "suffixes": ("suffixes.txt", ["# suffixes", "co.uk", "com.au"], "text", load_suffixes),
    "config": (
        "run.toml", ["seed = 1", "k = 2", "restarts = 3"], "text",
        lambda p: load_config(p, env={}),
    ),
    "embeddings": ("vectors.txt", ["2 1", "a 1", "b 2"], "text", load_embeddings_file),
    "dictionary": (
        "dictionary.json", _document({"topics": {"sports": ["sports", "cricket"]}}), "json",
        load_dictionary_file,
    ),
    "thresholds": (
        "thresholds.json",
        _document({"max_url_length": 80, "max_subpath_length": 30, "max_hyphens": 4}),
        "json", lambda p: read_json(p, Thresholds.from_dict),
    ),
    "matrix": (
        "tracking-matrix.json",
        _document({"topics": ["a", "b"], "third_parties": ["x"], "cells": [[1], [0]]}),
        "json", load_matrix_file,
    ),
    "plots-best": ("best.jsonl", _rows(BEST) * 3, "jsonl", _plots),
    "plots-internal": ("internal.jsonl", _rows(URL_ROW) * 3, "jsonl", _plots),
    "plots-histogram": (
        "histograms/url_length.csv", ["bucket,count", "1,2", "2,3"], "text", _plots
    ),
    "plots-report": ("tracking-report.json", _document(REPORT), "json", _plots),
    "plots-clusters": ("clusters-tracking.json", _document(CLUSTERS), "json", _plots),
}


def _cases():
    for name, (_, _, kind, _) in READERS.items():
        yield pytest.param(name, "not-utf8", id=f"{name}-not-utf8")
        if kind != "text":
            yield pytest.param(name, "truncated", id=f"{name}-truncated")


def _write(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(line + b"\n" for line in lines))


@pytest.mark.parametrize("name,fault", list(_cases()))
def test_reader_fault_names_file_and_line(tmp_path, name, fault):
    filename, lines, kind, read = READERS[name]
    path = tmp_path / "out" / filename
    if name == "plots-internal":
        _write(path.parent / "best.jsonl", [line.encode() for line in _rows(BEST)])
    encoded = [line.encode("utf-8") for line in lines]
    _write(path, encoded)
    read(path)  # the unbroken file is accepted
    third = encoded[2]
    if fault == "not-utf8":
        encoded[2] = third[:1] + b"\xff" + third[1:]
    elif kind == "jsonl":
        encoded[2] = third[: len(third) // 2]
    else:  # a whole document cut short in its third line
        encoded[2:] = [third[: len(third) // 2]]
    _write(path, encoded)
    with pytest.raises(PipelineError) as err:
        read(path)
    prefix = f"{path}: " if kind == "json" and fault == "truncated" else f"{path}:3: "
    assert str(err.value).startswith(prefix)


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=15, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4)
)
def test_corrupted_bytes_give_a_result_or_an_error_naming_the_file(name, edits):
    filename, lines, _, read = READERS[name]
    data = bytearray(b"".join(line.encode("utf-8") + b"\n" for line in lines))
    for position, byte in edits:
        data[position % len(data)] = byte
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out" / filename
        if name == "plots-internal":
            _write(path.parent / "best.jsonl", [line.encode() for line in _rows(BEST)])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(bytes(data))
        try:
            read(path)
        except PipelineError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)


@pytest.mark.parametrize("name", ["url-file", "homepage-list", "disconnect", "config"])
def test_crlf_line_ends_read_like_lf(tmp_path, name):
    filename, lines, _, read = READERS[name]
    lf, crlf = tmp_path / "lf" / filename, tmp_path / "crlf" / filename
    _write(lf, [line.encode() for line in lines])
    _write(crlf, [line.encode() + b"\r" for line in lines])
    assert read(crlf) == read(lf)


@pytest.mark.parametrize(
    "write,bad",
    [
        (write_jsonl, [{"a": 1}, {"a": math.nan}]),
        (write_json, {"a": [1.0, math.inf]}),
    ],
    ids=["jsonl", "json"],
)
def test_refused_value_keeps_the_previous_file(tmp_path, write, bad):
    path = tmp_path / "artifact.json"
    path.write_bytes(b"previous bytes\n")
    with pytest.raises(PipelineError, match="^artifact.json: "):
        write(path, bad)
    assert path.read_bytes() == b"previous bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_jsonl_bytes(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, iter([{"b": "é", "a": 1.5}, {}]))
    assert path.read_bytes() == '{"a": 1.5, "b": "é"}\n{}\n'.encode("utf-8")
