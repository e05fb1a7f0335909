"""Every file reader's faults name the file and line; writers replace files whole."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topicpages import PipelineConfig, load_config, normalize
from topicpages.classify import read_assignments, read_best_subpages
from topicpages.dictionary import load_dictionary_file
from topicpages.embeddings import load_embeddings_file
from topicpages.errors import PipelineError
from topicpages.fetch import load_snapshot_index, read_snapshot
import topicpages.lines as lines_mod
from topicpages.lines import _DOCUMENT, read_json, write_json, write_jsonl
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
    "site": "a.example",
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


# one value of a well-formed artifact replaced by a value of the wrong JSON type
MATRIX = {"topics": ["a", "b"], "third_parties": ["x"], "cells": [[1], [0]]}
CONTENT = {"topics": ["a", "b"], "terms": ["x"], "weights": [[0.5], [0.0]]}
STRICT_FAULTS = {
    "tracking-topic-1.5": ("tracking-matrix.json", {**MATRIX, "topics": ["a", 1.5]}),
    "tracking-topic-repeated": ("tracking-matrix.json", {**MATRIX, "topics": ["a", "a"]}),
    "tracking-party-null": ("tracking-matrix.json", {**MATRIX, "third_parties": [None]}),
    "tracking-cell-negative": ("tracking-matrix.json", {**MATRIX, "cells": [[1], [-1]]}),
    "tracking-cell-true": ("tracking-matrix.json", {**MATRIX, "cells": [[True], [0]]}),
    "tracking-cell-1.5": ("tracking-matrix.json", {**MATRIX, "cells": [[1.5], [0]]}),
    "content-topic-dict": ("content-matrix.json", {**CONTENT, "topics": [{"a": 1}, "b"]}),
    "content-term-list": ("content-matrix.json", {**CONTENT, "terms": [["x"]]}),
    "content-weight-string": ("content-matrix.json", {**CONTENT, "weights": [["0.5"], [0.0]]}),
    "content-weight-true": ("content-matrix.json", {**CONTENT, "weights": [[True], [0.0]]}),
    "content-weight-infinite": ("content-matrix.json", {**CONTENT, "weights": [[1e400], [0.0]]}),
    "content-row-number": ("content-matrix.json", {**CONTENT, "weights": [0.5, 0.0]}),
    "content-weight-past-float": ("content-matrix.json", {**CONTENT, "weights": [[10**400], [0]]}),
    "score-nan-string": ("assignments.jsonl", {**ASSIGNMENT, "score": "nan"}),
    "score-true": ("assignments.jsonl", {**ASSIGNMENT, "score": True}),
    "score-1e400-string": ("assignments.jsonl", {**ASSIGNMENT, "score": "1e400"}),
    "score-1e400": ("assignments.jsonl", {**ASSIGNMENT, "score": 1e400}),
    "score-null": ("assignments.jsonl", {**ASSIGNMENT, "score": None}),
    "method-bogus": ("assignments.jsonl", {**ASSIGNMENT, "method": "bogus"}),
    "matched-subpath-number": ("assignments.jsonl", {**ASSIGNMENT, "matched_subpath": 3}),
    "assignment-url-null": ("assignments.jsonl", {**ASSIGNMENT, "url": None}),
    "assignment-topic-list": ("assignments.jsonl", {**ASSIGNMENT, "topic": ["sports"]}),
    "assignment-site-number": ("assignments.jsonl", {**ASSIGNMENT, "site": 1}),
    "best-site-number": ("best.jsonl", {**BEST, "site": 1}),
    "url-subpath-number": ("urls.jsonl", {**URL_ROW, "subpaths": ["sports", 2]}),
    "url-raw-null": ("urls.jsonl", {**URL_ROW, "raw": None}),
    "index-path-number": ("index.jsonl", {"url": "https://a.example/", "path": 1}),
    "index-url-null": ("index.jsonl", {"url": None, "path": None}),
}
STRICT_READERS = {
    "tracking-matrix.json": load_matrix_file,
    "content-matrix.json": load_matrix_file,
    "assignments.jsonl": lambda p: read_assignments(p, SPORTS),
    "best.jsonl": read_best_subpages,
    "urls.jsonl": read_url_file,
    "index.jsonl": lambda p: load_snapshot_index(p.parent),
}


@pytest.mark.parametrize("name", list(STRICT_FAULTS))
def test_value_of_a_wrong_type_is_an_error_naming_the_file(tmp_path, name):
    filename, obj = STRICT_FAULTS[name]
    path = tmp_path / filename
    text = json.dumps(obj).replace("Infinity", "1e400")  # 1e400 is how JSON spells it
    path.write_text(text + "\n", "utf-8")
    with pytest.raises(PipelineError) as err:
        STRICT_READERS[filename](path)
    assert str(err.value).startswith(f"{path}:"), str(err.value)


def _report(**changed):
    return {**REPORT, **changed}


# a mapping the report iterates replaced by another JSON value, and what the error says
REPORT_SHAPES = {
    "cookie-stats-number": (_report(cookie_stats=1.5), "cookie_stats must be a mapping, got 1.5"),
    "breakdown-list": (_report(category_breakdown=[]),
                       "category_breakdown must be a mapping, got []"),
    "breakdown-scope-string": (_report(category_breakdown={"all": "x"}),
                               "category_breakdown.all must be a mapping, got 'x'"),
    "breakdown-topic-number": (_report(category_breakdown={"all": {"sports": 2}}),
                               "category_breakdown.all.sports must be a mapping, got 2"),
    "diff-list": (_report(percent_diff_vs_homepage=[1]),
                  "percent_diff_vs_homepage must be a mapping, got [1]"),
    "diff-topic-number": (_report(percent_diff_vs_homepage={"sports": 1.5}),
                          "percent_diff_vs_homepage.sports must be a mapping, got 1.5"),
    "coverage-null": (_report(top_tp_coverage=[{"third_party": "a.example", "coverage": None}]),
                      "coverage must be a mapping, got None"),
    "report-list": ([1], "the report must be a mapping, got [1]"),
    "cookie-topic-number": (_report(cookie_stats={"sports": 1.5}),
                            "cookie_stats.sports must be a mapping, got 1.5"),
    "cookie-min-string": (
        _report(cookie_stats={"sports": {**REPORT["cookie_stats"]["sports"], "min": "0"}}),
        "cookie_stats.sports.min must be a number, got '0'"),
    "coverage-number": (_report(top_tp_coverage=1.5), "top_tp_coverage must be a list, got 1.5"),
    "coverage-entry-number": (_report(top_tp_coverage=[1.5]),
                              "top_tp_coverage must hold a mapping each, got 1.5"),
    "coverage-percent-string": (
        _report(top_tp_coverage=[{"third_party": "a.example", "coverage": {"sports": "50"}}]),
        "coverage.sports must be a number, got '50'"),
    "diff-percent-list": (_report(percent_diff_vs_homepage={"sports": {"Advertising": [1]}}),
                          "percent_diff_vs_homepage.sports.Advertising must be a number, got [1]"),
}
# the same for a clusters file, whose scatter plot the report writes
CLUSTERS_SHAPES = {
    "clusters-list": ([1], "the clusters file must be a mapping, got [1]"),
    "clusters-assignments-number": ({**CLUSTERS, "assignments": 1.5},
                                    "assignments must be a mapping, got 1.5"),
    "clusters-n-number": ({**CLUSTERS, "n": 1.5}, "n must be an integer, got 1.5"),
    "clusters-n-string": ({**CLUSTERS, "n": "1"}, "n must be an integer, got '1'"),
    "clusters-point-number": ({**CLUSTERS, "points": {"a": 0.5, "b": [-0.5]}},
                              "points.a must be a list, got 0.5"),
    "clusters-coordinate-string": ({**CLUSTERS, "points": {"a": ["0.5"], "b": [-0.5]}},
                                   "points.a must be a number, got '0.5'"),
}


@pytest.mark.parametrize("name", [*REPORT_SHAPES, *CLUSTERS_SHAPES])
def test_report_of_a_wrong_shape_says_what_was_expected(tmp_path, name):
    report, message = {**REPORT_SHAPES, **CLUSTERS_SHAPES}[name]
    path = tmp_path / ("clusters-tracking.json" if name in CLUSTERS_SHAPES
                       else "tracking-report.json")
    write_json(path, report)
    with pytest.raises(PipelineError) as err:
        _plots(path)
    assert str(err.value) == f"{path}: {message}"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(
    st.integers(-(10**20), 10**20), st.booleans(), st.none(), FINITE,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e-310]),
    FINITE.map(np.float64), st.text(max_size=6),
)
NUMBER_LISTS = st.lists(
    st.one_of(st.integers(-(10**6), 10**6), FINITE, st.sampled_from([10**400, -(10**309)])),
    min_size=1, max_size=6,
)
STRING_LISTS = st.lists(st.text(max_size=6), min_size=1, max_size=6)
VALUES = st.recursive(
    st.one_of(SCALARS, NUMBER_LISTS, STRING_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(-2, 2)), children, max_size=3),
    ),
    max_leaves=15,
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "doc.json"


@settings(max_examples=40, deadline=None)
@given(obj=VALUES)
def test_document_bytes_are_json_encoders(doc_path, obj):
    try:
        expected = _DOCUMENT.encode(obj) + "\n"
    except TypeError as exc:  # keys of mixed types do not sort
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            write_json(doc_path, obj)
        return
    write_json(doc_path, obj)
    assert doc_path.read_bytes() == expected.encode("utf-8")


class Label(str):
    """A str subclass: json writes its value, but it is no plain string."""


# non-ASCII, a quote, a backslash, control characters and an empty string
ODD_STRINGS = ["é日本", 'say "hi"', "back\\slash", "\x00\x1f\x7f\u2028\n\t", "", "plain"]


@pytest.mark.parametrize("obj", [
    ODD_STRINGS, [""], ("a", "b"), {"terms": ODD_STRINGS, "topics": [["x", "y"], ["z"]]},
    [Label("é"), "x"], [Label("")], ["x", 1], ["x", None],
])
def test_string_list_bytes_are_json_encoders(doc_path, obj):
    write_json(doc_path, obj)
    assert doc_path.read_bytes() == (_DOCUMENT.encode(obj) + "\n").encode("utf-8")


def test_only_a_list_of_plain_strings_is_joined_at_once(doc_path, monkeypatch):
    joined = []
    encode = lines_mod._STRING
    monkeypatch.setattr(lines_mod, "_STRING", lambda text: joined.append(text) or encode(text))
    for obj in ([Label("a"), "b"], [Label("a")], ["a", 1]):
        write_json(doc_path, obj)
    assert joined == []
    write_json(doc_path, ["a", "b"])
    assert joined == ["a", "b"]


@pytest.mark.parametrize(
    "bad",
    [
        {"a": [1.0, math.nan]},
        [[0.5], [2, math.nan]],
        {"b": {"c": np.float64("nan")}},
        (1, -math.inf),
    ],
)
def test_non_finite_number_fails_naming_the_file(tmp_path, bad):
    with pytest.raises(PipelineError, match="^doc.json: Out of range float"):
        write_json(tmp_path / "doc.json", bad)
    assert list(tmp_path.iterdir()) == []
