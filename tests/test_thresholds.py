import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topicpages import (
    DEFAULT_THRESHOLDS,
    Thresholds,
    build_histogram,
    filter_subpages,
    find_bimodal_threshold,
    normalize,
    url_metrics,
)
from topicpages import urls as urls_mod
from topicpages.config import PipelineConfig, load_config
from topicpages.errors import NotBimodal, PipelineError
from topicpages.pipeline import STAGE_NAMED, Runner, run_pipeline
from topicpages.thresholds import (
    DEFAULT_BUCKET_SIZES,
    fit_url_histograms,
    histogram_csv,
    url_histograms,
)
from topicpages.lines import write_text
from topicpages.urls import read_url_file, url_lines, url_to_record

from conftest import DATA, build_e2e_workspace


def hist_from_counts(counts, bucket_size=1.0):
    values = [i * bucket_size for i, c in enumerate(counts) for _ in range(c)]
    return build_histogram(values, bucket_size)


class TestBuildHistogram:
    def test_integer_buckets(self):
        h = build_histogram([0, 0, 0, 3, 3, 4], 1.0)
        assert h.counts == {0: 3, 3: 2, 4: 1}
        assert all(isinstance(k, int) for k in h.counts)

    def test_wider_buckets(self):
        h = build_histogram([1, 4, 5, 9, 10, 14], 5.0)
        assert h.counts == {0: 2, 5: 2, 10: 2}

    def test_fractional_bucket_boundary(self):
        # 0.15 sits exactly on a 0.05 boundary; float division must not
        # push it into the bucket below
        h = build_histogram([0.15], 0.05)
        assert h.counts == {0.15: 1}

    def test_empty_raises(self):
        with pytest.raises(PipelineError, match="^cannot build a histogram from no values$"):
            build_histogram([], 1.0)

    def test_bad_bucket_size(self):
        with pytest.raises(ValueError):
            build_histogram([1.0], 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.one_of(st.integers(-30, 300), st.sampled_from([0.15, -0.0, 2.5, 7.0])),
                        min_size=1, max_size=40),
        bucket_size=st.sampled_from([1.0, 5.0, 0.05, 2.5]),
    )
    def test_same_buckets_in_the_same_order_as_one_value_at_a_time(self, values, bucket_size):
        expected = {}
        for v in values:
            start = bucket_size * math.floor(v / bucket_size + 1e-9)
            start = int(round(start)) if bucket_size.is_integer() else round(start, 10)
            expected[start] = expected.get(start, 0) + 1
        counts = build_histogram(values, bucket_size).counts
        assert list(counts.items()) == list(expected.items())
        assert [type(k) for k in counts] == [type(k) for k in expected]


class TestFindBimodalThreshold:
    # counts laid out from bucket 0; expected thresholds derived by hand
    # from the documented rules (persistent mode pair, longest minimal run
    # between them, start of that run's last bucket)
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ([5, 0, 0, 7], 2),
            ([9, 1, 2, 1, 8], 3),
            ([8, 0, 9], 1),
            ([4, 4, 0, 5], 2),  # plateau on the left mode
            ([5, 0, 7, 0, 5], 1),  # equal pair mass ties to the leftmost pair
            ([4, 9, 8, 9, 2], 2),  # one-bucket dip between twin peaks
            ([7, 5, 5, 7], 2),  # two-bucket flat valley, rightmost end
        ],
    )
    def test_hand_cases(self, counts, expected):
        assert find_bimodal_threshold(hist_from_counts(counts)) == expected

    def test_bucket_size_scales_result(self):
        assert find_bimodal_threshold(hist_from_counts([5, 0, 0, 7], 5.0)) == 10

    @pytest.mark.parametrize(
        "counts",
        [
            [50, 0, 1],  # right mode below the 5% side-mass floor
            [9, 6, 3, 1],  # monotone decay, one mode
            [5, 7],  # spans fewer than three buckets
            [5, 5, 7],  # plateau shoulder, still one mode
            [3, 9, 4],  # single interior mode
        ],
    )
    def test_not_bimodal(self, counts):
        with pytest.raises(NotBimodal):
            find_bimodal_threshold(hist_from_counts(counts))

    def test_jitter_on_a_flank_does_not_split_a_mode(self):
        # two jitter spikes near the left mode must not be mistaken for a
        # mode pair: the real valley is the long zero run before bucket 9
        counts = [20, 50, 48, 49, 20, 0, 0, 0, 0, 30, 10]
        assert find_bimodal_threshold(hist_from_counts(counts)) == 8

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_recovers_planted_gap(self, seed):
        rng = np.random.default_rng(seed)
        left = rng.normal(30, 6, 1500)
        right = rng.normal(110, 12, 1500)
        values = [float(v) for v in np.clip(np.concatenate([left, right]), 1, 160)]
        t = find_bimodal_threshold(build_histogram(values, 1.0))
        assert left.max() <= t <= right.min()


def _segment(rng, length, hyphens):
    letters = "abcdefghijklmnopqrstuvwxyz"
    chars = [letters[rng.integers(0, 26)] for _ in range(length)]
    for p in rng.choice(np.arange(1, length - 1), size=hyphens, replace=False):
        chars[p] = "-"
    return "".join(chars)


def planted_urls(seed, n_side=800):
    """Synthetic link set: short clean section paths vs long hyphenated slugs."""
    rng = np.random.default_rng(seed)
    urls = []
    for _ in range(n_side):
        urls.append(
            f"https://site.example/{_segment(rng, int(rng.integers(5, 19)), int(rng.integers(0, 2)))}/"
        )
    for _ in range(n_side):
        urls.append(
            f"https://site.example/{_segment(rng, int(rng.integers(47, 76)), int(rng.integers(6, 13)))}/"
        )
    return [normalize(u) for u in urls]


def fit(urls, **options):
    """The fit-thresholds stage's fit: the histograms of *urls*, then their valleys."""
    return fit_url_histograms(url_histograms(urls, DEFAULT_BUCKET_SIZES), **options)


class TestFitThresholds:
    def test_recovers_each_parameter_gap(self):
        urls = planted_urls(seed=21)
        fitted = fit(urls)
        metrics = [url_metrics(u) for u in urls]
        half = len(urls) // 2
        for vals, got in [
            ([m.url_length for m in metrics], fitted.max_url_length),
            ([m.max_subpath_length for m in metrics], fitted.max_subpath_length),
            ([m.max_hyphens for m in metrics], fitted.max_hyphens),
        ]:
            assert max(vals[:half]) <= got <= min(vals[half:])
        assert fitted.cosine_cutoff == 0.4

    def test_unimodal_parameter_raises_with_name(self):
        urls = [normalize(f"https://site.example/{'a' * n}/") for n in [8] * 30 + [9] * 5]
        with pytest.raises(NotBimodal, match="url_length"):
            fit(urls)

    def test_fallback_defaults(self):
        urls = [normalize(f"https://site.example/{'a' * n}/") for n in [8] * 30 + [9] * 5]
        fitted = fit(urls, fallback_defaults=True)
        assert (
            fitted.max_url_length,
            fitted.max_subpath_length,
            fitted.max_hyphens,
        ) == (80, 30, 4)

    def test_small_sample_is_not_fitted(self):
        # a handful of URLs always shows accidental "modes"
        urls = [normalize(f"https://site.example/{'ab' * (n + 1)}/") for n in range(13)]
        with pytest.raises(NotBimodal, match="13 training URLs"):
            fit(urls)

    def test_small_sample_falls_back(self):
        urls = [normalize(f"https://site.example/{'ab' * (n + 1)}/") for n in range(13)]
        fitted = fit(urls, fallback_defaults=True, cosine_cutoff=0.6)
        assert (
            fitted.max_url_length,
            fitted.max_subpath_length,
            fitted.max_hyphens,
            fitted.cosine_cutoff,
        ) == (80, 30, 4, 0.6)

    def test_empty_input(self):
        with pytest.raises(PipelineError, match="^no training URLs$"):
            fit([])


class TestFitUrlHistograms:
    def test_fit_stage_computes_each_url_metrics_once(self, tmp_path, monkeypatch):
        config_path = build_e2e_workspace(tmp_path / "ws")
        cfg = load_config(config_path, env={}, overrides={"fallback_defaults": True})
        urls = planted_urls(seed=3, n_side=40)
        source = tmp_path / "internal.jsonl"
        write_text(source, url_lines([(u, "site.example") for u in urls]))
        calls = []

        def counting(u):
            calls.append(u.normalized)
            return url_metrics(u)

        monkeypatch.setattr(urls_mod, "url_metrics", counting)
        Runner(cfg).run_stage(STAGE_NAMED["fit-thresholds"], source)
        assert sorted(calls) == sorted(u.normalized for u in urls)

    def test_full_run_measures_each_internal_url_once(self, e2e_config, monkeypatch, request):
        # fit-thresholds measures the rows extract kept, and filter reuses the measures,
        # with the tracking half in order (the e2e fixture is too small to fork for) or forked
        calls = []

        def counting(u):
            calls.append(u.normalized)
            return url_metrics(u)

        monkeypatch.setattr(urls_mod, "url_metrics", counting)
        cfg = load_config(e2e_config, env={})
        for forks in (False, True):
            if forks:
                request.getfixturevalue("forking")
            calls.clear()
            assert run_pipeline(cfg)[0] == 0
            internal = read_url_file(Path(cfg.out_dir) / "internal.jsonl")
            assert internal
            assert sorted(calls) == sorted(u.normalized for u, _ in internal)


class TestFilterSubpages:
    def test_url_length_boundary_inclusive(self):
        t = Thresholds(30, 100, 100)
        keep = normalize("https://x.example/abcdefghijk/")  # exactly 30 chars
        drop = normalize("https://x.example/abcdefghijkl/")  # 31
        assert len(keep.normalized) == 30 and len(drop.normalized) == 31
        assert filter_subpages([keep, drop], t) == [keep]

    def test_subpath_boundary_inclusive(self):
        t = Thresholds(100, 5, 100)
        keep = normalize("https://x.example/abcde/")
        drop = normalize("https://x.example/abcdef/")
        assert filter_subpages([keep, drop], t) == [keep]

    def test_hyphen_boundary_inclusive(self):
        t = Thresholds(100, 100, 2)
        keep = normalize("https://x.example/a-b-c/")
        drop = normalize("https://x.example/a-b-c-d/")
        assert filter_subpages([keep, drop], t) == [keep]

    def test_worst_subpath_decides(self):
        t = Thresholds(100, 6, 100)
        u = normalize("https://x.example/short/waytoolongsegment/")
        assert filter_subpages([u], t) == []

    def test_order_preserved(self):
        urls = [normalize(f"https://x.example/s{i}/") for i in (3, 1, 2)]
        assert filter_subpages(urls, DEFAULT_THRESHOLDS) == urls

    def test_stage_keeps_each_row_by_its_own_metrics(self, tmp_path):
        # a hand-edited file whose two rows for one URL differ in subpaths: the stage,
        # as filter_subpages, keeps the row that passes and drops the one that does not
        out = tmp_path / "out"
        out.mkdir()
        (out / "thresholds.json").write_text(json.dumps(DEFAULT_THRESHOLDS.to_dict()), "utf-8")
        good = url_to_record(normalize("https://a.example/sports/"), "a.example")
        long = {**good, "subpaths": ["x" * (DEFAULT_THRESHOLDS.max_subpath_length + 1)]}
        source = tmp_path / "internal.jsonl"
        source.write_text(f"{json.dumps(long)}\n{json.dumps(good)}\n", "utf-8")
        summary = Runner(PipelineConfig(out_dir=str(out))).run_stage(STAGE_NAMED["filter"], source)
        assert summary == {"kept": 1, "dropped": 1}
        assert read_url_file(out / "filtered.jsonl") == read_url_file(source)[1:]


subpath_st = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,18}[a-z0-9])?", fullmatch=True)
url_st = st.lists(subpath_st, min_size=0, max_size=5).map(
    lambda segs: normalize("https://prop.example/" + "/".join(segs))
)


@settings(max_examples=60)
@given(st.lists(url_st, max_size=30))
def test_filter_idempotent(urls):
    once = filter_subpages(urls, DEFAULT_THRESHOLDS)
    assert filter_subpages(once, DEFAULT_THRESHOLDS) == once


@settings(max_examples=60)
@given(st.lists(url_st, max_size=30))
def test_filter_monotone_in_thresholds(urls):
    tight = Thresholds(40, 10, 1)
    kept_tight = {u.normalized for u in filter_subpages(urls, tight)}
    kept_loose = {u.normalized for u in filter_subpages(urls, DEFAULT_THRESHOLDS)}
    assert kept_tight <= kept_loose


class TestThresholdsObject:
    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds(-1, 30, 4)
        with pytest.raises(ValueError):
            Thresholds(80, 30, 4, cosine_cutoff=1.5)

    def test_round_trip(self):
        t = Thresholds(70, 25, 3, cosine_cutoff=0.35)
        assert Thresholds.from_dict(t.to_dict()) == t

    def test_integral_cutoff_is_a_number(self):
        t = Thresholds.from_dict({**DEFAULT_THRESHOLDS.to_dict(), "cosine_cutoff": 1})
        assert t.cosine_cutoff == 1.0 and isinstance(t.cosine_cutoff, float)

    @pytest.mark.parametrize(
        "key,value,fault",
        [
            ("max_url_length", 80.9, "max_url_length must be an integer, got 80.9"),
            ("max_url_length", 80.0, "max_url_length must be an integer, got 80.0"),
            ("max_subpath_length", True, "max_subpath_length must be an integer, got True"),
            ("max_hyphens", "4", "max_hyphens must be an integer, got '4'"),
            ("cosine_cutoff", True, "cosine_cutoff must be a number, got True"),
            ("cosine_cutoff", "0.4", "cosine_cutoff must be a number, got '0.4'"),
        ],
    )
    @pytest.mark.parametrize("stage", ["filter", "classify"])
    def test_hand_edited_value_of_another_type_fails_the_stage(
        self, tmp_path, stage, key, value, fault
    ):
        out = tmp_path / "out"
        out.mkdir()
        thresholds = out / "thresholds.json"
        thresholds.write_text(json.dumps({**DEFAULT_THRESHOLDS.to_dict(), key: value}), "utf-8")
        source = tmp_path / "urls.jsonl"
        write_text(source, url_lines([(normalize("https://a.example/sports/"), "a.example")]))
        cfg = PipelineConfig(out_dir=str(out), embeddings=str(DATA / "toy_vectors.txt"))
        with pytest.raises(PipelineError, match=f"^{re.escape(f'{thresholds}: {fault}')}$"):
            Runner(cfg).run_stage(STAGE_NAMED[stage], source)


def test_histogram_csv(tmp_path):
    path = tmp_path / "h.csv"
    write_text(path, histogram_csv(build_histogram([1, 1, 7, 3], 1.0)))
    assert path.read_text("utf-8") == "bucket,count\n1,2\n3,1\n7,1\n"
