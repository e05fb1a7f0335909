import pytest

from topicpages import (
    DEFAULT_THRESHOLDS,
    TopicClassifier,
    dictionary_assist,
    filter_subpages,
    load_dictionary_file,
    normalize,
)
from topicpages.classify import (
    METHOD_EMBEDDING,
    METHOD_EXACT,
    METHOD_OTHER,
    assignment_to_record,
    best_subpage_records,
    read_assignments,
    read_best_subpages,
)
from topicpages.embeddings import EmbeddingModel
from topicpages.errors import EmptyCandidates, MalformedRecord, MalformedUrl, NoSubpaths
from topicpages.lines import write_jsonl
from topicpages.stopwords import DEFAULT_STOPWORDS

from conftest import text_file


def u(path):
    return normalize(f"https://news-site.example{path}")


class CountingModel(EmbeddingModel):
    """Embedding model that tallies vector lookups."""

    def __init__(self, base):
        super().__init__(base.dimension, dict(base.items()))
        self.lookups = 0

    def vector(self, token):
        self.lookups += 1
        return super().vector(token)


class TestClassify:
    def test_exact_keyword(self, toy_dictionary, toy_model):
        a = TopicClassifier(toy_dictionary, toy_model).classify(u("/sports/"))
        assert a.topic.name == "sports"
        assert a.method == METHOD_EXACT
        assert a.score == 1.0
        assert a.matched_subpath == "sports"

    def test_exact_is_case_insensitive_and_keeps_original_casing(
        self, toy_dictionary, toy_model
    ):
        a = TopicClassifier(toy_dictionary, toy_model).classify(u("/Cricket/"))
        assert (a.topic.name, a.method) == ("sports", METHOD_EXACT)
        assert a.matched_subpath == "Cricket"

    def test_embedding_match(self, toy_dictionary, toy_model):
        # football = (0.6, 0, 0, 0, 0, 0.8) against the sports axis: cos 0.6
        a = TopicClassifier(toy_dictionary, toy_model).classify(u("/football/"))
        assert (a.topic.name, a.method) == ("sports", METHOD_EMBEDDING)
        assert a.score == pytest.approx(0.6, abs=1e-9)
        assert a.matched_subpath == "football"

    def test_below_cutoff_lands_in_other(self, toy_dictionary, toy_model):
        a = TopicClassifier(toy_dictionary, toy_model).classify(u("/quiz/"))
        assert a.topic.is_other
        assert (a.method, a.score, a.matched_subpath) == (METHOD_OTHER, 0.0, "")

    def test_cutoff_boundary_is_inclusive(self, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model, cutoff=0.6)
        assert clf.classify(u("/football/")).method == METHOD_EMBEDDING
        clf = TopicClassifier(toy_dictionary, toy_model, cutoff=0.6000001)
        assert clf.classify(u("/football/")).topic.is_other

    def test_generic_subpath_skipped(self, toy_dictionary, toy_model):
        a = TopicClassifier(toy_dictionary, toy_model).classify(u("/topics/election/"))
        assert (a.topic.name, a.method) == ("politics", METHOD_EXACT)
        assert a.matched_subpath == "election"

    def test_failed_segment_falls_through_to_next(self, toy_dictionary, toy_model):
        # /noise/ scores 0 everywhere, /economy/ is an exact keyword
        a = TopicClassifier(toy_dictionary, toy_model).classify(u("/noise/economy/"))
        assert (a.topic.name, a.method) == ("business", METHOD_EXACT)

    def test_top_segment_decides_before_lower_ones(self, toy_dictionary, toy_model):
        a = TopicClassifier(toy_dictionary, toy_model).classify(u("/sports/election/"))
        assert a.topic.name == "sports"

    def test_homepage_rejected(self, toy_dictionary, toy_model):
        with pytest.raises(NoSubpaths):
            TopicClassifier(toy_dictionary, toy_model).classify(u("/"))

    def test_scores_invariant_under_model_scaling(self, toy_dictionary, toy_model):
        scaled = EmbeddingModel(
            toy_model.dimension, {t: v * 7.3 for t, v in toy_model.items()}
        )
        for path in ["/football/", "/quiz/", "/noise/economy/"]:
            a = TopicClassifier(toy_dictionary, toy_model).classify(u(path))
            b = TopicClassifier(toy_dictionary, scaled).classify(u(path))
            assert (a.topic, a.method) == (b.topic, b.method)
            assert b.score == pytest.approx(a.score, abs=1e-12)

    def test_exact_match_never_touches_the_model(self, toy_dictionary, toy_model):
        counting = CountingModel(toy_model)
        clf = TopicClassifier(toy_dictionary, counting)
        before = counting.lookups  # topic embeddings built at construction
        for path in ["/sports/", "/Cricket/", "/politics/", "/topics/election/"]:
            clf.classify(u(path))
        assert counting.lookups == before

    def test_each_distinct_subpath_scored_once(self, toy_dictionary, toy_model):
        counting = CountingModel(toy_model)
        clf = TopicClassifier(toy_dictionary, counting)
        first = clf.classify(u("/football/"))
        before = counting.lookups
        again = clf.classify(u("/noise/FootBall/"))
        assert counting.lookups == before + 1  # only /noise/ is new
        assert again.matched_subpath == "FootBall"
        assert (again.topic, again.method, again.score) == (first.topic, first.method, first.score)

    def test_equal_scores_go_to_the_first_topic_by_name(self, tmp_path):
        # zebra and alpha have the same keyword vector, so every subpath ties
        dictionary = load_dictionary_file(text_file(
            tmp_path,
            '{"topics": {"zebra": ["zed"], "alpha": ["aye"]}, "generic_subpaths": [], "other_name": "other"}',
        ))
        model = EmbeddingModel(2, {"zed": [1.0, 1.0], "aye": [1.0, 1.0], "near": [1.0, 0.9]})
        clf = TopicClassifier(dictionary, model)
        for path in ["/near/", "/Near/"]:
            a = clf.classify(u(path))
            assert (a.topic.name, a.method) == ("alpha", METHOD_EMBEDDING)

    def test_shared_classifier_matches_fresh_ones(self, toy_dictionary, toy_model):
        paths = ["/football/", "/Football/", "/quiz/", "/noise/economy/", "/QUIZ/football/",
                 "/noise/", "/sports/", "/football/quiz/"]
        shared = TopicClassifier(toy_dictionary, toy_model, cutoff=0.5)
        for path in paths + paths[::-1]:
            fresh = TopicClassifier(toy_dictionary, toy_model, cutoff=0.5).classify(u(path))
            assert shared.classify(u(path)) == fresh

    def test_invalid_cutoff(self, toy_dictionary, toy_model):
        with pytest.raises(ValueError):
            TopicClassifier(toy_dictionary, toy_model, cutoff=1.5)


class TestSelectionWeight:
    # topic embedding: sports + cricket = (1.8, 0.6)
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/sports/", 0.9486832980505138),
            ("/sports/cricket/", 0.5),
            ("/cricket-news/", 0.35355339059327373),
            ("/sports-news/", 0.44721359549995793),
        ],
    )
    def test_hand_computed_weights(self, selection_dictionary, selection_model, path, expected):
        clf = TopicClassifier(selection_dictionary, selection_model)
        topic = selection_dictionary.topic_named("sports")
        assert clf.selection_weight(u(path), topic) == pytest.approx(expected, abs=1e-9)

    def test_all_stopword_path_weighs_zero(self, selection_dictionary, selection_model):
        clf = TopicClassifier(selection_dictionary, selection_model)
        topic = selection_dictionary.topic_named("sports")
        assert clf.selection_weight(u("/the/"), topic) == 0.0


class TestSelectBestSubpage:
    def assignments(self, clf, paths):
        return [clf.classify(u(p)) for p in paths]

    def test_dictionary_first_overrides_rank(self, selection_dictionary, selection_model):
        # /sports-news/ ranks higher (0.447 vs 0.333) but its top segment
        # is not a keyword; /sports/cricket/extra/ starts with one
        clf = TopicClassifier(selection_dictionary, selection_model)
        cands = self.assignments(clf, ["/sports-news/", "/sports/cricket/extra/"])
        assert {c.topic.name for c in cands} == {"sports"}
        best = clf.select_best_subpage(cands)
        assert best.normalized == u("/sports/cricket/extra/").normalized

    def test_fallback_takes_top_ranked(self, selection_dictionary, selection_model):
        clf = TopicClassifier(selection_dictionary, selection_model)
        cands = self.assignments(clf, ["/cricket-news/", "/sports-news/"])
        best = clf.select_best_subpage(cands)
        assert best.normalized == u("/sports-news/").normalized

    def test_equal_weight_breaks_on_length(self, selection_dictionary, selection_model):
        # stopwords vanish before weighting, so both reduce to [sports]
        clf = TopicClassifier(selection_dictionary, selection_model)
        cands = self.assignments(clf, ["/an-sports/", "/a-sports/"])
        best = clf.select_best_subpage(cands)
        assert best.normalized == u("/a-sports/").normalized

    def test_equal_weight_and_length_breaks_lexicographically(
        self, selection_dictionary, selection_model
    ):
        clf = TopicClassifier(selection_dictionary, selection_model)
        cands = self.assignments(clf, ["/i-sports/", "/a-sports/"])
        best = clf.select_best_subpage(cands)
        assert best.normalized == u("/a-sports/").normalized

    def test_site_level_selection_picks_the_same_winner(
        self, selection_dictionary, selection_model
    ):
        clf = TopicClassifier(selection_dictionary, selection_model)
        cands = self.assignments(clf, ["/cricket-news/", "/sports-news/"])
        [best] = clf.select_best_subpages(cands)
        assert [url.normalized for url in best.selections.values()] == [
            u("/sports-news/").normalized
        ]

    def test_empty_candidates(self, selection_dictionary, selection_model):
        clf = TopicClassifier(selection_dictionary, selection_model)
        with pytest.raises(EmptyCandidates):
            clf.select_best_subpage([])

    def test_mixed_topics_rejected(self, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        cands = [clf.classify(u("/sports/")), clf.classify(u("/politics/"))]
        with pytest.raises(ValueError):
            clf.select_best_subpage(cands)

    def test_mixed_sites_rejected(self, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        cands = [
            clf.classify(normalize("https://a.example/sports/")),
            clf.classify(normalize("https://b.example/sports/")),
        ]
        with pytest.raises(ValueError):
            clf.select_best_subpage(cands)

    def test_other_topic_rejected(self, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        with pytest.raises(ValueError):
            clf.select_best_subpage([clf.classify(u("/quiz/"))])


def classify_and_select(clf, internal):
    """Filter, classify and select as the pipeline stages do."""
    kept = filter_subpages(internal, DEFAULT_THRESHOLDS)
    return clf.select_best_subpages([clf.classify(url) for url in kept if url.subpaths])


class TestSelectBestSubpages:
    def test_end_to_end_single_site(self, toy_dictionary, toy_model):
        homepage = normalize("https://news-site.example/")
        internal = [
            u("/sports/"),
            u("/sports/cricket/"),
            u("/quiz/"),  # lands in Other, dropped
            u("/topics/election/"),
            u("/" + "x" * 90 + "/"),  # fails the length threshold
            homepage,  # no path segments, never a candidate
        ]
        clf = TopicClassifier(toy_dictionary, toy_model, cutoff=DEFAULT_THRESHOLDS.cosine_cutoff)
        results = classify_and_select(clf, internal)
        assert len(results) == 1
        best = results[0]
        assert best.site == "news-site.example"
        by_name = {t.name: url.normalized for t, url in best.selections.items()}
        assert by_name == {
            "sports": u("/sports/").normalized,
            "politics": u("/topics/election/").normalized,
        }

    def test_all_other_site_yields_no_rows(self, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        assert classify_and_select(clf, [u("/quiz/")]) == []


class TestDictionaryAssist:
    def test_counts_other_subpaths(self, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        assignments = [
            clf.classify(u(p))
            for p in ["/video/a1/", "/video/a2/", "/quiz/", "/sports/"]
        ]
        ranked = dictionary_assist(assignments)
        assert ranked[0] == ("video", 2)
        assert ("quiz", 1) in ranked
        assert all(name != "sports" for name, _ in ranked)

    def test_skip_set(self, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        assignments = [clf.classify(u("/video/a1/"))]
        ranked = dictionary_assist(assignments, skip={"video"})
        assert ranked == [("a1", 1)]


class TestAssignmentFiles:
    def test_round_trip(self, tmp_path, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        original = [clf.classify(u(p)) for p in ["/sports/", "/football/", "/quiz/"]]
        path = tmp_path / "assignments.jsonl"
        write_jsonl(path, map(assignment_to_record, original))
        loaded = read_assignments(path, toy_dictionary)
        assert loaded == original

    def test_malformed_line_number(self, tmp_path, toy_dictionary):
        path = tmp_path / "assignments.jsonl"
        path.write_text('{"url": "https://a.example/x/"}\n', "utf-8")
        with pytest.raises(MalformedRecord) as err:
            read_assignments(path, toy_dictionary)
        assert str(err.value).startswith(f"{path}:1: ")

    def test_best_subpages_round_trip(self, tmp_path, toy_dictionary, toy_model):
        clf = TopicClassifier(toy_dictionary, toy_model)
        results = classify_and_select(clf, [u("/sports/"), u("/politics/")])
        path = tmp_path / "best.jsonl"
        write_jsonl(path, best_subpage_records(results))
        rows = read_best_subpages(path)
        assert rows == [
            {
                "site": "news-site.example",
                "topic": "politics",
                "url": u("/politics/").normalized,
            },
            {
                "site": "news-site.example",
                "topic": "sports",
                "url": u("/sports/").normalized,
            },
        ]

    def test_best_subpages_url_normalized_or_refused_at_its_line(self, tmp_path):
        row = {"site": "news-site.example", "topic": "sports", "url": "HTTPS://News-Site.example/sports"}
        path = tmp_path / "best.jsonl"
        write_jsonl(path, [row])
        assert read_best_subpages(path) == [{**row, "url": u("/sports/").normalized}]
        write_jsonl(path, [row, {**row, "url": "x"}])
        with pytest.raises(MalformedUrl) as err:
            read_best_subpages(path)
        assert str(err.value).startswith(f"{path}:2: ")


def test_default_stopword_list():
    assert len(DEFAULT_STOPWORDS) == 179
    assert {"a", "an", "the", "i", "of"} <= DEFAULT_STOPWORDS
    assert "sports" not in DEFAULT_STOPWORDS
