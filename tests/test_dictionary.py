import json

import pytest

from topicpages import TopicalDictionary, bundled_dictionary, load_dictionary
from topicpages.dictionary import Topic, load_dictionary_file
from topicpages.errors import DuplicateKeyword, EmptyTopicSet, MalformedDocument


def doc(topics, **extra):
    return json.dumps({"topics": topics, **extra})


class TestLoadDictionary:
    def test_basic_shape(self):
        d = load_dictionary(doc({"sports": ["sports", "cricket"], "politics": ["politics"]}))
        assert [t.name for t in d.non_other_topics()] == ["sports", "politics"]
        assert d.other_topic().name == "other"
        assert d.other_topic().is_other
        assert len(d) == 3
        assert [d.topic_of_keyword(k).name for k in ("sports", "cricket", "politics")] == [
            "sports",
            "sports",
            "politics",
        ]

    def test_keyword_lookup(self):
        d = load_dictionary(doc({"sports": ["cricket"]}))
        assert d.topic_of_keyword("cricket") == Topic("sports")
        assert d.topic_of_keyword("absent") is None
        assert d.keywords_for(d.topic_named("sports")) == ("cricket",)

    def test_keywords_lowercased(self):
        d = load_dictionary(doc({"sports": ["Cricket"]}))
        assert d.topic_of_keyword("cricket") is not None

    def test_generic_subpaths(self):
        d = load_dictionary(doc({"t": ["k"]}, generic_subpaths=["topics", "Pages"]))
        assert d.is_generic("topics")
        assert d.is_generic("PAGES")
        assert not d.is_generic("k")

    def test_custom_other_name(self):
        d = load_dictionary(doc({"t": ["k"]}, other_name="misc"))
        assert d.other_topic().name == "misc"

    def test_other_carries_no_keywords(self):
        d = load_dictionary(doc({"t": ["k"]}))
        assert d.keywords_for(d.other_topic()) == ()

    def test_duplicate_keyword_across_topics(self):
        with pytest.raises(DuplicateKeyword, match="cricket"):
            load_dictionary(doc({"a": ["cricket"], "b": ["cricket"]}))

    def test_duplicate_keyword_within_topic(self):
        with pytest.raises(DuplicateKeyword):
            load_dictionary(doc({"a": ["x", "X"]}))

    def test_empty_topics(self):
        with pytest.raises(EmptyTopicSet):
            load_dictionary(doc({}))

    def test_topic_name_clashes_with_other(self):
        with pytest.raises(MalformedDocument, match="clashes"):
            load_dictionary(doc({"other": ["k"]}))

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            json.dumps(["topics"]),
            json.dumps({"no_topics": {}}),
            doc({"t": "not-a-list"}),
            doc({"t": ["ok"]}, generic_subpaths="nope"),
            doc({"t": ["ok"]}, other_name=""),
            doc({"t": ["has space"]}),
            doc({"t": [""]}),
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(MalformedDocument):
            load_dictionary(text)

    def test_bytes_accepted(self):
        d = load_dictionary(doc({"t": ["k"]}).encode("utf-8"))
        assert d.topic_named("t") == Topic("t")

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(doc({"sports": ["cricket"]}), "utf-8")
        assert load_dictionary_file(p).topic_of_keyword("cricket") == Topic("sports")


class TestTopicalDictionaryDirect:
    def test_explicit_other_topic(self):
        d = TopicalDictionary({Topic("t"): ["k"], Topic("rest", is_other=True): []})
        assert d.other_topic().name == "rest"

    def test_two_other_topics_rejected(self):
        with pytest.raises(MalformedDocument):
            TopicalDictionary(
                {Topic("a", is_other=True): [], Topic("b", is_other=True): [], Topic("t"): ["k"]}
            )

    def test_other_with_keywords_rejected(self):
        with pytest.raises(MalformedDocument):
            TopicalDictionary({Topic("t"): ["k"], Topic("o", is_other=True): ["x"]})

    def test_only_other_rejected(self):
        with pytest.raises(EmptyTopicSet):
            TopicalDictionary({Topic("o", is_other=True): []})

    def test_hyphenated_keywords_allowed(self):
        d = TopicalDictionary({Topic("t"): ["real-estate"]})
        assert d.topic_of_keyword("real-estate").name == "t"


def test_bundled_dictionary_shape():
    d = bundled_dictionary()
    assert len(d.non_other_topics()) == 15
    names = {t.name for t in d.non_other_topics()}
    assert {"sports", "politics", "business-economy-finance", "entertainment"} <= names
    for topic in d.non_other_topics():
        assert d.keywords_for(topic)
        assert all(d.topic_of_keyword(k) == topic for k in d.keywords_for(topic))
    assert d.is_generic("topics")
