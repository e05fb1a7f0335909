import json

import pytest

from topicpages import TopicalDictionary, bundled_dictionary, load_dictionary_file
from topicpages.dictionary import Topic
from topicpages.errors import DuplicateKeyword, EmptyTopicSet, MalformedDocument

from conftest import text_file


def doc(topics, **extra):
    return json.dumps({"topics": topics, **extra})


@pytest.fixture
def load(tmp_path):
    """load_dictionary_file() over a file that holds the text given."""
    return lambda text: load_dictionary_file(text_file(tmp_path, text, "dictionary.json"))


class TestLoadDictionary:
    def test_basic_shape(self, load):
        d = load(doc({"sports": ["sports", "cricket"], "politics": ["politics"]}))
        assert [t.name for t in d.non_other_topics()] == ["sports", "politics"]
        assert d.other_topic().name == "other"
        assert d.other_topic().is_other
        assert len(d) == 3
        assert [d.topic_of_keyword(k).name for k in ("sports", "cricket", "politics")] == [
            "sports",
            "sports",
            "politics",
        ]

    def test_keyword_lookup(self, load):
        d = load(doc({"sports": ["cricket"]}))
        assert d.topic_of_keyword("cricket") == Topic("sports")
        assert d.topic_of_keyword("absent") is None
        assert d.keywords_for(d.topic_named("sports")) == ("cricket",)

    def test_keywords_lowercased(self, load):
        d = load(doc({"sports": ["Cricket"]}))
        assert d.topic_of_keyword("cricket") is not None

    def test_generic_subpaths(self, load):
        d = load(doc({"t": ["k"]}, generic_subpaths=["topics", "Pages"]))
        assert d.is_generic("topics")
        assert d.is_generic("PAGES")
        assert not d.is_generic("k")

    def test_custom_other_name(self, load):
        d = load(doc({"t": ["k"]}, other_name="misc"))
        assert d.other_topic().name == "misc"

    def test_other_carries_no_keywords(self, load):
        d = load(doc({"t": ["k"]}))
        assert d.keywords_for(d.other_topic()) == ()

    def test_duplicate_keyword_across_topics(self, load):
        with pytest.raises(DuplicateKeyword, match="cricket"):
            load(doc({"a": ["cricket"], "b": ["cricket"]}))

    def test_duplicate_keyword_within_topic(self, load):
        with pytest.raises(DuplicateKeyword):
            load(doc({"a": ["x", "X"]}))

    def test_empty_topics(self, load):
        with pytest.raises(EmptyTopicSet):
            load(doc({}))

    def test_topic_name_clashes_with_other(self, load):
        with pytest.raises(MalformedDocument, match="clashes"):
            load(doc({"other": ["k"]}))

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
    def test_malformed_documents(self, load, text):
        with pytest.raises(MalformedDocument):
            load(text)

    def test_file_round_trip(self, tmp_path):
        p = text_file(tmp_path, doc({"sports": ["cricket"]}), "d.json")
        assert load_dictionary_file(str(p)).topic_of_keyword("cricket") == Topic("sports")


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
