import math
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import topicpages.content as content_mod
from topicpages import (
    ContentMatrix,
    TopicDocument,
    detect_english,
    extract_text,
    preprocess,
    tfidf,
)
from topicpages.content import EnglishVerdict
from topicpages.errors import EmptyCorpus
from topicpages.stemmer import stem
from topicpages.stopwords import DEFAULT_STOPWORDS

TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# words and characters at the edges of the rules: stopwords, stems that are
# stopwords, digits and "_", precomposed and combining accents, non-Latin
# letters, and characters that are letters to one rule but not another
# (ordinal and modifier letters, titlecase, astral, Roman numerals, superscripts)
EDGE_WORDS = st.sampled_from(
    [
        "the", "The", "of", "and", "is", "running", "news", "x_y", "42", "4th", "Café",
        "cafe\u0301", "nai\u0308ve", "Ærø", "straße", "İstanbul", "Жизнь", "समाचार",
        "\u00aa", "\u02b0", "\u01c5", "\U0001d518", "\u216b", "\u00b2", "\u0661\u0662", "\u0301",
    ]
)
SEPARATORS = st.sampled_from([" ", " ", "_", "-", ". ", "\u00a0", ""])


@st.composite
def edge_texts(draw):
    parts = draw(st.lists(st.one_of(EDGE_WORDS, st.text(max_size=4)), max_size=30))
    return "".join(part + draw(SEPARATORS) for part in parts)


def reference_preprocess(text, stopwords=DEFAULT_STOPWORDS):
    """NFD without combining marks on every text, then one stem call per token."""
    decomposed = unicodedata.normalize("NFD", text.lower())
    unaccented = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    stems = (stem(t) for t in TOKEN_RE.findall(unaccented))
    return [t for t in stems if t not in stopwords]


def reference_detect_english(text, stopwords=DEFAULT_STOPWORDS, min_confident_length=40):
    """The letter shares taken from a list of every letter."""
    confident = len(text) >= min_confident_length
    letters = [ch for ch in text if ch.isalpha()]
    if not letters:
        return EnglishVerdict(False, confident)
    latin_share = sum(ord(ch) < 128 for ch in letters) / len(letters)
    tokens = TOKEN_RE.findall(text.lower())
    stop_share = (sum(t in stopwords for t in tokens) / len(tokens)) if tokens else 0.0
    return EnglishVerdict(latin_share >= 0.90 and stop_share >= 0.03, confident)


class TestExtractText:
    def test_visible_text_only(self):
        html = (
            "<p>Hello <b>world</b></p>"
            "<script>var x = 'nope';</script>"
            "<style>.a{color:red}</style>"
        )
        assert extract_text(html) == "Hello world"

    def test_entities_decoded(self):
        assert extract_text("<p>A &amp; B &gt; C</p>") == "A & B > C"

    def test_whitespace_collapsed(self):
        assert extract_text("<div>\n  a\n\n  b </div>\t<span>c</span>") == "a b c"

    def test_empty_document(self):
        assert extract_text("") == ""

    def test_attributes_not_text(self):
        assert extract_text('<a href="https://x.example/sports/">go</a>') == "go"


class TestPreprocess:
    def test_accents_folded_before_stemming(self):
        assert preprocess("Économie") == ["economi"]

    def test_stopwords_dropped_after_stemming(self):
        assert preprocess("The THE the") == []

    def test_mixed_sentence(self):
        assert preprocess("The cricket matches were exciting!") == [
            "cricket",
            "match",
            "excit",
        ]

    def test_digits_kept(self):
        assert "2024" in preprocess("budget 2024 review")

    def test_custom_stopwords(self):
        assert preprocess("cricket bat", stopwords={"cricket"}) == ["bat"]


    @settings(max_examples=200, deadline=None)
    @example(text="Caf\u00e9 cafe\u0301 NAI\u0308VE the running", stopwords=DEFAULT_STOPWORDS)
    @given(
        text=st.one_of(edge_texts(), st.text()),
        stopwords=st.sampled_from([DEFAULT_STOPWORDS, frozenset({"news", "run", "cafe"})]),
    )
    def test_matches_per_token_stemming(self, text, stopwords):
        assert preprocess(text, stopwords) == reference_preprocess(text, stopwords)

    def test_each_distinct_token_stemmed_once(self, monkeypatch):
        calls = []

        def counting(word):
            calls.append(word)
            return stem(word)

        monkeypatch.setattr(content_mod, "stem", counting)
        assert preprocess("Running runs RUNNING run the The") == ["run", "run", "run", "run"]
        assert sorted(calls) == ["run", "running", "runs", "the"]


class TestTfidf:
    def test_hand_computed_matrix(self):
        docs = [
            TopicDocument("sports", "cricket cricket bat"),
            TopicDocument("politics", "election vote"),
        ]
        m = tfidf(docs)
        assert m.topics == ("sports", "politics")
        assert m.terms == ("bat", "cricket", "elect", "vote")
        ln2 = math.log(2)
        expected = np.array(
            [
                [ln2 / 3, 2 * ln2 / 3, 0.0, 0.0],
                [0.0, 0.0, ln2 / 2, ln2 / 2],
            ]
        )
        assert np.allclose(m.weights, expected, atol=1e-12)

    def test_term_in_every_document_weighs_exactly_zero(self):
        docs = [
            TopicDocument("a", "cricket shared"),
            TopicDocument("b", "vote shared"),
        ]
        m = tfidf(docs)
        j = m.terms.index("share")
        assert m.weights[0, j] == 0.0
        assert m.weights[1, j] == 0.0

    def test_min_df_drops_rare_terms(self):
        docs = [
            TopicDocument("a", "alpha shared"),
            TopicDocument("b", "beta shared"),
            TopicDocument("c", "gamma unique"),
        ]
        m = tfidf(docs, min_df=2)
        assert m.terms == ("share",)
        assert m.weights[0, 0] == pytest.approx(math.log(3 / 2) / 2, abs=1e-12)
        assert m.weights[2, 0] == 0.0

    def test_empty_document_row_is_zero(self):
        docs = [TopicDocument("a", "cricket"), TopicDocument("b", "")]
        m = tfidf(docs)
        assert np.all(m.weights[1] == 0.0)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            tfidf([])

    def test_bad_min_df(self):
        with pytest.raises(ValueError):
            tfidf([TopicDocument("a", "x")], min_df=0)


class TestContentMatrix:
    def test_round_trip(self):
        m = tfidf(
            [TopicDocument("a", "cricket bat"), TopicDocument("b", "vote election")]
        )
        again = ContentMatrix.from_dict(m.to_dict())
        assert again.equals(m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContentMatrix.from_dict(
                {"topics": ["a"], "terms": ["x", "y"], "weights": [[1.0]]}
            )


class TestDetectEnglish:
    def test_english_paragraph(self):
        v = detect_english(
            "The quick brown fox jumps over the lazy dog near the river today."
        )
        assert v.is_english and v.confident

    def test_devanagari_paragraph(self):
        v = detect_english(
            "यह एक समाचार वेबसाइट है जो राजनीति और खेल की ख़बरें प्रकाशित करती है।"
        )
        assert not v.is_english
        assert v.confident

    def test_cyrillic_paragraph(self):
        v = detect_english(
            "Это новости на русском языке о политике и спорте в стране сегодня."
        )
        assert not v.is_english and v.confident

    def test_latin_without_english_stopwords(self):
        v = detect_english(
            "bonjour académie française journaux quotidiens partout aujourd'hui"
        )
        assert not v.is_english

    def test_short_text_is_low_confidence(self):
        v = detect_english("Hello the world")
        assert v.is_english
        assert not v.confident

    def test_empty_text(self):
        v = detect_english("")
        assert not v.is_english and not v.confident

    def test_numbers_only(self):
        assert not detect_english("12345 67890").is_english

    @settings(max_examples=200, deadline=None)
    @example(text="the abcdef \u00e9", min_length=40)  # 9 of 10 letters Basic Latin: 0.9
    @example(text="the abcde \u00e9", min_length=40)
    @example(text="the news \u00aa\u02b0 x_y 42", min_length=40)
    @given(text=st.one_of(edge_texts(), st.text()), min_length=st.integers(0, 60))
    def test_matches_letter_list(self, text, min_length):
        assert detect_english(text, min_confident_length=min_length) == reference_detect_english(
            text, min_confident_length=min_length
        )
