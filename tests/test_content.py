import math
import re
import unicodedata
from collections import Counter
from html.parser import HTMLParser

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import topicpages.content as content_mod
from topicpages import (
    ContentMatrix,
    TopicDocument,
    detect_english,
    extract_text,
    preprocess,
    read_page,
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


# pieces of pages: hrefs in each quoting, character references in text and
# attributes, script and style bodies, comments, and tags left open
HTML_PIECES = st.sampled_from(
    [
        '<a href="/sports/">', "<A HREF='https://x.example/a&amp;b/'>", "<link href=/news/>",
        '<a href="">', '<a name="top">', '<area href="&#x2f;world&#47;">', "<img src=x.png>",
        "<br/>", "<p>", "</p>", "<div class=x>", "</div>", "<script>", "</script>",
        "<style>", "</style>", "<script/>", "</b>", "<!-- a <a href='/c/'> -->", "<![CDATA[x]]>",
        "Caf&eacute; &amp; b", "&#65;&#x263a;", "&nbsp;x", "&bogus; y", "a < b", "\n  \t",
        'var s = "<a href=/in-script/>";', '<a href="/open/"', "<p class='unclosed",
    ]
)


@st.composite
def pages(draw):
    pieces = draw(st.lists(st.one_of(HTML_PIECES, st.text(max_size=6)), max_size=25))
    return "".join(pieces)


class HrefOracle(HTMLParser):
    """Every non-empty href value of any element, in document order."""

    def __init__(self):
        super().__init__()
        self.found = []

    def handle_starttag(self, tag, attrs):
        for name, value in attrs:
            if name.lower() == "href" and value:
                self.found.append(value)


class TextOracle(HTMLParser):
    """The text chunks outside script and style elements, in document order."""

    def __init__(self):
        super().__init__()
        self.open_skips = 0
        self.found = []

    def handle_starttag(self, tag, attrs):
        self.open_skips += tag in ("script", "style")

    def handle_endtag(self, tag):
        if tag in ("script", "style") and self.open_skips:
            self.open_skips -= 1

    def handle_data(self, data):
        if not self.open_skips and data.strip():
            self.found.append(data)


def oracle(parser_class, html):
    parser = parser_class()
    parser.feed(html)
    parser.close()
    return parser.found


# read_page's regex subset: ASCII tag names, attributes that are bare or quoted
# (values hold no quote), character references, comments without "--", "<" or
# ">", a doctype, script/style elements whose body holds no "<", and title-like
# elements whose body holds no "<" or "&"
SUBSET_NAMES = st.sampled_from(["a", "A", "p", "div", "link", "area", "my-el", "h1", "scripts"])
SUBSET_SPACES = st.sampled_from([" ", "\n", "\t ", "\r\n"])
SUBSET_VALUES = st.sampled_from([
    "/sports/", "", "https://x.example/a&amp;b/", "&#x2f;world&#47;", "a>b", "a<b", "t&eacute;",
    "caf\u00e9", " spaced ", "?a=1&b=2", "&lt;&gt;",
])


@st.composite
def subset_attributes(draw):
    name = draw(st.sampled_from(["href", "HREF", "Href", "class", "hreflang", "data-href", "x:y"]))
    quote = draw(st.sampled_from(["", '"', "'"]))
    if not quote:
        return name
    equals = draw(st.sampled_from(["=", " = ", "\n="]))
    return f"{name}{equals}{quote}{draw(SUBSET_VALUES)}{quote}"


@st.composite
def subset_tags(draw):
    attrs = "".join(space + attr for space, attr in draw(
        st.lists(st.tuples(SUBSET_SPACES, subset_attributes()), max_size=3)))
    kind = draw(st.sampled_from(["start", "end", "skip", "raw"]))
    if kind == "end":
        return f"</{draw(SUBSET_NAMES)}>"
    if kind == "start":
        return f"<{draw(SUBSET_NAMES)}{attrs}{draw(st.sampled_from(['>', ' >', '/>', ' />']))}"
    if kind == "skip":
        name = draw(st.sampled_from(["script", "style", "SCRIPT", "Style"]))
        body = draw(st.sampled_from(["var a = 1;", "", "if (a > b) {}", "s = 'href=\"/in/\"'", "&amp;"]))
    else:  # an element newer HTMLParsers read as raw text, with a body free of "<" and "&"
        name = draw(st.sampled_from(["title", "TITLE", "textarea", "iframe", "noscript"]))
        body = draw(st.sampled_from(["Daily news", "", "a > b", " x = 1; "]))
    return f"<{name}{attrs}>{body}</{draw(st.sampled_from([name, name.lower(), name.upper()]))}>"


SUBSET_MARKUP = st.sampled_from(
    ["<!-- a -->", "<!---->", "<!-- a - b -->", "<!DOCTYPE html>", "<!doctype>"])
SUBSET_TEXT = st.one_of(
    st.sampled_from(["Caf&eacute; &amp; b", "&#65;&#x263a;", "&nbsp;x", "&bogus; y", "a > b",
                     "x &", "\n  \t", "word", "&amp", "&#"]),
    st.text(st.characters(blacklist_characters="<"), max_size=6),
)


@st.composite
def subset_pages(draw):
    return "".join(draw(st.lists(st.one_of(subset_tags(), SUBSET_MARKUP, SUBSET_TEXT), max_size=25)))


def assert_read_page_matches_oracles(html):
    event("regex scan" if content_mod._scan(html) is not None else "HTMLParser")
    text = " ".join(" ".join(oracle(TextOracle, html)).split())
    assert read_page(html) == (oracle(HrefOracle, html), text)
    assert extract_text(html) == text


class TestReadPage:
    @settings(max_examples=40, deadline=None)
    @example(html='<a href="/x/">go</a><script>no</script>t&amp;u<p class="open')
    @example(html='<link HREF="/a/"><a href="">x</a><a name=b><area href="/c/"><a href=/d/>')
    @given(html=pages())
    def test_one_parse_gives_the_hrefs_and_the_text(self, html):
        assert_read_page_matches_oracles(html)

    # generated pages inside the subset; the examples sit at its edge or just outside
    @settings(max_examples=40, deadline=None)
    @example(html="<p>a < b</p>")
    @example(html="<p>fish &bogus chips</p>")
    @example(html="<p>x<!-->y</p>")
    @example(html="<p>x<!-- a --!>y</p><p>z</p>")
    @example(html="<script>document.write('</p>')</script>after")
    @example(html="<script>var a = 1;</SCRIPT >after")
    @example(html='<a\x0chref="/f/">x</a>')
    @example(html='<\u00e9 href="/e/">x</\u00e9>')
    @example(html='<a href="/one/" href="/two/">x</a>')
    @example(html='<a href="/a/?x=1&copy=2">x</a>')
    @example(html="<title>Fish &amp; <b>chips</b></title><plaintext><p>x")
    @given(html=subset_pages())
    def test_the_regex_scan_gives_what_htmlparser_gives(self, html):
        assert_read_page_matches_oracles(html)

    def test_doctype_comment_and_charref_stay_on_the_fast_path(self, monkeypatch):
        def refused():
            raise AssertionError("the page went to HTMLParser")

        monkeypatch.setattr(content_mod, "_PageParser", refused)
        html = ('<!DOCTYPE html><html><head><style>p {}</style></head><body><!-- nav -->'
                '<a class="nav" href="/menu?x=1&amp;y=2" hidden>Fish &amp; chips</a></body></html>')
        assert read_page(html) == (["/menu?x=1&y=2"], "Fish & chips")


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


def reference_tfidf(docs, stopwords=DEFAULT_STOPWORDS, min_df=1):
    """Terms and weights from each document's reference_preprocess tokens."""
    token_lists = [reference_preprocess(d.text, stopwords) for d in docs]
    df = Counter(term for tokens in token_lists for term in set(tokens))
    terms = tuple(sorted(t for t, n in df.items() if n >= min_df))
    weights = np.zeros((len(docs), len(terms)))
    for i, tokens in enumerate(token_lists):
        for j, term in enumerate(terms):
            if term in tokens:
                weights[i, j] = tokens.count(term) / len(tokens) * math.log(len(docs) / df[term])
    return terms, weights


ACCENTED_WORDS = st.sampled_from(
    ["Économie", "ÉCONOMIE", "économies", "Naïve", "NAI\u0308VE", "Running", "RUNNING", "runs",
     "Café", "CAFE\u0301", "The", "news", "Straße"]
)


@st.composite
def corpus_texts(draw):
    words = draw(st.lists(st.one_of(ACCENTED_WORDS, EDGE_WORDS), max_size=12))
    return " ".join(words) + draw(st.text(max_size=8))


class TestTfidf:
    @settings(max_examples=30, deadline=None)
    @given(
        texts=st.lists(corpus_texts(), min_size=1, max_size=3),
        stopwords=st.sampled_from([DEFAULT_STOPWORDS, frozenset({"news", "run", "cafe"})]),
        min_df=st.integers(1, 2),
    )
    def test_matches_per_document_preprocessing(self, texts, stopwords, min_df):
        docs = [TopicDocument(f"t{i}", text) for i, text in enumerate(texts)]
        m = tfidf(docs, stopwords, min_df)
        terms, weights = reference_tfidf(docs, stopwords, min_df)
        assert m.terms == terms
        assert m.weights.tolist() == weights.tolist()

    def test_each_distinct_token_stemmed_once_per_corpus(self, monkeypatch):
        calls = []

        def counting(word):
            calls.append(word)
            return stem(word)

        monkeypatch.setattr(content_mod, "stem", counting)
        tfidf([TopicDocument("a", "Running runs the"), TopicDocument("b", "RUNNING vote runs")])
        assert sorted(calls) == ["running", "runs", "the", "vote"]

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
