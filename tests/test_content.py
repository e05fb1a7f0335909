import math
import re
import unicodedata
from collections import Counter
from html.parser import HTMLParser

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import topicpages.content as content_mod
import topicpages.embeddings as embeddings_mod
from topicpages import ContentMatrix, extract_text, read_page, weigh_pages
from topicpages.content import DEFAULT_STOPWORDS, EnglishVerdict
from topicpages.errors import PipelineError
from topicpages.stemmer import stem

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


def reference_tokens(text):
    """NFD without combining marks on every lowercased text, then split."""
    decomposed = unicodedata.normalize("NFD", text.lower())
    return TOKEN_RE.findall("".join(ch for ch in decomposed if not unicodedata.combining(ch)))


def reference_preprocess(text, stopwords=DEFAULT_STOPWORDS):
    """One stem call per token, then stopword stems dropped."""
    return [t for t in map(stem, reference_tokens(text)) if t not in stopwords]


def reference_detect_english(text, stopwords=DEFAULT_STOPWORDS):
    """The letter shares taken from a list of every letter; confident from 40 characters."""
    confident = len(text) >= 40
    letters = [ch for ch in text if ch.isalpha()]
    if not letters:
        return EnglishVerdict(False, confident)
    latin_share = sum(ord(ch) < 128 for ch in letters) / len(letters)
    tokens = TOKEN_RE.findall(text.lower())
    stop_share = (sum(t in stopwords for t in tokens) / len(tokens)) if tokens else 0.0
    return EnglishVerdict(latin_share >= 0.90 and stop_share >= 0.03, confident)


def reference_tfidf(texts, stopwords=DEFAULT_STOPWORDS, min_df=1):
    """Terms and weights from each document's reference_preprocess tokens."""
    token_lists = [reference_preprocess(text, stopwords) for text in texts]
    df = Counter(term for tokens in token_lists for term in set(tokens))
    terms = tuple(sorted(t for t, n in df.items() if n >= min_df))
    weights = np.zeros((len(texts), len(terms)))
    for i, tokens in enumerate(token_lists):
        for j, term in enumerate(terms):
            if term in tokens:
                weights[i, j] = tokens.count(term) / len(tokens) * math.log(len(texts) / df[term])
    return terms, weights


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


def stems_of(text, stopwords=DEFAULT_STOPWORDS):
    """The sorted distinct stems weigh_pages counts on a one-page corpus."""
    return list(weigh_pages([("t", text)], stopwords)[0].terms)


class TestPreprocess:
    def test_accents_folded_before_stemming(self):
        assert stems_of("Économie") == ["economi"]

    def test_stopwords_dropped_after_stemming(self):
        assert stems_of("The THE the") == []

    def test_mixed_sentence(self):
        assert stems_of("The cricket matches were exciting!") == ["cricket", "excit", "match"]

    def test_digits_kept(self):
        assert "2024" in stems_of("budget 2024 review")

    def test_custom_stopwords(self):
        assert stems_of("cricket bat", stopwords={"cricket"}) == ["bat"]

    # beside an empty second document each weight is count / length * ln 2, so the
    # weights hold the share of each stem among the page's counted tokens
    @settings(max_examples=200, deadline=None)
    @example(text="Caf\u00e9 cafe\u0301 NAI\u0308VE the running", stopwords=DEFAULT_STOPWORDS)
    @given(
        text=st.one_of(edge_texts(), st.text()),
        stopwords=st.sampled_from([DEFAULT_STOPWORDS, frozenset({"news", "run", "cafe"})]),
    )
    def test_matches_per_token_stemming(self, text, stopwords):
        m = weigh_pages([("a", text), ("b", "")], stopwords)[0]
        terms, weights = reference_tfidf([text, ""], stopwords)
        assert m.terms == terms
        assert m.weights.tolist() == weights.tolist()

    def test_each_distinct_token_stemmed_once(self, monkeypatch):
        calls = []

        def counting(word):
            calls.append(word)
            return stem(word)

        monkeypatch.setattr(content_mod, "stem", counting)
        assert stems_of("Running runs RUNNING run the The") == ["run"]
        assert sorted(calls) == ["run", "running", "runs", "the"]


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
        m = weigh_pages([(f"t{i}", text) for i, text in enumerate(texts)], stopwords, min_df)[0]
        terms, weights = reference_tfidf(texts, stopwords, min_df)
        assert m.topics == tuple(f"t{i}" for i in range(len(texts)))
        assert m.terms == terms
        assert m.weights.tolist() == weights.tolist()

    def test_each_distinct_token_stemmed_once_per_corpus(self, monkeypatch):
        calls = []

        def counting(word):
            calls.append(word)
            return stem(word)

        monkeypatch.setattr(content_mod, "stem", counting)
        weigh_pages([("a", "Running runs the"), ("b", "RUNNING vote runs")])
        assert sorted(calls) == ["running", "runs", "the", "vote"]

    def test_hand_computed_matrix(self):
        m = weigh_pages([("sports", "cricket cricket bat"), ("politics", "election vote")])[0]
        assert m.topics == ("politics", "sports")
        assert m.terms == ("bat", "cricket", "elect", "vote")
        ln2 = math.log(2)
        expected = np.array(
            [
                [0.0, 0.0, ln2 / 2, ln2 / 2],
                [ln2 / 3, 2 * ln2 / 3, 0.0, 0.0],
            ]
        )
        assert np.allclose(m.weights, expected, atol=1e-12)

    def test_term_in_every_document_weighs_exactly_zero(self):
        m = weigh_pages([("a", "cricket shared"), ("b", "vote shared")])[0]
        j = m.terms.index("share")
        assert m.weights[0, j] == 0.0
        assert m.weights[1, j] == 0.0

    def test_min_df_drops_rare_terms(self):
        pages = [("a", "alpha shared"), ("b", "beta shared"), ("c", "gamma unique")]
        m = weigh_pages(pages, min_df=2)[0]
        assert m.terms == ("share",)
        assert m.weights[0, 0] == pytest.approx(math.log(3 / 2) / 2, abs=1e-12)
        assert m.weights[2, 0] == 0.0

    def test_empty_document_row_is_zero(self):
        m = weigh_pages([("a", "cricket"), ("b", "")])[0]
        assert np.all(m.weights[1] == 0.0)

    def test_empty_corpus(self):
        with pytest.raises(PipelineError, match="^no topic documents$"):
            weigh_pages([])

    def test_bad_min_df(self):
        with pytest.raises(ValueError):
            weigh_pages([("a", "x")], min_df=0)


# characters whose lowercasing, un-accenting or tokenizing depends on their
# neighbours or changes the length: sigma and final sigma, combining marks,
# dotted and dotless I, a titlecase digraph, a ligature
CONTEXT_TEXT = st.text(alphabet=st.sampled_from("Σσςİıǅﬁ\u0301\u0308\u0307 aZé.'-_"), max_size=10)


# every ASCII code point, "_" and digits among them, and non-ASCII letters and marks
TOKENIZER_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(max_codepoint=127),
        st.sampled_from("_0123456789"),
        st.sampled_from("éÆßİıΣ\u0301\u00a0\u2028\u0661\U0001d518"),
    ),
)


class TestTokens:
    @settings(max_examples=60, deadline=None)
    @example(text="")
    @example(text="".join(map(chr, range(128))))
    @example(text="a_b 4th\x1c\x1fx\x0b")  # separators str.split alone would keep or cut
    @example(text="caf\u00e9_bar")
    @given(text=st.one_of(TOKENIZER_TEXT, st.text()))
    def test_matches_the_token_regex(self, text):
        assert content_mod._tokens(text) == content_mod._TOKEN_RE.findall(text)

    def test_subpaths_and_pages_share_the_tokenizer(self):
        assert embeddings_mod._tokens is content_mod._tokens
        assert embeddings_mod.tokenize_subpath("Sport_News-2024", {"news"}) == ["sport", "2024"]


class TestWeighPages:
    @settings(max_examples=100, deadline=None)
    @example(texts=["ΑΣ", "Σα"])
    @example(texts=["a\u0301", "\u0301b"])
    @given(texts=st.lists(CONTEXT_TEXT, max_size=4))
    def test_tokens_of_a_joined_document_are_its_pages_tokens(self, texts):
        # what lets weigh_pages count each page on its own
        joined = reference_tokens(" ".join(texts))
        assert joined == [t for text in texts for t in reference_tokens(text)]

    @settings(max_examples=25, deadline=None)
    @given(
        pages=st.lists(
            st.tuples(st.sampled_from(["b", "a", "c"]), st.one_of(CONTEXT_TEXT, corpus_texts())),
            min_size=1, max_size=6,
        ),
        stopwords=st.sampled_from([DEFAULT_STOPWORDS, frozenset({"news", "run", "σα"})]),
        min_df=st.integers(1, 2),
    )
    def test_is_tfidf_of_joined_pages_and_a_verdict_on_each(self, pages, stopwords, min_df):
        joined: dict[str, list[str]] = {}
        for topic, text in pages:
            joined.setdefault(topic, []).append(text)
        matrix, verdicts = weigh_pages(pages, stopwords, min_df)
        terms, weights = reference_tfidf(
            [" ".join(texts) for _, texts in sorted(joined.items())], stopwords, min_df)
        assert matrix.topics == tuple(sorted(joined))
        assert matrix.terms == terms
        assert matrix.weights.tolist() == weights.tolist()
        assert verdicts == [reference_detect_english(text, stopwords) for _, text in pages]

    def test_an_unchanged_page_is_tokenized_once(self, monkeypatch):
        calls = []
        tokens = content_mod._tokens

        def counting(text):
            calls.append(text)
            return tokens(text)

        monkeypatch.setattr(content_mod, "_tokens", counting)
        pages = [("a", "The cricket scores"), ("b", "Économie du jour"), ("a", "Ærø straße")]
        weigh_pages(pages)
        # un-accenting changes only the second page, whose verdict tokenizes it anew
        assert calls == ["the cricket scores", "economie du jour", "économie du jour", "ærø straße"]


class TestContentMatrix:
    def test_round_trip(self):
        m = weigh_pages([("a", "cricket bat"), ("b", "vote election")])[0]
        again = ContentMatrix.from_dict(m.to_dict())
        assert again.to_dict() == m.to_dict()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContentMatrix.from_dict(
                {"topics": ["a"], "terms": ["x", "y"], "weights": [[1.0]]}
            )


def verdict(text, stopwords=DEFAULT_STOPWORDS):
    """The language verdict weigh_pages gives the one page of a corpus."""
    return weigh_pages([("t", text)], stopwords)[1][0]


class TestDetectEnglish:
    def test_english_paragraph(self):
        v = verdict("The quick brown fox jumps over the lazy dog near the river today.")
        assert v.is_english and v.confident

    def test_devanagari_paragraph(self):
        v = verdict("यह एक समाचार वेबसाइट है जो राजनीति और खेल की ख़बरें प्रकाशित करती है।")
        assert not v.is_english
        assert v.confident

    def test_cyrillic_paragraph(self):
        v = verdict("Это новости на русском языке о политике и спорте в стране сегодня.")
        assert not v.is_english and v.confident

    def test_latin_without_english_stopwords(self):
        v = verdict("bonjour académie française journaux quotidiens partout aujourd'hui")
        assert not v.is_english

    def test_short_text_is_low_confidence(self):
        v = verdict("Hello the world")
        assert v.is_english
        assert not v.confident

    def test_confident_from_forty_characters(self):
        assert [verdict("x" * n).confident for n in (39, 40)] == [False, True]

    def test_empty_text(self):
        v = verdict("")
        assert not v.is_english and not v.confident

    def test_numbers_only(self):
        assert not verdict("12345 67890").is_english

    @settings(max_examples=200, deadline=None)
    @example(text="the abcdef \u00e9")  # 9 of 10 letters Basic Latin: 0.9
    @example(text="the abcde \u00e9")
    @example(text="the news \u00aa\u02b0 x_y 42")
    @example(text="the quick brown fox and the lazy dog ran")  # 40 characters: confident
    @given(text=st.one_of(edge_texts(), st.text()))
    def test_matches_letter_list(self, text):
        assert verdict(text) == reference_detect_english(text)
