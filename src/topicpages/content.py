"""Page-text extraction, preprocessing, tf-idf weighting, language checks.

Topic documents are the concatenated visible text of every page assigned to
a topic.  The term matrix weights each (topic, term) cell by
(term count / document length) * ln(number of docs / docs containing term),
so terms present in every topic document weigh exactly zero.

read_page parses a page once for both its hrefs and its visible text, so a
run's homepages are parsed once; tfidf stems each distinct word once per
corpus.  HTMLParser defines what read_page returns.  A page inside a
well-formed subset of HTML is scanned with one compiled regex instead: start
and end tags with ASCII names whose attributes are bare names or quoted
values, script and style elements whose body holds no "<", a doctype, and
comments whose body holds no "--", "<" or ">"; elements that newer
HTMLParsers read as raw text (title, textarea, iframe and the like) only with
a body free of "<" and "&".  On that subset HTMLParser
ends every token where the regex does, on every supported Python, so the
results are equal; a page with any "<" outside those constructs, or with an
href whose named character reference is not a complete known name, goes to
HTMLParser whole.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from html import unescape
from html.entities import html5
from html.parser import HTMLParser
from typing import AbstractSet, Sequence

import numpy as np

from .errors import EmptyCorpus
from .lines import checked
from .stemmer import stem
from .stopwords import DEFAULT_STOPWORDS

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# the ASCII characters str.isalpha accepts are exactly these
_ASCII_LETTER_RE = re.compile(r"[A-Za-z]")
_ASCII_RUN_RE = re.compile(r"[\x00-\x7f]+")

# script/style bodies are code, not page copy
_SKIP_ELEMENTS = frozenset({"script", "style"})

# read_page's subset: one alternative per construct.  A start tag's attributes
# (group 3) each follow whitespace; a script or style start tag (group 1)
# matches with its whole element.  Newer HTMLParsers read the content of the
# group-2 elements as raw or escapable raw text, so their start tag matches only
# before a body without "<" or "&" and the end tag, which every version reads
# as plain text; plaintext never ends and is left out.  No quantifier nests over
# one character class, so a page that fails to match cannot backtrack
# exponentially.
_WS = r"[ \t\n\r]"
_TAG_NAME = r"[A-Za-z][-A-Za-z0-9]*"
_ATTR_NAME = r"[A-Za-z_:][-A-Za-z0-9_:.]*"
_VALUE = rf"""{_WS}*={_WS}*(?:"[^"]*"|'[^']*')"""
_RAW_TEXT = "title|textarea|xmp|iframe|noembed|noframes|noscript"
_MARKUP = re.compile(
    rf"<(?:(?P<skip>(?i:script|style))(?={_WS}|>)"
    rf"|(?P<raw>(?i:{_RAW_TEXT}))(?={_WS}|>)"
    rf"|(?!(?i:script|style|{_RAW_TEXT}|plaintext)(?:{_WS}|[/>])){_TAG_NAME})"
    rf"((?:{_WS}+{_ATTR_NAME}(?:{_VALUE})?)*){_WS}*"
    rf"(?(skip)>[^<]*</(?i:(?P=skip))>|(?(raw)>(?=[^<&]*</(?i:(?P=raw))>)|/?>))"
    rf"|</{_TAG_NAME}>"
    r"|<!--(?:[^<>-]|-(?!-))*-->"
    r"|<!(?i:doctype)[^<>]*>",
    re.ASCII,
)
# one attribute of a group-3 run; an href gives its quoted value
_ATTRIBUTE = re.compile(
    rf"""{_WS}+(?:(?i:href){_WS}*={_WS}*(?:"([^"]*)"|'([^']*)')|{_ATTR_NAME}(?:{_VALUE})?)""",
    re.ASCII,
)
# named references in an href; Pythons differ on one that is unknown or lacks ";"
_NAMED_REF = re.compile(r"&[A-Za-z][A-Za-z0-9]*;?")


class _PageParser(HTMLParser):
    """Collects, in document order, every non-empty href value of any element and the
    text chunks outside script and style elements; character references are converted,
    as HTMLParser does by default."""

    def __init__(self) -> None:
        super().__init__()
        self._skip_depth = 0
        self.hrefs: list[str] = []
        self.chunks: list[str] = []

    def handle_starttag(self, tag, attrs):
        for name, value in attrs:
            if name.lower() == "href" and value:
                self.hrefs.append(value)
        if tag in _SKIP_ELEMENTS:
            self._skip_depth += 1

    def handle_endtag(self, tag):
        if tag in _SKIP_ELEMENTS and self._skip_depth > 0:
            self._skip_depth -= 1

    def handle_data(self, data):
        if self._skip_depth == 0 and data.strip():
            self.chunks.append(data)


def _scan(html: str) -> tuple[list[str], str] | None:
    """read_page(html) for a page inside the subset, else None.

    The text outside the markup is joined with a space where each match was;
    a match already ends a word and a character reference, so unescaping the
    join and collapsing it equals doing so chunk by chunk.
    """
    pieces = _MARKUP.split(html)  # text, skip, raw, attributes, text, ...
    text = " ".join(pieces[::4])
    if "<" in text:
        return None
    hrefs = []
    for double, single in _ATTRIBUTE.findall("".join(filter(None, pieces[3::4]))):
        value = double or single
        if not value:
            continue
        if "&" in value:
            if not all(ref[-1] == ";" and ref[1:] in html5 for ref in _NAMED_REF.findall(value)):
                return None
            value = unescape(value)
        hrefs.append(value)
    return hrefs, " ".join(unescape(text).split())


def read_page(html: str) -> tuple[list[str], str]:
    """A page's hrefs, in document order, and its visible text, whitespace-collapsed."""
    scanned = _scan(html)
    if scanned is not None:
        return scanned
    parser = _PageParser()
    parser.feed(html)
    parser.close()
    return parser.hrefs, " ".join(" ".join(parser.chunks).split())


def extract_text(html: str) -> str:
    """Visible text of an HTML document, whitespace-collapsed."""
    return read_page(html)[1]


def _unaccent(text: str) -> str:
    if text.isascii():
        return text  # NFD leaves ASCII as it is
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _learn_stems(
    tokens: list[str], stems: dict[str, str | None], stopwords: AbstractSet[str]
) -> None:
    """Add to *stems* each token it lacks, mapped to its stem, or to None when the stem
    is a stopword."""
    for token in set(tokens).difference(stems):
        s = stem(token)
        stems[token] = None if s in stopwords else s


def _tokens(text: str) -> list[str]:
    """Lowercase, un-accent and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(_unaccent(text.lower()))


def preprocess(text: str, stopwords: AbstractSet[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Normalize running text to stemmed tokens.

    Order: lowercase, un-accent, split on non-alphanumeric runs, stem,
    then drop stopwords.  Digits are kept: numeric tokens such as era or
    disease names carry topical signal.  Each distinct token is stemmed
    once per call.
    """
    tokens = _tokens(text)
    stems: dict[str, str | None] = {}
    _learn_stems(tokens, stems, stopwords)
    return [s for t in tokens if (s := stems[t]) is not None]


@dataclass(frozen=True)
class TopicDocument:
    topic: str
    text: str


@dataclass(frozen=True, eq=False)
class ContentMatrix:
    """tf-idf weights, one row per topic document, one column per term."""

    topics: tuple[str, ...]
    terms: tuple[str, ...]
    weights: np.ndarray

    def to_dict(self) -> dict:
        return {
            "topics": list(self.topics),
            "terms": list(self.terms),
            "weights": [[float(w) for w in row] for row in self.weights],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ContentMatrix":
        """The to_dict() shape: distinct string labels and finite weights."""
        topics = tuple(checked(obj["topics"], str, "topics", each=True))
        terms = tuple(checked(obj["terms"], str, "terms", each=True))
        if len(set(topics)) < len(topics) or len(set(terms)) < len(terms):
            raise ValueError("a topic or term label repeats")
        rows = checked(obj["weights"], list, "weights", each=True)
        weights = np.asarray([checked(row, float, "a weights row", each=True) for row in rows],
                             dtype=float)
        if weights.shape != (len(topics), len(terms)):
            raise ValueError("weights shape does not match labels")
        return cls(topics, terms, weights)

    def equals(self, other: "ContentMatrix") -> bool:
        return (
            self.topics == other.topics
            and self.terms == other.terms
            and np.array_equal(self.weights, other.weights)
        )


def tfidf(
    docs: Sequence[TopicDocument],
    stopwords: AbstractSet[str] = DEFAULT_STOPWORDS,
    min_df: int = 1,
) -> ContentMatrix:
    """Build the topic-term weight matrix from raw topic documents.

    min_df drops terms appearing in fewer than that many documents, which
    is the practical lever against one-off noise terms in big corpora.
    """
    if len(docs) == 0:
        raise EmptyCorpus("no topic documents")
    if min_df < 1:
        raise ValueError("min_df must be at least 1")
    # each word is stemmed once per corpus; a document's tokens are held only while it is counted
    stems: dict[str, str | None] = {}
    counts: list[Counter] = []
    for d in docs:
        tokens = _tokens(d.text)
        _learn_stems(tokens, stems, stopwords)
        doc_counts = Counter(map(stems.__getitem__, tokens))
        doc_counts.pop(None, None)
        counts.append(doc_counts)
    df = Counter(term for doc_counts in counts for term in doc_counts)
    terms = tuple(sorted(t for t, n in df.items() if n >= min_df))
    index = {t: j for j, t in enumerate(terms)}
    n_docs = len(docs)
    weights = np.zeros((n_docs, len(terms)), dtype=float)
    for i, doc_counts in enumerate(counts):
        total = sum(doc_counts.values())
        for term, count in doc_counts.items():
            j = index.get(term)
            if j is None:
                continue
            weights[i, j] = (count / total) * math.log(n_docs / df[term])
    return ContentMatrix(tuple(d.topic for d in docs), terms, weights)


@dataclass(frozen=True)
class EnglishVerdict:
    is_english: bool
    confident: bool


def detect_english(
    text: str,
    stopwords: AbstractSet[str] = DEFAULT_STOPWORDS,
    min_confident_length: int = 40,
) -> EnglishVerdict:
    """Cheap script-and-stopword English check.

    English iff at least 90% of letters are Basic Latin and at least 3% of
    tokens are English stopwords.  Texts shorter than
    min_confident_length characters yield a low-confidence verdict.
    """
    confident = len(text) >= min_confident_length
    if text.isascii():
        if not _ASCII_LETTER_RE.search(text):
            return EnglishVerdict(False, confident)
        latin_share = 1.0
    else:
        latin = len(_ASCII_LETTER_RE.findall(text))
        letters = latin + sum(map(str.isalpha, _ASCII_RUN_RE.sub("", text)))
        if not letters:
            return EnglishVerdict(False, confident)
        latin_share = latin / letters
    tokens = _TOKEN_RE.findall(text.lower())
    stop_share = (sum(map(stopwords.__contains__, tokens)) / len(tokens)) if tokens else 0.0
    return EnglishVerdict(latin_share >= 0.90 and stop_share >= 0.03, confident)
