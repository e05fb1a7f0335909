"""Page-text extraction, tf-idf weighting and language checks.

Topic documents are the concatenated visible text of every page assigned to
a topic.  weigh_pages weighs them and judges each page's language in one
pass.  Text is lowercased, un-accented and split on non-alphanumeric runs;
each token is stemmed, and stopword stems are dropped.  Digits are kept:
numeric tokens such as era or disease names carry topical signal.  The term
matrix weights each (topic, term) cell by
(term count / document length) * ln(number of docs / docs containing term),
so terms present in every topic document weigh exactly zero.  A page is
English iff at least 90% of its letters are Basic Latin and at least 3% of
the tokens of its lowercased, still accented text are English stopwords; a
page shorter than MIN_CONFIDENT_LENGTH characters gets a low-confidence
verdict.

read_page parses a page once for both its hrefs and its visible text, so a
run's homepages are parsed once.  HTMLParser defines what read_page
returns.  A page inside a well-formed subset of HTML is scanned with one
compiled regex instead: start and end tags with ASCII names whose attributes
are bare names or quoted values, script and style elements whose body holds
no "<", a doctype, and comments whose body holds no "--", "<" or ">";
elements that newer HTMLParsers read as raw text (title, textarea, iframe
and the like) only with a body free of "<" and "&".  On that subset
HTMLParser ends every token where the regex does, on every supported Python,
so the results are equal; a page with any "<" outside those constructs, or
with an href whose named character reference is not a complete known name,
goes to HTMLParser whole.
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
from typing import AbstractSet, Iterable

import numpy as np

from .errors import EmptyCorpus
from .lines import checked
from .stemmer import stem
from .stopwords import DEFAULT_STOPWORDS

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
MIN_CONFIDENT_LENGTH = 40  # characters below which a language verdict is low-confidence
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
            "weights": np.asarray(self.weights, dtype=float).tolist(),
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


@dataclass(frozen=True)
class EnglishVerdict:
    is_english: bool
    confident: bool


def _english(text: str, tokens: list[str], stopwords: AbstractSet[str]) -> EnglishVerdict:
    """The verdict on a page's text, given the tokens of text.lower()."""
    confident = len(text) >= MIN_CONFIDENT_LENGTH
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
    stop_share = (sum(map(stopwords.__contains__, tokens)) / len(tokens)) if tokens else 0.0
    return EnglishVerdict(latin_share >= 0.90 and stop_share >= 0.03, confident)


def weigh_pages(
    pages: Iterable[tuple[str, str]],
    stopwords: AbstractSet[str] = DEFAULT_STOPWORDS,
    min_df: int = 1,
) -> tuple[ContentMatrix, list[EnglishVerdict]]:
    """The tf-idf matrix of the documents that join each topic's page texts with " ",
    topics in name order, and the language verdict on each (topic, text) page, in order.

    min_df drops terms appearing in fewer than that many documents, which is the
    practical lever against one-off noise terms in big corpora.  The tokens of a
    " "-joined document are those of its pages in turn, so each page is tokenized
    once, for its verdict and for its topic's stem counts, and neither its text nor
    its tokens are held after it is counted; each word is stemmed once per corpus.
    """
    stems: dict[str, str | None] = {}  # token -> its stem, or None for a stopword stem
    counts: dict[str, Counter] = {}
    verdicts: list[EnglishVerdict] = []
    for topic, text in pages:
        lowered = text.lower()
        plain = _unaccent(lowered)
        tokens = _TOKEN_RE.findall(plain)
        # the verdict is on the accented tokens, which differ only where un-accenting changed text
        accented = tokens if plain == lowered else _TOKEN_RE.findall(lowered)
        verdicts.append(_english(text, accented, stopwords))
        for token in set(tokens).difference(stems):
            s = stem(token)
            stems[token] = None if s in stopwords else s
        counts.setdefault(topic, Counter()).update(map(stems.__getitem__, tokens))
    if not counts:
        raise EmptyCorpus("no topic documents")
    if min_df < 1:
        raise ValueError("min_df must be at least 1")
    topics = tuple(sorted(counts))
    for doc_counts in counts.values():
        doc_counts.pop(None, None)
    df = Counter(term for doc_counts in counts.values() for term in doc_counts)
    terms = tuple(sorted(t for t, n in df.items() if n >= min_df))
    index = {t: j for j, t in enumerate(terms)}
    weights = np.zeros((len(topics), len(terms)), dtype=float)
    for i, topic in enumerate(topics):
        total = sum(counts[topic].values())
        for term, count in counts[topic].items():
            j = index.get(term)
            if j is None:
                continue
            weights[i, j] = (count / total) * math.log(len(topics) / df[term])
    return ContentMatrix(topics, terms, weights), verdicts
