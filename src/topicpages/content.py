"""Page-text extraction, preprocessing, tf-idf weighting, language checks.

Topic documents are the concatenated visible text of every page assigned to
a topic.  The term matrix weights each (topic, term) cell by
(term count / document length) * ln(number of docs / docs containing term),
so terms present in every topic document weigh exactly zero.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from html.parser import HTMLParser
from typing import AbstractSet, Sequence

import numpy as np

from .errors import EmptyCorpus
from .stemmer import stem
from .stopwords import DEFAULT_STOPWORDS

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# the ASCII characters str.isalpha accepts are exactly these
_ASCII_LETTER_RE = re.compile(r"[A-Za-z]")
_ASCII_RUN_RE = re.compile(r"[\x00-\x7f]+")

# script/style bodies are code, not page copy
_SKIP_ELEMENTS = frozenset({"script", "style"})


class _TextCollector(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._skip_depth = 0
        self.chunks: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_ELEMENTS:
            self._skip_depth += 1

    def handle_endtag(self, tag):
        if tag in _SKIP_ELEMENTS and self._skip_depth > 0:
            self._skip_depth -= 1

    def handle_data(self, data):
        if self._skip_depth == 0 and data.strip():
            self.chunks.append(data)


def extract_text(html: str) -> str:
    """Visible text of an HTML document, whitespace-collapsed."""
    collector = _TextCollector()
    collector.feed(html)
    collector.close()
    return " ".join(" ".join(collector.chunks).split())


def _unaccent(text: str) -> str:
    if text.isascii():
        return text  # NFD leaves ASCII as it is
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def preprocess(text: str, stopwords: AbstractSet[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Normalize running text to stemmed tokens.

    Order: lowercase, un-accent, split on non-alphanumeric runs, stem,
    then drop stopwords.  Digits are kept: numeric tokens such as era or
    disease names carry topical signal.  Each distinct token is stemmed
    once per call.
    """
    tokens = _TOKEN_RE.findall(_unaccent(text.lower()))
    kept = {t: s for t in set(tokens) if (s := stem(t)) not in stopwords}
    return [kept[t] for t in tokens if t in kept]


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
        topics = tuple(obj["topics"])
        terms = tuple(obj["terms"])
        weights = np.asarray(obj["weights"], dtype=float)
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
    token_lists = [preprocess(d.text, stopwords) for d in docs]
    df: dict[str, int] = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    terms = tuple(sorted(t for t, n in df.items() if n >= min_df))
    index = {t: j for j, t in enumerate(terms)}
    n_docs = len(docs)
    weights = np.zeros((n_docs, len(terms)), dtype=float)
    for i, tokens in enumerate(token_lists):
        if not tokens:
            continue
        total = len(tokens)
        for term, count in Counter(tokens).items():
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
    stop_share = (sum(t in stopwords for t in tokens) / len(tokens)) if tokens else 0.0
    return EnglishVerdict(latin_share >= 0.90 and stop_share >= 0.03, confident)
