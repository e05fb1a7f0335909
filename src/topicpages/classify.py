"""Topic assignment for section URLs and best-page selection per topic.

A URL's path segments are scanned top-down.  Each non-generic segment is
first checked verbatim against the dictionary (an exact keyword hit decides
immediately); otherwise the segment's combined token embedding is compared
against each topic's combined keyword embedding and the best match wins if
it clears the cosine cutoff.  URLs exhausting every segment land in Other.

When several URLs of one site share a topic, the selection weight

    cosine(comb_emb(all subpath tokens), comb_emb(topic keywords)) / token count

ranks them; shorter URLs therefore rank above equally similar longer ones.
The ranked list is scanned for the first URL whose top-level segment is
itself a dictionary keyword of the topic; if none qualifies the top-ranked
URL is selected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import AbstractSet, Iterable, Mapping, Sequence

from .dictionary import Topic, TopicalDictionary
from .embeddings import EmbeddingModel, combined_embedding, cosine, tokenize_subpath
from .errors import EmptyCandidates, NoSubpaths
from .lines import checked, read_jsonl
from .stopwords import DEFAULT_STOPWORDS
from .urls import PageUrl, normalize

METHOD_EXACT = "exact"
METHOD_EMBEDDING = "embedding"
METHOD_OTHER = "other"
METHODS = (METHOD_EXACT, METHOD_EMBEDDING, METHOD_OTHER)

# the least cosine of an embedding match when none is configured
COSINE_CUTOFF = 0.4


@dataclass(frozen=True)
class TopicAssignment:
    url: PageUrl
    topic: Topic
    method: str
    score: float
    matched_subpath: str


@dataclass(frozen=True)
class BestSubpages:
    """One site's selected section page per covered topic."""

    site: str
    selections: Mapping[Topic, PageUrl]


class TopicClassifier:
    """Reusable classifier holding precomputed topic keyword embeddings.

    Building the per-topic combined embeddings once up front means
    exact-match classifications never touch the embedding model at all,
    and each distinct subpath is scored against the topics only once.
    """

    def __init__(
        self,
        dictionary: TopicalDictionary,
        model: EmbeddingModel,
        cutoff: float = COSINE_CUTOFF,
        stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    ) -> None:
        if not 0.0 <= cutoff <= 1.0:
            raise ValueError("cutoff must lie in [0, 1]")
        self.dictionary = dictionary
        self.model = model
        self.cutoff = float(cutoff)
        self.stopwords = frozenset(stopwords)
        self._ranked_topics = sorted(dictionary.non_other_topics(), key=lambda t: t.name)
        self._topic_embeddings = {
            t: combined_embedding(self._keyword_tokens(t), model) for t in self._ranked_topics
        }
        # lowered subpath -> _best_topic() of it: tokenizing lowers, so every
        # casing of a subpath scores the same
        self._best_topics: dict[str, tuple[Topic | None, float]] = {}

    def _keyword_tokens(self, topic: Topic) -> list[str]:
        tokens: list[str] = []
        for kw in self.dictionary.keywords_for(topic):
            tokens.extend(tokenize_subpath(kw, self.stopwords))
        return tokens

    def _best_topic(self, subpath: str) -> tuple[Topic | None, float]:
        """The first topic of highest cosine to the subpath's embedding, and that cosine."""
        emb = combined_embedding(tokenize_subpath(subpath, self.stopwords), self.model)
        best_topic = None
        best_score = float("-inf")
        for candidate in self._ranked_topics:
            score = cosine(emb, self._topic_embeddings[candidate])
            if score > best_score:
                best_topic, best_score = candidate, score
        return best_topic, best_score

    def classify(self, url: PageUrl) -> TopicAssignment:
        if not url.subpaths:
            raise NoSubpaths(f"{url.normalized} has no path segments")
        for subpath in url.subpaths:
            lowered = subpath.lower()
            if self.dictionary.is_generic(lowered):
                continue
            topic = self.dictionary.topic_of_keyword(lowered)
            if topic is not None:
                return TopicAssignment(url, topic, METHOD_EXACT, 1.0, subpath)
            best = self._best_topics.get(lowered)
            if best is None:
                best = self._best_topics[lowered] = self._best_topic(subpath)
            best_topic, best_score = best
            if best_topic is not None and best_score >= self.cutoff:
                return TopicAssignment(url, best_topic, METHOD_EMBEDDING, best_score, subpath)
        return TopicAssignment(url, self.dictionary.other_topic(), METHOD_OTHER, 0.0, "")

    # --- best-subpage selection -------------------------------------------

    def selection_weight(self, url: PageUrl, topic: Topic) -> float:
        """Similarity of the whole path to the topic, damped by token count."""
        tokens = [t for sp in url.subpaths for t in tokenize_subpath(sp, self.stopwords)]
        if not tokens:
            return 0.0
        emb = combined_embedding(tokens, self.model)
        return cosine(emb, self._topic_embeddings[topic]) / len(tokens)

    def select_best_subpage(self, candidates: Sequence[TopicAssignment]) -> PageUrl:
        if not candidates:
            raise EmptyCandidates("no candidate URLs for this topic")
        topic = candidates[0].topic
        if topic.is_other:
            raise ValueError("cannot select a best page for the Other topic")
        if any(c.topic != topic for c in candidates):
            raise ValueError("candidates span more than one topic")
        if any(c.url.domain != candidates[0].url.domain for c in candidates):
            raise ValueError("candidates span more than one site")
        weights = {c.url.normalized: self.selection_weight(c.url, topic) for c in candidates}
        ranked = sorted(
            candidates,
            key=lambda c: (
                -weights[c.url.normalized],
                len(c.url.normalized),
                c.url.normalized,
            ),
        )
        keywords = set(self.dictionary.keywords_for(topic))
        for c in ranked:
            if c.url.subpaths and c.url.subpaths[0].lower() in keywords:
                return c.url
        return ranked[0].url

    def select_best_subpages(self, assignments: Iterable[TopicAssignment]) -> list[BestSubpages]:
        """One section page per (site, topic), sites in name order.

        Other assignments are never selected from, so a site whose URLs
        all land in Other yields no row.
        """
        grouped: dict[tuple[str, str], list[TopicAssignment]] = {}
        for a in assignments:
            if not a.topic.is_other:
                grouped.setdefault((a.url.domain, a.topic.name), []).append(a)
        by_site: dict[str, dict[Topic, PageUrl]] = {}
        for (site, _), group in sorted(grouped.items()):
            by_site.setdefault(site, {})[group[0].topic] = self.select_best_subpage(group)
        return [BestSubpages(site, selections) for site, selections in sorted(by_site.items())]


def dictionary_assist(
    assignments: Iterable[TopicAssignment],
    skip: AbstractSet = frozenset(),
) -> list[tuple[str, int]]:
    """Frequency-ranked subpaths of Other-assigned URLs.

    The output is review material for extending the dictionary: recurring
    unmatched section names bubble to the top.  Pass the dictionary's
    generic subpaths as *skip* to keep structural segments out.
    """
    counter: Counter = Counter()
    for a in assignments:
        if a.method != METHOD_OTHER:
            continue
        for sp in a.url.subpaths:
            lowered = sp.lower()
            if lowered in skip:
                continue
            counter[lowered] += 1
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))


# --- assignment / selection files (JSON Lines) ------------------------------

def assignment_to_record(a: TopicAssignment) -> dict:
    return {
        "url": a.url.normalized,
        "site": a.url.domain,
        "topic": a.topic.name,
        "method": a.method,
        "score": a.score,
        "matched_subpath": a.matched_subpath,
    }


def read_assignments(path: str | Path, dictionary: TopicalDictionary) -> list[TopicAssignment]:
    """The assignments of a file; each URL's domain is the site its record names, the
    registrable domain under the suffixes of the run that wrote it."""

    def assignment(obj: dict) -> TopicAssignment:
        if obj["method"] not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}, got {obj['method']!r}")
        url = normalize(checked(obj["url"], str, "url"))
        return TopicAssignment(
            url=replace(url, domain=checked(obj["site"], str, "site")),
            topic=dictionary.topic_named(checked(obj["topic"], str, "topic")),
            method=obj["method"],
            score=float(checked(obj["score"], float, "score")),
            matched_subpath=checked(obj["matched_subpath"], str, "matched_subpath"),
        )

    return list(read_jsonl(path, assignment))


def best_subpage_records(results: Iterable[BestSubpages]) -> list[dict]:
    """The rows of best.jsonl, as read_best_subpages reads them back: one per (site,
    topic) selection, each site's in topic-name order."""
    return [
        {"site": best.site, "topic": topic.name, "url": url.normalized}
        for best in results
        for topic, url in sorted(best.selections.items(), key=lambda kv: kv[0].name)
    ]


def _best_row(obj: dict) -> dict:
    row = {key: checked(obj[key], str, key) for key in ("site", "topic", "url")}
    # a URL that cannot be fetched is a fault of its line
    row["url"] = normalize(row["url"]).normalized
    return row


def read_best_subpages(path: str | Path) -> list[dict]:
    """Rows of {"site", "topic", "url"} in file order, each url normalized, as
    fetch-sections stores its page."""
    return list(read_jsonl(path, _best_row))
