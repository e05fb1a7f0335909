"""The topical dictionary: curated keywords naming each site section topic.

The dictionary is plain data (JSON), so the topic set is configurable
without code changes.  Keywords are lowercase slug tokens; transliterated
non-English section names (e.g. "manoranjan", "khel") are ordinary entries.
A catch-all Other topic always exists and never carries keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DuplicateKeyword, EmptyTopicSet, MalformedDocument
from .lines import read_json


@dataclass(frozen=True)
class Topic:
    name: str
    is_other: bool = False


def _valid_keyword(kw: str) -> bool:
    return bool(kw) and all(ch == "-" or ch.isalnum() for ch in kw)


class TopicalDictionary:
    """Topic -> keyword mapping plus the generic-subpath skip list."""

    def __init__(
        self,
        entries: Mapping[Topic, Sequence[str]],
        generic_subpaths: Iterable[str] = (),
        other_name: str = "other",
    ) -> None:
        others = [t for t in entries if t.is_other]
        if len(others) > 1:
            raise MalformedDocument("more than one Other topic")
        ordered: dict[Topic, tuple[str, ...]] = {}
        keyword_owner: dict[str, Topic] = {}
        for topic, keywords in entries.items():
            kws = []
            for kw in keywords:
                kw = kw.lower()
                if not _valid_keyword(kw):
                    raise MalformedDocument(f"keyword {kw!r} is not a lowercase slug")
                if kw in keyword_owner:
                    raise DuplicateKeyword(
                        f"keyword {kw!r} appears under both "
                        f"{keyword_owner[kw].name!r} and {topic.name!r}"
                    )
                keyword_owner[kw] = topic
                kws.append(kw)
            if topic.is_other and kws:
                raise MalformedDocument("the Other topic must not carry keywords")
            ordered[topic] = tuple(kws)
        if not any(not t.is_other for t in ordered):
            raise EmptyTopicSet("a dictionary needs at least one named topic")
        if not others:
            other = Topic(other_name, is_other=True)
            if any(t.name == other_name for t in ordered):
                raise MalformedDocument(f"topic name {other_name!r} clashes with the Other topic")
            ordered[other] = ()
        self._entries = ordered
        self._keyword_owner = keyword_owner
        self._by_name = {t.name: t for t in ordered}
        if len(self._by_name) != len(ordered):
            raise MalformedDocument("duplicate topic names")
        self._generic = frozenset(g.lower() for g in generic_subpaths)

    # --- lookups ---------------------------------------------------------

    def topics(self) -> tuple[Topic, ...]:
        return tuple(self._entries)

    def non_other_topics(self) -> tuple[Topic, ...]:
        return tuple(t for t in self._entries if not t.is_other)

    def other_topic(self) -> Topic:
        return next(t for t in self._entries if t.is_other)

    def topic_named(self, name: str) -> Topic:
        return self._by_name[name]

    def keywords_for(self, topic: Topic) -> tuple[str, ...]:
        return self._entries[topic]

    def topic_of_keyword(self, keyword: str) -> Topic | None:
        return self._keyword_owner.get(keyword)

    def is_generic(self, subpath: str) -> bool:
        return subpath.lower() in self._generic

    @property
    def generic_subpaths(self) -> frozenset[str]:
        return self._generic

    def __len__(self) -> int:
        return len(self._entries)


def _dictionary_of(data: object) -> TopicalDictionary:
    if not isinstance(data, dict) or not isinstance(data.get("topics"), dict):
        raise MalformedDocument('expected an object with a "topics" mapping')
    if not data["topics"]:
        raise EmptyTopicSet("no topics declared")
    other_name = data.get("other_name", "other")
    if not isinstance(other_name, str) or not other_name:
        raise MalformedDocument('"other_name" must be a non-empty string')
    generic = data.get("generic_subpaths", [])
    if not isinstance(generic, list) or not all(isinstance(g, str) for g in generic):
        raise MalformedDocument('"generic_subpaths" must be a list of strings')
    entries: dict[Topic, Sequence[str]] = {}
    for name, keywords in data["topics"].items():
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise MalformedDocument(f"topic {name!r}: keywords must be a list of strings")
        entries[Topic(name)] = keywords
    return TopicalDictionary(entries, generic_subpaths=generic, other_name=other_name)


def load_dictionary_file(path: str | Path) -> TopicalDictionary:
    """Read a dictionary document.

    Expected shape:
        {"topics": {name: [keywords...]},
         "generic_subpaths": [...],        # optional
         "other_name": "other"}            # optional
    """
    return read_json(path, _dictionary_of)


def bundled_dictionary() -> TopicalDictionary:
    """The example dictionary shipped with the package (15 topics)."""
    return load_dictionary_file(resources.files("topicpages") / "data/topical_dictionary.json")
