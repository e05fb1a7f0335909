"""The bundled English stopword list.

A fixed 179-word list shared by URL tokenization, page-text preprocessing,
and language detection, so results do not drift with external resources.
Callers needing another language can pass their own set anywhere a stopword
set is accepted.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .lines import read_lines


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one word per line, # comments, lowercased like the tokens."""
    return frozenset(read_lines(path, str.lower))


DEFAULT_STOPWORDS = load_stopwords(resources.files("topicpages") / "data/stopwords_english.txt")
