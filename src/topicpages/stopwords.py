"""The bundled English stopword list.

A fixed 179-word list shared by URL tokenization, page-text preprocessing,
and language detection, so results do not drift with external resources.
Callers needing another language can pass their own set anywhere a stopword
set is accepted.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .lines import parse_lines, read_lines


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword file (one word per line); default is the bundled list."""
    if path is None:
        text = resources.files("topicpages").joinpath("data/stopwords_english.txt").read_text("utf-8")
        return frozenset(parse_lines(text.split("\n"), str))
    return frozenset(read_lines(path, str))


DEFAULT_STOPWORDS = load_stopwords()
