"""Word-embedding loading and the vector arithmetic used for matching.

The model file is the plain word2vec text format: a "count dimension"
header, then one token and its coordinates per line.  Multi-token phrases
are represented by summing their token vectors; out-of-vocabulary tokens
contribute nothing.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedHeader

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SMALL_NORM = 1e-150  # below this, squared components reach the subnormal range


def tokenize_subpath(subpath: str, stopwords: AbstractSet[str] = frozenset()) -> list[str]:
    """Lowercase a URL path segment and split it on any non-alphanumeric run."""
    return [t for t in _TOKEN_RE.findall(subpath.lower()) if t not in stopwords]


class EmbeddingModel:
    """Token -> fixed-dimension vector map."""

    def __init__(self, dimension: int, vectors: dict) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self._vectors: dict[str, np.ndarray] = {}
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (self.dimension,):
                raise DimensionMismatch(f"token {token!r}: expected {self.dimension} values")
            self._vectors[token] = arr

    def vector(self, token: str):
        """The vector for *token*, or None when out of vocabulary."""
        return self._vectors.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._vectors.items())


def load_embeddings(document: str | bytes) -> EmbeddingModel:
    """Parse word2vec text format.

    Tokens are lowercased; when case-folding collides, the first row wins.
    The declared vocabulary count is not enforced (files are routinely
    truncated for experiments); the dimension is.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    lines = document.splitlines()
    if not lines:
        raise MalformedHeader("empty document")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeader(f"expected 'count dimension', got {lines[0]!r}")
    try:
        _, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedHeader(f"non-integer header: {lines[0]!r}") from exc
    if dim < 1:
        raise MalformedHeader("dimension must be positive")
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise DimensionMismatch(
                f"line {lineno}: expected {dim} values, got {len(parts) - 1}"
            )
        token = parts[0].lower()
        if token in vectors:
            continue
        try:
            vectors[token] = np.array([float(p) for p in parts[1:]], dtype=float)
        except ValueError as exc:
            raise DimensionMismatch(f"line {lineno}: non-numeric coordinate") from exc
    return EmbeddingModel(dim, vectors)


def load_embeddings_file(path: str | Path) -> EmbeddingModel:
    return load_embeddings(Path(path).read_text("utf-8"))


def combined_embedding(tokens: Iterable[str], model: EmbeddingModel) -> np.ndarray:
    """Sum of the in-vocabulary token vectors; zero vector when none are."""
    out = np.zeros(model.dimension, dtype=float)
    for token in tokens:
        vec = model.vector(token)
        if vec is not None:
            out = out + vec
    return out


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity; zero-norm operands compare as 0 by definition."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx < _SMALL_NORM or ny < _SMALL_NORM:
        # squares this small underflow; cosine ignores scale, so rescale first
        mx = float(np.abs(x).max(initial=0.0))
        my = float(np.abs(y).max(initial=0.0))
        if mx == 0.0 or my == 0.0:
            return 0.0
        x, y = x / mx, y / my
        nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    return float(np.dot(x, y) / (nx * ny))
