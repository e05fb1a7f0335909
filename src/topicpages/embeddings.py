"""Word-embedding loading and the vector arithmetic used for matching.

The model file is the plain word2vec text format: a "count dimension"
header, then one token and its coordinates per line.  Multi-token phrases
are represented by summing their token vectors; out-of-vocabulary tokens
contribute nothing.
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedDocument, MalformedHeader
from .lines import where

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SMALL_NORM = 1e-150  # below this, squared components reach the subnormal range
_CHUNK_LINES = 4096  # vector lines per bulk parse
_READ_CHARS = 1 << 20  # characters per read of an embeddings file


def tokenize_subpath(subpath: str, stopwords: AbstractSet[str] = frozenset()) -> list[str]:
    """Lowercase a URL path segment and split it on any non-alphanumeric run."""
    return [t for t in _TOKEN_RE.findall(subpath.lower()) if t not in stopwords]


class EmbeddingModel:
    """Token -> fixed-dimension vector map.

    The vectors are the rows of one float64 matrix; a token maps to its row.
    """

    def __init__(self, dimension: int, vectors: dict) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self._rows: dict[str, int] = {}
        self._matrix = np.empty((len(vectors), self.dimension), dtype=float)
        for row, (token, vec) in enumerate(vectors.items()):
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (self.dimension,):
                raise DimensionMismatch(f"token {token!r}: expected {self.dimension} values")
            self._matrix[row] = arr
            self._rows[token] = row

    @classmethod
    def _of_matrix(cls, matrix: np.ndarray, rows: dict[str, int]) -> "EmbeddingModel":
        """A model over *matrix*, whose row i is the vector of the i-th token of *rows*."""
        model = cls.__new__(cls)
        model.dimension = matrix.shape[1]
        model._rows = rows
        model._matrix = matrix
        return model

    def vector(self, token: str):
        """The vector for *token*, or None when out of vocabulary."""
        row = self._rows.get(token)
        return None if row is None else self._matrix[row]

    def __contains__(self, token: str) -> bool:
        return token in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(self._rows, self._matrix)


def _dimension(header: str) -> int:
    fields = header.split()
    if len(fields) != 2:
        raise MalformedHeader(f"expected 'count dimension', got {header!r}")
    try:
        _, dim = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise MalformedHeader(f"non-integer header: {header!r}") from exc
    if dim < 1:
        raise MalformedHeader("dimension must be positive")
    return dim


def _parse_rows_slowly(
    lines: Sequence[str], first_lineno: int, dim: int, rows: dict[str, int], source: str | None
) -> np.ndarray:
    """Line by line: the reference semantics and the exact error for a bad line."""
    vectors = []
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise DimensionMismatch(
                f"{where(source, lineno)}: expected {dim} values, got {len(parts) - 1}"
            )
        token = parts[0].lower()
        if token in rows:
            continue
        try:
            vectors.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise DimensionMismatch(f"{where(source, lineno)}: non-numeric coordinate") from exc
        rows[token] = len(rows)
    return np.array(vectors, dtype=float).reshape(len(vectors), dim)


def _parse_rows(
    lines: Sequence[str], first_lineno: int, dim: int, rows: dict[str, int], source: str | None
) -> np.ndarray:
    """The vectors of the tokens that *lines* add to *rows*, which gains them.

    One bulk parse of every line's values; a chunk numpy rejects (or that has
    the wrong shape) is parsed again line by line, which accepts what float()
    accepts and raises the error for the first bad line.
    """
    tokens: list[str] = []
    rests: list[str] = []
    for line in lines:
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:
            return _parse_rows_slowly(lines, first_lineno, dim, rows, source)
        tokens.append(parts[0].lower())
        rests.append(parts[1])
    if not rests:
        return np.empty((0, dim), dtype=float)
    try:
        values = np.loadtxt(rests, dtype=float, delimiter=None, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (len(rests), dim):
        return _parse_rows_slowly(lines, first_lineno, dim, rows, source)
    kept = []
    for i, token in enumerate(tokens):
        if token not in rows:
            rows[token] = len(rows)
            kept.append(i)
    return values if len(kept) == len(values) else values[kept]


def _load_lines(lines: Iterable[str], source: str | None = None) -> EmbeddingModel:
    """Parse a header and vector lines; *source*, a file's path, prefixes errors."""
    lines = iter(lines)
    header = next(lines, None)
    try:
        if header is None:
            raise MalformedHeader("empty document")
        dim = _dimension(header)
    except MalformedHeader as exc:
        if source is None:
            raise
        raise MalformedHeader(f"{where(source, 1)}: {exc}") from exc
    rows: dict[str, int] = {}
    blocks = []
    lineno = 2
    while chunk := list(islice(lines, _CHUNK_LINES)):
        blocks.append(_parse_rows(chunk, lineno, dim, rows, source))
        lineno += len(chunk)
    matrix = np.concatenate(blocks) if blocks else np.empty((0, dim), dtype=float)
    return EmbeddingModel._of_matrix(matrix, rows)


def _file_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 file, split as str.splitlines() splits the whole text."""
    with open(path, encoding="utf-8", newline="") as fh:
        tail = ""
        while block := fh.read(_READ_CHARS):
            # lines up to the last "\n" are complete; the rest may continue
            # in the next block
            text = tail + block
            cut = text.rfind("\n") + 1
            tail = text[cut:]
            yield from text[:cut].splitlines()
        yield from tail.splitlines()


def load_embeddings(document: str | bytes) -> EmbeddingModel:
    """Parse word2vec text format.

    Tokens are lowercased; when case-folding collides, the first row wins.
    Tokens and values are split on any whitespace.  The declared vocabulary
    count is not enforced (files are routinely truncated for experiments);
    the dimension is.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    return _load_lines(document.splitlines())


def _undecodable_line(path: str | Path) -> int:
    """The number of the first line of *path* that is not UTF-8, as _file_lines counts."""
    lineno = 0
    with open(path, "rb") as fh:
        for raw in fh:  # UTF-8 never encodes a character with a b"\n" byte
            for line in raw.decode("utf-8", "surrogateescape").splitlines():
                lineno += 1
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # an undecodable byte became a surrogate
                    return lineno
    return lineno


def load_embeddings_file(path: str | Path) -> EmbeddingModel:
    """load_embeddings() over a file, read in chunks rather than whole.

    Every fault in the file is a MalformedDocument whose message starts with
    "<path>:<line>: ", bytes that are not UTF-8 included.
    """
    try:
        return _load_lines(_file_lines(path), str(path))
    except UnicodeDecodeError as exc:
        raise MalformedDocument(
            f"{where(str(path), _undecodable_line(path))}: not UTF-8: {exc.reason}"
        ) from exc


def combined_embedding(tokens: Iterable[str], model: EmbeddingModel) -> np.ndarray:
    """Sum of the in-vocabulary token vectors; zero vector when none are."""
    out = np.zeros(model.dimension, dtype=float)
    for token in tokens:
        vec = model.vector(token)
        if vec is not None:
            out = out + vec
    return out


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine similarity; zero-norm operands compare as 0 by definition.

    Subnormal input: an operand whose norm is below 1e-150 is divided by its
    largest magnitude first, so squaring it cannot underflow.  The result is
    the cosine of the vectors as given: cosine([0.0, 5e-324], [0.0, 0.0]) is
    0.0, although the second is the first scaled by 0.5, because that
    scaling underflowed to the zero vector; an entry scaled into the
    subnormal range keeps fewer bits, and the angle moves with them.
    """
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
