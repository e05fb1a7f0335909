"""Word-embedding loading and the vector arithmetic used for matching.

The model file is the plain word2vec text format: a "count dimension"
header, then one token and its coordinates per line.  Multi-token phrases
are represented by summing their token vectors; out-of-vocabulary tokens
contribute nothing.  A parsed file can be kept in a cache directory, so a
later load of the same bytes skips the parse.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import shutil
import sys
from itertools import islice
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedDocument, MalformedHeader
from .lines import decoded_lines, file_sha256, write_bytes

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SMALL_NORM = 1e-150  # below this, squared components reach the subnormal range
_CHUNK_LINES = 4096  # vector lines per bulk parse
_ENTRY_DTYPE = np.dtype("<f8")  # cache entries hold little-endian float64 rows


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


def _values(rests: Sequence[str], dim: int) -> np.ndarray | None:
    """The values of each row's text after its token, or None when a row is
    not *dim* numbers as numpy reads them."""
    if not all(rests):  # loadtxt skips an empty row, and warns when every row is
        return None
    try:
        values = np.loadtxt(rests, dtype=float, delimiter=None, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(rests), dim) else None


def _parse_rows(
    lines: Sequence[str], first_lineno: int, dim: int, rows: dict[str, int], path: str | Path
) -> np.ndarray:
    """The vectors of the tokens that *lines* add to *rows*, which gains them.

    One parse of every row's values; when it fails, the first row that fails
    alone is the error.
    """
    tokens: list[str] = []
    rests: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=first_lineno):
        # numpy ends a row at "\r"; here only "\n" does, and "\r" is whitespace
        parts = line.replace("\r", " ").split(None, 1)
        if parts:
            tokens.append(parts[0].lower())
            rests.append(parts[1] if len(parts) == 2 else "")
            linenos.append(lineno)
    if not rests:
        return np.empty((0, dim), dtype=float)
    values = _values(rests, dim)
    if values is None:
        for lineno, rest in zip(linenos, rests):
            if _values([rest], dim) is None:
                width = len(rest.split())
                fault = (
                    "non-numeric coordinate" if width == dim
                    else f"expected {dim} values, got {width}"
                )
                raise DimensionMismatch(f"{path}:{lineno}: {fault}")
    kept = []
    for i, token in enumerate(tokens):
        if token not in rows:
            rows[token] = len(rows)
            kept.append(i)
    return values if len(kept) == len(values) else values[kept]


def load_embeddings_file(path: str | Path, cache: str | Path | None = None) -> EmbeddingModel:
    """Parse a word2vec text file, read line by line rather than whole.

    Rows end at "\\n" only.  Tokens are lowercased; when case-folding
    collides, the first row wins, though every row's values must parse.
    Tokens and values are split on any other whitespace, and a value is a
    number as numpy's loadtxt reads one.  The declared vocabulary count is
    not enforced (files are routinely truncated for experiments); the
    dimension is.  Every fault in the file is a MalformedDocument whose
    message starts with "<path>:<line>: ", bytes that are not UTF-8 included.

    When *cache* is an existing directory, the parse is served from its entry
    cache/embeddings/<_code_folder()>/<sha256 of the file>.bin, or made and
    then saved there.  An entry that fails its checks is parsed anew and
    replaced; a save that fails leaves the load as it was.
    """
    entry = None
    if cache is not None and Path(cache).is_dir():
        entry = Path(cache) / "embeddings" / _code_folder() / f"{file_sha256(path)}.bin"
        model = _read_entry(entry)
        if model is not None:
            return model
    model = _parse_file(path)
    if entry is not None:
        _write_entry(entry, model)
    return model


def _parse_file(path: str | Path) -> EmbeddingModel:
    lines = decoded_lines(path, MalformedDocument)
    header = next(lines, None)
    try:
        if header is None:
            raise MalformedHeader("empty document")
        dim = _dimension(header.removesuffix("\n"))
    except MalformedHeader as exc:
        raise MalformedHeader(f"{path}:1: {exc}") from exc
    rows: dict[str, int] = {}
    blocks = []
    lineno = 2
    while chunk := list(islice(lines, _CHUNK_LINES)):
        blocks.append(_parse_rows(chunk, lineno, dim, rows, path))
        lineno += len(chunk)
    matrix = np.concatenate(blocks) if blocks else np.empty((0, dim), dtype=float)
    return EmbeddingModel._of_matrix(matrix, rows)


# --- the parse cache -----------------------------------------------------------
#
# An entry is one file: a JSON header line {"dimension", "rows", "tokens" (the
# byte length of the token list), "sha256" (of everything after the line)},
# then the matrix as little-endian float64 rows, then the tokens in row order,
# UTF-8, joined by "\n", which no token holds.


@functools.cache
def _code_digests() -> tuple[str, ...]:
    """What the parse depends on besides the file: this package's source files
    and the Python and numpy versions, whose str.lower and number reading it uses."""
    sources = sorted(Path(__file__).parent.glob("*.py"))
    return (sys.version, np.__version__, *(f"{p.name}:{file_sha256(p)}" for p in sources))


def _code_folder() -> str:
    """The name of the directory that holds the entries this code can serve."""
    return hashlib.sha256("\n".join(_code_digests()).encode()).hexdigest()


def _read_entry(entry: Path) -> EmbeddingModel | None:
    """The model an entry holds, or None when it is absent or fails a check."""
    try:
        with open(entry, "rb") as fh:
            header = json.loads(fh.readline())
            dim, count, size = header["dimension"], header["rows"], header["tokens"]
            numbers = (dim, count, size)
            if not all(type(v) is int for v in numbers) or dim < 1 or min(numbers) < 0:
                return None
            length = count * dim * _ENTRY_DTYPE.itemsize
            if os.fstat(fh.fileno()).st_size - fh.tell() != length + size:
                return None
            payload = bytearray(length + size)
            if fh.readinto(payload) != len(payload):
                return None
        if hashlib.sha256(payload).hexdigest() != header["sha256"]:
            return None
        text = payload[length:].decode("utf-8")
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None
    tokens = text.split("\n") if text else []
    rows = dict(zip(tokens, range(count)))
    if len(tokens) != count or len(rows) != count:
        return None
    matrix = np.frombuffer(payload, dtype=_ENTRY_DTYPE, count=count * dim).reshape(count, dim)
    return EmbeddingModel._of_matrix(matrix, rows)


def _write_entry(entry: Path, model: EmbeddingModel) -> None:
    """Save *model* as *entry*; a store that cannot take it only loses the entry.

    After a save, the entries no other code can serve go: every other code
    directory under embeddings/ and the flat *.bin entries of the former layout.
    """
    values = np.ascontiguousarray(model._matrix, dtype=_ENTRY_DTYPE).reshape(-1).view(np.uint8)
    tokens = "\n".join(model._rows).encode("utf-8")
    digest = hashlib.sha256(values)
    digest.update(tokens)
    header = {"dimension": model.dimension, "rows": len(model), "tokens": len(tokens),
              "sha256": digest.hexdigest()}
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        write_bytes(entry, (json.dumps(header, sort_keys=True).encode() + b"\n", values, tokens))
        for stale in entry.parent.parent.iterdir():
            if stale.is_dir() and stale != entry.parent:
                shutil.rmtree(stale, ignore_errors=True)  # refuses a symlink
            elif stale.suffix == ".bin":
                stale.unlink()
    except OSError:
        pass


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
