"""Word-embedding loading and the vector arithmetic used for matching.

The model file is the plain word2vec text format: a "count dimension"
header, then one token and its coordinates per line.  Multi-token phrases
are represented by summing their token vectors; out-of-vocabulary tokens
contribute nothing.  A parsed file can be kept in a cache directory, so a
later load of the same bytes skips the parse, and a later load of the same
unchanged file skips reading it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import mmap
import os
import re
import shutil
import sys
import zlib
from itertools import islice
from pathlib import Path
from time import time_ns
from typing import AbstractSet, Iterable, Iterator, Sequence

import numpy as np

from .content import _tokens
from .errors import PipelineError
from .lines import decoded_lines, file_sha256, write_bytes

_SMALL_NORM = 1e-150  # below this, squared components reach the subnormal range
_CHUNK_LINES = 4096  # vector lines per bulk parse
_ENTRY_DTYPE = np.dtype("<f8")  # cache entries hold little-endian float64 rows
_IDENTITY = "identity.json"  # the index of vectors files by identity, in a code folder
_RACY_NS = 2_000_000_000  # an identity recorded sooner after a change is not trusted
_SHA256 = re.compile("[0-9a-f]{64}")


def tokenize_subpath(subpath: str, stopwords: AbstractSet[str] = frozenset()) -> list[str]:
    """Lowercase a URL path segment and split it on any non-alphanumeric run."""
    return [t for t in _tokens(subpath.lower()) if t not in stopwords]


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
                raise PipelineError(f"token {token!r}: expected {self.dimension} values")
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
        raise PipelineError(f"expected 'count dimension', got {header!r}")
    try:
        _, dim = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise PipelineError(f"non-integer header: {header!r}") from exc
    if dim < 1:
        raise PipelineError("dimension must be positive")
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
                raise PipelineError(f"{path}:{lineno}: {fault}")
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
    dimension is.  Every fault in the file is a PipelineError whose
    message starts with "<path>:<line>: ", bytes that are not UTF-8 included.

    When *cache* is an existing directory, the parse is served from its entry
    cache/embeddings/<_code_folder()>/<sha256 of the file>.bin, or made and
    then saved there.  The sha256 is taken from the folder's identity index
    without reading the file when the file's identity (device, inode, size,
    mtime and ctime) is the one recorded, at least two seconds after the file
    last changed; otherwise the file is hashed, and its identity recorded if
    it did not change while it was read.  An entry is checked by its length
    and CRC-32 and mapped copy-on-write, not copied, so the model's matrix
    is writable and a write never reaches the entry.  An entry or index that
    fails its checks costs a hash or a parse, and is replaced; a save that
    fails leaves the load as it was.
    """
    if cache is None or not Path(cache).is_dir():
        return _parse_file(path)
    folder = Path(cache) / "embeddings" / _code_folder()
    known = _known_digest(folder, path)
    if known is not None and (model := _read_entry(folder / f"{known}.bin")) is not None:
        return model
    digest = _digest(folder, path)
    if digest != known and (model := _read_entry(folder / f"{digest}.bin")) is not None:
        return model
    model = _parse_file(path)
    _write_entry(folder / f"{digest}.bin", model)
    return model


def _parse_file(path: str | Path) -> EmbeddingModel:
    lines = decoded_lines(path)
    header = next(lines, None)
    try:
        if header is None:
            raise PipelineError("empty document")
        dim = _dimension(header.removesuffix("\n"))
    except PipelineError as exc:
        raise PipelineError(f"{path}:1: {exc}") from exc
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
# byte length of the token list), "crc32" (of everything after the line)},
# padded with spaces so that the line, "\n" included, is a multiple of 8 bytes
# long; then the matrix as little-endian float64 rows, which so start 8-byte
# aligned; then the tokens in row order, UTF-8, joined by "\n", which no token
# holds.  The CRC finds a damaged or torn entry, not a forged one: whoever can
# write an entry can write its check too.  A reader maps the entry, so it is
# only ever replaced by a rename, never rewritten in place: truncating a mapped
# file would fault the reader on its next touch of the lost pages.
#
# Beside the entries, identity.json maps each vectors file's absolute path to
# {"identity": [st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns], "sha256",
# "recorded_ns" (time.time_ns() when recorded)}.  Like git's index, it is
# trusted only for a record made at least _RACY_NS after the file's last mtime
# or ctime: a file rewritten within one tick of the timestamp clock after the
# record could keep its identity.


@functools.cache
def _code_digests() -> tuple[str, ...]:
    """What the parse depends on besides the file: this package's source files
    and the Python and numpy versions, whose str.lower and number reading it uses."""
    sources = sorted(Path(__file__).parent.glob("*.py"))
    return (sys.version, np.__version__, *(f"{p.name}:{file_sha256(p)}" for p in sources))


def _code_folder() -> str:
    """The name of the directory that holds the entries this code can serve."""
    return hashlib.sha256("\n".join(_code_digests()).encode()).hexdigest()


def _identity(path: str | Path) -> list[int]:
    st = os.stat(path)
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _known_digest(folder: Path, path: str | Path) -> str | None:
    """The sha256 of *path* that the identity index holds, or None when it holds
    none, the file's identity is not the one recorded, or the record is racy."""
    try:
        row = json.loads((folder / _IDENTITY).read_bytes())[os.path.abspath(path)]
        identity = _identity(path)
        if row["identity"] != identity or row["recorded_ns"] - max(identity[3:]) < _RACY_NS:
            return None
        digest = row["sha256"]
        return digest if type(digest) is str and _SHA256.fullmatch(digest) else None
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None


def _digest(folder: Path, path: str | Path) -> str:
    """The sha256 of *path*'s bytes, recorded in the identity index when the
    file's identity did not change while it was read."""
    before = _identity(path)
    digest = file_sha256(path)
    if _identity(path) != before:
        return digest
    index = folder / _IDENTITY
    try:
        rows = json.loads(index.read_bytes())
    except (OSError, ValueError, RecursionError):
        rows = None
    rows = rows if type(rows) is dict else {}
    rows[os.path.abspath(path)] = {"identity": before, "recorded_ns": time_ns(), "sha256": digest}
    try:
        folder.mkdir(parents=True, exist_ok=True)
        write_bytes(index, (json.dumps(rows, sort_keys=True).encode(),))
    except OSError:
        pass
    return digest


def _read_entry(entry: Path) -> EmbeddingModel | None:
    """The model an entry holds, or None when it is absent or fails a check."""
    try:
        with open(entry, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        start = mapped.find(b"\n") + 1
        header = json.loads(mapped[:start])
        dim, count, size = header["dimension"], header["rows"], header["tokens"]
        numbers = (dim, count, size)
        if not all(type(v) is int for v in numbers) or dim < 1 or min(numbers) < 0:
            return None
        length = count * dim * _ENTRY_DTYPE.itemsize
        if start % _ENTRY_DTYPE.itemsize or len(mapped) - start != length + size:
            return None
        if zlib.crc32(memoryview(mapped)[start:]) != header["crc32"]:
            return None
        text = mapped[start + length:].decode("utf-8")
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None
    tokens = text.split("\n") if text else []
    rows = dict(zip(tokens, range(count)))
    if len(tokens) != count or len(rows) != count:
        return None
    matrix = np.frombuffer(mapped, dtype=_ENTRY_DTYPE, count=count * dim, offset=start)
    return EmbeddingModel._of_matrix(matrix.reshape(count, dim), rows)


def _write_entry(entry: Path, model: EmbeddingModel) -> None:
    """Save *model* as *entry*; a store that cannot take it only loses the entry.

    After a save, the entries no other code can serve go: every other code
    directory under embeddings/ and the flat *.bin entries of the former layout.
    """
    values = np.ascontiguousarray(model._matrix, dtype=_ENTRY_DTYPE).reshape(-1).view(np.uint8)
    tokens = "\n".join(model._rows).encode("utf-8")
    header = {"crc32": zlib.crc32(tokens, zlib.crc32(values)), "dimension": model.dimension,
              "rows": len(model), "tokens": len(tokens)}
    line = json.dumps(header, sort_keys=True).encode()
    line += b" " * (-(len(line) + 1) % _ENTRY_DTYPE.itemsize) + b"\n"
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        write_bytes(entry, (line, values, tokens))
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
    return cosine_with_norms(x, float(np.linalg.norm(x)), y, float(np.linalg.norm(y)))


def cosine_with_norms(x: np.ndarray, nx: float, y: np.ndarray, ny: float) -> float:
    """cosine(x, y) of two float arrays of one shape whose norms are *nx* and *ny*,
    bit for bit: a caller that scores one vector against many takes each norm once."""
    if nx < _SMALL_NORM or ny < _SMALL_NORM:
        # squares this small underflow; cosine ignores scale, so rescale first
        mx = float(np.abs(x).max(initial=0.0))
        my = float(np.abs(y).max(initial=0.0))
        if mx == 0.0 or my == 0.0:
            return 0.0
        x, y = x / mx, y / my
        nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    return float(np.dot(x, y) / (nx * ny))
