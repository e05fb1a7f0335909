"""Reading and writing the pipeline's line-oriented and JSON files.

One line rule holds for every reader: a file is UTF-8 split on "\\n", each
line is stripped (so "\\r\\n" ends are accepted), blank lines and lines
starting with "#" are skipped, and lines count from 1.  Every fault, a byte
that is not UTF-8 included, raises a PipelineError whose message starts
"<path>:<line>: ", or "<path>: " for a fault in the shape of a file read
whole.  Writers sort keys, keep non-ASCII, refuse NaN and replace their
target in one step, so a failed or killed write leaves the previous file or
none, never part of one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import MalformedDocument, MalformedRecord, PipelineError

T = TypeVar("T")

# what parsing a hostile line or document can raise besides a PipelineError
_FAULTS = (LookupError, TypeError, ValueError, ArithmeticError, AttributeError, RecursionError,
           PipelineError)

_ROW = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)
_DOCUMENT = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False, indent=2)


def _located(exc: Exception, location: str, error: type[PipelineError]) -> PipelineError:
    """*exc* as an error at *location*; a PipelineError keeps its class."""
    if isinstance(exc, PipelineError):
        return type(exc)(f"{location}: {exc}")
    if isinstance(exc, json.JSONDecodeError):
        return error(f"{location}: not JSON: {exc}")
    return error(f"{location}: {exc}")


def decoded_lines(path: str | Path, error: type[PipelineError]) -> Iterator[str]:
    """The lines of a UTF-8 file, each with its "\\n" end; a bad byte is an *error*."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):  # binary files split on b"\n" only
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8: {exc.reason}") from exc
            yield line


def read_lines(
    path: str | Path, parse: Callable[[str], T], error: type[PipelineError] = MalformedRecord
) -> Iterator[T]:
    """parse(line) for each stripped line of a file that is not skipped."""
    for lineno, line in enumerate(decoded_lines(path, error), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = parse(line)
        except _FAULTS as exc:
            raise _located(exc, f"{path}:{lineno}", error) from exc
        yield value


def read_jsonl(path: str | Path, parse: Callable[[object], T]) -> Iterator[T]:
    """parse(value) for the JSON value on each line of a file that is not skipped."""
    return read_lines(path, lambda line: parse(json.loads(line)))


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file read whole; a byte that is not UTF-8 is a MalformedDocument."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedDocument(f"{path}:{lineno}: not UTF-8: {exc.reason}") from exc


def read_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """parse(the one JSON value a file holds); its faults are MalformedDocument errors."""
    text = read_text(path)
    try:
        return parse(json.loads(text))
    except _FAULTS as exc:
        raise _located(exc, str(path), MalformedDocument) from exc


@contextmanager
def _replacing(path: str | Path) -> Iterator:
    """A text file that replaces *path* only when the block completes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except ValueError as exc:  # NaN or an infinity
        raise PipelineError(f"{path.name}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def write_json(path: str | Path, obj) -> None:
    """*obj* as an indented JSON document."""
    with _replacing(path) as fh:
        fh.write(_DOCUMENT.encode(obj) + "\n")


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """Each row as one line of JSON, streamed to the file."""
    with _replacing(path) as fh:
        for row in rows:
            fh.write(_ROW.encode(row))
            fh.write("\n")
