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

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import MalformedDocument, MalformedRecord, PipelineError

T = TypeVar("T")

# what parsing a hostile line or document can raise besides a PipelineError
_FAULTS = (LookupError, TypeError, ValueError, ArithmeticError, AttributeError, RecursionError,
           PipelineError)

_ROW = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)
_DOCUMENT = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False, indent=2)
_STRING = json.encoder.encode_basestring  # what _DOCUMENT writes for a str


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
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedDocument(f"{path}:{lineno}: not UTF-8: {exc.reason}") from exc


def read_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """parse(the one JSON value a file holds); its faults are MalformedDocument errors."""
    text = read_text(path)
    return parsed(text, lambda text: parse(json.loads(text)), path)


def parsed(value, parse: Callable[[object], T], path: str | Path) -> T:
    """parse(value), where *value* is what the file *path* holds; its faults are
    MalformedDocument errors naming that file, as read_json's are."""
    try:
        return parse(value)
    except _FAULTS as exc:
        raise _located(exc, str(path), MalformedDocument) from exc


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", list: "a list",
               dict: "a mapping"}


def _numbers(items) -> bool:
    """True when each item is an int or a finite float, none a bool or a subclass:
    a JSON number, and one that json writes as its repr."""
    if not set(map(type, items)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, items))
    except OverflowError:  # an int past the float range, which is finite
        return all(type(v) is int or math.isfinite(v) for v in items)


def checked(value, kind: type, what: str, each: bool = False):
    """*value* if its JSON type is *kind*, or with *each* if it is a list of such
    values; else a ValueError naming *what*.  A bool is no integer, and a number
    (*kind* float) is a finite int or float."""
    if type(value) is kind and not each and kind is not float:
        return value
    if each and type(value) is not list:
        raise ValueError(f"{what} must be a list, got {value!r}")
    items = value if each else (value,)
    if _numbers(items) if kind is float else set(map(type, items)) <= {kind}:
        return value
    bad = next(v for v in items if not (_numbers((v,)) if kind is float else type(v) is kind))
    must = f"hold {_KIND_NAMES[kind]} each" if each else f"be {_KIND_NAMES[kind]}"
    raise ValueError(f"{what} must {must}, got {bad!r}")


def file_sha256(path: str | Path) -> str:
    """The sha256 hex digest of a file's bytes, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _utf8(path: str | Path, text: str | Iterable[str]) -> Iterator[bytes]:
    """The UTF-8 bytes of *text*, or of each string of an iterable of them, made as
    they are taken; a value with no such text (NaN or an infinity in JSON, a lone
    surrogate) is a PipelineError naming the file *path*."""
    try:
        for chunk in (text,) if isinstance(text, str) else text:
            yield chunk.encode("utf-8")
    except ValueError as exc:
        raise PipelineError(f"{Path(path).name}: {exc}") from exc


def encoded(path: str | Path, text: str | Iterable[str]) -> bytes:
    """The bytes that write_text(path, text) writes, or its error, without writing."""
    return b"".join(_utf8(path, text))


def write_text(path: str | Path, text: str | bytes | Iterable[str]) -> None:
    """*text*, or each string of an iterable of them in turn, as the file's UTF-8 text;
    bytes are that text encoded already."""
    write_bytes(path, (text,) if isinstance(text, bytes) else _utf8(path, text))


def write_bytes(path: str | Path, chunks: Iterable) -> None:
    """Each buffer of *chunks* in turn, as the file's bytes, which replace *path* only
    once all are written."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _document(obj, indent: str) -> str:
    """_DOCUMENT.encode(obj) with *indent* after each newline: the same text, but
    a list of plain numbers or of plain strings is joined at once rather than by
    json's pure-Python encoder, which indent=2 selects.  A value of any other kind,
    or a dict with a key that is not a str, goes through _DOCUMENT, so its bytes and
    errors stay."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        items = (f"{_DOCUMENT.encode(key)}: {_document(value, inner)}"
                 for key, value in sorted(obj.items()))
        brackets = "{}"
    elif isinstance(obj, (list, tuple)) and obj:
        if _numbers(obj):
            items = map(repr, obj)
        elif set(map(type, obj)) == {str}:
            items = map(_STRING, obj)
        else:
            items = (_document(v, inner) for v in obj)
        brackets = "[]"
    elif _numbers((obj,)):
        return repr(obj)
    else:
        return _DOCUMENT.encode(obj).replace("\n", "\n" + indent)  # a string holds no newline
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def json_text(obj) -> Iterator[str]:
    """*obj* as an indented JSON document, made when first taken, so that a value it
    refuses is a fault of the write."""
    try:
        text = _document(obj, "")
    except RecursionError:  # a cycle, or nesting past the stack: json's own verdict
        text = _DOCUMENT.encode(obj)
    yield text + "\n"


def jsonl_text(rows: Iterable) -> Iterator[str]:
    """Each row as one line of JSON, made as it is taken."""
    for row in rows:
        yield _ROW.encode(row) + "\n"


def write_json(path: str | Path, obj) -> None:
    write_text(path, json_text(obj))


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    write_text(path, jsonl_text(rows))
