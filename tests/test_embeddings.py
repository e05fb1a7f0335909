import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from topicpages import (
    EmbeddingModel,
    combined_embedding,
    cosine,
    load_embeddings_file,
    tokenize_subpath,
)
from topicpages import embeddings as embeddings_mod
from topicpages import lines as lines_mod
from topicpages.errors import DimensionMismatch, MalformedDocument, MalformedHeader
from topicpages.stopwords import load_stopwords

from conftest import never_parse, text_file


class TestTokenizeSubpath:
    def test_splits_on_hyphens_and_case_folds(self):
        assert tokenize_subpath("Real-Estate") == ["real", "estate"]

    def test_splits_on_any_nonalnum_run(self):
        assert tokenize_subpath("a_b.c--d2") == ["a", "b", "c", "d2"]

    def test_stopwords_removed_after_folding(self):
        assert tokenize_subpath("The-Movie-Review", {"the"}) == ["movie", "review"]

    def test_stopword_file_lowercased_like_the_tokens(self, tmp_path):
        stopwords = load_stopwords(text_file(tmp_path, "The\nOf\n"))
        assert tokenize_subpath("The-State-of-Play", stopwords) == ["state", "play"]

    def test_empty_and_punctuation_only(self):
        assert tokenize_subpath("") == []
        assert tokenize_subpath("---") == []

    def test_unicode_letters_kept(self):
        assert tokenize_subpath("café-news") == ["café", "news"]


W2V = "3 2\nsports 1.0 0.0\ncricket 0.8 0.6\nnews 0.0 1.0\n"


@pytest.fixture
def vectors(tmp_path):
    """The path of a vectors file that holds the text given."""
    return lambda text: text_file(tmp_path, text, "v.txt")


def at(path, lineno):
    """The start of an error message at a line of *path*, as a regular expression."""
    return re.escape(f"{path}:{lineno}: ")


class TestLoadEmbeddings:
    def test_basic(self, vectors):
        m = load_embeddings_file(vectors(W2V))
        assert m.dimension == 2
        assert len(m) == 3
        assert np.allclose(m.vector("cricket"), [0.8, 0.6])
        assert "sports" in m
        assert m.vector("absent") is None

    def test_tokens_case_folded_first_wins(self, vectors):
        m = load_embeddings_file(vectors("2 1\nSports 1.0\nsports 2.0\n"))
        assert m.vector("sports") == pytest.approx([1.0])

    def test_count_header_not_enforced(self, vectors):
        m = load_embeddings_file(vectors("999 1\na 1.0\n"))
        assert len(m) == 1

    def test_blank_lines_skipped(self, vectors):
        m = load_embeddings_file(vectors("1 1\n\na 1.0\n\n"))
        assert len(m) == 1

    def test_empty_document(self, vectors):
        p = vectors("")
        with pytest.raises(MalformedHeader, match=f"^{at(p, 1)}empty document$"):
            load_embeddings_file(p)

    @pytest.mark.parametrize("header", ["3", "a b", "3 2 1", "3 0"])
    def test_bad_headers(self, vectors, header):
        p = vectors(header + "\na 1.0 2.0\n")
        with pytest.raises(MalformedHeader, match=f"^{at(p, 1)}"):
            load_embeddings_file(p)

    def test_wrong_width_reports_line_number(self, vectors):
        p = vectors("2 2\na 1.0 2.0\nb 1.0\n")
        with pytest.raises(DimensionMismatch, match=f"^{at(p, 3)}"):
            load_embeddings_file(p)

    def test_non_numeric_reports_line_number(self, vectors):
        p = vectors("1 2\na 1.0 oops\n")
        with pytest.raises(DimensionMismatch, match=f"^{at(p, 2)}"):
            load_embeddings_file(p)

    def test_file_loader(self, vectors):
        assert load_embeddings_file(str(vectors(W2V))).dimension == 2

    def test_bad_value_in_duplicate_row_rejected(self, vectors):
        # the first row of a token wins, but every row's values must parse
        p = vectors("2 1\na 1.0\nA oops\n")
        with pytest.raises(DimensionMismatch, match=f"^{at(p, 3)}non-numeric coordinate$"):
            load_embeddings_file(p)

    def test_width_of_duplicate_row_checked(self, vectors):
        p = vectors("2 1\na 1.0\nA 1.0 2.0\n")
        with pytest.raises(DimensionMismatch, match=f"^{at(p, 3)}expected 1 values, got 2$"):
            load_embeddings_file(p)

    def test_values_python_accepts_and_numpy_does_not(self, vectors):
        for value in ["1_0", "\u0661"]:
            p = vectors(f"2 2\na 1 2\nb {value} -0.0\n")
            with pytest.raises(DimensionMismatch, match=f"^{at(p, 3)}non-numeric coordinate$"):
                load_embeddings_file(p)

    def test_only_newline_ends_a_row(self, vectors):
        # "\r" and the other breaks str.splitlines() knows are whitespace in a row
        m = load_embeddings_file(vectors("1 2\na 1\r2\x85\u2028\r\t\n"))
        assert m.vector("a").tolist() == [1.0, 2.0]
        p = vectors("2 1\na 1\rb 2\n")
        with pytest.raises(DimensionMismatch, match=f"^{at(p, 2)}expected 1 values, got 3$"):
            load_embeddings_file(p)

    def test_error_line_number_past_a_chunk(self, vectors, monkeypatch):
        monkeypatch.setattr(embeddings_mod, "_CHUNK_LINES", 2)
        p = vectors("5 1\na 1\n\nb 2\nc 3\nd x\n")
        with pytest.raises(DimensionMismatch, match=f"^{at(p, 6)}non-numeric coordinate$"):
            load_embeddings_file(p)

    def test_malformed_row_before_bad_utf8_reports_the_row(self, tmp_path, monkeypatch):
        # the file is read as it is parsed, so a fault in an early chunk is
        # found before an undecodable byte in a later one
        monkeypatch.setattr(embeddings_mod, "_CHUNK_LINES", 1)
        p = tmp_path / "v.txt"
        p.write_bytes(b"2 1\na oops\n" + b"b 1.0\n" * 10000 + b"c \xff\n")
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(str(p))}:2: non-numeric"):
            load_embeddings_file(p)

    def test_bad_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"1 1\na \xff\n")
        with pytest.raises(MalformedDocument, match=f"^{re.escape(str(p))}:2: not UTF-8: "):
            load_embeddings_file(p)

    @pytest.mark.parametrize(
        "data,lineno",
        [
            (b"\xff 1\n", 1),
            (b"3 1\na 1\r\nb 2\rc \xfe\n", 3),  # only "\n" ends a line
            (b"3 1\n\n\na 1\nb \xc3", 5),  # a sequence cut off at the end
            (b"3 1\na 1\n" + b"b 1\n" * 5000 + b"c \xe9t\xe9 1\n", 5003),
        ],
    )
    def test_undecodable_line_number(self, tmp_path, data, lineno):
        p = tmp_path / "v.txt"
        p.write_bytes(data)
        with pytest.raises(MalformedDocument, match=f"^{re.escape(str(p))}:{lineno}: not UTF-8"):
            load_embeddings_file(p)


def reference_load(document, path):
    """The line-by-line parser the bulk loader must agree with.

    Returns (dimension, {token: vector}) or raises what the loader raises
    for *document* as a file at *path*: errors start with "<path>:<line>: ".
    """

    def at(lineno):
        return f"{path}:{lineno}: "

    header_at = at(1)
    lines = document.split("\n") if document else []
    if not lines:
        raise MalformedHeader(f"{header_at}empty document")
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedHeader(f"{header_at}expected 'count dimension', got {lines[0]!r}")
    try:
        _, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MalformedHeader(f"{header_at}non-integer header: {lines[0]!r}") from exc
    if dim < 1:
        raise MalformedHeader(f"{header_at}dimension must be positive")
    vectors = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise DimensionMismatch(
                f"{at(lineno)}expected {dim} values, got {len(parts) - 1}"
            )
        token = parts[0].lower()
        # numpy reads what float() reads, but for "_" and non-ASCII digits
        if not all(p.isascii() and "_" not in p for p in parts[1:]):
            raise DimensionMismatch(f"{at(lineno)}non-numeric coordinate")
        try:
            vector = np.array([float(p) for p in parts[1:]], dtype=float)
        except ValueError as exc:
            raise DimensionMismatch(f"{at(lineno)}non-numeric coordinate") from exc
        vectors.setdefault(token, vector)
    return dim, vectors


def outcome(load, arg):
    """(dimension, [(token, vector bytes)]) or (error type, message)."""
    try:
        model = load(arg)
    except (MalformedHeader, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return model.dimension, [(t, v.tobytes()) for t, v in model.items()]


def reference_outcome(document, path):
    try:
        dim, vectors = reference_load(document, path)
    except (MalformedHeader, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return dim, [(t, v.tobytes()) for t, v in vectors.items()]


GOOD_VALUES = st.one_of(
    st.floats().map(repr),  # includes nan, inf, -0.0 and subnormals
    st.integers(-99, 99).map(str),
    st.sampled_from(["+2", "1e5", "-nan", "Infinity", ".5", "1E-3"]),
)
# float() takes the first three; numpy, and so the reference, takes none of them
BAD_VALUES = st.sampled_from(["1_0", "\u0661", "\uff11", "oops", "0x1", "1,5", "1.0\x00"])
SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", "\xa0", " \t"])


@st.composite
def vector_line(draw, dim):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "  ", "\t", "\xa0"]))  # blank
    token = draw(st.sampled_from(["a", "A", "b", "B", "Cat", "cAT", "x_y", "\u00e9", "\u00c9", "1"]))
    n = dim + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 15)) == 0 else 0)
    line = token
    for _ in range(max(0, n)):
        value = draw(BAD_VALUES if draw(st.integers(0, 19)) == 0 else GOOD_VALUES)
        line += draw(SEPARATORS) + value
    return line + draw(st.sampled_from(["", "", " ", "\t", "\xa0"]))


@st.composite
def documents(draw):
    dim = draw(st.integers(1, 3))
    header = draw(st.sampled_from([f"9 {dim}"] * 6 + [f"1 {dim} ", "x", f"2 {dim - 1}"]))
    lines = [header] + draw(st.lists(vector_line(dim), max_size=12))
    ends = [draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x85"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\n")


class TestBulkLoaderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(documents(), st.integers(1, 5))
    def test_file_matches_reference(self, document, chunk_lines):
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(embeddings_mod, "_CHUNK_LINES", chunk_lines)
            path = text_file(tmp, document, "v.txt")
            assert outcome(load_embeddings_file, path) == reference_outcome(document, path)

    @given(st.one_of(GOOD_VALUES, BAD_VALUES))
    def test_reference_reads_a_value_when_numpy_does(self, value):
        try:
            np.loadtxt([value], dtype=float, delimiter=None, comments=None, ndmin=2)
            numpy_reads = True
        except ValueError:
            numpy_reads = False
        expected = 1 if numpy_reads else DimensionMismatch  # the dimension, or the error
        assert reference_outcome(f"1 1\na {value}\n", "v.txt")[0] == expected

    def test_default_chunk_sizes_on_a_long_file(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            f"w{i % 9000} " + " ".join(repr(float(x)) for x in rng.normal(size=4))
            for i in range(10000)
        ]
        document = "10000 4\n" + "\n".join(rows) + "\n"
        path = text_file(tmp_path, document, "v.txt")
        assert outcome(load_embeddings_file, path) == reference_outcome(document, path)


def same_model(a, b):
    """The same matrix bytes and the same tokens in the same row order."""
    return (
        a.dimension == b.dimension
        and a._matrix.tobytes() == b._matrix.tobytes()
        and list(a._rows.items()) == list(b._rows.items())
    )


# case-folding collisions (the first row wins), non-ASCII tokens, -0.0
CACHED = "4 2\nSports 1.0 -0.0\nsports 9 9\n\u00dcber 0.5 1e-300\ncricket 0.8 0.6\n"


@pytest.fixture
def store(tmp_path):
    directory = tmp_path / "store"
    directory.mkdir()
    return directory


def entries(store):
    """The cache entries of *store*, as paths under its embeddings/ folder."""
    return sorted(str(p.relative_to(store / "embeddings"))
                  for p in (store / "embeddings").rglob("*.bin"))


class TestParseCache:
    @pytest.mark.parametrize("text", [CACHED, "0 3\n", W2V])
    def test_hit_equals_miss(self, vectors, store, monkeypatch, text):
        path = vectors(text)
        plain = load_embeddings_file(path)
        miss = load_embeddings_file(path, cache=store)
        assert len(entries(store)) == 1
        monkeypatch.setattr(embeddings_mod, "_parse_file", never_parse)
        hit = load_embeddings_file(path, cache=store)
        assert same_model(miss, plain) and same_model(hit, plain)
        assert hit._matrix.flags.writeable

    def test_edited_file_misses(self, vectors, store):
        load_embeddings_file(vectors(W2V), cache=store)
        edited = load_embeddings_file(vectors(W2V.replace("0.8", "0.7")), cache=store)
        assert edited.vector("cricket").tolist() == [0.7, 0.6]
        assert len(entries(store)) == 2

    @pytest.mark.parametrize("damage", [
        "truncated", "extended", "half-written", "empty", "header-flip", "matrix-flip",
        "token-flip", "not-json",
    ])
    def test_damaged_entry_is_rebuilt(self, vectors, store, damage):
        path = vectors(CACHED)
        load_embeddings_file(path, cache=store)
        [name] = entries(store)
        entry = store / "embeddings" / name
        whole = entry.read_bytes()
        data = bytearray(whole)
        header = whole.index(b"\n") + 1
        if damage == "truncated":
            data = data[:-1]
        elif damage == "extended":
            data += b"\0"
        elif damage == "half-written":
            data = data[: len(data) // 2]
        elif damage == "empty":
            data = b""
        elif damage == "not-json":
            data[0:1] = b"["
        else:
            at = {"header-flip": whole.index(b'"rows": ') + 8, "matrix-flip": header + 3,
                  "token-flip": len(whole) - 2}[damage]
            data[at] ^= 0x01
        entry.write_bytes(bytes(data))
        assert same_model(load_embeddings_file(path, cache=store), load_embeddings_file(path))
        assert entry.read_bytes() == whole

    def test_a_save_removes_the_entries_of_other_code(self, vectors, store, tmp_path,
                                                       monkeypatch):
        path = vectors(W2V)
        load_embeddings_file(path, cache=store)
        folder = store / "embeddings"
        (folder / ("0" * 64)).mkdir()
        (folder / ("0" * 64) / f"{'2' * 64}.bin").write_bytes(b"an entry of other code")
        (folder / f"{'1' * 64}.bin").write_bytes(b"an entry of the flat layout")
        (folder / "notes.txt").write_text("not an entry")
        (store / "index.jsonl").write_text("")
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "keep.bin").write_text("kept")
        (folder / "linked").symlink_to(outside, target_is_directory=True)
        code = embeddings_mod._code_digests()
        monkeypatch.setattr(embeddings_mod, "_code_digests", lambda: (*code, "edited.py"))
        load_embeddings_file(path, cache=store)
        [entry] = entries(store)
        assert entry.startswith(embeddings_mod._code_folder() + "/")
        assert sorted(p.name for p in folder.iterdir()) == sorted(
            [embeddings_mod._code_folder(), "linked", "notes.txt"])
        assert (outside / "keep.bin").read_text() == "kept"
        assert (store / "index.jsonl").exists()

    def test_entries_of_two_files_under_one_code_both_hit(self, tmp_path, store, monkeypatch):
        paths = [text_file(tmp_path, W2V, "a.txt"), text_file(tmp_path, CACHED, "b.txt")]
        plain = [load_embeddings_file(path) for path in paths]
        for path in paths:
            load_embeddings_file(path, cache=store)
        assert len(entries(store)) == 2
        monkeypatch.setattr(embeddings_mod, "_parse_file", never_parse)
        for path, model in zip(paths, plain):
            assert same_model(load_embeddings_file(path, cache=store), model)

    def test_absent_store_loads_and_writes_nothing(self, vectors, tmp_path):
        path = vectors(W2V)
        model = load_embeddings_file(path, cache=tmp_path / "no-store")
        assert same_model(model, load_embeddings_file(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.txt"]

    @pytest.mark.parametrize("fault", ["read-only", "disk-full"])
    def test_store_that_refuses_the_entry_still_loads(self, vectors, store, monkeypatch, fault):
        path = vectors(W2V)
        plain = load_embeddings_file(path)
        if fault == "read-only":
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(Path, "mkdir", refuse)
        else:
            def full(data):
                raise OSError(28, "No space left on device")

            def open_on_a_full_disk(file, *args, **kwargs):
                fh = open(file, *args, **kwargs)
                fh.write = full
                return fh

            monkeypatch.setattr(lines_mod, "open", open_on_a_full_disk, raising=False)
        assert same_model(load_embeddings_file(path, cache=store), plain)
        assert [p for p in store.rglob("*") if p.is_file()] == []


class TestEmbeddingModel:
    def test_direct_construction_checks_shape(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingModel(3, {"a": [1.0, 2.0]})

    def test_direct_construction_keeps_order_and_values(self):
        m = EmbeddingModel(2, {"b": [1.0, 2.0], "a": np.array([3.0, -0.0])})
        assert [(t, v.tolist()) for t, v in m.items()] == [("b", [1.0, 2.0]), ("a", [3.0, -0.0])]
        assert m.vector("a").dtype == np.float64
        assert len(m) == 2 and "b" in m and m.vector("c") is None

    def test_empty_model(self):
        m = EmbeddingModel(2, {})
        assert len(m) == 0 and list(m.items()) == []

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingModel(0, {})


@pytest.fixture(scope="module")
def w2v(tmp_path_factory):
    return load_embeddings_file(text_file(tmp_path_factory.mktemp("w2v"), W2V, "v.txt"))


class TestCombinedEmbedding:
    def test_sums_vectors(self, w2v):
        assert np.allclose(combined_embedding(["sports", "news"], w2v), [1.0, 1.0])

    def test_oov_contributes_nothing(self, w2v):
        assert np.allclose(combined_embedding(["sports", "zzz"], w2v), [1.0, 0.0])

    def test_all_oov_is_zero_vector(self, w2v):
        out = combined_embedding(["zzz"], w2v)
        assert out.shape == (2,)
        assert np.all(out == 0.0)

    def test_repeated_token_counts_twice(self, w2v):
        assert np.allclose(combined_embedding(["news", "news"], w2v), [0.0, 2.0])


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_parallel(self):
        assert cosine([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_known_angle(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_norm_compares_as_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert cosine([1.0, 2.0], [0.0, 0.0]) == 0.0
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 2.0])

    vec = st.lists(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=2, max_size=6
    )

    @given(st.tuples(vec, vec).filter(lambda p: len(p[0]) == len(p[1])))
    def test_bounded_and_symmetric(self, pair):
        a, b = pair
        c = cosine(a, b)
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9
        assert c == cosine(b, a)

    @given(vec, st.floats(0.1, 50))
    @example(a=[0.0, 1.6e-162], scale=0.5)  # squared norm underflows
    def test_scale_invariant(self, a, scale):
        b = [x * scale for x in a]
        # a scaled entry that went subnormal or to zero lost bits, and the
        # property is about scale, not that loss (see the cosine docstring)
        assume(all(x == 0.0 or abs(y) >= sys.float_info.min for x, y in zip(a, b)))
        assert cosine(a, b) == pytest.approx(cosine(a, a), abs=1e-9)

    def test_underflowed_operand_is_the_zero_vector(self):
        # [0.0, 5e-324] scaled by 0.5 underflows to the zero vector
        assert cosine([0.0, 5e-324], [0.0, 0.0]) == 0.0

    @given(st.tuples(vec, vec).filter(lambda p: len(p[0]) == len(p[1])))
    def test_plain_formula_above_small_norms(self, pair):
        # only operands with tiny norms take the rescaled path
        x, y = (np.asarray(v, dtype=float) for v in pair)
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx >= 1e-150 and ny >= 1e-150:
            assert cosine(x, y) == float(np.dot(x, y) / (nx * ny))
