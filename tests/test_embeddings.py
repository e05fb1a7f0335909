import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from topicpages import (
    EmbeddingModel,
    combined_embedding,
    cosine,
    load_embeddings,
    tokenize_subpath,
)
from topicpages.embeddings import load_embeddings_file
from topicpages.errors import DimensionMismatch, MalformedHeader


class TestTokenizeSubpath:
    def test_splits_on_hyphens_and_case_folds(self):
        assert tokenize_subpath("Real-Estate") == ["real", "estate"]

    def test_splits_on_any_nonalnum_run(self):
        assert tokenize_subpath("a_b.c--d2") == ["a", "b", "c", "d2"]

    def test_stopwords_removed_after_folding(self):
        assert tokenize_subpath("The-Movie-Review", {"the"}) == ["movie", "review"]

    def test_empty_and_punctuation_only(self):
        assert tokenize_subpath("") == []
        assert tokenize_subpath("---") == []

    def test_unicode_letters_kept(self):
        assert tokenize_subpath("café-news") == ["café", "news"]


W2V = "3 2\nsports 1.0 0.0\ncricket 0.8 0.6\nnews 0.0 1.0\n"


class TestLoadEmbeddings:
    def test_basic(self):
        m = load_embeddings(W2V)
        assert m.dimension == 2
        assert len(m) == 3
        assert np.allclose(m.vector("cricket"), [0.8, 0.6])
        assert "sports" in m
        assert m.vector("absent") is None

    def test_tokens_case_folded_first_wins(self):
        m = load_embeddings("2 1\nSports 1.0\nsports 2.0\n")
        assert m.vector("sports") == pytest.approx([1.0])

    def test_count_header_not_enforced(self):
        m = load_embeddings("999 1\na 1.0\n")
        assert len(m) == 1

    def test_blank_lines_skipped(self):
        m = load_embeddings("1 1\n\na 1.0\n\n")
        assert len(m) == 1

    def test_empty_document(self):
        with pytest.raises(MalformedHeader):
            load_embeddings("")

    @pytest.mark.parametrize("header", ["3", "a b", "3 2 1", "3 0"])
    def test_bad_headers(self, header):
        with pytest.raises(MalformedHeader):
            load_embeddings(header + "\na 1.0 2.0\n")

    def test_wrong_width_reports_line_number(self):
        with pytest.raises(DimensionMismatch, match="line 3"):
            load_embeddings("2 2\na 1.0 2.0\nb 1.0\n")

    def test_non_numeric_reports_line_number(self):
        with pytest.raises(DimensionMismatch, match="line 2"):
            load_embeddings("1 2\na 1.0 oops\n")

    def test_file_loader(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text(W2V, "utf-8")
        assert load_embeddings_file(p).dimension == 2


class TestEmbeddingModel:
    def test_direct_construction_checks_shape(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingModel(3, {"a": [1.0, 2.0]})

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingModel(0, {})


class TestCombinedEmbedding:
    def test_sums_vectors(self):
        m = load_embeddings(W2V)
        assert np.allclose(combined_embedding(["sports", "news"], m), [1.0, 1.0])

    def test_oov_contributes_nothing(self):
        m = load_embeddings(W2V)
        assert np.allclose(combined_embedding(["sports", "zzz"], m), [1.0, 0.0])

    def test_all_oov_is_zero_vector(self):
        m = load_embeddings(W2V)
        out = combined_embedding(["zzz"], m)
        assert out.shape == (2,)
        assert np.all(out == 0.0)

    def test_repeated_token_counts_twice(self):
        m = load_embeddings(W2V)
        assert np.allclose(combined_embedding(["news", "news"], m), [0.0, 2.0])


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
        assert cosine(a, b) == pytest.approx(cosine(a, a), abs=1e-9)

    @given(st.tuples(vec, vec).filter(lambda p: len(p[0]) == len(p[1])))
    def test_plain_formula_above_small_norms(self, pair):
        # only operands with tiny norms take the rescaled path
        x, y = (np.asarray(v, dtype=float) for v in pair)
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx >= 1e-150 and ny >= 1e-150:
            assert cosine(x, y) == float(np.dot(x, y) / (nx * ny))
