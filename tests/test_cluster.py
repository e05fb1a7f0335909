import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import topicpages.cluster as cluster_mod
from topicpages import (
    cluster_report,
    gap_statistic,
    kmeans,
    model_select,
    pca_fit,
    silhouette,
)
from topicpages.errors import KTooLarge, SingleCluster


def three_blobs(points_per_blob=8, noise=0.5, seed=7):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
    return np.vstack([rng.normal(c, noise, (points_per_blob, 2)) for c in centers])


@st.composite
def repeated_rows(draw):
    """(X, k): rows drawn from at most three distinct ones, 1 <= k <= rows."""
    dim = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3).map(float), min_size=dim, max_size=dim)
    distinct = draw(st.lists(row, min_size=1, max_size=3))
    X = draw(st.lists(st.sampled_from(distinct), min_size=2, max_size=12))
    return X, draw(st.integers(1, len(X)))


class TestPca:
    def test_diagonal_line_axis(self):
        X = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        model, reduced = pca_fit(X, 1)
        inv_sqrt2 = 1 / math.sqrt(2)
        assert np.allclose(model.components[0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
        assert model.explained_variance_ratio == pytest.approx([1.0], abs=1e-12)
        assert not model.rank_deficient
        # points project to centered positions along the line
        assert np.allclose(reduced[:, 0], [-1.5 * math.sqrt(2), -0.5 * math.sqrt(2),
                                           0.5 * math.sqrt(2), 1.5 * math.sqrt(2)])

    def test_sign_convention_first_nonzero_positive(self):
        X = [[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]]
        model, _ = pca_fit(X, 1)
        assert model.components[0][0] > 0
        assert np.allclose(np.abs(model.components[0]), 1 / math.sqrt(2))

    def test_matches_svd_axes_on_wide_matrix(self):
        rng = np.random.default_rng(11)
        X = rng.normal(0, 1, (4, 10))  # wide: goes through the Gram matrix
        model, reduced = pca_fit(X, 3)
        C = X - X.mean(axis=0)
        _, _, vt = np.linalg.svd(C, full_matrices=False)
        for row, ref in zip(model.components, vt[:3]):
            if ref[np.argmax(np.abs(ref) > 1e-12)] < 0:
                ref = -ref
            assert np.allclose(row, ref, atol=1e-9)
        assert np.allclose(reduced, C @ model.components.T, atol=1e-12)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (16, 5))
        model, _ = pca_fit(X, 4)
        G = model.components @ model.components.T
        assert np.allclose(G, np.eye(4), atol=1e-9)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 2, (16, 5))
        model, reduced = pca_fit(X, 5)
        assert np.allclose(model.inverse_transform(reduced), X, atol=1e-8)
        assert float(model.explained_variance_ratio.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_variance_ratios_ordered(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (16, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        model, _ = pca_fit(X, 4)
        r = model.explained_variance_ratio
        assert np.all(np.diff(r) <= 1e-12)
        assert r[0] > 0.5

    def test_rank_deficient_flagged(self):
        X = [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]
        model, reduced = pca_fit(X, 2)
        assert model.rank_deficient
        assert model.components.shape == (1, 2)
        assert reduced.shape == (4, 1)

    def test_transform_inverse_round_trip(self):
        rng = np.random.default_rng(13)
        X = rng.normal(0, 1, (10, 4))
        model, reduced = pca_fit(X, 2)
        assert np.allclose(model.transform(X), reduced, atol=1e-12)

    @pytest.mark.parametrize(
        "X,n",
        [
            ([[1.0, 2.0]], 1),  # one row
            ([[1.0], [2.0]], 2),  # n above the row limit
            ([1.0, 2.0], 1),  # not 2-D
            ([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], 0),
        ],
    )
    def test_invalid_inputs(self, X, n):
        with pytest.raises(ValueError):
            pca_fit(X, n)


class TestKmeans:
    def test_recovers_three_blobs(self):
        X = three_blobs()
        result = kmeans(X, 3, seed=42)
        per_blob = [set(result.assignments[i * 8:(i + 1) * 8].tolist()) for i in range(3)]
        assert all(len(s) == 1 for s in per_blob)
        assert len(set().union(*per_blob)) == 3
        assert not result.degenerate

    def test_deterministic_for_fixed_seed(self):
        X = three_blobs()
        a = kmeans(X, 3, seed=42)
        b = kmeans(X, 3, seed=42)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.sse == b.sse
        assert a.sse_history == b.sse_history

    def test_sse_history_nonincreasing(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            X = rng.normal(0, 3, (14, 2))
            result = kmeans(X, 3, seed=seed, restarts=3)
            h = result.sse_history
            assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_k_equals_rows(self):
        X = [[0.0], [5.0], [10.0]]
        result = kmeans(X, 3, seed=1)
        assert sorted(result.assignments.tolist()) == [0, 1, 2]
        assert result.sse == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_rows_flagged_degenerate(self):
        X = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        assert kmeans(X, 3, seed=1).degenerate

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans([[1.0], [2.0]], 3)

    @pytest.mark.parametrize("k,restarts", [(0, 1), (1, 0)])
    def test_invalid_parameters(self, k, restarts):
        with pytest.raises(ValueError):
            kmeans([[1.0], [2.0]], k, restarts=restarts)

    @settings(deadline=None)
    @example(case=(np.ones((9, 2)).tolist(), 4))
    @given(case=repeated_rows())
    def test_repeated_rows_fill_every_cluster(self, case):
        # an empty cluster is reseeded from a cluster that keeps a member,
        # so no mean is taken over an empty slice
        X, k = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = kmeans(X, k, seed=3, restarts=3)
        assert sorted(set(result.assignments.tolist())) == list(range(k))
        assert np.isfinite(result.centers).all()
        assert math.isfinite(result.sse)


class TestSilhouette:
    def test_hand_computed_pairs(self):
        s = silhouette([[0.0], [0.1], [10.0], [10.1]], [0, 0, 1, 1])
        assert s == pytest.approx((9.95 / 10.05 + 9.85 / 9.95) / 2, abs=1e-12)

    def test_singleton_cluster_scores_zero(self):
        s = silhouette([[0.0], [1.0], [10.0]], [0, 0, 1])
        assert s == pytest.approx((0.9 + 8 / 9) / 3, abs=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(SingleCluster):
            silhouette([[0.0], [1.0]], [0, 0])

    def test_argmax_at_true_k(self):
        X = three_blobs()
        scores = {
            k: silhouette(X, kmeans(X, k, seed=42, restarts=4).assignments)
            for k in range(2, 7)
        }
        assert max(scores, key=scores.get) == 3


class TestGapStatistic:
    def test_peaks_at_true_k(self):
        X = three_blobs()
        gaps = {k: gap_statistic(X, k, seed=42, b_refs=6, restarts=4) for k in (2, 3, 4)}
        assert gaps[3] > gaps[2]
        assert gaps[3] > gaps[4]

    def test_deterministic(self):
        X = three_blobs()
        a = gap_statistic(X, 3, seed=42, b_refs=4, restarts=3)
        b = gap_statistic(X, 3, seed=42, b_refs=4, restarts=3)
        assert a == b

    def test_invalid_b_refs(self):
        with pytest.raises(ValueError):
            gap_statistic([[0.0], [1.0]], 2, b_refs=0)


class TestClusterReport:
    def test_labels_attached(self):
        X = [[0.0], [0.2], [9.0], [9.5]]
        rep = cluster_report(X, ["a", "b", "c", "d"], 2, seed=1, b_refs=3, restarts=3)
        assert rep.assignments["a"] == rep.assignments["b"]
        assert rep.assignments["c"] == rep.assignments["d"]
        assert rep.assignments["a"] != rep.assignments["c"]
        assert rep.silhouette is not None and rep.gap is not None

    def test_k1_has_no_silhouette(self):
        rep = cluster_report([[0.0], [1.0]], ["a", "b"], 1)
        assert rep.silhouette is None

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            cluster_report([[0.0], [1.0]], ["a"], 1)


class TestSharedScorer:
    """A scored cell fits k-means once and takes its gap from that fit."""

    @pytest.fixture
    def kmeans_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(cluster_mod, "kmeans", counting)
        return calls

    def test_one_fit_per_sweep_cell_plus_references(self, kmeans_calls):
        model_select(three_blobs(points_per_blob=4), [1, 2], [2, 3], seed=42, restarts=2, b_refs=3)
        assert kmeans_calls == [2] * 4 + [3] * 4 + [2] * 4 + [3] * 4

    def test_one_fit_per_report_plus_references(self, kmeans_calls):
        X = three_blobs(points_per_blob=4)
        cluster_report(X, [str(i) for i in range(len(X))], 3, seed=1, restarts=2, b_refs=3)
        assert kmeans_calls == [3] * 4

    def test_report_gap_equals_gap_statistic(self):
        X = three_blobs(points_per_blob=4)
        labels = [str(i) for i in range(len(X))]
        for k in (1, 3):
            rep = cluster_report(X, labels, k, seed=5, restarts=3, b_refs=4)
            assert rep.gap == gap_statistic(X, k, seed=5, b_refs=4, restarts=3)

    def test_sweep_gaps_equal_gap_statistic(self):
        X = three_blobs(points_per_blob=4)
        result = model_select(X, [1, 2], [1, 2, 3], seed=5, restarts=3, b_refs=4)
        assert len(result.rows) == 6
        for row in result.rows:
            _, reduced = pca_fit(X, row.n)
            assert row.gap == gap_statistic(reduced, row.k, seed=5, b_refs=4, restarts=3)


class TestModelSelect:
    def test_sweep_shape_and_best(self):
        X = three_blobs(points_per_blob=4)  # 12 rows, 2 cols
        result = model_select(X, [1, 2], [2, 3], seed=42, restarts=3, b_refs=3)
        assert len(result.rows) == 4
        assert all(r.error is None for r in result.rows)
        assert result.best is not None
        n, k = result.best
        assert k == 3

    def test_infeasible_cells_recorded_not_fatal(self):
        X = np.asarray([[0.0, 1.0], [1.0, 0.0], [5.0, 5.0], [6.0, 4.0]])
        result = model_select(X, [1, 5], [2, 9], seed=1, restarts=2, b_refs=2)
        errors = {(r.n, r.k): r.error for r in result.rows}
        assert errors[(1, 2)] is None
        assert "exceeds" in errors[(1, 9)]
        assert errors[(5, 2)] is not None  # n above the rank limit
        assert result.best == (1, 2)

    def test_csv_format(self):
        X = three_blobs(points_per_blob=4)
        result = model_select(X, [1], [2, 20], seed=42, restarts=2, b_refs=2)
        text = result.to_csv()
        lines = text.splitlines()
        assert lines[0] == "n,k,sse,silhouette,gap"
        assert len(lines) == 3
        assert lines[2].startswith("1,20,,,")
        assert result.to_csv() == text  # stable across calls
