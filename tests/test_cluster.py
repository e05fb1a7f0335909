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


def reference_pp_init(X, k, rng):
    """k-means++ seeding of one restart on its own."""
    rows = len(X)
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(rows))
    centers[0] = X[first]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        idx = int(rng.integers(rows)) if total <= 0.0 else int(rng.choice(rows, p=d2 / total))
        centers[c] = X[idx]
        d2 = np.minimum(d2, ((X - X[idx]) ** 2).sum(axis=1))
    return centers


def reference_kmeans(X, k, seed, restarts, max_iter):
    """One Lloyd loop per restart, the earliest lowest SSE kept: what the batched
    restarts must reproduce bit for bit."""
    X = np.asarray(X, dtype=float)
    best = None
    for run in range(restarts):
        centers = reference_pp_init(X, k, np.random.default_rng([seed, run]))
        assignments = None
        history = []
        for _ in range(max_iter):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = np.argmin(d2, axis=1)
            for c in range(k):
                if not np.any(new_assign == c):
                    own = ((X - centers[new_assign]) ** 2).sum(axis=1)
                    shared = np.bincount(new_assign, minlength=k)[new_assign] >= 2
                    far = int(np.argmax(np.where(shared, own, -1.0)))
                    new_assign[far] = c
                    centers[c] = X[far]
            if assignments is not None and np.array_equal(new_assign, assignments):
                break
            assignments = new_assign
            centers = np.stack([X[assignments == c].mean(axis=0) for c in range(k)])
            history.append(float(((X - centers[assignments]) ** 2).sum()))
        if best is None or history[-1] < best.sse:
            best = cluster_mod.KmeansResult(
                assignments=assignments,
                centers=centers,
                sse=history[-1],
                n_iter=len(history),
                sse_history=tuple(history),
            )
    return best


def fields(result):
    """A k-means result as comparable bytes, field by field."""
    return (
        np.float64(result.sse).tobytes(),
        result.assignments.tobytes(),
        result.assignments.dtype,
        result.centers.tobytes(),
        result.n_iter,
        np.array(result.sse_history).tobytes(),
    )


# coordinates: small integers or floats whose sums round
COORD = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def kmeans_inputs(draw):
    """(X, k): rows drawn from a few distinct ones, so duplicates, ties between
    restarts and empty clusters are common."""
    dim = draw(st.integers(1, 3))
    distinct = draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=1, max_size=8))
    X = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=24))
    return np.array(X), draw(st.integers(1, len(X)))


@st.composite
def kmeans_stacks(draw):
    """(stack, k): two or three datasets of one shape, each drawn like kmeans_inputs."""
    dim = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 12))
    datasets = []
    for _ in range(draw(st.integers(2, 3))):
        distinct = draw(
            st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=1, max_size=6)
        )
        datasets.append(draw(st.lists(st.sampled_from(distinct), min_size=rows, max_size=rows)))
    return np.array(datasets), draw(st.integers(1, rows))


class TestBatchedRestarts:
    @settings(max_examples=200, deadline=None)
    @example(case=(np.ones((9, 2)), 4), seed=0, restarts=3, max_iter=300)  # every init empty
    @example(case=(three_blobs(4), 1), seed=1, restarts=2, max_iter=300)
    @example(case=(three_blobs(4), 12), seed=2, restarts=4, max_iter=300)
    @example(case=(three_blobs(4), 3), seed=3, restarts=5, max_iter=1)
    @given(
        case=kmeans_inputs(),
        seed=st.integers(0, 2**16),
        restarts=st.integers(1, 6),
        max_iter=st.sampled_from([1, 2, 3, 300]),
    )
    def test_matches_one_loop_per_restart(self, case, seed, restarts, max_iter):
        X, k = case
        expected = reference_kmeans(X, k, seed, restarts, max_iter)
        assert fields(kmeans(X, k, seed=seed, restarts=restarts, max_iter=max_iter)) == fields(
            expected
        )

    def test_small_distance_steps_change_nothing(self, monkeypatch):
        # the (restarts, rows, k, dim) temporary is cut into steps of one and
        # of two restarts
        X = three_blobs(6)
        expected = fields(kmeans(X, 4, seed=9, restarts=5))
        for terms in (1, 2 * len(X) * 4 * 2):
            monkeypatch.setattr(cluster_mod, "_BATCH_TERMS", terms)
            assert fields(kmeans(X, 4, seed=9, restarts=5)) == expected

    @settings(max_examples=60, deadline=None)
    @example(  # every cluster of every run empty at first, beside a dataset with none
        case=(np.stack([np.ones((9, 2)), three_blobs(3)]), 4), seed=0, restarts=3, max_iter=300
    )
    @example(  # clusters of eight or more non-integer values in one column
        case=(np.random.default_rng(1).normal(size=(3, 40, 1)) * 1e3, 2),
        seed=1, restarts=4, max_iter=300,
    )
    @given(
        case=kmeans_stacks(),
        seed=st.integers(0, 2**16),
        restarts=st.integers(1, 4),
        max_iter=st.sampled_from([1, 2, 300]),
    )
    def test_batch_matches_each_dataset_alone(self, case, seed, restarts, max_iter):
        data, k = case
        fits = cluster_mod._lloyd(data, k, seed, restarts, max_iter)
        assert [fields(fit) for fit in fits] == [
            fields(reference_kmeans(X, k, seed, restarts, max_iter)) for X in data
        ]

    def test_distance_steps_across_datasets_change_nothing(self, monkeypatch):
        # steps of two runs, with three restarts per dataset, cut across
        # every dataset boundary
        data = np.stack([three_blobs(3, seed=s) for s in range(3)])
        expected = [fields(reference_kmeans(X, 4, 9, 3, 300)) for X in data]
        monkeypatch.setattr(cluster_mod, "_BATCH_TERMS", 2 * 9 * 4 * 2)
        assert [fields(fit) for fit in cluster_mod._lloyd(data, 4, 9, 3, 300)] == expected

    def test_max_iter_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            kmeans([[1.0], [2.0]], 1, max_iter=0)


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

    def test_k_above_distinct_rows_refused(self):
        # k-means would report SSE 0 for duplicate rows split into clusters
        X = [[0.0, 0.0]] * 8 + [[10.0, 10.0]] * 8
        labels = [str(i) for i in range(len(X))]
        with pytest.raises(KTooLarge, match=r"^k=4 exceeds 2 distinct rows$"):
            cluster_report(X, labels, 4, seed=1, restarts=2, b_refs=2)
        rep = cluster_report(X, labels, 2, seed=1, restarts=2, b_refs=2)
        assert rep.sse == 0.0


class TestSharedScorer:
    """A scored cell fits its data and its gap references in one batch."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """(k, datasets) of every call of the batched Lloyd loop."""
        calls = []
        lloyd = cluster_mod._lloyd

        def counting(data, k, *args):
            calls.append((k, len(data)))
            return lloyd(data, k, *args)

        monkeypatch.setattr(cluster_mod, "_lloyd", counting)
        return calls

    def test_one_batch_per_sweep_cell_holding_its_references(self, batches):
        model_select(three_blobs(points_per_blob=4), [1, 2], [2, 3], seed=42, restarts=2, b_refs=3)
        assert batches == [(2, 4), (3, 4), (2, 4), (3, 4)]

    def test_one_batch_per_report_holding_its_references(self, batches):
        X = three_blobs(points_per_blob=4)
        cluster_report(X, [str(i) for i in range(len(X))], 3, seed=1, restarts=2, b_refs=3)
        assert batches == [(3, 4)]

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

    def test_k_above_distinct_rows_recorded_not_scored(self):
        X = np.asarray([[0.0, 0.0]] * 8 + [[10.0, 10.0]] * 8)
        result = model_select(X, [1], range(2, 5), seed=3, restarts=2, b_refs=2)
        errors = {r.k: r.error for r in result.rows}
        assert errors[2] is None
        assert errors[3] == "k=3 exceeds 2 distinct rows"
        assert errors[4] == "k=4 exceeds 2 distinct rows"
        assert result.best == (1, 2)
        assert result.to_csv().splitlines()[2:] == ["1,3,,,", "1,4,,,"]

    def test_csv_format(self):
        X = three_blobs(points_per_blob=4)
        result = model_select(X, [1], [2, 20], seed=42, restarts=2, b_refs=2)
        text = result.to_csv()
        lines = text.splitlines()
        assert lines[0] == "n,k,sse,silhouette,gap"
        assert len(lines) == 3
        assert lines[2].startswith("1,20,,,")
        assert result.to_csv() == text  # stable across calls
