"""PCA reduction, seeded K-means, and cluster-count selection metrics.

One batched Lloyd loop fits every k-means: a stack of datasets and their
restarts iterates as one set of runs, so a scored cell fits its data and its
gap references in one call.  Given (data, seed) all is deterministic: restart
r draws from the RNG stream (seed, r) in any batch, and PCA component signs
follow a fixed convention, so repeated sweeps are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import KTooLarge, SingleCluster

_GAP_STREAM = 9001  # keeps reference-set draws off the k-means seed streams
_SIGN_TOL = 1e-12
_BATCH_TERMS = 1 << 20  # (point, center, coordinate) terms per batched distance step


@dataclass(frozen=True)
class PcaModel:
    """Principal axes (rows) of a centered data matrix."""

    components: np.ndarray
    explained_variance_ratio: np.ndarray
    mean: np.ndarray
    n_requested: int

    @property
    def rank_deficient(self) -> bool:
        """True when fewer nonzero-variance axes existed than were asked for."""
        return len(self.components) < self.n_requested

    def inverse_transform(self, reduced: np.ndarray) -> np.ndarray:
        return np.asarray(reduced, dtype=float) @ self.components + self.mean


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for row in out:
        large = row[np.abs(row) > _SIGN_TOL]
        if large.size and large[0] < 0:
            row *= -1.0
    return out


def pca_fit(X: Sequence[Sequence[float]], n: int) -> tuple[PcaModel, np.ndarray]:
    """Fit *n* principal components and return (model, reduced rows).

    Wide matrices (more columns than rows) go through the Gram matrix, so
    a 16 x 25000 term matrix costs a 16 x 16 eigendecomposition.  When the
    data's rank is below *n* only the nonzero-variance axes are returned
    and the model is flagged rank-deficient; the returned ratios then sum
    to 1 with fewer components.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-D matrix")
    rows, cols = X.shape
    if rows < 2:
        raise ValueError("need at least two rows")
    if n < 1 or n > min(rows - 1, cols):
        raise ValueError(f"n must lie in [1, {min(rows - 1, cols)}], got {n}")
    mean = X.mean(axis=0)
    C = X - mean

    if cols <= rows:
        cov = C.T @ C / (rows - 1)
        eigval, eigvec = np.linalg.eigh(cov)
        order = np.argsort(-eigval, kind="stable")
        eigval = eigval[order]
        axes = eigvec[:, order].T
    else:
        gram = C @ C.T / (rows - 1)
        eigval, eigvec = np.linalg.eigh(gram)
        order = np.argsort(-eigval, kind="stable")
        eigval = eigval[order]
        u = eigvec[:, order]
        axes = np.zeros((len(eigval), cols))
        for i, lam in enumerate(eigval):
            if lam > 0:
                axes[i] = C.T @ u[:, i] / math.sqrt(lam * (rows - 1))

    eigval = np.clip(eigval, 0.0, None)
    total = float(eigval.sum())
    tol = float(eigval.max()) * 1e-12 if eigval.size else 0.0
    effective = int(min(n, int((eigval > tol).sum())))
    components = _fix_signs(axes[:effective])
    ratios = eigval[:effective] / total if total > 0 else np.zeros(effective)
    model = PcaModel(
        components=components,
        explained_variance_ratio=ratios,
        mean=mean,
        n_requested=n,
    )
    return model, C @ components.T


# --- K-means ----------------------------------------------------------------

@dataclass(frozen=True)
class KmeansResult:
    assignments: np.ndarray
    centers: np.ndarray
    sse: float
    n_iter: int
    sse_history: tuple[float, ...]


def _kmeans_pp_init(X: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ centers of each run in a (runs, rows, dim) stack, run r drawing from rngs[r]."""
    runs, rows, _ = X.shape
    each = np.arange(runs)
    picks = np.empty((runs, k), dtype=np.intp)
    picks[:, 0] = [rng.integers(rows) for rng in rngs]
    d2 = ((X - X[each, picks[:, 0]][:, None]) ** 2).sum(axis=2)
    for c in range(1, k):
        for r, (rng, total) in enumerate(zip(rngs, d2.sum(axis=1))):
            picks[r, c] = rng.integers(rows) if total <= 0.0 else rng.choice(rows, p=d2[r] / total)
        d2 = np.minimum(d2, ((X - X[each, picks[:, c]][:, None]) ** 2).sum(axis=2))
    return X[each[:, None], picks]


def _means(X: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    """Each run's cluster means, to the last bit X[r][assignments[r] == c].mean(axis=0)."""
    runs, rows, dim = X.shape
    keys = (np.arange(runs)[:, None] * k + assignments).ravel()
    counts = np.bincount(keys, minlength=runs * k)
    if dim > 1:  # a mean over rows adds them one by one, in row order as np.add.at does
        sums = np.zeros((runs * k, dim))
        np.add.at(sums, keys, X.reshape(-1, dim))
        return (sums / counts[:, None]).reshape(runs, k, dim)
    # a mean over one column sums it pairwise: average each size's clusters as rows of a block
    values = X.ravel()[np.argsort(keys, kind="stable")]
    starts = np.cumsum(counts) - counts
    means = np.empty(runs * k)
    for size in np.unique(counts):
        chosen = np.flatnonzero(counts == size)
        means[chosen] = values[starts[chosen][:, None] + np.arange(size)].mean(axis=1)
    return means.reshape(runs, k, 1)


def _lloyd(data: np.ndarray, k: int, seed: int, restarts: int, max_iter: int) -> list[KmeansResult]:
    """The best-of-*restarts* k-means fit of each dataset in a (datasets, rows, dim) stack.

    Restart r of every dataset seeds from the stream (seed, r), then all runs
    iterate together, each on its own dataset, until its assignments stop
    changing.  Each dataset keeps its lowest-SSE run, ties to the earliest
    restart, so each fit equals the one its dataset gets alone.
    """
    X = np.repeat(data, restarts, axis=0)  # run r fits dataset r // restarts
    runs, rows, dim = X.shape
    centers = _kmeans_pp_init(X, k, [np.random.default_rng([seed, r % restarts]) for r in range(runs)])
    assignments = np.zeros((runs, rows), dtype=np.intp)
    histories: list[list[float]] = [[] for _ in range(runs)]
    active = np.arange(runs)
    # runs per distance step: the (runs, rows, k, dim) temporary within _BATCH_TERMS or one run
    step = max(1, _BATCH_TERMS // (rows * k * dim))
    for iteration in range(max_iter):
        new_assign = np.concatenate([
            ((X[p, :, None] - centers[p][:, None]) ** 2).sum(axis=3).argmin(axis=2)
            for p in np.split(active, range(step, len(active), step))
        ])
        present = (new_assign[:, :, None] == np.arange(k)).any(axis=1)
        for i in np.flatnonzero(~present.all(axis=1)):
            # move to each empty cluster, in turn, the point farthest from its
            # center, taken from a cluster of two or more so that none is emptied
            x, own, assign = X[active[i]], centers[active[i]], new_assign[i]
            for c in np.flatnonzero(~present[i]):
                d2 = ((x - own[assign]) ** 2).sum(axis=1)
                shared = np.bincount(assign, minlength=k)[assign] >= 2
                far = int(np.argmax(np.where(shared, d2, -1.0)))
                assign[far], own[c] = c, x[far]
        if iteration > 0:
            moved = (new_assign != assignments[active]).any(axis=1)
            active, new_assign = active[moved], new_assign[moved]
            if len(active) == 0:
                break
        assignments[active] = new_assign
        centers[active] = _means(X[active], new_assign, k)
        sse = ((X[active] - centers[active[:, None], new_assign]) ** 2).reshape(len(active), -1)
        for r, value in zip(active, sse.sum(axis=1)):
            histories[r].append(float(value))
    fits = []
    for first in range(0, runs, restarts):
        r = min(range(first, first + restarts), key=lambda run: histories[run][-1])
        h = histories[r]
        fits.append(KmeansResult(assignments[r].copy(), centers[r].copy(), h[-1], len(h), tuple(h)))
    return fits


def _fits(
    X: Sequence[Sequence[float]], k: int, seed: int, restarts: int, max_iter: int, b_refs: int = 0
) -> list[KmeansResult]:
    """The fits of X and of its *b_refs* reference draws, as one batch of the Lloyd loop;
    draw b is uniform over X's bounding box, from the stream (seed, _GAP_STREAM, b)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D matrix")
    for name, value in (("k", k), ("restarts", restarts), ("max_iter", max_iter)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    if k > len(X):
        raise KTooLarge(f"k={k} exceeds {len(X)} rows")
    lo, hi = X.min(axis=0), X.max(axis=0)
    refs = [np.random.default_rng([seed, _GAP_STREAM, b]).uniform(lo, hi, size=X.shape)
            for b in range(b_refs)]
    return _lloyd(np.stack([X, *refs]), k, seed, restarts, max_iter)


def kmeans(
    X: Sequence[Sequence[float]],
    k: int,
    seed: int = 42,
    restarts: int = 10,
    max_iter: int = 300,
) -> KmeansResult:
    """Best-of-*restarts* Lloyd iterations with k-means++ seeding: the batched
    Lloyd loop on X alone, so results are a pure function of (X, k, seed,
    restarts, max_iter)."""
    return _fits(X, k, seed, restarts, max_iter)[0]


def silhouette(X: Sequence[Sequence[float]], assignments: Sequence[int]) -> float:
    """Mean silhouette over all points; singleton-cluster points score 0."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(assignments)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise SingleCluster("silhouette needs at least two clusters")
    diffs = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels[i]
        same = (labels == own) & (np.arange(len(X)) != i)
        if not same.any():
            continue  # singleton cluster contributes 0
        a = float(dist[i, same].mean())
        b = min(float(dist[i, labels == other].mean()) for other in uniq if other != own)
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())


def gap_statistic(
    X: Sequence[Sequence[float]],
    k: int,
    seed: int = 42,
    b_refs: int = 10,
    restarts: int = 10,
    max_iter: int = 300,
) -> float:
    """Tibshirani-style gap: reference dispersion minus observed, in logs.

    References are uniform draws over the data's bounding box, fitted in
    one batch with the data, with the same k and seed policy.
    """
    observed, *references = _fits(X, k, seed, restarts, max_iter, b_refs)
    return _gap(observed, references)


def _gap(observed: KmeansResult, references: list[KmeansResult]) -> float:
    """The gap of fit *observed* against its reference fits, b_refs of them."""
    if not references:
        raise ValueError("b_refs must be positive")
    tiny = float(np.finfo(float).tiny)
    ref_logs = [math.log(max(ref.sse, tiny)) for ref in references]
    return float(np.mean(ref_logs) - math.log(max(observed.sse, tiny)))


def _score(
    X: np.ndarray, k: int, seed: int, b_refs: int, restarts: int, max_iter: int
) -> tuple[KmeansResult, float | None, float]:
    """One batch of k-means fits, its silhouette (k >= 2) and its gap: one scored cell.

    k above the number of distinct rows is refused: k-means would split
    duplicate rows into zero-SSE clusters.
    """
    distinct = len(np.unique(X, axis=0))
    if k > distinct:
        raise KTooLarge(f"k={k} exceeds {distinct} distinct rows")
    result, *references = _fits(X, k, seed, restarts, max_iter, b_refs)
    sil = silhouette(X, result.assignments) if k >= 2 else None
    return result, sil, _gap(result, references)


# --- reports and sweeps ------------------------------------------------------

@dataclass(frozen=True)
class ClusterReport:
    k: int
    assignments: dict
    sse: float
    silhouette: float | None
    gap: float
    seed: int


def cluster_report(
    X: Sequence[Sequence[float]],
    row_labels: Sequence[str],
    k: int,
    seed: int = 42,
    restarts: int = 10,
    max_iter: int = 300,
    b_refs: int = 10,
) -> ClusterReport:
    """Cluster labeled rows and attach quality metrics."""
    X = np.asarray(X, dtype=float)
    if len(row_labels) != len(X):
        raise ValueError("one label per row required")
    result, sil, gap = _score(X, k, seed, b_refs, restarts, max_iter)
    return ClusterReport(
        k=k,
        assignments={label: int(c) for label, c in zip(row_labels, result.assignments)},
        sse=result.sse,
        silhouette=sil,
        gap=gap,
        seed=seed,
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    k: int
    sse: float | None
    silhouette: float | None
    gap: float | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    best: tuple[int, int] | None  # (n, k) with the highest silhouette

    def to_csv(self) -> str:
        def fmt(x):
            return "" if x is None else f"{x:.12g}"

        lines = ["n,k,sse,silhouette,gap"]
        for r in self.rows:
            lines.append(f"{r.n},{r.k},{fmt(r.sse)},{fmt(r.silhouette)},{fmt(r.gap)}")
        return "\n".join(lines) + "\n"


def model_select(
    X: Sequence[Sequence[float]],
    n_range: Iterable[int],
    k_range: Iterable[int],
    seed: int = 42,
    restarts: int = 10,
    b_refs: int = 10,
    max_iter: int = 300,
) -> SweepResult:
    """Sweep (PCA dimension, cluster count) and score every combination.

    Infeasible cells (k above the number of distinct rows, n above the rank
    limit) are recorded with their error and the sweep continues; the best
    cell is the highest silhouette, ties to the smaller (n, k).
    """
    X = np.asarray(X, dtype=float)
    rows: list[SweepRow] = []
    ks = list(k_range)
    for n in n_range:
        try:
            _, reduced = pca_fit(X, n)
        except ValueError as exc:
            rows.extend(SweepRow(n, k, None, None, None, str(exc)) for k in ks)
            continue
        for k in ks:
            try:
                result, sil, gap = _score(reduced, k, seed, b_refs, restarts, max_iter)
                rows.append(SweepRow(n, k, result.sse, sil, gap))
            except (KTooLarge, SingleCluster) as exc:
                rows.append(SweepRow(n, k, None, None, None, str(exc)))
    scored = [r for r in rows if r.error is None and r.silhouette is not None]
    top = max(scored, key=lambda r: (r.silhouette, -r.n, -r.k), default=None)
    return SweepResult(tuple(rows), (top.n, top.k) if top else None)
