"""PCA reduction, seeded K-means, and cluster-count selection metrics.

Everything here is deterministic given (data, seed): K-means restarts draw
from RNG streams derived from (seed, run index), and PCA component signs
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

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.components.T

    def inverse_transform(self, reduced: np.ndarray) -> np.ndarray:
        return np.asarray(reduced, dtype=float) @ self.components + self.mean


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for row in out:
        for v in row:
            if abs(v) > _SIGN_TOL:
                if v < 0:
                    row *= -1.0
                break
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
    degenerate: bool


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    rows = len(X)
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(rows))
    centers[0] = X[first]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(rows))
        else:
            idx = int(rng.choice(rows, p=d2 / total))
        centers[c] = X[idx]
        d2 = np.minimum(d2, ((X - X[idx]) ** 2).sum(axis=1))
    return centers


def _lloyd(X: np.ndarray, k: int, rng: np.random.Generator, max_iter: int) -> KmeansResult:
    rows = len(X)
    centers = _kmeans_pp_init(X, k, rng)
    assignments = None
    history: list[float] = []
    for iteration in range(1, max_iter + 1):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                # reseed an empty cluster to the point farthest from its center,
                # taken from a cluster of two or more so that none is emptied
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
    sse = history[-1] if history else float(((X - centers[assignments]) ** 2).sum())
    return KmeansResult(
        assignments=assignments,
        centers=centers,
        sse=sse,
        n_iter=len(history),
        sse_history=tuple(history),
        degenerate=len(np.unique(X, axis=0)) < k,
    )


def kmeans(
    X: Sequence[Sequence[float]],
    k: int,
    seed: int = 42,
    restarts: int = 10,
    max_iter: int = 300,
) -> KmeansResult:
    """Best-of-*restarts* Lloyd iterations with k-means++ seeding.

    Runs are ranked by SSE; ties keep the earliest run, so results are a
    pure function of (X, k, seed, restarts, max_iter).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D matrix")
    if k < 1:
        raise ValueError("k must be positive")
    if k > len(X):
        raise KTooLarge(f"k={k} exceeds {len(X)} rows")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    best: KmeansResult | None = None
    for run in range(restarts):
        rng = np.random.default_rng([seed, run])
        result = _lloyd(X, k, rng, max_iter)
        if best is None or result.sse < best.sse:
            best = result
    return best


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

    References are uniform draws over the data's bounding box, clustered
    with the same k and seed policy as the data.
    """
    X = np.asarray(X, dtype=float)
    observed = kmeans(X, k, seed=seed, restarts=restarts, max_iter=max_iter)
    return _gap(X, k, observed.sse, seed, b_refs, restarts, max_iter)


def _gap(
    X: np.ndarray, k: int, observed: float, seed: int, b_refs: int, restarts: int, max_iter: int
) -> float:
    """The gap of a fit with SSE *observed*, against *b_refs* reference draws."""
    if b_refs < 1:
        raise ValueError("b_refs must be positive")
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    tiny = float(np.finfo(float).tiny)
    ref_logs = []
    for b in range(b_refs):
        rng = np.random.default_rng([seed, _GAP_STREAM, b])
        ref = rng.uniform(lo, hi, size=X.shape)
        sse = kmeans(ref, k, seed=seed, restarts=restarts, max_iter=max_iter).sse
        ref_logs.append(math.log(max(sse, tiny)))
    return float(np.mean(ref_logs) - math.log(max(observed, tiny)))


def _score(
    X: np.ndarray, k: int, seed: int, b_refs: int, restarts: int, max_iter: int
) -> tuple[KmeansResult, float | None, float]:
    """One k-means fit, its silhouette (k >= 2) and its gap: one scored cell."""
    result = kmeans(X, k, seed=seed, restarts=restarts, max_iter=max_iter)
    sil = silhouette(X, result.assignments) if k >= 2 else None
    return result, sil, _gap(X, k, result.sse, seed, b_refs, restarts, max_iter)


# --- reports and sweeps ------------------------------------------------------

@dataclass(frozen=True)
class ClusterReport:
    k: int
    assignments: dict
    sse: float
    silhouette: float | None
    gap: float
    seed: int
    degenerate: bool = False


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
        degenerate=result.degenerate,
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

    Infeasible cells (k above the row count, n above the rank limit) are
    recorded with their error and the sweep continues; the best cell is
    the highest silhouette, ties to the smaller (n, k).
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
    best = None
    if scored:
        top = max(scored, key=lambda r: (r.silhouette, -r.n, -r.k))
        best = (top.n, top.k)
    return SweepResult(tuple(rows), best)
