"""PCA reduction, seeded K-means, and cluster-count selection metrics.

One batched Lloyd loop fits every k-means: a stack of datasets and their
restarts iterates as one set of runs, so a scored cell fits its data and its
gap references in one call.  Given (data, seed) all is deterministic: restart
r draws from the RNG stream (seed, r) in any batch, through the package's own
k-means++ draw (_pp_draw), and PCA component signs follow a fixed convention,
so repeated sweeps are byte-identical.  A restart reads its stream in the
same order for any k, so the first k centers of a larger seeding are the k
seeding, and a sweep seeds each PCA dimension once, at its largest fitted k.
The silhouette takes its mean distances cluster by cluster, as row means of
C-contiguous gathers, which sum in the order a point-by-point loop does.
model_select fits and scores every clustering: a cluster stage is its one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import KTooLarge, PipelineError

_GAP_STREAM = 9001  # keeps reference-set draws off the k-means seed streams
_SIGN_TOL = 1e-12
_BATCH_TERMS = 1 << 20  # (point, center, coordinate) terms per batched distance step
_GRAM_SAFE = 2.0 ** 64  # largest centred magnitude pca_fit multiplies unscaled


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
    to 1 with fewer components.  Data with no variance on any axis is refused.
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
    # Past _GRAM_SAFE, the products below could overflow, so they take the data
    # scaled by a power of two, which is exact: the eigenvalues scale by its square
    # and leave only as ratios, the axes are the same, and ordinary data keeps every bit.
    largest = max(float(C.max()), -float(C.min()))  # no |C| temporary as large as C
    S = C * 2.0 ** -math.frexp(largest)[1] if largest > _GRAM_SAFE else C

    if cols <= rows:
        cov = S.T @ S / (rows - 1)
        eigval, eigvec = np.linalg.eigh(cov)
        order = np.argsort(-eigval, kind="stable")
        eigval = eigval[order]
        axes = eigvec[:, order].T
    else:
        gram = S @ S.T / (rows - 1)
        eigval, eigvec = np.linalg.eigh(gram)
        order = np.argsort(-eigval, kind="stable")
        eigval = eigval[order]
        u = eigvec[:, order]
        axes = np.zeros((len(eigval), cols))
        for i, lam in enumerate(eigval):
            if lam > 0:
                axes[i] = S.T @ u[:, i] / math.sqrt(lam * (rows - 1))

    eigval = np.clip(eigval, 0.0, None)
    effective = int(min(n, int((eigval > float(eigval.max()) * 1e-12).sum())))
    if effective == 0:
        raise ValueError("no axis has variance")
    components = _fix_signs(axes[:effective])
    model = PcaModel(
        components=components,
        explained_variance_ratio=eigval[:effective] / float(eigval.sum()),
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


def _pp_draw(d2: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each run's k-means++ pick, a row drawn with probability d2 / total by its uniform u.

    This is the package's own inverse-CDF draw, and it is what
    Generator.choice(rows, p=d2 / total) computes from one random(): p =
    d2 / total, cdf = p.cumsum(), cdf /= cdf[-1], and the pick is the count
    of cdf entries <= u.  Every run of the (runs, rows) d2 draws at once;
    cumsum adds along each row in order, so a run's cdf is the one it gets
    alone.  Each total must be positive and finite.
    """
    cdf = (d2 / total[:, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


def _kmeans_pp_init(X: np.ndarray, k: int, seed: int, restarts: int) -> np.ndarray:
    """k-means++ centers of each run in a (runs, rows, dim) stack, run r reading the
    stream (seed, r % restarts).

    A run reads its stream as integers(rows) for its first center, then for
    each further center one random() for _pp_draw, or integers(rows) where
    its distances are all 0, which they stay, since they never grow.  Until
    then every run of a restart reads the same numbers, so each restart's
    stream is drawn once for all of them; a run whose distances are all 0
    replays its own stream to that center and reads it alone from there.
    """
    runs, rows, _ = X.shape
    # every distance total below is at most rows times the squared diagonal of the
    # run's bounding box, so the verdict on overflow does not depend on the draw
    with np.errstate(over="ignore", invalid="ignore"):
        bound = rows * ((X.max(axis=1) - X.min(axis=1)) ** 2).sum(axis=1)
    if not np.isfinite(bound).all():
        raise ValueError("k-means++ distances are not finite")
    each = np.arange(runs)
    restart = each % restarts
    streams = [np.random.default_rng([seed, r]) for r in range(restarts)]
    picks = np.empty((runs, k), dtype=np.intp)
    picks[:, 0] = np.array([stream.integers(rows) for stream in streams])[restart]
    uniforms = np.array([stream.random(k - 1) for stream in streams])[restart]
    own: dict[int, np.random.Generator] = {}
    d2 = ((X - X[each, picks[:, 0]][:, None]) ** 2).sum(axis=2)
    for c in range(1, k):
        total = d2.sum(axis=1)
        for r in np.flatnonzero(total <= 0.0):
            if r not in own:
                own[r] = np.random.default_rng([seed, restart[r]])
                own[r].integers(rows)
                own[r].random(c - 1)
            picks[r, c] = own[r].integers(rows)
        live = np.flatnonzero(total > 0.0)
        picks[live, c] = _pp_draw(d2[live], total[live], uniforms[live, c - 1])
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
    for size in sorted(set(counts.tolist())):
        chosen = np.flatnonzero(counts == size)
        means[chosen] = values[starts[chosen][:, None] + np.arange(size)].mean(axis=1)
    return means.reshape(runs, k, 1)


def _lloyd(
    data: np.ndarray, k: int, seed: int, restarts: int, max_iter: int,
    centers: np.ndarray | None = None,
) -> list[KmeansResult]:
    """The best-of-*restarts* k-means fit of each dataset in a (datasets, rows, dim) stack.

    Restart r of every dataset seeds from the stream (seed, r), then all runs
    iterate together, each on its own dataset, until its assignments stop
    changing.  Each dataset keeps its lowest-SSE run, ties to the earliest
    restart, so each fit equals the one its dataset gets alone.  *centers*,
    when given, are that seeding, which the loop then overwrites.
    """
    X = np.repeat(data, restarts, axis=0)  # run r fits dataset r // restarts
    runs, rows, dim = X.shape
    if centers is None:
        centers = _kmeans_pp_init(X, k, seed, restarts)
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


def _references(X: np.ndarray, seed: int, b_refs: int) -> list[np.ndarray]:
    """The gap statistic's *b_refs* reference draws for X, which depend on no k: draw b
    is uniform over X's bounding box, from the stream (seed, _GAP_STREAM, b)."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    return [np.random.default_rng([seed, _GAP_STREAM, b]).uniform(lo, hi, size=X.shape)
            for b in range(b_refs)]


def _check(X: np.ndarray, k: int, restarts: int, max_iter: int, distinct: int | None = None) -> None:
    """Refuse a fit of k clusters to X, in this order: k above *distinct* rows (a scored
    fit gives that count: k-means would split duplicate rows into zero-SSE clusters),
    X not a 2-D matrix with rows and columns, k, restarts or max_iter below 1, k above
    the rows."""
    if distinct is not None and k > distinct:
        raise KTooLarge(f"k={k} exceeds {distinct} distinct rows")
    if X.ndim != 2 or 0 in X.shape:
        raise ValueError("X must be a non-empty 2-D matrix")
    for name, value in (("k", k), ("restarts", restarts), ("max_iter", max_iter)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    if k > len(X):
        raise KTooLarge(f"k={k} exceeds {len(X)} rows")


def _fits(
    X: Sequence[Sequence[float]], k: int, seed: int, restarts: int, max_iter: int, b_refs: int = 0
) -> list[KmeansResult]:
    """The fits of X and of its *b_refs* reference draws, as one batch of the Lloyd loop,
    once _check(X, k, restarts, max_iter) has passed."""
    X = np.asarray(X, dtype=float)
    _check(X, k, restarts, max_iter)
    return _lloyd(np.stack([X, *_references(X, seed, b_refs)]), k, seed, restarts, max_iter)


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
    """Mean silhouette over all points; singleton-cluster points score 0.

    Each row mean below is of a C-contiguous gather, which sums in the order
    one point's own gather would; the F-ordered dist[:, members] would not.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(assignments)
    uniq = sorted(set(labels.tolist()))
    if len(uniq) < 2:
        raise PipelineError("silhouette needs at least two clusters")
    diffs = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    every = np.arange(len(X))
    a = np.zeros(len(X))  # mean distance inside each point's own cluster
    b = np.zeros(len(X))  # lowest mean distance to another cluster, the first one's at first
    seen = np.zeros(len(X), dtype=bool)  # points with a b from some other cluster
    shared = np.zeros(len(X), dtype=bool)  # points of a cluster of two or more
    for c in uniq:
        inside = labels == c
        members = np.flatnonzero(inside)
        to_c = dist[every[:, None], members].mean(axis=1)
        # min() over the other clusters in turn: the first mean, then any lower one
        lower = ~inside & (~seen | (to_c < b))
        b[lower] = to_c[lower]
        seen |= ~inside
        s = len(members)
        if s > 1:
            # row i: the positions in members of every member but the i-th
            others = np.arange(s - 1) + (np.arange(s - 1) >= np.arange(s)[:, None])
            a[members] = dist[members[:, None], members[others]].mean(axis=1)
            shared[members] = True
    denom = np.where(b > a, b, a)  # max(a, b)
    scored = shared & (denom > 0)
    scores = np.zeros(len(X))
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
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


def _distinct_rows(X: np.ndarray) -> int:
    """len(np.unique(X, axis=0)), rows compared by value as np.unique compares them
    (-0.0 equals 0.0), without np.unique, whose first call imports numpy.ma."""
    if X.size == 0:
        return min(len(X), 1)
    return len(set(map(tuple, X.reshape(len(X), -1).tolist())))


# --- sweeps -------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One (n, k) cell: its scores and the fit they score, or the error that refused it."""

    n: int
    k: int
    sse: float | None
    silhouette: float | None
    gap: float | None
    error: str | None = None
    fit: KmeansResult | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SweepResult:
    """A sweep's cells in order, its best cell, and each dimension PCA could reduce
    to, mapped to its (model, reduced rows); a dimension PCA refused has no entry."""

    rows: tuple[SweepRow, ...]
    best: tuple[int, int] | None  # (n, k) with the highest silhouette
    reductions: dict[int, tuple[PcaModel, np.ndarray]] = field(default_factory=dict, compare=False)

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
    """Sweep (PCA dimension, cluster count), fit every cell and score its fit.

    Infeasible cells (k above the number of distinct rows, which k-means would
    split into zero-SSE clusters; n above the rank limit; data with no variance)
    are recorded with their error and the sweep continues; the best cell is the
    highest silhouette, ties to the smaller (n, k).  A scored cell keeps its fit,
    and the result keeps each reduction, so one cell is a whole clustering.

    Each dimension draws its gap references and seeds k-means++ once, so every
    cell equals the cell-by-cell fit of its reduced data: kmeans, its silhouette
    (k >= 2) and gap_statistic.  A cell's ValueError is raised once the cells
    before it are scored, as cell-by-cell fits would.
    """
    X = np.asarray(X, dtype=float)
    rows: list[SweepRow] = []
    reductions: dict[int, tuple[PcaModel, np.ndarray]] = {}
    ks = list(k_range)
    for n in n_range:
        try:
            reductions[n] = pca_fit(X, n)
        except ValueError as exc:
            rows.extend(SweepRow(n, k, None, None, None, str(exc)) for k in ks)
            continue
        _, reduced = reductions[n]
        distinct = _distinct_rows(reduced)
        cells: list[tuple[int, Exception | None]] = []  # each k before a raising one, its refusal
        refusal: ValueError | None = None
        for k in ks:
            try:
                _check(reduced, k, restarts, max_iter, distinct)
                cells.append((k, None))
            except KTooLarge as exc:
                cells.append((k, exc))
            except ValueError as exc:
                refusal = exc
                break
        data = np.stack([reduced, *_references(reduced, seed, b_refs)])
        fitted = [k for k, refused in cells if refused is None]
        if fitted:
            seeds = _kmeans_pp_init(np.repeat(data, restarts, axis=0), max(fitted), seed, restarts)
        for k, refused in cells:
            if refused is not None:
                rows.append(SweepRow(n, k, None, None, None, str(refused)))
                continue
            fit, *references = _lloyd(data, k, seed, restarts, max_iter, seeds[:, :k].copy())
            sil = silhouette(reduced, fit.assignments) if k >= 2 else None
            rows.append(SweepRow(n, k, fit.sse, sil, _gap(fit, references), fit=fit))
        if refusal is not None:
            raise refusal
    scored = [r for r in rows if r.error is None and r.silhouette is not None]
    top = max(scored, key=lambda r: (r.silhouette, -r.n, -r.k), default=None)
    return SweepResult(tuple(rows), (top.n, top.k) if top else None, reductions)
