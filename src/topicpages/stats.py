"""Two-sample comparison and agreement statistics.

Small, self-contained implementations so the numbers the reports cite are
reproducible from first principles: a two-sample Kolmogorov-Smirnov test
with the classic asymptotic p-value series, Cohen's kappa, and distribution
summaries with linearly interpolated quartiles.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import PipelineError


@dataclass(frozen=True)
class KsResult:
    d_statistic: float
    p_value: float
    n1: int
    n2: int


def _kolmogorov_sf(lam: float) -> float:
    # 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2), truncated at 100 terms.
    # The truncation breaks down as lam -> 0, where the true limit is 1.
    if lam < 1e-6:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        total += sign * math.exp(-2.0 * k * k * lam * lam)
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS test: D = sup |ECDF_a - ECDF_b| plus asymptotic p-value."""
    if len(a) == 0 or len(b) == 0:
        raise PipelineError("both samples must be non-empty")
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    merged = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, merged, side="right") / x.size
    cdf_y = np.searchsorted(y, merged, side="right") / y.size
    d = float(np.abs(cdf_x - cdf_y).max())
    n = x.size * y.size / (x.size + y.size)
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    return KsResult(d_statistic=d, p_value=_kolmogorov_sf(lam), n1=int(x.size), n2=int(y.size))


def cohens_kappa(labels_a: Sequence, labels_b: Sequence) -> float:
    """Chance-corrected agreement between two annotators over the same items.

    When expected agreement is 1 (both annotators constant on the same
    label) the statistic is defined as 1 on perfect agreement and 0
    otherwise rather than dividing by zero.
    """
    if len(labels_a) != len(labels_b):
        raise PipelineError(f"{len(labels_a)} vs {len(labels_b)} labels")
    if len(labels_a) == 0:
        raise PipelineError("no labels")
    n = len(labels_a)
    p_o = sum(x == y for x, y in zip(labels_a, labels_b)) / n
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    p_e = sum(count_a[c] * count_b.get(c, 0) for c in count_a) / (n * n)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


@dataclass(frozen=True)
class Summary:
    median: float
    mean: float
    max: float
    min: float
    q1: float
    q3: float
    count: int

    def to_dict(self) -> dict:
        return asdict(self)


def _quantile(ordered: np.ndarray, q: float) -> float:
    """np.percentile(ordered, 100 * q) of a sorted, non-empty sample, by numpy's linear
    method and in its arithmetic, but without np.percentile, whose first call imports
    numpy.ma.  A sample that holds NaN, which sorts last, has NaN quantiles."""
    last = len(ordered) - 1
    if math.isnan(ordered[last]):
        return math.nan
    index = len(ordered) * q + (1 - q) - 1
    # past the last index numpy interpolates the last value with itself, at index - (-1)
    below, above = (last, last) if index >= last else (math.floor(index), math.floor(index) + 1)
    t = index + 1 if index >= last else index - below
    a, b = float(ordered[below]), float(ordered[above])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def summary(values: Sequence[float]) -> Summary:
    """Order statistics of a sample; quartiles use linear interpolation."""
    if len(values) == 0:
        raise PipelineError("no values to summarize")
    arr = np.asarray(values, dtype=float)
    ordered = np.sort(arr)
    q1, med, q3 = (_quantile(ordered, q) for q in (0.25, 0.5, 0.75))
    return Summary(
        median=float(med),
        mean=float(arr.mean()),
        max=float(arr.max()),
        min=float(arr.min()),
        q1=float(q1),
        q3=float(q3),
        count=int(arr.size),
    )
