"""Histogram-valley threshold fitting and section-page filtering.

Section URLs and article URLs form two populations in URL length, longest
subpath length, and hyphen count.  Each parameter's histogram is expected to
be bimodal; the filter boundary is the valley between the two modes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass, replace
from typing import Iterable, Sequence

from .classify import COSINE_CUTOFF
from .errors import NotBimodal, PipelineError
from .lines import checked
from .urls import PageUrl, UrlMetrics, url_metrics

# the three URL-shape series: histogram name and UrlMetrics field, in the
# order of the bucket sizes and of the Thresholds fields
URL_SERIES = (
    ("url_length", "url_length"),
    ("subpath_length", "max_subpath_length"),
    ("hyphens", "max_hyphens"),
)
DEFAULT_BUCKET_SIZES = (1.0, 5.0, 1.0)

# a candidate split must leave this share of samples on each side,
# which suppresses noise-spike "modes" in the tails
_MIN_SIDE_MASS = 0.05

# below this many training URLs a frequency histogram is all noise and any
# "modes" it shows are accidents of the sample
MIN_FIT_URLS = 30


@dataclass(frozen=True)
class Thresholds:
    """Inclusive upper bounds a URL must satisfy to be kept as a section page."""

    max_url_length: int
    max_subpath_length: int
    max_hyphens: int
    cosine_cutoff: float = COSINE_CUTOFF

    def __post_init__(self):
        if min(self.max_url_length, self.max_subpath_length, self.max_hyphens) < 0:
            raise ValueError("thresholds must be non-negative")
        if not 0.0 <= self.cosine_cutoff <= 1.0:
            raise ValueError("cosine_cutoff must lie in [0, 1]")

    def admits(self, m: UrlMetrics) -> bool:
        """True when the URL metrics *m* sit at or below every bound."""
        return (m.url_length <= self.max_url_length
                and m.max_subpath_length <= self.max_subpath_length
                and m.max_hyphens <= self.max_hyphens)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "Thresholds":
        """The to_dict() shape: each bound a JSON integer, the optional cutoff a JSON number."""
        bounds = {key: checked(obj[key], int, key)
                  for key in ("max_url_length", "max_subpath_length", "max_hyphens")}
        cutoff = checked(obj.get("cosine_cutoff", COSINE_CUTOFF), float, "cosine_cutoff")
        return cls(**bounds, cosine_cutoff=float(cutoff))


# filtering defaults when a training set is too small or not bimodal
DEFAULT_THRESHOLDS = Thresholds(80, 30, 4)


@dataclass(frozen=True)
class Histogram:
    """Fixed-width histogram; keys are bucket start values."""

    bucket_size: float
    counts: dict


def _bucket_start(index: int, bucket_size: float):
    start = index * bucket_size
    if float(bucket_size).is_integer():
        return int(round(start))
    return round(start, 10)


def _bucket_index(value: float, bucket_size: float) -> int:
    # the epsilon keeps values sitting on a boundary from falling one
    # bucket low through float division (e.g. 0.15 / 0.05)
    return math.floor(value / bucket_size + 1e-9)


def build_histogram(values: Sequence[float], bucket_size: float) -> Histogram:
    """Bucket values by floor(v / bucket_size) * bucket_size.

    Each distinct value is bucketed once; buckets keep the order in which
    their first value occurs."""
    if bucket_size <= 0:
        raise ValueError("bucket_size must be positive")
    if len(values) == 0:
        raise PipelineError("cannot build a histogram from no values")
    counts: dict = {}
    for v, n in Counter(values).items():
        start = _bucket_start(_bucket_index(v, bucket_size), bucket_size)
        counts[start] = counts.get(start, 0) + n
    return Histogram(bucket_size=float(bucket_size), counts=counts)


def url_histograms(urls: Sequence[PageUrl], buckets: Sequence[float]) -> dict[str, Histogram]:
    """The histogram of each URL-shape series of a training set, keyed by series name."""
    return histograms_of(list(map(url_metrics, urls)), buckets)


def histograms_of(metrics: Sequence[UrlMetrics], buckets: Sequence[float]) -> dict[str, Histogram]:
    """url_histograms of the training URLs whose url_metrics are *metrics*."""
    if len(metrics) == 0:
        raise PipelineError("no training URLs")
    if len(buckets) != 3:
        raise ValueError("buckets must give three sizes")
    return {
        name: build_histogram([getattr(m, field) for m in metrics], bucket)
        for (name, field), bucket in zip(URL_SERIES, buckets)
    }


def _persistent_peaks(dense: list[int]) -> list[tuple[int, int, int]]:
    """Peaks as (persistence, height, index), strongest first.

    Buckets are processed tallest first; each either starts a peak or
    merges into a processed neighbor's component, and a merge kills the
    shorter-born peak, whose persistence is its height minus the merge
    height.  Sampling jitter on the flank of a mode therefore scores near
    zero while a genuine second mode keeps its full height, which makes
    the ranking robust to noisy histograms.  Plateau members and shoulders
    (persistence 0) are dropped; the tallest peak survives everything and
    scores its own height.
    """
    n = len(dense)
    order = sorted(range(n), key=lambda i: (-dense[i], i))
    root = [-1] * n
    birth: dict[int, tuple[int, int]] = {}  # component root -> (height, peak index)
    persistence: dict[int, int] = {}  # peak index -> persistence

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i in order:
        root[i] = i
        birth[i] = (dense[i], i)
        for nb in (i - 1, i + 1):
            if 0 <= nb < n and root[nb] != -1:
                # components are runs of adjacent buckets, and i was outside nb's
                a, b = find(i), find(nb)
                (ha, pa), (hb, pb) = birth[a], birth[b]
                # the shorter-born component dies here; ties die rightward
                dead, alive = (a, b) if (ha, -pa) < (hb, -pb) else (b, a)
                h_dead, p_dead = birth[dead]
                if h_dead - dense[i] > 0:
                    persistence[p_dead] = h_dead - dense[i]
                root[dead] = alive
    survivor = find(order[0])
    height, peak = birth[survivor]
    persistence[peak] = height
    return sorted(
        ((p, dense[idx], idx) for idx, p in persistence.items()),
        key=lambda t: (-t[0], -t[1], t[2]),
    )


def find_bimodal_threshold(h: Histogram) -> float:
    """Locate the valley between the two dominant modes of *h*.

    The modes are the two most persistent peaks, and the valley is the
    longest run of minimal-count buckets strictly between them (ties go to
    the rightmost run).  The returned value is the start of that run's last
    bucket, used downstream as an inclusive upper bound on the left
    population: the valley bucket itself stays below the bound and the
    right mode's first bucket never does, which biases toward keeping
    borderline values.

    Raises NotBimodal when no pair of modes separated by at least one
    bucket leaves at least 5% of the samples on each side of the valley.
    """
    if not h.counts:
        raise PipelineError("empty histogram")
    bs = h.bucket_size
    indices = sorted(_bucket_index(start, bs) for start in h.counts)
    lo, hi = indices[0], indices[-1]
    if hi - lo + 1 < 3:
        raise NotBimodal("histogram spans fewer than 3 buckets")
    dense = [0] * (hi - lo + 1)
    for start, count in h.counts.items():
        dense[_bucket_index(start, bs) - lo] += count
    total = sum(dense)

    peaks = _persistent_peaks(dense)
    if len(peaks) < 2:
        raise NotBimodal("fewer than two modes")

    # candidate mode pairs, strongest combined persistence first
    pairs = sorted(
        (
            (min(a, b, key=lambda t: t[2]), max(a, b, key=lambda t: t[2]))
            for i, a in enumerate(peaks)
            for b in peaks[i + 1:]
            if abs(a[2] - b[2]) >= 2  # at least one bucket strictly between
        ),
        key=lambda p: (-(p[0][0] + p[1][0]), p[0][2], p[1][2]),
    )
    for left, right in pairs:
        between = dense[left[2] + 1: right[2]]
        m = min(between)
        # last bucket of the longest minimal run; equal lengths go rightward
        best_len, best_end, k = 0, -1, 0
        while k < len(between):
            if between[k] == m:
                j = k
                while j + 1 < len(between) and between[j + 1] == m:
                    j += 1
                if j - k + 1 >= best_len:
                    best_len, best_end = j - k + 1, j
                k = j + 1
            else:
                k += 1
        valley = left[2] + 1 + best_end
        left_mass = sum(dense[: valley + 1])
        if left_mass >= _MIN_SIDE_MASS * total and (total - left_mass) >= _MIN_SIDE_MASS * total:
            return _bucket_start(lo + valley, bs)
    raise NotBimodal("no mode pair leaves enough mass on both sides")


def fit_url_histograms(
    hists: dict[str, Histogram],
    *,
    cosine_cutoff: float = COSINE_CUTOFF,
    fallback_defaults: bool = False,
) -> Thresholds:
    """Fit the thresholds from the url_histograms() of a training URL set.

    When a parameter's histogram is not bimodal, NotBimodal propagates unless
    fallback_defaults is set, in which case that parameter falls back to the
    published default.  Samples below MIN_FIT_URLS cannot support the
    histogram analysis at all and are treated the same way.
    """
    n = sum(next(iter(hists.values())).counts.values())
    if n < MIN_FIT_URLS:
        if not fallback_defaults:
            raise NotBimodal(f"only {n} training URLs; fitting needs {MIN_FIT_URLS}")
        return replace(DEFAULT_THRESHOLDS, cosine_cutoff=cosine_cutoff)
    fitted = []
    for (name, hist), default in zip(hists.items(), astuple(DEFAULT_THRESHOLDS)):
        try:
            fitted.append(int(find_bimodal_threshold(hist)))
        except NotBimodal as exc:
            if not fallback_defaults:
                raise NotBimodal(f"{name}: {exc}") from exc
            fitted.append(default)
    return Thresholds(*fitted, cosine_cutoff=cosine_cutoff)


def filter_subpages(urls: Iterable[PageUrl], t: Thresholds) -> list[PageUrl]:
    """Keep URLs whose metrics sit at or below every threshold."""
    return [u for u in urls if t.admits(url_metrics(u))]


def histogram_rows(h: Histogram) -> list[str]:
    """The "bucket,count" lines of histogram_csv below its header."""
    return [f"{start},{count}" for start, count in sorted(h.counts.items())]


def histogram_csv(h: Histogram) -> str:
    """The (bucket, count) rows of a fitted histogram as CSV text, for replotting."""
    return "bucket,count\n" + "".join(row + "\n" for row in histogram_rows(h))
