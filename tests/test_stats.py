import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from topicpages import cohens_kappa, ks_two_sample, summary
from topicpages.errors import PipelineError


def ecdf_scan_d(a, b):
    """Brute-force sup |F_a - F_b|; the sup is attained at sample points."""
    d = 0.0
    for v in sorted(set(a) | set(b)):
        fa = sum(x <= v for x in a) / len(a)
        fb = sum(x <= v for x in b) / len(b)
        d = max(d, abs(fa - fb))
    return d


def asymptotic_p(d, n1, n2):
    en = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(en) + 0.12 + 0.11 / math.sqrt(en)) * d
    if lam < 1e-6:
        return 1.0
    acc = sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101))
    return min(1.0, max(0.0, 2.0 * acc))


def random_pairs(count):
    rng = np.random.default_rng(1234)
    for _ in range(count):
        n1 = int(rng.integers(1, 40))
        n2 = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            # integer draws force ties within and across samples
            yield list(rng.integers(0, 8, n1).astype(float)), list(
                rng.integers(0, 8, n2).astype(float)
            )
        else:
            yield list(rng.normal(0, 1, n1)), list(rng.normal(0.5, 2, n2))


class TestKsTwoSample:
    def test_d_matches_ecdf_scan_on_random_pairs(self):
        for a, b in random_pairs(100):
            r = ks_two_sample(a, b)
            assert abs(r.d_statistic - ecdf_scan_d(a, b)) < 1e-12

    def test_d_matches_scipy_on_random_pairs(self):
        for a, b in random_pairs(100):
            r = ks_two_sample(a, b)
            assert abs(r.d_statistic - scipy.stats.ks_2samp(a, b).statistic) < 1e-12

    def test_p_matches_stated_formula(self):
        for a, b in random_pairs(100):
            r = ks_two_sample(a, b)
            assert abs(r.p_value - asymptotic_p(r.d_statistic, len(a), len(b))) < 1e-12

    def test_disjoint_samples(self):
        r = ks_two_sample([1, 2, 3, 4], [5, 6, 7, 8])
        assert r.d_statistic == 1.0
        assert r.p_value == pytest.approx(0.011065637015803861, abs=1e-12)
        assert (r.n1, r.n2) == (4, 4)

    def test_interleaved_samples(self):
        r = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
        assert abs(r.d_statistic - 1 / 3) < 1e-12
        assert r.p_value == pytest.approx(0.9762126488644778, abs=1e-12)

    def test_identical_samples(self):
        r = ks_two_sample([2.0, 3.0, 2.0], [2.0, 3.0, 2.0])
        assert r.d_statistic == 0.0
        assert r.p_value == 1.0

    def test_tie_heavy_case(self):
        r = ks_two_sample([0, 0, 0, 0], [0, 0, 1, 1])
        assert abs(r.d_statistic - 0.5) < 1e-12

    def test_symmetry(self):
        for a, b in random_pairs(20):
            ab, ba = ks_two_sample(a, b), ks_two_sample(b, a)
            assert ab.d_statistic == ba.d_statistic
            assert ab.p_value == ba.p_value

    def test_duplicating_a_sample_preserves_d(self):
        # the ECDF of a + a is the ECDF of a
        for a, b in random_pairs(20):
            assert (
                ks_two_sample(a + a, b).d_statistic
                == ks_two_sample(a, b).d_statistic
            )

    def test_empty_sample(self):
        with pytest.raises(PipelineError, match="^both samples must be non-empty$"):
            ks_two_sample([], [1.0])
        with pytest.raises(PipelineError, match="^both samples must be non-empty$"):
            ks_two_sample([1.0], [])


label_lists = st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
    )
)


class TestCohensKappa:
    def test_half_agreement_case(self):
        # p_o = 3/4, p_e = 1/2, so kappa is exactly 0.5
        assert cohens_kappa(["a", "b", "a", "b"], ["a", "b", "b", "b"]) == 0.5

    def test_perfect_agreement(self):
        assert cohens_kappa(["x", "y", "x"], ["x", "y", "x"]) == 1.0

    def test_constant_same_label(self):
        assert cohens_kappa(["x", "x"], ["x", "x"]) == 1.0

    def test_constant_disjoint_labels(self):
        # no chance agreement possible, and none observed
        assert cohens_kappa(["x", "x"], ["y", "y"]) == 0.0

    def test_systematic_disagreement(self):
        assert cohens_kappa(["x", "y"], ["y", "x"]) == -1.0

    def test_length_mismatch(self):
        with pytest.raises(PipelineError, match="^1 vs 2 labels$"):
            cohens_kappa(["x"], ["x", "y"])

    def test_empty(self):
        with pytest.raises(PipelineError, match="^no labels$"):
            cohens_kappa([], [])

    @settings(max_examples=80)
    @given(label_lists, st.permutations([0, 1, 2, 3]))
    def test_relabeling_invariance(self, pair, perm):
        a, b = pair
        direct = cohens_kappa(a, b)
        renamed = cohens_kappa([perm[x] for x in a], [perm[x] for x in b])
        assert renamed == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=80)
    @given(label_lists)
    def test_bounded_above_by_one(self, pair):
        assert cohens_kappa(*pair) <= 1.0 + 1e-12


class TestSummary:
    def test_even_count(self):
        s = summary([2, 4, 4, 5, 7, 8])
        assert (s.median, s.mean, s.max, s.min) == (4.5, 5.0, 8.0, 2.0)
        assert (s.q1, s.q3, s.count) == (4.0, 6.5, 6)

    def test_single_value(self):
        s = summary([3.5])
        assert (s.median, s.mean, s.max, s.min, s.q1, s.q3, s.count) == (
            3.5, 3.5, 3.5, 3.5, 3.5, 3.5, 1,
        )

    def test_interpolated_quartiles(self):
        s = summary([1, 2, 3, 4])
        assert (s.q1, s.median, s.q3) == (1.75, 2.5, 3.25)

    def test_to_dict_keys(self):
        d = summary([1.0, 2.0]).to_dict()
        assert sorted(d) == ["count", "max", "mean", "median", "min", "q1", "q3"]

    def test_empty(self):
        with pytest.raises(PipelineError, match="^no values to summarize$"):
            summary([])

    @settings(max_examples=60)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_order_statistics_are_ordered(self, values):
        s = summary(values)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
        assert s.min - 1e-9 <= s.mean <= s.max + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.one_of(st.integers(-5, 5), st.floats(allow_nan=True), st.sampled_from([0.1, 1 / 3])),
        min_size=1, max_size=12,
    ))
    def test_quartiles_are_numpy_percentiles(self, values):
        with np.errstate(all="ignore"):  # the mean of such values may overflow
            s = summary(values)
            expected = np.percentile(np.asarray(values, dtype=float), [25.0, 50.0, 75.0])
        # equal as floats: numpy's partition puts 0.0 and -0.0 in either order
        for got, want in zip((s.q1, s.median, s.q3), expected.tolist()):
            assert got == want or math.isnan(got) and math.isnan(want), (got, want)
