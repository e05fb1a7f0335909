"""Turn section-page text into a tf-idf matrix and a language verdict per page,
then compare topic profiles with the bundled statistics helpers: Cohen's kappa
for label agreement and a two-sample KS test for distribution shift.

Run with:  python3 demos/05_content_and_stats.py
"""

from topicpages import cohens_kappa, cosine, extract_text, ks_two_sample, weigh_pages

PAGES = {
    "sports": "<html><body><h1>Sports</h1><p>Cricket scores, match reports and "
    "the season table for every league fixture this weekend.</p></body></html>",
    "politics": "<html><body><p>Cabinet reshuffle and assembly debates, with "
    "polling numbers from the campaign trail this week.</p></body></html>",
    "business": "<html><body><p>Markets closed higher as earnings beat the "
    "forecast and the index recovered its losses for the quarter.</p></body></html>",
}


def main() -> None:
    # one page per topic here; pages that share a topic are weighed as one document
    matrix, verdicts = weigh_pages((t, extract_text(html)) for t, html in PAGES.items())
    print(f"tf-idf matrix: {len(matrix.topics)} topics x {len(matrix.terms)} terms")

    for topic, row in zip(matrix.topics, matrix.weights):
        ranked = sorted(zip(matrix.terms, row), key=lambda p: -p[1])[:3]
        terms = ", ".join(f"{t} ({w:.3f})" for t, w in ranked if w > 0)
        print(f"  {topic:10} top terms: {terms}")

    print("\nlanguage verdict per page:")
    for topic, verdict in zip(PAGES, verdicts):
        print(f"  {topic:10} english={verdict.is_english} confident={verdict.confident}")

    print("\npairwise topic similarity (cosine of tf-idf rows):")
    for i, a in enumerate(matrix.topics):
        for b, row_b in list(zip(matrix.topics, matrix.weights))[i + 1 :]:
            row_a = matrix.weights[i]
            print(f"  {a} vs {b}: {cosine(row_a, row_b):.3f}")

    # Agreement between two labelers over the same eight pages.
    ours = ["sports", "sports", "politics", "business", "sports", "politics", "other", "business"]
    theirs = ["sports", "sports", "politics", "business", "politics", "politics", "other", "other"]
    print(f"\nCohen's kappa between labelers: {cohens_kappa(ours, theirs):.3f}")

    # Cookie counts on two page groups: same shape, shifted location.
    homepage_cookies = [12.0, 15.0, 9.0, 14.0, 11.0, 13.0]
    section_cookies = [22.0, 25.0, 19.0, 24.0, 21.0, 23.0]
    ks = ks_two_sample(homepage_cookies, section_cookies)
    print(f"KS test homepage vs sections: D={ks.d_statistic:.3f}, p={ks.p_value:.4f}")


if __name__ == "__main__":
    main()
