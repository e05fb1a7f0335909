"""Walk through the URL side of the pipeline: pull links out of a homepage,
split them into internal and external, and fit length/hyphen thresholds that
separate short section URLs from long article URLs.

Run with:  python3 demos/01_url_filtering.py
"""

import numpy as np

from topicpages import (
    DEFAULT_BUCKET_SIZES,
    filter_subpages,
    fit_url_histograms,
    normalize,
    partition_links,
    read_page,
    url_histograms,
    url_metrics,
)

HOMEPAGE = """
<html><body><nav>
  <a href="/sports/">Sports</a>
  <a href="/sports/cricket/">Cricket</a>
  <a href="/business/">Business</a>
  <a href="/news/cabinet-approves-new-highway-corridor-after-long-review-8912345/">Top story</a>
  <a href="https://partner-site.example/deals/">Partner deals</a>
  <a href="mailto:desk@daily.example">Write to us</a>
  <a href="#top">Back to top</a>
</nav></body></html>
"""


def main() -> None:
    home = normalize("https://daily.example/")
    hrefs, _ = read_page(HOMEPAGE)  # one parse gives the page's hrefs and its text
    links = partition_links(hrefs, home)
    print("internal links:")
    for u in links.internal:
        m = url_metrics(u)
        print(f"  {u.normalized}  (length={m.url_length}, hyphens={m.max_hyphens})")
    print("external links:")
    for u in links.external:
        print(f"  {u.normalized}")

    # Fit thresholds on a synthetic training set with two URL regimes:
    # short section URLs and long hyphen-heavy article URLs.
    rng = np.random.default_rng(7)
    letters = list("abcdefghijklmnopqrstuvwxyz")

    def make(length: int, hyphens: int) -> str:
        seg = [str(c) for c in rng.choice(letters, size=length)]
        for pos in rng.choice(np.arange(1, length - 1), size=hyphens, replace=False):
            seg[pos] = "-"
        return "https://daily.example/" + "".join(seg) + "/"

    sections = [make(int(rng.integers(8, 20)), int(rng.integers(0, 3))) for _ in range(400)]
    articles = [make(int(rng.integers(60, 90)), int(rng.integers(5, 10))) for _ in range(400)]
    train = [normalize(u) for u in sections + articles]

    fitted = fit_url_histograms(url_histograms(train, DEFAULT_BUCKET_SIZES))
    print("\nfitted thresholds:")
    print(f"  max_url_length     = {fitted.max_url_length}")
    print(f"  max_subpath_length = {fitted.max_subpath_length}")
    print(f"  max_hyphens        = {fitted.max_hyphens}")

    kept = filter_subpages(train, fitted)
    wanted = {normalize(u).normalized for u in sections}
    print(f"\nfiltering: kept {len(kept)} of {len(train)} training URLs")
    print(f"survivors == planted section URLs: {({k.normalized for k in kept} == wanted)}")


if __name__ == "__main__":
    main()
