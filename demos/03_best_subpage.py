"""Pick one representative subpage per (site, topic).  Candidates are ranked
by cosine-to-topic divided by token count, and a candidate whose first
subpath is a dictionary keyword is preferred over higher-ranked near misses.

Run with:  python3 demos/03_best_subpage.py
"""

from topicpages import (
    EmbeddingModel,
    Topic,
    TopicalDictionary,
    TopicClassifier,
    filter_subpages,
    normalize,
)
from topicpages.thresholds import DEFAULT_THRESHOLDS

DICTIONARY = {
    Topic("sports"): ["sports", "cricket"],
    Topic("politics"): ["politics", "election"],
}

VECTORS = {
    "sports": [1.0, 0.0],
    "cricket": [0.8, 0.6],
    "news": [0.0, 1.0],
    "politics": [0.0, 1.0],
    "election": [0.1, 0.9],
}

CANDIDATES = [
    "https://daily.example/sports/",
    "https://daily.example/sports/cricket/",
    "https://daily.example/cricket-news/",
    "https://daily.example/politics/",
    "https://daily.example/topics/election/",
]


def main() -> None:
    dictionary = TopicalDictionary(DICTIONARY, generic_subpaths=["topics"])
    model = EmbeddingModel(2, VECTORS)
    classifier = TopicClassifier(dictionary, model)

    sports = dictionary.topic_named("sports")
    print("selection weights for the sports candidates:")
    for raw in CANDIDATES[:3]:
        url = normalize(raw)
        w = classifier.selection_weight(url, sports)
        print(f"  {raw:44} weight={w:.4f}")

    # Filter and classify the site's links, then one call groups them by
    # topic and picks each topic's winner.
    links = filter_subpages([normalize(u) for u in CANDIDATES], DEFAULT_THRESHOLDS)
    best = classifier.select_best_subpages([classifier.classify(u) for u in links])
    print("\nbest subpage per topic:")
    for row in best:
        for topic, url in sorted(row.selections.items(), key=lambda p: p[0].name):
            print(f"  {row.site:16} {topic.name:10} {url.normalized}")


if __name__ == "__main__":
    main()
