"""Classify section URLs against a topical dictionary, three ways: exact
keyword match, embedding similarity for near-miss tokens, and the "other"
bucket for everything else.

Run with:  python3 demos/02_topic_classification.py
"""

from topicpages import EmbeddingModel, Topic, TopicalDictionary, TopicClassifier, normalize

# A hand-built dictionary.  Real runs read a JSON file of the same shape with
# load_dictionary_file(), or use bundled_dictionary().
DICTIONARY = {
    Topic("sports"): ["sports", "cricket"],
    Topic("politics"): ["politics", "election"],
    Topic("business"): ["business", "economy"],
}

# A tiny hand-built embedding space.  Real runs load fastText-style vectors
# with load_embeddings_file(); the classifier only needs cosine geometry.
VECTORS = {
    "sports": [1.0, 0.0, 0.0],
    "cricket": [0.9, 0.1, 0.0],
    "football": [0.8, 0.0, 0.1],
    "politics": [0.0, 1.0, 0.0],
    "election": [0.0, 0.9, 0.1],
    "parliament": [0.1, 0.85, 0.0],
    "business": [0.0, 0.0, 1.0],
    "economy": [0.1, 0.0, 0.9],
    "horoscope": [0.2, 0.2, -0.95],
}

URLS = [
    "https://daily.example/sports/",            # exact keyword
    "https://daily.example/category/football/", # generic subpath skipped, then embedding
    "https://daily.example/parliament/",        # embedding match to politics
    "https://daily.example/economy/",           # exact keyword
    "https://daily.example/horoscope/",         # below the cosine cutoff
    "https://daily.example/xzqv/",              # out of vocabulary
]


def main() -> None:
    dictionary = TopicalDictionary(DICTIONARY, generic_subpaths=["topics", "category"])
    model = EmbeddingModel(3, VECTORS)

    classifier = TopicClassifier(dictionary, model)

    print(f"{'url':44} {'topic':10} {'method':10} score   matched")
    for raw in URLS:
        a = classifier.classify(normalize(raw))
        matched = a.matched_subpath or "-"
        print(f"{raw:44} {a.topic.name:10} {a.method:10} {a.score:.3f}   {matched}")

    # Tightening the cutoff pushes borderline embedding matches into "other".
    strict = TopicClassifier(dictionary, model, cutoff=0.999).classify(normalize(URLS[2]))
    print(f"\nwith cutoff=0.999 {URLS[2]} -> {strict.topic.name} ({strict.method})")


if __name__ == "__main__":
    main()
