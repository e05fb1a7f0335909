"""Topical section-page discovery and analysis for news sites.

The package walks a site list from homepage snapshots to per-topic section
pages, then measures third-party tracking and page content across topics.
"""

from .classify import (
    BestSubpages,
    TopicAssignment,
    TopicClassifier,
    dictionary_assist,
)
from .cluster import (
    ClusterReport,
    KmeansResult,
    PcaModel,
    cluster_report,
    gap_statistic,
    kmeans,
    model_select,
    pca_fit,
    silhouette,
)
from .config import PipelineConfig, load_config
from .content import (
    ContentMatrix,
    TopicDocument,
    detect_english,
    extract_text,
    preprocess,
    read_page,
    tfidf,
)
from .dictionary import Topic, TopicalDictionary, bundled_dictionary, load_dictionary_file
from .embeddings import (
    EmbeddingModel,
    combined_embedding,
    cosine,
    load_embeddings_file,
    tokenize_subpath,
)
from .errors import PipelineError
from .fetch import FetchResult, fetch_all, fetch_missing, fetch_one, save_snapshots
from .pipeline import Runner, run_pipeline
from .stats import cohens_kappa, ks_two_sample, summary
from .stemmer import stem
from .stopwords import DEFAULT_STOPWORDS, load_stopwords
from .thresholds import (
    DEFAULT_BUCKET_SIZES,
    DEFAULT_THRESHOLDS,
    Thresholds,
    build_histogram,
    filter_subpages,
    find_bimodal_threshold,
    fit_url_histograms,
    url_histograms,
)
from .tracking import (
    TrackingMatrix,
    build_tracking_matrix,
    categorize,
    category_breakdown,
    cookie_stats_by_topic,
    load_disconnect_file,
    percent_diff_vs_homepage,
    preferential_attachment,
    read_crawl_log,
    top_tp_coverage,
)
from .urls import PageUrl, normalize, partition_links, registrable_domain, url_metrics

__version__ = "0.1.0"

__all__ = [
    "BestSubpages",
    "ClusterReport",
    "ContentMatrix",
    "DEFAULT_BUCKET_SIZES",
    "DEFAULT_STOPWORDS",
    "DEFAULT_THRESHOLDS",
    "EmbeddingModel",
    "FetchResult",
    "KmeansResult",
    "PageUrl",
    "PcaModel",
    "PipelineConfig",
    "PipelineError",
    "Runner",
    "Thresholds",
    "Topic",
    "TopicAssignment",
    "TopicClassifier",
    "TopicDocument",
    "TopicalDictionary",
    "TrackingMatrix",
    "build_histogram",
    "build_tracking_matrix",
    "bundled_dictionary",
    "categorize",
    "category_breakdown",
    "cluster_report",
    "cohens_kappa",
    "combined_embedding",
    "cookie_stats_by_topic",
    "cosine",
    "detect_english",
    "dictionary_assist",
    "extract_text",
    "fetch_all",
    "fetch_missing",
    "fetch_one",
    "filter_subpages",
    "find_bimodal_threshold",
    "fit_url_histograms",
    "gap_statistic",
    "kmeans",
    "ks_two_sample",
    "load_config",
    "load_dictionary_file",
    "load_disconnect_file",
    "load_embeddings_file",
    "load_stopwords",
    "model_select",
    "normalize",
    "partition_links",
    "pca_fit",
    "percent_diff_vs_homepage",
    "preferential_attachment",
    "preprocess",
    "read_crawl_log",
    "read_page",
    "registrable_domain",
    "run_pipeline",
    "save_snapshots",
    "silhouette",
    "stem",
    "summary",
    "tfidf",
    "tokenize_subpath",
    "top_tp_coverage",
    "url_histograms",
    "url_metrics",
]
