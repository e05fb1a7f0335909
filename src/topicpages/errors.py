"""Exception types raised across the pipeline.

Every error the package raises on bad input derives from PipelineError so
callers can catch one base class at stage boundaries.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class MalformedUrl(PipelineError):
    """A string could not be parsed into an absolute http(s) URL."""


class EmptyInput(PipelineError):
    """An operation that needs at least one value received none."""


class NotBimodal(PipelineError):
    """A histogram has no pair of separated modes to place a valley between."""


class DuplicateKeyword(PipelineError):
    """The same keyword appears under more than one dictionary topic."""


class EmptyTopicSet(PipelineError):
    pass


class MalformedDocument(PipelineError):
    """A dictionary or embedding document does not match its format."""


class MalformedHeader(MalformedDocument):
    pass


class DimensionMismatch(MalformedDocument):
    """An embedding row does not carry the declared number of values."""


class NoSubpaths(PipelineError):
    """Classification was asked for a URL with no path segments."""


class EmptyCandidates(PipelineError):
    pass


class EmptySample(PipelineError):
    pass


class LengthMismatch(PipelineError):
    pass


class MalformedRecord(PipelineError):
    """A crawl-log or list line does not match the record schema."""


class UnknownTopic(PipelineError):
    pass


class EmptyCorpus(PipelineError):
    pass


class KTooLarge(PipelineError):
    """More clusters requested than there are rows to cluster."""


class SingleCluster(PipelineError):
    """Silhouette needs at least two distinct clusters."""


class MissingStage(PipelineError):
    """A stage cannot run: a key it requires is unset or an upstream artifact is absent."""


class ConfigError(PipelineError):
    pass
