"""Exception types raised across the pipeline.

Every error the package raises on bad input is a PipelineError, so callers can
catch one base class at stage boundaries.  A subclass exists only where a caller
acts on it apart from the rest, and its docstring names that caller.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PipelineError):
    """A fault in the configuration: the CLI exits with code 2."""


class MissingStage(PipelineError):
    """A required key is unset or an upstream file is absent: run_pipeline skips the stage."""


class MalformedUrl(PipelineError):
    """Not an absolute http(s) URL: partition_links counts the href as skipped."""


class NotBimodal(PipelineError):
    """A histogram has no two separated modes: fit_url_histograms may fall back to defaults."""


class KTooLarge(PipelineError):
    """More clusters than distinct rows to cluster: model_select records the cell as
    failed, and the cluster stage raises it for its one cell."""

