"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch a single base class at API
boundaries while still being able to discriminate specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DataError(ReproError):
    """A dataset, sequence, or event log is malformed or inconsistent."""


class VocabularyError(DataError):
    """An id was looked up that the vocabulary does not contain."""


class SplitError(DataError):
    """A train/test split request cannot be satisfied."""


class FeatureError(ReproError):
    """A behavioural feature is misconfigured or queried out of range."""


class StoreError(ReproError):
    """A history store was misused or its arena layout is inconsistent."""


class SamplingError(ReproError):
    """Training-quadruple sampling cannot proceed (e.g. no candidates)."""


class ModelError(ReproError):
    """A model is used before fitting or configured inconsistently."""


class NotFittedError(ModelError):
    """A recommender was asked to predict before :meth:`fit` was called."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""


class CheckpointError(ReproError):
    """A training checkpoint is missing, corrupt, or incompatible."""


class EvaluationError(ReproError):
    """The evaluation protocol received inconsistent inputs."""


class ExperimentError(ReproError):
    """An experiment runner was misconfigured or referenced unknown ids."""


class OnlineError(ReproError):
    """Raised for online-learning failures (``repro.online``)."""


class ServingError(ReproError):
    """The online serving layer received an invalid request or reply."""


class ServingUnavailableError(ServingError):
    """A serving endpoint could not be reached (or timed out).

    Distinct from :class:`ServingError` proper — the request never
    produced a server-side answer, so (idempotent) retries are safe.
    Raised by :class:`~repro.serving.client.ServingClient` for
    connection failures and timeouts, and by the cluster router when a
    shard stays unreachable past its retry budget.
    """
