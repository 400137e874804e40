"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch a single base class when they want
to distinguish library failures from programming mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for invalid graph construction or manipulation."""


class NodeNotFoundError(GraphError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id!r} is not in the graph")
        self.node_id = node_id


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class DatasetError(ReproError):
    """Raised when a dataset cannot be built or looked up."""


class ModelError(ReproError):
    """Raised for invalid GNN model configuration or usage."""


class NotFittedError(ModelError):
    """Raised when inference is attempted on a model that was never trained."""


class ConfigurationError(ReproError):
    """Raised when an explanation configuration is inconsistent."""


class ExplanationError(ReproError):
    """Raised when an explanation cannot be produced under the constraints."""


class WALError(ReproError):
    """Raised when the write-ahead log is corrupt or used inconsistently."""


class ReplicationError(ReproError):
    """Raised when a replica cannot follow its primary."""


class ReplicationGapError(ReplicationError):
    """Raised when the delta stream cannot cover the requested range.

    A replica receiving this must fall back to a full snapshot re-sync:
    neither the primary's bounded in-memory log nor its WAL retains the
    deltas between the replica's version and the primary's head.
    """


class MiningError(ReproError):
    """Raised for invalid pattern mining requests."""


class FaultInjected(ReproError):
    """Raised by an armed fault-injection point (:mod:`repro.core.faults`).

    Never raised in production operation: a :class:`FaultInjected` in a
    traceback always means a fault plan was activated (via
    ``Configuration(fault_plan=...)`` or ``REPRO_FAULT_PLAN``) and one of
    its rules fired.
    """

    def __init__(self, message: str, *, point: str = "") -> None:
        super().__init__(message)
        self.point = point


class ShardDownError(ExplanationError):
    """Raised when a shard cannot serve a request right now.

    Carries the shard index and a ``retry_after`` hint (seconds) so the
    HTTP layer can answer ``503`` with a ``Retry-After`` header.  Subclasses
    :class:`ExplanationError` so existing fail-loud handling keeps working.
    """

    def __init__(self, message: str, *, shard: int, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.shard = shard
        self.retry_after = retry_after


class PoisonRequestError(ExplanationError):
    """Raised for a request quarantined after repeatedly killing its worker.

    The router answers it as a structured error instead of letting the same
    request crash-loop a shard; ``fingerprint`` identifies the quarantined
    request shape.
    """

    def __init__(self, message: str, *, fingerprint: str = "") -> None:
        super().__init__(message)
        self.fingerprint = fingerprint
