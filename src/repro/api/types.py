"""Typed request/response shapes of the unified explanation API.

The paper's explanation views are designed to be *stored and queried
downstream*, so the API layer trades the algorithm-specific call shapes
(``ApproxGVEX.explain_label``, ``BaseExplainer.explain_instance``, ...) for
one request → result contract:

* :class:`ExplainRequest` — everything needed to (re)produce a view: the
  algorithm name, the label, the :class:`~repro.core.config.Configuration`,
  and the graph selection.  Requests are hashable and carry a stable
  :meth:`~ExplainRequest.fingerprint` so results can be cached and replayed.
* :class:`Provenance` — where a result came from: dataset, algorithm,
  config fingerprint, runtime, backend, schema version.
* :class:`ExplanationResult` — a view plus its provenance; the durable unit
  the service caches, serialises, and serves.
* :class:`Explainer` — the structural protocol every registry entry
  satisfies.  ``ApproxGVEX`` and ``StreamGVEX`` conform natively; the
  instance-level baselines conform through
  :class:`~repro.api.registry.InstanceViewExplainer`.
* :class:`ServiceSurface` — the protocol the HTTP server binds to, which
  :class:`~repro.api.service.ExplanationService` and
  :class:`~repro.api.sharding.ShardRouter` both implement.

``SCHEMA_VERSION`` stamps every wire envelope ``repro.api.serialize``
emits — view/result artifacts *and* the durability formats that reuse the
same versioning: the ``database_delta`` envelope shared by the write-ahead
log and ``GET /v1/deltas``, and the ``replica_bootstrap`` snapshot.  Bump
it whenever any of those payload shapes changes incompatibly; the golden
files under ``tests/data/`` pin the current shapes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.core.config import Configuration
from repro.core.explanation import (
    ExplanationRow,
    ExplanationSubgraph,
    ExplanationView,
    ExplanationViewSet,
)
from repro.exceptions import ExplanationError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph

if TYPE_CHECKING:
    from repro.api.service import ServiceQuery

__all__ = [
    "SCHEMA_VERSION",
    "ExplainRequest",
    "Provenance",
    "ExplanationResult",
    "Explainer",
    "ServiceSurface",
]

# Version of the serialised explanation artifacts (views, results, stores).
# Bump on any incompatible change to the JSON layout in
# :mod:`repro.api.serialize` and keep a loader for every historical version.
SCHEMA_VERSION = 1


@runtime_checkable
class Explainer(Protocol):
    """What every algorithm behind :func:`repro.api.create_explainer` offers.

    The two GVEX algorithms satisfy this protocol as-is; baselines are
    adapted.  ``explain_label`` is the view-producing entry point (the unit
    of caching and serving) and is ``assemble(explain_rows(...))`` in every
    implementation: ``explain_rows`` computes one
    :class:`~repro.core.explanation.ExplanationRow` per graph (on the shards,
    in the sharded tier) and ``assemble`` builds the view from every row once
    (on the router, which builds one explainer per request for it, so
    construction must stay cheap).  ``explain_instance`` is the single-graph
    convenience used by the comparison experiments.
    """

    model: Any

    def explain_rows(self, graphs: Sequence[Graph], label: int) -> list[ExplanationRow]:
        """One row per graph of the label group, in input order."""
        ...

    def assemble(self, rows: Iterable[ExplanationRow], label: int, start: float) -> ExplanationView:
        """The view over ``rows``; ``runtime_seconds`` counts from the
        ``perf_counter`` time ``start``, except that a stream view sums its
        rows' streaming cost."""
        ...

    def explain_label(self, graphs: Sequence[Graph], label: int) -> ExplanationView:
        """Two-tier explanation view for one label group."""
        ...

    def explain_instance(self, graph: Graph) -> ExplanationSubgraph:
        """Explanation subgraph for a single graph (model-assigned label)."""
        ...


@dataclass(frozen=True)
class ExplainRequest:
    """A declarative, cacheable description of one explanation job.

    Parameters
    ----------
    algorithm:
        Registry name of the explainer (``"approx"``, ``"stream"``,
        ``"gnnexplainer"``, ...).
    label:
        The class label to explain.  ``None`` lets the service pick the
        first predicted label of the selected graphs.
    config:
        The full GVEX configuration; its
        :meth:`~repro.core.config.Configuration.fingerprint` is part of the
        cache key, so any parameter change produces a fresh view.
    max_nodes:
        Convenience override of the configuration's default upper coverage
        bound ``u_l`` (the knob every baseline shares).
    graph_ids:
        Restrict the job to these graph ids; ``None`` means the whole
        database.
    limit:
        Cap on the number of graphs explained (applied after the label
        filter), mirroring the experiment runners' ``graphs_per_point``.
    """

    algorithm: str = "approx"
    label: int | None = None
    config: Configuration = field(default_factory=Configuration)
    max_nodes: int | None = None
    graph_ids: tuple[int, ...] | None = None
    limit: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ExplanationError("ExplainRequest.algorithm must be a non-empty string")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ExplanationError(
                f"ExplainRequest.max_nodes must be at least 1, got {self.max_nodes}; "
                "leave it None to use the configuration's coverage bound"
            )
        if self.limit is not None and self.limit < 1:
            raise ExplanationError(
                f"ExplainRequest.limit must be at least 1, got {self.limit}"
            )
        if self.graph_ids is not None and not isinstance(self.graph_ids, tuple):
            # Accept any sequence but store a hashable tuple.
            object.__setattr__(self, "graph_ids", tuple(self.graph_ids))

    def effective_config(self) -> Configuration:
        """The configuration with the ``max_nodes`` override folded in."""
        if self.max_nodes is None:
            return self.config
        return self.config.with_max_nodes(self.max_nodes)

    def with_label(self, label: int) -> "ExplainRequest":
        """A copy of the request pinned to a concrete label."""
        return replace(self, label=label)

    def canonical_dict(self) -> dict[str, Any]:
        """Stable JSON-friendly form used for fingerprints and provenance."""
        return {
            "algorithm": self.algorithm,
            "label": self.label,
            "config": self.effective_config().canonical_dict(),
            "graph_ids": list(self.graph_ids) if self.graph_ids is not None else None,
            "limit": self.limit,
        }

    def fingerprint(self) -> str:
        """Stable 16-hex-digit hash identifying the job (the cache key)."""
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Provenance:
    """Where an :class:`ExplanationResult` came from.

    Recorded at generation time and preserved through serialisation, so a
    view loaded from disk months later still knows which dataset, algorithm,
    configuration, and backend produced it.
    """

    algorithm: str
    label: int
    config_fingerprint: str
    request_fingerprint: str
    runtime_seconds: float
    #: Always ``"sparse"`` when produced; the schema also accepts
    #: ``"legacy"`` so stored, WAL'd and replicated payloads keep loading.
    backend: str
    num_graphs: int
    dataset: str | None = None
    cache_hit: bool = False
    schema_version: int = SCHEMA_VERSION
    #: Estimator record for ``Configuration(objective="sampled")`` results:
    #: the knobs plus the *achieved* error bound and how many graphs were
    #: actually sampled vs served exactly (see
    #: :func:`repro.core.sampling.estimator_summary`).  ``None`` on exact
    #: results, and serialized additively (only when set), so the golden
    #: artifact shapes of exact runs are unchanged.
    estimator: dict | None = None

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "algorithm": self.algorithm,
            "label": self.label,
            "config_fingerprint": self.config_fingerprint,
            "request_fingerprint": self.request_fingerprint,
            "runtime_seconds": self.runtime_seconds,
            "backend": self.backend,
            "num_graphs": self.num_graphs,
            "dataset": self.dataset,
            "cache_hit": self.cache_hit,
            "schema_version": self.schema_version,
        }
        if self.estimator is not None:
            payload["estimator"] = self.estimator
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Provenance":
        return cls(
            algorithm=payload["algorithm"],
            label=payload["label"],
            config_fingerprint=payload["config_fingerprint"],
            request_fingerprint=payload["request_fingerprint"],
            runtime_seconds=payload["runtime_seconds"],
            backend=payload["backend"],
            num_graphs=payload["num_graphs"],
            dataset=payload.get("dataset"),
            cache_hit=payload.get("cache_hit", False),
            schema_version=payload.get("schema_version", SCHEMA_VERSION),
            estimator=payload.get("estimator"),
        )


@dataclass
class ExplanationResult:
    """A generated explanation view plus its provenance.

    This is the unit the :class:`~repro.api.service.ExplanationService`
    caches (in memory and on disk) and the ``repro serve`` endpoint ships
    over the wire.
    """

    view: ExplanationView
    provenance: Provenance
    #: Degradation flags set by the sharded tier under
    #: ``Configuration(degraded_reads=True)``: a degraded result covers only
    #: the shards that answered, with the down ones listed.  Always
    #: ``False``/empty on the single-process service, on healthy fan-outs,
    #: and on anything served from cache (degraded results are never
    #: cached).  Serialized additively (only when set), so the golden
    #: artifact shapes are unchanged.
    degraded: bool = False
    missing_shards: tuple[int, ...] = ()

    @property
    def label(self) -> int:
        return self.provenance.label

    def marked_cached(self) -> "ExplanationResult":
        """A copy whose provenance records that it was served from cache."""
        return ExplanationResult(
            view=self.view, provenance=replace(self.provenance, cache_hit=True)
        )


@runtime_checkable
class ServiceSurface(Protocol):
    """What :mod:`repro.api.server` binds to.

    Exactly the members the server reaches, directly or through the
    :class:`~repro.api.service.ServiceQuery` that ``query()`` returns.
    :class:`~repro.api.service.ExplanationService` and
    :class:`~repro.api.sharding.ShardRouter` implement it; a
    :class:`~repro.api.replication.ReplicaService` serves through its inner
    ``ExplanationService``.
    """

    database: GraphDatabase
    model: Any

    def explain(
        self,
        request: ExplainRequest | None = None,
        *,
        algorithm: str = "approx",
        label: int | None = None,
        max_nodes: int | None = None,
        config: Configuration | None = None,
        graph_ids: Sequence[int] | None = None,
        limit: int | None = None,
    ) -> ExplanationResult: ...

    def ingest(
        self, graph: Graph, label: int | None = None, *, graph_id: int | None = None
    ) -> dict[str, Any]: ...

    def remove(self, graph_id: int) -> dict[str, Any]: ...

    def relabel(self, graph_id: int, label: int) -> dict[str, Any]: ...

    def enable_live_views(self) -> Any: ...

    def live_views(self) -> ExplanationViewSet: ...

    def view_set(self) -> ExplanationViewSet: ...

    def results(self) -> list[ExplanationResult]: ...

    def query(self) -> ServiceQuery: ...

    def stats(self) -> dict[str, Any]: ...

    def delta_feed(self, since: int) -> dict[str, Any]: ...

    def replication_snapshot(self) -> dict[str, Any]: ...
