"""The public service layer of the GVEX reproduction.

``repro.api`` is the stable surface downstream code should program against:

* :func:`create_explainer` / :func:`available_explainers` — one string-keyed
  factory over every algorithm (GVEX and baselines alike), all conforming to
  the :class:`Explainer` protocol;
* :class:`ExplainRequest` → :class:`ExplanationResult` — typed, cacheable
  job descriptions with provenance;
* :mod:`repro.api.serialize` — versioned, lossless JSON persistence of
  views (``save_artifact`` / ``load_artifact``) plus the published schema;
* :class:`ExplanationService` — session object owning the model + database
  lifecycle, the fingerprint-keyed result cache, and the
  :class:`ServiceQuery` facade (durable when given a ``wal_dir``);
* :func:`create_server` / :func:`serve` — the ``repro serve`` JSON/HTTP
  endpoint (every route under ``/v1``), bound to any
  :class:`ServiceSurface`;
* :class:`ReplicaService` / :func:`view_signature` — the replica client
  tailing a primary's ``/v1/deltas`` stream into local read-only live
  views, and the semantic view digest both sides compare;
* :class:`ShardRouter` / :class:`ShardPlan` — the sharded multi-process
  serving tier (``repro serve --shards N``): deterministic hash placement,
  per-shard worker processes with their own WAL streams, shared-memory CSR
  snapshots, and router-side cross-shard view assembly; it plans requests
  with the same :class:`~repro.api.planner.RequestPlanner` (label,
  selection, cache key) as :class:`ExplanationService`.

The algorithm classes (``ApproxGVEX``, ``StreamGVEX``, the
``BaseExplainer`` zoo) remain importable from their concrete modules; new
code should reach them through this package.
"""

from repro.api.registry import (
    DEFAULT_REGISTRY,
    ExplainerRegistry,
    InstanceViewExplainer,
    available_explainers,
    create_explainer,
    register_explainer,
)
from repro.api.replication import ReplicaService, view_signature
from repro.api.serialize import (
    delta_from_dict,
    delta_schema,
    delta_to_dict,
    explanation_schema,
    load_artifact,
    result_from_dict,
    result_to_dict,
    save_artifact,
    validate_against_schema,
    view_from_dict,
    view_set_from_dict,
    view_set_to_dict,
    view_to_dict,
    views_equal,
)
from repro.api.server import API_VERSION, create_server, serve
from repro.api.service import ExplanationService, ServiceQuery
from repro.api.sharding import ShardPlan, ShardRouter
from repro.api.store import ViewStore
from repro.api.types import (
    SCHEMA_VERSION,
    ExplainRequest,
    ExplanationResult,
    Explainer,
    Provenance,
    ServiceSurface,
)

__all__ = [
    "API_VERSION",
    "SCHEMA_VERSION",
    "Explainer",
    "ExplainRequest",
    "ExplanationResult",
    "Provenance",
    "ServiceSurface",
    "ExplainerRegistry",
    "InstanceViewExplainer",
    "DEFAULT_REGISTRY",
    "register_explainer",
    "create_explainer",
    "available_explainers",
    "delta_to_dict",
    "delta_from_dict",
    "delta_schema",
    "view_to_dict",
    "view_from_dict",
    "view_set_to_dict",
    "view_set_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_artifact",
    "load_artifact",
    "explanation_schema",
    "validate_against_schema",
    "views_equal",
    "ViewStore",
    "ExplanationService",
    "ServiceQuery",
    "create_server",
    "serve",
    "ReplicaService",
    "view_signature",
    "ShardPlan",
    "ShardRouter",
]
