"""Versioned, lossless JSON (de)serialisation of explanation artifacts.

Explanation views are the paper's durable product — "stored and queried
downstream" — so this module gives every view shape a schema-versioned JSON
round trip:

* :func:`view_to_dict` / :func:`view_from_dict` — one
  :class:`~repro.core.explanation.ExplanationView` with its patterns,
  subgraphs, and (by default) the *embedded source graphs*, so a file is
  self-contained and reloads losslessly with no database at hand;
* :func:`result_to_dict` / :func:`result_from_dict` — a view plus its
  :class:`~repro.api.types.Provenance` (the service's cache unit);
* :func:`save_artifact` / :func:`load_artifact` — envelope files with a
  ``schema_version`` and a ``kind`` tag, the on-disk format of the view
  store, the CLI, and the HTTP endpoint;
* :func:`explanation_schema` — the published JSON schema of those
  envelopes (a CI artifact), with :func:`validate_against_schema`, a small
  dependency-free structural validator used by the tests and the smoke
  checks.

Losslessness contract (asserted by the round-trip tests): node sets, labels,
explainability/metric floats, pattern structure, verification flags, and
provenance survive ``from_dict(to_dict(x))`` exactly.  Floats are exact
because JSON carries them as shortest-repr doubles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.api.types import SCHEMA_VERSION, ExplanationResult, Provenance
from repro.core.explanation import ExplanationSubgraph, ExplanationView, ExplanationViewSet
from repro.exceptions import ExplanationError
from repro.graphs.database import DatabaseDelta
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern

__all__ = [
    "DELTA_KIND",
    "delta_to_dict",
    "delta_from_dict",
    "delta_schema",
    "subgraph_to_dict",
    "subgraph_from_dict",
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
]


# ----------------------------------------------------------------------
# database deltas (the WAL / replication wire format)
# ----------------------------------------------------------------------
#: ``kind`` tag of a serialised :class:`~repro.graphs.database.DatabaseDelta`.
DELTA_KIND = "database_delta"


def delta_to_dict(delta: DatabaseDelta) -> dict[str, Any]:
    """Lossless envelope form of one database delta.

    This is the single wire/disk format shared by the write-ahead log, the
    ``/v1/deltas`` replication endpoint, and the replica client: the same
    ``schema_version`` + ``kind`` envelope as explanation artifacts, with the
    affected graph embedded for adds and removals so a consumer can apply the
    mutation with no other state at hand.
    """
    return _envelope(
        DELTA_KIND,
        {
            "kind": delta.kind,
            "graph_id": delta.graph_id,
            "version": delta.version,
            "label": delta.label,
            "old_label": delta.old_label,
            "graph": None if delta.graph is None else delta.graph.to_dict(),
        },
    )


def delta_from_dict(envelope: dict[str, Any]) -> DatabaseDelta:
    """Inverse of :func:`delta_to_dict` (envelope- and version-checked)."""
    version = envelope.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ExplanationError(
            f"unsupported delta schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    if envelope.get("kind") != DELTA_KIND:
        raise ExplanationError(
            f"expected a {DELTA_KIND!r} envelope, got kind {envelope.get('kind')!r}"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise ExplanationError("delta envelope has no payload object")
    graph_payload = payload.get("graph")
    return DatabaseDelta(
        kind=payload["kind"],
        graph_id=payload.get("graph_id"),
        version=payload["version"],
        label=payload.get("label"),
        old_label=payload.get("old_label"),
        graph=None if graph_payload is None else Graph.from_dict(graph_payload),
    )


def delta_schema() -> dict[str, Any]:
    """JSON schema of serialised database deltas (the replication format)."""
    graph_schema = explanation_schema()["definitions"]["graph"]
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "repro database delta",
        "description": (
            "Envelope for one serialised GraphDatabase mutation — the record "
            "format of the write-ahead log and the /v1/deltas replication "
            "stream."
        ),
        "type": "object",
        "required": ["schema_version", "kind", "payload"],
        "properties": {
            "schema_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
            "kind": {"type": "string", "enum": [DELTA_KIND]},
            "payload": {
                "type": "object",
                "required": ["kind", "version"],
                "properties": {
                    "kind": {"type": "string", "enum": ["add", "remove", "relabel"]},
                    "graph_id": {"type": ["integer", "null"]},
                    "version": {"type": "integer"},
                    "label": {"type": ["integer", "null"]},
                    "old_label": {"type": ["integer", "null"]},
                    "graph": {"anyOf": [graph_schema, {"type": "null"}]},
                },
            },
        },
    }


# ----------------------------------------------------------------------
# subgraphs
# ----------------------------------------------------------------------
def subgraph_to_dict(
    subgraph: ExplanationSubgraph, *, include_source: bool = True
) -> dict[str, Any]:
    """JSON-safe form of one explanation subgraph.

    ``include_source=True`` embeds the full source graph so the payload is
    self-contained; pass ``False`` when the consumer resolves graphs from a
    shared database by id (smaller files).
    """
    payload = subgraph.to_dict()
    if include_source:
        payload["source_graph"] = subgraph.source_graph.to_dict()
    return payload


def subgraph_from_dict(
    payload: dict[str, Any],
    *,
    graphs_by_id: dict[int | None, Graph] | None = None,
) -> ExplanationSubgraph:
    """Inverse of :func:`subgraph_to_dict`.

    The source graph is resolved from ``graphs_by_id`` when possible (so
    subgraphs loaded next to their database share graph objects), falling
    back to the embedded copy.
    """
    graph_id = payload.get("source_graph_id")
    source = (graphs_by_id or {}).get(graph_id)
    if source is None:
        embedded = payload.get("source_graph")
        if embedded is None:
            raise ExplanationError(
                f"cannot reconstruct explanation subgraph: source graph "
                f"{graph_id!r} is neither embedded nor resolvable from the "
                "provided database"
            )
        source = Graph.from_dict(embedded)
    return ExplanationSubgraph.from_dict(payload, source)


# ----------------------------------------------------------------------
# views and view sets
# ----------------------------------------------------------------------
def view_to_dict(view: ExplanationView, *, include_source: bool = True) -> dict[str, Any]:
    """JSON-safe form of one two-tier explanation view."""
    return {
        "label": view.label,
        "explainability": view.explainability,
        "patterns": [pattern.to_dict() for pattern in view.patterns],
        "subgraphs": [
            subgraph_to_dict(subgraph, include_source=include_source)
            for subgraph in view.subgraphs
        ],
        "metadata": dict(view.metadata),
    }


def view_from_dict(
    payload: dict[str, Any],
    *,
    graphs_by_id: dict[int | None, Graph] | None = None,
) -> ExplanationView:
    """Inverse of :func:`view_to_dict`."""
    return ExplanationView(
        label=payload["label"],
        patterns=[GraphPattern.from_dict(p) for p in payload.get("patterns", [])],
        subgraphs=[
            subgraph_from_dict(s, graphs_by_id=graphs_by_id)
            for s in payload.get("subgraphs", [])
        ],
        explainability=payload.get("explainability", 0.0),
        metadata=dict(payload.get("metadata", {})),
    )


def view_set_to_dict(views: ExplanationViewSet, *, include_source: bool = True) -> dict[str, Any]:
    """JSON-safe form of a per-label view collection."""
    return {"views": [view_to_dict(view, include_source=include_source) for view in views]}


def view_set_from_dict(
    payload: dict[str, Any],
    *,
    graphs_by_id: dict[int | None, Graph] | None = None,
) -> ExplanationViewSet:
    """Inverse of :func:`view_set_to_dict`."""
    return ExplanationViewSet(
        [view_from_dict(v, graphs_by_id=graphs_by_id) for v in payload.get("views", [])]
    )


# ----------------------------------------------------------------------
# results (view + provenance)
# ----------------------------------------------------------------------
def result_to_dict(result: ExplanationResult, *, include_source: bool = True) -> dict[str, Any]:
    """JSON-safe form of a service result (view + provenance).

    The degradation flags are serialized *additively* — only when set — so
    healthy results keep the exact golden-file shape of earlier schema
    revisions.
    """
    payload = {
        "provenance": result.provenance.to_dict(),
        "view": view_to_dict(result.view, include_source=include_source),
    }
    if result.degraded:
        payload["degraded"] = True
        payload["missing_shards"] = list(result.missing_shards)
    return payload


def result_from_dict(
    payload: dict[str, Any],
    *,
    graphs_by_id: dict[int | None, Graph] | None = None,
) -> ExplanationResult:
    """Inverse of :func:`result_to_dict`."""
    return ExplanationResult(
        view=view_from_dict(payload["view"], graphs_by_id=graphs_by_id),
        provenance=Provenance.from_dict(payload["provenance"]),
        degraded=bool(payload.get("degraded", False)),
        missing_shards=tuple(payload.get("missing_shards", ())),
    )


# ----------------------------------------------------------------------
# envelope files
# ----------------------------------------------------------------------
_KINDS = ("explanation_view", "explanation_view_set", "explanation_result", "explanation_results")


def _envelope(kind: str, payload: Any) -> dict[str, Any]:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def save_artifact(
    artifact: ExplanationView | ExplanationViewSet | ExplanationResult | list[ExplanationResult],
    path: str | Path,
    *,
    include_source: bool = True,
) -> Path:
    """Write any explanation artifact as a versioned JSON envelope file."""
    if isinstance(artifact, ExplanationView):
        envelope = _envelope("explanation_view", view_to_dict(artifact, include_source=include_source))
    elif isinstance(artifact, ExplanationViewSet):
        envelope = _envelope(
            "explanation_view_set", view_set_to_dict(artifact, include_source=include_source)
        )
    elif isinstance(artifact, ExplanationResult):
        envelope = _envelope(
            "explanation_result", result_to_dict(artifact, include_source=include_source)
        )
    elif isinstance(artifact, list) and all(isinstance(r, ExplanationResult) for r in artifact):
        envelope = _envelope(
            "explanation_results",
            [result_to_dict(r, include_source=include_source) for r in artifact],
        )
    else:
        raise ExplanationError(
            f"cannot serialise object of type {type(artifact).__name__}; expected an "
            "ExplanationView, ExplanationViewSet, ExplanationResult, or a list of results"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(
    path: str | Path,
    *,
    graphs_by_id: dict[int | None, Graph] | None = None,
) -> ExplanationView | ExplanationViewSet | ExplanationResult | list[ExplanationResult]:
    """Load any envelope written by :func:`save_artifact` (version-checked)."""
    envelope = json.loads(Path(path).read_text())
    version = envelope.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ExplanationError(
            f"unsupported explanation schema version {version!r} in {path} "
            f"(this build reads version {SCHEMA_VERSION}); re-generate the file "
            "or upgrade the library"
        )
    kind = envelope.get("kind")
    payload = envelope.get("payload")
    if kind == "explanation_view":
        return view_from_dict(payload, graphs_by_id=graphs_by_id)
    if kind == "explanation_view_set":
        return view_set_from_dict(payload, graphs_by_id=graphs_by_id)
    if kind == "explanation_result":
        return result_from_dict(payload, graphs_by_id=graphs_by_id)
    if kind == "explanation_results":
        return [result_from_dict(r, graphs_by_id=graphs_by_id) for r in payload]
    raise ExplanationError(f"unknown artifact kind {kind!r} in {path}; expected one of {_KINDS}")


# ----------------------------------------------------------------------
# the published schema + a dependency-free validator
# ----------------------------------------------------------------------
def explanation_schema() -> dict[str, Any]:
    """The JSON schema of serialised explanation artifacts (published by CI).

    Draft-07-compatible structurally, but consumed by the in-repo
    :func:`validate_against_schema` so the test suite needs no external
    ``jsonschema`` dependency.
    """
    graph_schema = {
        "type": "object",
        "required": ["nodes", "edges"],
        "properties": {
            "graph_id": {"type": ["integer", "null"]},
            "nodes": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["id", "type"],
                    "properties": {
                        "id": {"type": "integer"},
                        "type": {"type": "string"},
                        "features": {
                            "type": ["array", "null"],
                            "items": {"type": "number"},
                        },
                    },
                },
            },
            "edges": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["u", "v"],
                    "properties": {
                        "u": {"type": "integer"},
                        "v": {"type": "integer"},
                        "type": {"type": "string"},
                    },
                },
            },
        },
    }
    pattern_schema = {
        **graph_schema,
        "properties": {
            **graph_schema["properties"],
            "pattern_id": {"type": ["integer", "null"]},
        },
    }
    subgraph_schema = {
        "type": "object",
        "required": ["source_graph_id", "nodes", "label"],
        "properties": {
            "source_graph_id": {"type": ["integer", "null"]},
            "nodes": {"type": "array", "items": {"type": "integer"}},
            "label": {"type": "integer"},
            "explainability": {"type": "number"},
            "consistent": {"type": ["boolean", "null"]},
            "counterfactual": {"type": ["boolean", "null"]},
            "source_graph": graph_schema,
        },
    }
    view_schema = {
        "type": "object",
        "required": ["label", "patterns", "subgraphs"],
        "properties": {
            "label": {"type": "integer"},
            "explainability": {"type": "number"},
            "patterns": {"type": "array", "items": pattern_schema},
            "subgraphs": {"type": "array", "items": subgraph_schema},
            "metadata": {"type": "object"},
        },
    }
    provenance_schema = {
        "type": "object",
        "required": [
            "algorithm",
            "label",
            "config_fingerprint",
            "request_fingerprint",
            "runtime_seconds",
            "backend",
            "num_graphs",
        ],
        "properties": {
            "algorithm": {"type": "string"},
            "label": {"type": "integer"},
            "config_fingerprint": {"type": "string"},
            "request_fingerprint": {"type": "string"},
            "runtime_seconds": {"type": "number"},
            "backend": {"type": "string", "enum": ["sparse", "legacy"]},
            "num_graphs": {"type": "integer"},
            "dataset": {"type": ["string", "null"]},
            "cache_hit": {"type": "boolean"},
            "schema_version": {"type": "integer"},
        },
    }
    result_schema = {
        "type": "object",
        "required": ["provenance", "view"],
        "properties": {"provenance": provenance_schema, "view": view_schema},
    }
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "repro explanation artifact",
        "description": (
            "Envelope for serialised GVEX explanation artifacts: a two-tier "
            "explanation view (patterns + witness subgraphs), a per-label view "
            "set, or a service result carrying provenance."
        ),
        "type": "object",
        "required": ["schema_version", "kind", "payload"],
        "properties": {
            "schema_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
            "kind": {"type": "string", "enum": list(_KINDS)},
            "payload": {
                "anyOf": [
                    view_schema,
                    {
                        "type": "object",
                        "required": ["views"],
                        "properties": {"views": {"type": "array", "items": view_schema}},
                    },
                    result_schema,
                    {"type": "array", "items": result_schema},
                ]
            },
        },
        "definitions": {
            "graph": graph_schema,
            "pattern": pattern_schema,
            "subgraph": subgraph_schema,
            "view": view_schema,
            "provenance": provenance_schema,
            "result": result_schema,
        },
    }


_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def validate_against_schema(payload: Any, schema: dict[str, Any], path: str = "$") -> list[str]:
    """Structural validation against the subset of JSON Schema used here.

    Supports ``type`` (including type lists), ``required``, ``properties``,
    ``items``, ``enum``, and ``anyOf`` — exactly what
    :func:`explanation_schema` uses.  Returns a list of human-readable
    violations (empty when the payload conforms).
    """
    errors: list[str] = []
    if "anyOf" in schema:
        candidates = [
            validate_against_schema(payload, option, path) for option in schema["anyOf"]
        ]
        if not any(not candidate for candidate in candidates):
            flattened = "; ".join(candidate[0] for candidate in candidates if candidate)
            errors.append(f"{path}: no anyOf branch matched ({flattened})")
        return errors
    declared = schema.get("type")
    if declared is not None:
        allowed = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](payload) for t in allowed):
            errors.append(
                f"{path}: expected type {'/'.join(allowed)}, got {type(payload).__name__}"
            )
            return errors
    if "enum" in schema and payload not in schema["enum"]:
        errors.append(f"{path}: value {payload!r} not in enum {schema['enum']!r}")
    if isinstance(payload, dict):
        for key in schema.get("required", []):
            if key not in payload:
                errors.append(f"{path}: missing required key '{key}'")
        for key, sub_schema in schema.get("properties", {}).items():
            if key in payload:
                errors.extend(validate_against_schema(payload[key], sub_schema, f"{path}.{key}"))
    if isinstance(payload, list) and "items" in schema:
        for index, item in enumerate(payload):
            errors.extend(
                validate_against_schema(item, schema["items"], f"{path}[{index}]")
            )
    return errors


# ----------------------------------------------------------------------
# structural equality (the round-trip tests' oracle)
# ----------------------------------------------------------------------
def views_equal(first: ExplanationView, second: ExplanationView) -> bool:
    """Lossless-identity check: labels, metrics, node sets, patterns, graphs.

    Used by the round-trip tests and the service's cache sanity checks; two
    views are equal when every queryable property — including the embedded
    source graphs — matches exactly.
    """
    if first.label != second.label or first.explainability != second.explainability:
        return False
    if first.metadata != second.metadata:
        return False
    if len(first.subgraphs) != len(second.subgraphs):
        return False
    for left, right in zip(first.subgraphs, second.subgraphs):
        if (
            sorted(left.nodes) != sorted(right.nodes)
            or left.label != right.label
            or left.explainability != right.explainability
            or left.consistent != right.consistent
            or left.counterfactual != right.counterfactual
            or left.source_graph.to_dict() != right.source_graph.to_dict()
        ):
            return False
    if [p.to_dict() for p in first.patterns] != [p.to_dict() for p in second.patterns]:
        return False
    return True
