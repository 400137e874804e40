"""Replica side of the primary/replica topology: tail ``/v1/deltas``, serve reads.

A :class:`ReplicaService` points at a running primary (``repro serve``) and
maintains a local, read-only mirror of its explanation state:

1. **Bootstrap** — ``GET /v1/replica/bootstrap`` ships the primary's full
   database, the trained model's architecture + exact weights (JSON carries
   doubles losslessly, so the replica's forward passes are bit-identical),
   and the configuration.  The replica reconstructs a local
   :class:`~repro.api.service.ExplanationService` with live views enabled.
2. **Tail** — ``GET /v1/deltas?since=<version>`` streams the primary's
   mutations as ``database_delta`` envelopes (the same codec the WAL
   persists).  Each delta is applied through the local service surface, so
   the replica's :class:`~repro.core.maintenance.ViewMaintainer` repairs its
   views incrementally, exactly as the primary's did.
3. **Gap handling** — when the primary answers **410 Gone** (its bounded
   in-memory log dropped the range and no WAL covers it), the replica falls
   back to a full snapshot re-sync: one fresh bootstrap, counted in
   :attr:`ReplicaService.resyncs`.

Because streaming is deterministic given identical weights, graphs and
arrival order, a caught-up replica's maintained views are *semantically
identical* to the primary's — :func:`view_signature` (also served by the
primary's ``/v1/live``) is the canonical digest both sides compare, covering
labels, explainability, witness node sets and patterns while excluding
wall-clock metadata.

``repro replicate --primary URL`` wraps this class on the CLI, optionally
re-serving the mirrored views over a read-only HTTP endpoint.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.error
import urllib.request
from typing import Any

import numpy as np

from repro.api.serialize import delta_from_dict
from repro.api.service import ExplanationService
from repro.api.types import SCHEMA_VERSION
from repro.core.config import Configuration
from repro.core.explanation import ExplanationView
from repro.core.faults import fault_point
from repro.core.maintenance import DEFAULT_STREAM_BATCH_SIZE
from repro.exceptions import FaultInjected, ReplicationError, ReplicationGapError
from repro.gnn.models import GNNClassifier
from repro.graphs.database import GraphDatabase

__all__ = [
    "BOOTSTRAP_KIND",
    "ReplicaService",
    "view_signature",
    "model_to_payload",
    "model_from_payload",
]

#: ``kind`` tag of the bootstrap payload served by ``/v1/replica/bootstrap``.
BOOTSTRAP_KIND = "replica_bootstrap"


def model_to_payload(model: GNNClassifier) -> dict[str, Any]:
    """JSON-safe architecture + exact weights of a trained classifier.

    The wire form every trained-model hand-off shares: replica bootstraps
    (``/v1/replica/bootstrap``) and shard-worker bootstraps both ship it.
    JSON carries doubles losslessly, so a model rebuilt from this payload
    makes bit-identical forward passes.
    """
    return {
        "spec": {
            "feature_dim": model.feature_dim,
            "num_classes": model.num_classes,
            "hidden_dim": model.hidden_dim,
            "num_layers": model.num_layers,
            "conv": model.conv,
            "pooling": model.pooling_name,
        },
        "weights": [
            {name: array.tolist() for name, array in layer.items()}
            for layer in model.get_weights()
        ],
    }


def model_from_payload(payload: dict[str, Any]) -> GNNClassifier:
    """Rebuild a trained classifier from :func:`model_to_payload` output."""
    spec = payload["spec"]
    model = GNNClassifier(
        feature_dim=spec["feature_dim"],
        num_classes=spec["num_classes"],
        hidden_dim=spec["hidden_dim"],
        num_layers=spec["num_layers"],
        conv=spec["conv"],
        pooling=spec["pooling"],
    )
    model.set_weights(
        [
            {name: np.asarray(array, dtype=float) for name, array in layer.items()}
            for layer in payload["weights"]
        ]
    )
    # set_weights installs parameters but deliberately does not mark the
    # model trained; the adopter received weights that *were* trained.
    model.is_trained = True
    return model


def view_signature(view: ExplanationView) -> str:
    """Canonical semantic digest of one explanation view.

    Hashes everything queryable — label, total explainability, each witness
    subgraph (source graph id, node set, label, metrics, verification
    flags), and the pattern tier — while excluding wall-clock metadata
    (runtimes), which legitimately differs between a
    primary and a replica that computed the same views.  Two views with
    equal signatures answer every downstream query identically.
    """
    payload = {
        "label": view.label,
        "explainability": view.explainability,
        "subgraphs": [subgraph.to_dict() for subgraph in view.subgraphs],
        "patterns": [pattern.to_dict() for pattern in view.patterns],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ReplicaService:
    """A read-only mirror of a primary's live explanation views.

    Parameters
    ----------
    primary_url:
        Base URL of the primary (e.g. ``http://127.0.0.1:8000``); requests
        go to its ``/v1`` routes.
    poll_interval:
        Seconds between ``sync_once`` rounds in :meth:`run`.
    timeout:
        Per-request HTTP timeout in seconds.
    bootstrap:
        Fetch the initial snapshot at construction (default).  Pass
        ``False`` to construct lazily and call :meth:`bootstrap` yourself.
    """

    def __init__(
        self,
        primary_url: str,
        *,
        poll_interval: float = 1.0,
        timeout: float = 30.0,
        bootstrap: bool = True,
    ) -> None:
        self.primary_url = primary_url.rstrip("/")
        self.poll_interval = float(poll_interval)
        self.timeout = float(timeout)
        self.service: ExplanationService | None = None
        #: Primary version the replica has applied through.  Decoupled from
        #: the local database's own counter: the bootstrap rebuild collapses
        #: the primary's history into one construction pass.
        self.version = 0
        self.resyncs = 0
        self.deltas_applied = 0
        #: Transient-outage bookkeeping for :meth:`run`: total retried
        #: failures, the current consecutive-failure streak (drives the
        #: backoff, reset on success), and the last failure message.
        self.retries = 0
        self._failure_streak = 0
        self.last_error: str | None = None
        if bootstrap:
            self.bootstrap()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _get_json(self, path: str) -> dict[str, Any]:
        url = f"{self.primary_url}{path}"
        try:
            fault_point("replication.fetch", context=path)
            with urllib.request.urlopen(url, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except FaultInjected as error:
            # An injected fetch fault models an outage: surface it exactly
            # like an unreachable primary so the retry loop owns it.
            raise ReplicationError(
                f"cannot reach primary at {self.primary_url}: {error}"
            ) from error
        except urllib.error.HTTPError as error:
            try:
                body = json.loads(error.read().decode("utf-8"))
            except Exception:
                body = {}
            message = body.get("error", str(error))
            if error.code == 410 or body.get("resync"):
                raise ReplicationGapError(message) from error
            raise ReplicationError(
                f"primary at {self.primary_url} refused {path}: {message}"
            ) from error
        except urllib.error.URLError as error:
            raise ReplicationError(
                f"cannot reach primary at {self.primary_url}: {error.reason}"
            ) from error

    # ------------------------------------------------------------------
    # sync
    # ------------------------------------------------------------------
    def bootstrap(self) -> dict[str, Any]:
        """Full snapshot sync: rebuild the local service from the primary.

        Used for the initial sync and as the fallback whenever the delta
        stream cannot cover the replica's lag.
        """
        payload = self._get_json("/v1/replica/bootstrap")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ReplicationError(
                f"primary speaks bootstrap schema {payload.get('schema_version')!r}, "
                f"this replica reads {SCHEMA_VERSION}"
            )
        if payload.get("kind") != BOOTSTRAP_KIND:
            raise ReplicationError(
                f"expected a {BOOTSTRAP_KIND!r} payload, got {payload.get('kind')!r}"
            )
        database = GraphDatabase.from_dict(payload["database"])
        model = model_from_payload(payload["model"])
        config = Configuration.from_canonical(payload["config"])
        if self.service is not None:
            self.service.close()
        service = ExplanationService(
            payload.get("dataset"),
            database=database,
            model=model,
            config=config,
        )
        maintainer = payload.get("maintainer") or {}
        service.enable_live_views(
            batch_size=maintainer.get("batch_size", DEFAULT_STREAM_BATCH_SIZE),
            label_source=maintainer.get("label_source", "predicted"),
        )
        self.service = service
        self.version = int(payload["version"])
        return {"version": self.version, "num_graphs": len(database)}

    def sync_once(self) -> dict[str, Any]:
        """One tailing round: fetch and apply every delta past our version.

        Falls back to a full re-bootstrap when the primary signals a gap
        (410); returns a round summary either way.
        """
        if self.service is None:
            summary = self.bootstrap()
            return {"applied": 0, "resynced": True, **summary}
        try:
            feed = self._get_json(f"/v1/deltas?since={self.version}")
        except ReplicationGapError:
            self.resyncs += 1
            summary = self.bootstrap()
            return {"applied": 0, "resynced": True, "source": "bootstrap", **summary}
        applied = 0
        for envelope in feed.get("deltas", []):
            delta = delta_from_dict(envelope)
            if delta.version <= self.version:  # pragma: no cover - defensive
                continue
            self._apply(delta)
            self.version = delta.version
            applied += 1
        self.deltas_applied += applied
        return {
            "applied": applied,
            "resynced": False,
            "version": self.version,
            "source": feed.get("source"),
        }

    def _apply(self, delta: Any) -> None:
        """Apply one primary delta through the local service surface.

        Routing through ingest/remove/relabel (not raw database calls)
        keeps the local service's bookkeeping — predicted-label memo, cache
        keys, live view repairs — in step, exactly as on the primary.
        """
        service = self.service
        assert service is not None
        if delta.kind == "add":
            service.ingest(delta.graph, delta.label)
        elif delta.kind == "remove":
            service.remove(delta.graph_id)
        else:
            service.relabel(delta.graph_id, delta.label)

    def run(
        self,
        *,
        max_rounds: int | None = None,
        max_retry_backoff: float = 30.0,
    ) -> None:
        """Poll the primary forever (or for ``max_rounds`` rounds).

        A :class:`ReplicationError` from a round — the primary restarting,
        a dropped connection, a mid-deploy 5xx — no longer kills the loop:
        the round counts as a retry (visible in :meth:`stats`) and the next
        poll backs off exponentially from ``poll_interval`` up to
        ``max_retry_backoff``, resetting as soon as a round succeeds.  A
        replication *gap* is already handled inside :meth:`sync_once` (full
        resync), so whatever reaches this handler is transient by
        construction.
        """
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            try:
                self.sync_once()
            except ReplicationError as error:
                self.retries += 1
                self._failure_streak += 1
                self.last_error = str(error)
                delay = min(
                    max_retry_backoff,
                    self.poll_interval * (2.0 ** min(self._failure_streak - 1, 16)),
                )
            else:
                self._failure_streak = 0
                delay = self.poll_interval
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                break
            time.sleep(delay)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def primary_version(self) -> int:
        """The primary's current database version (one ``/v1/health`` call)."""
        return int(self._get_json("/v1/health")["database_version"])

    def lag(self) -> int:
        """How many versions the replica trails the primary right now."""
        return max(0, self.primary_version() - self.version)

    def view_signatures(self) -> dict[int, str]:
        """Semantic digest of every locally maintained view, by label."""
        if self.service is None:
            raise ReplicationError("replica is not bootstrapped yet")
        return {view.label: view_signature(view) for view in self.service.live_views()}

    def stats(self) -> dict[str, Any]:
        return {
            "primary": self.primary_url,
            "version": self.version,
            "deltas_applied": self.deltas_applied,
            "resyncs": self.resyncs,
            "retries": self.retries,
            "last_error": self.last_error,
            "num_graphs": len(self.service.database) if self.service else 0,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
