"""One shard's long-lived host: an :class:`ExplanationService` behind ops.

:class:`ShardHost` is the *single* implementation of a shard's behaviour.
The process backend runs it inside a spawned/forked worker process driven
by :func:`shard_worker_main` over a duplex pipe; the inline backend (the
router's fallback for sandboxes that forbid new processes, and the oracle
the tests compare against) calls the same object directly in-process.
Whatever backend, a shard host is built **only** from a JSON-safe bootstrap
payload — the exact payload a respawn reuses, which is what makes crash
recovery a pure replay: rebuild the shard database from the payload, let
the service's WAL attachment replay the shard's own ``wal-*.jsonl`` tail,
warm-restore the maintainer snapshot from the shared cache directory.

The op surface is deliberately small and **idempotent on the mutation
path**: a router that times out and retries an ingest/remove/relabel on a
respawned worker must get a success either way — whether the first attempt
died before or after applying (and WAL-logging) the mutation.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.api.registry import create_explainer
from repro.api.replication import model_from_payload
from repro.api.service import ExplanationService
from repro.api.sharding.shm import attach_arena
from repro.api.types import ExplainRequest
from repro.core.config import Configuration
from repro.core.faults import FaultPlan, activate, fault_point
from repro.exceptions import ExplanationError, ReproError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph

__all__ = ["ShardHost", "shard_worker_main"]


class ShardHost:
    """One shard's service plus the op dispatch both backends share."""

    #: Ops a host understands; ``handle`` rejects anything else loudly so a
    #: router/worker version skew fails fast instead of hanging the pipe.
    OPS = (
        "ping",
        "explain_rows",
        "stream_rows",
        "mutate",
        "deltas",
        "stats",
        "shutdown",
    )

    def __init__(
        self,
        service: ExplanationService,
        *,
        shard_index: int,
        arena: Any | None = None,
    ) -> None:
        self.service = service
        self.shard_index = int(shard_index)
        self._arena = arena
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bootstrap(cls, bootstrap: dict[str, Any]) -> "ShardHost":
        """Build a shard host from the router's JSON-safe bootstrap payload.

        The payload is frozen at router construction and reused verbatim on
        every respawn: ``GraphDatabase.from_dict`` rebuilds the shard at a
        deterministic version (one bump per seed graph), so the shard's WAL
        — whose base version was recorded at first boot from that same
        payload — replays exactly the acknowledged post-seed mutations.
        """
        fault_payload = bootstrap.get("fault_plan")
        if fault_payload is not None:
            # The router forwards its fault plan explicitly (the canonical
            # config deliberately excludes it); arm it before any
            # instrumented path runs in this worker.
            activate(FaultPlan.from_dict(fault_payload))
        database = GraphDatabase.from_dict(bootstrap["database"])
        shm_spec = bootstrap.get("shm")
        arena = None
        if shm_spec is not None:
            try:
                arena = attach_arena(shm_spec["name"], shm_spec["manifest"])
                arena.install(database.graphs)
            except Exception:
                # Shared views are an optimisation; a worker that cannot map
                # the block builds private CSR views on demand instead.
                arena = None
        service = ExplanationService(
            bootstrap.get("dataset"),
            database=database,
            model=model_from_payload(bootstrap["model"]),
            config=Configuration.from_canonical(bootstrap["config"]),
            cache_dir=bootstrap.get("cache_dir"),
            wal_dir=bootstrap.get("wal_dir"),
            wal_sync=bootstrap.get("wal_sync", True),
            live_views=bootstrap.get("live_views", True),
        )
        return cls(service, shard_index=bootstrap["shard_index"], arena=arena)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Run one op and return its JSON-safe result."""
        if op not in self.OPS:
            raise ExplanationError(f"shard worker does not understand op {op!r}")
        fault_point(
            "worker.handle",
            context=lambda: f"{op}:{json.dumps(payload, sort_keys=True, default=str)}",
        )
        return getattr(self, f"_op_{op}")(payload)

    def close(self) -> None:
        """Persist shard state (maintainer snapshot, WAL) and detach."""
        if self._closed:
            return
        self._closed = True
        self.service.close()
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _op_ping(self, payload: dict[str, Any]) -> dict[str, Any]:
        return {"pid": os.getpid(), "shard_index": self.shard_index}

    def _request_from(self, payload: dict[str, Any]) -> ExplainRequest:
        config = payload.get("config")
        return ExplainRequest(
            algorithm=payload.get("algorithm", "approx"),
            label=payload["label"],
            config=(
                Configuration.from_canonical(config)
                if config is not None
                else self.service.config
            ),
            max_nodes=payload.get("max_nodes"),
        )

    def _op_explain_rows(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Per-graph rows of an explicit, ordered list of this shard's graphs.

        The router selects the graphs (it owns the test split and the
        predicted-label memo), sends each shard its members in request
        order, and assembles the rows of every shard once.  Every algorithm
        answers with its ``explain_rows`` in the
        :meth:`~repro.core.explanation.ExplanationRow.to_dict` form.
        """
        request = self._request_from(payload)
        database = self.service.database
        graphs = []
        for graph_id in payload["graph_ids"]:
            if not database.has_graph(graph_id):
                raise ExplanationError(
                    f"shard {self.shard_index} does not hold graph {graph_id!r}; "
                    "the router's placement and this worker disagree"
                )
            graphs.append(database.graph_by_id(graph_id))
        explainer = create_explainer(
            request.algorithm, self.service.model, config=request.effective_config()
        )
        return {"rows": [row.to_dict() for row in explainer.explain_rows(graphs, request.label)]}

    def _op_stream_rows(self, payload: dict[str, Any]) -> dict[str, Any]:
        """This shard's maintained stream rows, in database order.

        The router reassembles rows from every shard in global database
        order and builds the view itself — each row's node stream is fully
        deterministic given the configuration seed, so the assembled view is
        bit-identical to a single-process StreamGVEX run at any shard count.
        """
        maintainer = self.service.enable_live_views()
        rows = [row.snapshot_dict() for row in maintainer.rows(payload.get("label"))]
        return {"rows": rows, "version": self.service.database.version}

    def _op_mutate(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Apply one routed mutation, idempotently.

        The router assigns fresh never-reused graph ids before routing, so
        an id collision on ingest (or a missing id on remove, or an already
        current label on relabel) can only mean a previous attempt of this
        same mutation already applied — the crash-retry case.  Answering
        success instead of erroring is what gives the tier its "no failed
        requests after one retry" guarantee.
        """
        kind = payload["kind"]
        database = self.service.database
        if kind == "ingest":
            graph = Graph.from_dict(payload["graph"])
            graph_id = payload["graph_id"]
            if database.has_graph(graph_id):
                return self._already_applied("ingest", graph_id)
            return self.service.ingest(graph, payload.get("label"), graph_id=graph_id)
        if kind == "remove":
            graph_id = payload["graph_id"]
            if not database.has_graph(graph_id):
                return self._already_applied("remove", graph_id)
            return self.service.remove(graph_id)
        if kind == "relabel":
            graph_id = payload["graph_id"]
            label = payload["label"]
            if (
                database.has_graph(graph_id)
                and database.label_of(database.index_of(graph_id)) == label
            ):
                return self._already_applied("relabel", graph_id)
            return self.service.relabel(graph_id, label)
        raise ExplanationError(f"unknown mutation kind {kind!r}")

    def _op_deltas(self, payload: dict[str, Any]) -> dict[str, Any]:
        """This shard's serialised mutations after a version (restart sync).

        A freshly constructed router holds only the seed database; each
        worker, having just replayed its own WAL tail while bootstrapping,
        may be ahead.  The router pulls the post-seed deltas through this op
        and re-applies them to its global database, restoring agreement.
        """
        return self.service.delta_feed(int(payload.get("since", 0)))

    def _already_applied(self, op: str, graph_id: int | None) -> dict[str, Any]:
        return {
            "op": op,
            "graph_id": graph_id,
            "database_version": self.service.database.version,
            "num_graphs": len(self.service.database),
            "maintained": self.service.maintainer is not None,
            "refreshed_labels": [],
            "already_applied": True,
        }

    def _op_stats(self, payload: dict[str, Any]) -> dict[str, Any]:
        stats = self.service.stats()
        maintainer = self.service.maintainer
        stats.update(
            {
                "pid": os.getpid(),
                "shard_index": self.shard_index,
                "shard_size": len(self.service.database),
                "maintained_labels": (
                    maintainer.maintained_labels() if maintainer is not None else []
                ),
                "shared_views": self._arena is not None,
            }
        )
        return stats

    def _op_shutdown(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.close()
        return {"pid": os.getpid(), "shard_index": self.shard_index, "closed": True}


def shard_worker_main(conn: Any, bootstrap: dict[str, Any]) -> None:
    """Worker-process entry point: serve ops off a duplex pipe until told.

    Every request is answered with ``("ok", result)`` or ``("error",
    {"type", "message"})`` — op failures are *data*, shipped back for the
    router to re-raise; only a broken pipe (router gone) or the shutdown op
    ends the loop.  State is persisted on the way out even for abnormal
    exits via the ``finally``.
    """
    host: ShardHost | None = None
    try:
        try:
            host = ShardHost.from_bootstrap(bootstrap)
        except Exception as error:  # bootstrap failure: report, then die
            try:
                conn.send(("fatal", {"type": type(error).__name__, "message": str(error)}))
            except (OSError, BrokenPipeError):
                pass
            return
        conn.send(("ready", {"pid": os.getpid(), "shard_index": host.shard_index}))
        while True:
            try:
                op, payload = conn.recv()
                fault_point("worker.recv", context=lambda: str(op))
            except (EOFError, OSError):
                break  # router side closed: drain and exit
            try:
                result = host.handle(op, payload or {})
            except ReproError as error:
                conn.send(("error", {"type": type(error).__name__, "message": str(error)}))
                continue
            except Exception as error:  # pragma: no cover - defensive
                conn.send(("error", {"type": type(error).__name__, "message": str(error)}))
                continue
            fault_point("worker.send", context=lambda: str(op))
            conn.send(("ok", result))
            if op == "shutdown":
                break
    finally:
        if host is not None:
            try:
                host.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
