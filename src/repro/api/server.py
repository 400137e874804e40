"""``repro serve``: a stdlib-only JSON/HTTP endpoint over the service.

A thin request/response shim — all real work happens behind the
:class:`~repro.api.types.ServiceSurface` it binds to — so the wire format
is exactly the serialisation layer's schema (``GET /v1/schema`` publishes
it).

Endpoints (canonical, versioned under ``/v1``)
----------------------------------------------
* ``GET  /v1/health``              — service stats + ``api_version`` +
  database version;
* ``GET  /v1/algorithms``          — names accepted by ``create_explainer``;
* ``GET  /v1/schema``              — the explanation-artifact JSON schema;
* ``POST /v1/explain``             — body ``{"algorithm", "label",
  "max_nodes", "limit", "graph_ids"}`` → a serialised explanation result
  envelope;
* ``POST /v1/ingest``              — live database mutations: body
  ``{"graph": {...}, "label"}`` adds a graph (streamed through the live
  view maintainer — no recompute), ``{"op": "remove", "graph_id"}`` removes
  one, ``{"op": "relabel", "graph_id", "label"}`` relabels one; returns the
  mutation summary (stable graph id, database version, refreshed labels);
* ``GET  /v1/views``               — provenance of every stored view;
* ``GET  /v1/query/summary``       — per-label view summary;
* ``GET  /v1/query/graph/<id>``    — stored witness subgraph for one graph;
* ``GET  /v1/query/label/<label>`` — patterns + metric report for one label;
* ``GET  /v1/deltas?since=<v>``    — the replication stream: serialised
  database deltas after version ``v`` (in-memory log when fresh, WAL
  segments when the bounded log dropped entries); answers **410 Gone** with
  ``{"resync": true}`` when neither tier covers the range — the replica
  must re-bootstrap;
* ``GET  /v1/replica/bootstrap``   — full snapshot (database + model
  weights + config) for a replica's initial sync;
* ``GET  /v1/live``                — semantic signature of every live
  maintained view (what ``repro replicate`` diffs against its primary).

Every route lives under ``/v1``; a path outside it answers 404.

``create_server(..., read_only=True)`` builds a replica-facing server that
rejects mutations (``POST /v1/ingest`` → 403) while keeping every read
endpoint live.

``create_server`` binds to any :class:`~repro.api.types.ServiceSurface` —
the single-process :class:`~repro.api.service.ExplanationService` or the
sharded :class:`~repro.api.sharding.ShardRouter` (``repro serve --shards
N``).  In sharded mode the replication endpoints (``/v1/deltas``,
``/v1/replica/bootstrap``) answer 404: durability is per-shard WAL
streams, not a global delta feed.

Built on :class:`http.server.ThreadingHTTPServer` (no third-party
dependency), which is sufficient for the explanation workloads this repo
targets: views are cached after first computation, so steady-state requests
are dictionary lookups + JSON dumps.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.api.registry import available_explainers
from repro.api.serialize import explanation_schema, result_to_dict
from repro.api.types import ServiceSurface
from repro.core.faults import fault_point
from repro.exceptions import (
    FaultInjected,
    ReplicationGapError,
    ReproError,
    ShardDownError,
)

__all__ = ["API_VERSION", "create_server", "serve"]

#: Version tag of the canonical REST surface (the ``/v1`` route prefix).
API_VERSION = "v1"


class _ExplanationRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the bound :class:`ServiceSurface`."""

    # Installed by create_server on the generated subclass.
    service: ServiceSurface = None  # type: ignore[assignment]
    quiet: bool = True
    read_only: bool = False

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _resolve_path(self) -> tuple[str, dict[str, list[str]]] | None:
        """Split the request into its route below ``/v1`` and query params.

        A path outside ``/v1`` is answered 404 here and yields ``None``.
        """
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        prefix = f"/{API_VERSION}"
        if path != prefix and not path.startswith(prefix + "/"):
            self._send_error(
                f"unknown endpoint {parts.path!r}; every route is under {prefix}",
                status=404,
            )
            return None
        return path[len(prefix) :] or "/", parse_qs(parts.query)

    def _send_json(
        self,
        payload: Any,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, message: str, status: int = 400, **extra: Any) -> None:
        self._send_json({"error": message, **extra}, status=status)

    def _send_shard_down(self, error: ShardDownError) -> None:
        """503 + ``Retry-After``: the shard is recovering, come back later."""
        retry_after = max(1, math.ceil(error.retry_after or 1.0))
        self._send_json(
            {
                "error": str(error),
                "shard": error.shard,
                "retry_after": retry_after,
            },
            status=503,
            headers={"Retry-After": str(retry_after)},
        )

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        try:
            fault_point("server.request", context=lambda: f"GET {self.path}")
            resolved = self._resolve_path()
            if resolved is not None:
                self._route_get(*resolved)
        except ReplicationGapError as error:
            # 410 Gone: the requested delta range is no longer retained.
            # The replica must fall back to a full snapshot re-sync.
            self._send_error(str(error), status=410, resync=True)
        except ShardDownError as error:
            self._send_shard_down(error)
        except FaultInjected as error:
            # An armed fault plan fired in this handler: a server fault, not
            # a lookup miss — do not disguise it as 404.
            self._send_error(str(error), status=500)
        except ReproError as error:
            self._send_error(str(error), status=404)
        except (ValueError, TypeError) as error:
            # e.g. a non-integer /query/graph/<id> segment — a client fault.
            self._send_error(str(error), status=400)
        except Exception as error:  # pragma: no cover - defensive
            self._send_error(f"internal error: {error}", status=500)

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        try:
            fault_point("server.request", context=lambda: f"POST {self.path}")
            resolved = self._resolve_path()
            if resolved is not None:
                self._route_post(resolved[0])
        except ShardDownError as error:
            self._send_shard_down(error)
        except FaultInjected as error:
            self._send_error(str(error), status=500)
        except (ValueError, TypeError, ReproError) as error:
            self._send_error(str(error), status=400)
        except Exception as error:  # pragma: no cover - defensive
            self._send_error(f"internal error: {error}", status=500)

    def _route_get(self, path: str, query: dict[str, list[str]]) -> None:
        if path == "/health":
            self._send_json(
                {
                    "status": "ok",
                    "api_version": API_VERSION,
                    "read_only": self.read_only,
                    **self.service.stats(),
                }
            )
        elif path == "/algorithms":
            self._send_json({"algorithms": available_explainers()})
        elif path == "/schema":
            self._send_json(explanation_schema())
        elif path == "/deltas":
            raw = (query.get("since") or [None])[0]
            if raw is None:
                raise ValueError("/deltas needs a 'since=<version>' query parameter")
            self._send_json(self.service.delta_feed(int(raw)))
        elif path == "/replica/bootstrap":
            self._send_json(self.service.replication_snapshot())
        elif path == "/live":
            from repro.api.replication import view_signature

            views = self.service.live_views()
            self._send_json(
                {
                    "version": self.service.database.version,
                    "signatures": {
                        str(view.label): view_signature(view) for view in views
                    },
                }
            )
        elif path == "/views":
            self._send_json(
                {
                    "views": [
                        result.provenance.to_dict() for result in self.service.results()
                    ]
                }
            )
        elif path == "/query/summary":
            summary = self.service.query().summary()
            self._send_json({"summary": {str(label): row for label, row in summary.items()}})
        elif path.startswith("/query/graph/"):
            graph_id = int(path.rsplit("/", 1)[1])
            witness = self.service.query().witness(graph_id)
            if witness is None:
                self._send_error(f"no stored witness for graph {graph_id}", status=404)
                return
            witness = dict(witness)
            witness["patterns"] = [pattern.to_dict() for pattern in witness["patterns"]]
            self._send_json({"graph_id": graph_id, "witness": witness})
        elif path.startswith("/query/label/"):
            label = int(path.rsplit("/", 1)[1])
            query_facade = self.service.query()
            self._send_json(
                {
                    "label": label,
                    "patterns": [pattern.to_dict() for pattern in query_facade.patterns(label)],
                    "report": query_facade.report(label),
                }
            )
        else:
            self._send_error(f"unknown endpoint {path!r}", status=404)

    def _route_post(self, path: str) -> None:
        if path == "/ingest":
            if self.read_only:
                self._send_error(
                    "this server is a read-only replica; mutate through the "
                    "primary instead",
                    status=403,
                )
                return
            self._route_ingest()
            return
        if path != "/explain":
            self._send_error(f"unknown endpoint {path!r}", status=404)
            return
        body = self._read_body()
        allowed = {"algorithm", "label", "max_nodes", "limit", "graph_ids"}
        unknown = set(body) - allowed
        if unknown:
            raise ValueError(
                f"unknown explain parameters {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        result = self.service.explain(
            algorithm=body.get("algorithm", "approx"),
            label=body.get("label"),
            max_nodes=body.get("max_nodes"),
            limit=body.get("limit"),
            graph_ids=body.get("graph_ids"),
        )
        # The wire format is the exact persistence envelope, so a client can
        # pipe the response straight into `repro query --views -`.
        envelope: dict[str, Any] = {
            "schema_version": result.provenance.schema_version,
            "kind": "explanation_result",
            "payload": result_to_dict(result),
        }
        if result.degraded:
            # Surfaced at the top level too so clients checking availability
            # need not dig into the artifact payload.
            envelope["degraded"] = True
            envelope["missing_shards"] = list(result.missing_shards)
        self._send_json(envelope)

    def _route_ingest(self) -> None:
        """Live database mutations over HTTP (add / remove / relabel)."""
        from repro.graphs.graph import Graph

        body = self._read_body()
        allowed = {"op", "graph", "label", "graph_id"}
        unknown = set(body) - allowed
        if unknown:
            raise ValueError(
                f"unknown ingest parameters {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        op = body.get("op", "add")
        # Validate the request *before* enabling live views: attaching the
        # maintainer streams the whole database once, which a malformed
        # request must not pay for.
        if op not in ("add", "remove", "relabel"):
            raise ValueError(
                f"unknown ingest op {op!r}; expected 'add', 'remove' or 'relabel'"
            )
        if op == "add" and "graph" not in body:
            raise ValueError("ingest op 'add' needs a 'graph' payload")
        if op == "remove" and body.get("graph_id") is None:
            raise ValueError("ingest op 'remove' needs a 'graph_id'")
        if op == "relabel" and (body.get("graph_id") is None or body.get("label") is None):
            raise ValueError("ingest op 'relabel' needs 'graph_id' and 'label'")
        # Mutations repair the live maintainer instead of invalidating into
        # recompute, so make sure one is attached before the first delta.
        self.service.enable_live_views()
        if op == "add":
            graph = Graph.from_dict(body["graph"])
            graph_id = body.get("graph_id")
            label = body.get("label")
            summary = self.service.ingest(
                graph,
                # Coerced like remove/relabel: stringly-typed values would
                # be stored verbatim, never match later int lookups, and a
                # mixed-type label set breaks class_labels()'s sort.
                label=int(label) if label is not None else None,
                graph_id=int(graph_id) if graph_id is not None else None,
            )
        elif op == "remove":
            summary = self.service.remove(int(body["graph_id"]))
        else:
            summary = self.service.relabel(int(body["graph_id"]), int(body["label"]))
        self._send_json(summary)


def create_server(
    service: ServiceSurface,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    quiet: bool = True,
    read_only: bool = False,
) -> ThreadingHTTPServer:
    """Build (but do not start) an HTTP server bound to a service.

    ``port=0`` picks a free port — the bound address is available as
    ``server.server_address``.  ``read_only=True`` builds the replica-facing
    variant: every read endpoint stays live, mutations are refused with 403.
    Callers own the lifecycle: run ``serve_forever()`` (optionally on a
    thread) and ``shutdown()`` when done.  ``service`` is an
    :class:`~repro.api.service.ExplanationService` or a
    :class:`~repro.api.sharding.ShardRouter`; the handler only touches the
    :class:`~repro.api.types.ServiceSurface` members.
    """
    handler = type(
        "BoundExplanationRequestHandler",
        (_ExplanationRequestHandler,),
        {"service": service, "quiet": quiet, "read_only": read_only},
    )
    return ThreadingHTTPServer((host, port), handler)


def serve(
    service: ServiceSurface,
    host: str = "127.0.0.1",
    port: int = 8000,
    *,
    quiet: bool = False,
    read_only: bool = False,
) -> None:
    """Blocking wrapper: create a server and run it until ^C or SIGTERM.

    SIGTERM and SIGINT trigger a graceful drain: the listener stops
    accepting, every in-flight request thread is joined
    (``ThreadingHTTPServer`` with ``block_on_close``), and the function
    returns normally so the caller can close the service/router (persisting
    maintainer snapshots and WALs) and exit 0.  The handlers are installed
    only on the main thread (the ``signal`` contract) and the previous
    handlers are restored on the way out.
    """
    server = create_server(service, host, port, quiet=quiet, read_only=read_only)
    # ThreadingHTTPServer defaults to daemon request threads, which
    # server_close() would abandon mid-request; non-daemon threads are
    # tracked and joined (block_on_close), which is the "finish in-flight
    # requests" half of the drain contract.
    server.daemon_threads = False
    bound_host, bound_port = server.server_address[:2]
    role = "replica (read-only)" if read_only else "primary"
    print(f"repro serve: {role} listening on http://{bound_host}:{bound_port}", flush=True)

    def _drain(signum: int, frame: Any) -> None:
        # serve_forever() runs on *this* (main) thread, so shutdown() must be
        # issued from another one — calling it inline would deadlock waiting
        # for the serve loop the handler interrupted.
        threading.Thread(
            target=server.shutdown, name="repro-serve-drain", daemon=True
        ).start()

    previous: dict[int, Any] = {}
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        # block_on_close joins the in-flight request threads: the drain is
        # complete once this returns.
        server.server_close()
        print("repro serve: drained in-flight requests, shut down cleanly", flush=True)
