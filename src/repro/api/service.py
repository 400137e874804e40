"""The explanation service: one session object from model to queryable views.

:class:`ExplanationService` owns the full lifecycle the paper's system
section describes — train (or adopt) a classifier over a graph database,
produce explanation views through any registered algorithm, keep them in a
fingerprint-keyed result cache (memory LRU + disk spill), and answer
downstream queries over the stored views without re-running an explainer:

>>> service = ExplanationService("MUT", epochs=20)
>>> result = service.explain(algorithm="approx", label=1, max_nodes=8)
>>> service.query().witness(result.view.subgraphs[0].source_graph.graph_id)

Every consumer of the library — the CLI (``repro explain/serve/query``),
the experiment runners, and the benchmarks — routes through this surface;
the algorithm classes underneath remain importable but are no longer the
public contract.
"""

from __future__ import annotations

import threading
import time
import warnings
import weakref
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.api.planner import RequestPlanner
from repro.api.registry import create_explainer
from repro.api.serialize import delta_from_dict, delta_to_dict, load_artifact, save_artifact
from repro.api.types import SCHEMA_VERSION, ExplainRequest, ExplanationResult, ServiceSurface
from repro.core.config import Configuration
from repro.core.explanation import ExplanationViewSet
from repro.core.faults import activate_from_config
from repro.core.maintenance import DEFAULT_STREAM_BATCH_SIZE, ViewMaintainer
from repro.core.sampling import sampling_stats
from repro.core.wal import WriteAheadLog
from repro.exceptions import (
    DatasetError,
    ExplanationError,
    ReplicationGapError,
    WALError,
)
from repro.graphs.database import DatabaseDelta, GraphDatabase
from repro.graphs.graph import Graph
from repro.api.store import ViewStore

__all__ = ["ExplanationService", "ServiceQuery"]


class _WeakDeltaHook:
    """Database subscription hook holding its service only weakly."""

    def __init__(self, service: "ExplanationService", database: GraphDatabase) -> None:
        self._service = weakref.ref(service)
        self._database = weakref.ref(database)

    def __call__(self, delta: DatabaseDelta) -> None:
        service = self._service()
        if service is not None:
            service._on_delta(delta)
            return
        # Service collected without close(): prune this dead hook so the
        # long-lived database does not accumulate no-op callbacks.
        database = self._database()
        if database is not None:
            database.unsubscribe(self)


class ExplanationService:
    """Train-or-load a model, explain through any algorithm, cache, query.

    Parameters
    ----------
    dataset:
        Name of a built-in dataset; when ``model`` is not supplied, the
        service builds the dataset and trains a classifier through the
        shared experiment context (cached in-process, so repeated service
        construction does not retrain).
    database / model:
        Adopt an existing database and trained classifier instead of the
        train path (both must be given together).
    config:
        Default configuration for requests that do not carry their own.
    cache_size / cache_dir:
        Capacity of the in-memory result LRU and the optional spill
        directory; with a ``cache_dir``, a restarted service starts warm.
    live_views:
        Attach a :class:`~repro.core.maintenance.ViewMaintainer` to the
        database at construction (see :meth:`enable_live_views`): StreamGVEX
        views are then repaired incrementally on every
        :meth:`ingest` / :meth:`remove` / :meth:`relabel` instead of being
        recomputed, and the maintainer state is snapshotted into the view
        store for warm restarts.
    wal_dir / wal_sync:
        Attach a :class:`~repro.core.wal.WriteAheadLog` in ``wal_dir``:
        every mutation is durably appended to the log *before* the mutating
        call returns, and at construction any log tail beyond the adopted
        database's version is replayed into it (crash recovery — combined
        with a ``cache_dir`` the maintainer resumes from its last snapshot
        and streams only the replayed graphs).  ``wal_sync=False`` skips the
        per-append fsync (benchmarks only).
    epochs / seed / num_graphs / hidden_dim:
        Training knobs forwarded to the experiment context on the train
        path.
    """

    def __init__(
        self,
        dataset: str | None = None,
        *,
        database: GraphDatabase | None = None,
        model: Any | None = None,
        config: Configuration | None = None,
        cache_size: int = 64,
        cache_dir: str | Path | None = None,
        live_views: bool = False,
        wal_dir: str | Path | None = None,
        wal_sync: bool = True,
        epochs: int = 40,
        seed: int = 7,
        num_graphs: int | None = None,
        hidden_dim: int = 16,
    ) -> None:
        if (database is None) != (model is None):
            raise ExplanationError(
                "pass either both 'database' and 'model' (adopt path) or neither "
                "(train path with a dataset name)"
            )
        if model is None:
            if dataset is None:
                raise ExplanationError(
                    "ExplanationService needs a dataset name to train on, or an "
                    "existing database + model pair to adopt"
                )
            # Imported lazily: the experiment layer sits above the API layer
            # and pulls in the full baseline zoo.
            from repro.experiments.setup import prepare_context

            context = prepare_context(
                dataset,
                num_graphs=num_graphs,
                epochs=epochs,
                hidden_dim=hidden_dim,
                seed=seed,
            )
            self.dataset = context.dataset
            self.database = context.database
            self.model = context.model
            self.train_accuracy: float | None = context.train_accuracy
            self.test_accuracy: float | None = context.test_accuracy
            # The paper explains the test split, so limited selections put
            # test-split graphs first (matching the experiment runners).
            test_ids = [self.database[index].graph_id for index in context.test_indices]
        else:
            self.dataset = dataset
            self.database = database
            self.model = model
            self.train_accuracy = None
            self.test_accuracy = None
            test_ids = []
        self.config = config or Configuration()
        # Operational knob: a fault plan riding on the configuration arms
        # the process-global injection registry before any instrumented
        # path (WAL, store spill, HTTP) runs under this service.
        activate_from_config(self.config)
        self.store = ViewStore(capacity=cache_size, spill_dir=cache_dir)
        # Guards the planner's memo and latest-result map, the maintainer's
        # rows and the mutation path: the HTTP server handles requests on
        # threads.
        self._lock = threading.RLock()
        self.planner = RequestPlanner(
            self.database, self.model, self.dataset, test_ids, self.store, self._lock
        )
        # Live incremental view maintenance (enable_live_views): StreamGVEX
        # state repaired per delta instead of recomputed per request.
        self._maintainer: ViewMaintainer | None = None
        self._mutations_since_snapshot = 0
        self._closed = False
        # Delta-aware cache bookkeeping for *any* database mutation,
        # including ones made directly on the database object.  Bound
        # weakly: a dropped service must not be pinned alive by the
        # database's subscriber list (databases can outlive many services,
        # e.g. the in-process experiment-context cache).
        self._delta_hook = _WeakDeltaHook(self, self.database)
        self.database.subscribe(self._delta_hook)
        # Durability: the WAL opens (and replays its tail into the adopted
        # database) *after* the delta hook is subscribed — replayed deltas
        # go through the same bookkeeping as live ones — and *before* live
        # views attach, so a maintainer snapshot restore already sees the
        # recovered database and streams exactly the replayed graphs.
        self._wal: WriteAheadLog | None = None
        self._wal_replaying = False
        self._wal_replayed = 0
        if wal_dir is not None:
            self._open_wal(wal_dir, sync=wal_sync)
        if live_views:
            self.enable_live_views()

    # ------------------------------------------------------------------
    # durability (write-ahead log)
    # ------------------------------------------------------------------
    def _open_wal(self, wal_dir: str | Path, *, sync: bool) -> None:
        """Open (or resume) the WAL and replay any tail beyond the database.

        Three cases:

        * fresh directory — the log starts at the database's current
          version; nothing to replay;
        * existing log whose head matches a *stale* database (the crash
          case: the process died after acknowledging writes the snapshot
          path never saw) — the tail is replayed through
          :meth:`GraphDatabase.apply_delta`, firing the normal subscription
          hooks;
        * inconsistent pairings (database ahead of the log, or older than
          the log's retained history) — refused loudly: silently adopting
          either side would acknowledge-then-lose writes.
        """
        wal = WriteAheadLog(wal_dir, base_version=self.database.version, sync=sync)
        if self.database.version < wal.base_version:
            wal.close()
            raise ExplanationError(
                f"cannot attach WAL at {wal_dir}: the database is at version "
                f"{self.database.version} but the log's history starts at "
                f"{wal.base_version} — recover from a newer database snapshot"
            )
        if self.database.version > wal.last_version:
            wal.close()
            raise ExplanationError(
                f"cannot attach WAL at {wal_dir}: the database is at version "
                f"{self.database.version} but the log ends at "
                f"{wal.last_version} — this log belongs to an older state of "
                "the database (acknowledged writes would be missing from it)"
            )
        self._wal = wal
        if wal.last_version > self.database.version:
            self._wal_replaying = True
            try:
                for payload in wal.payloads_since(self.database.version):
                    self.database.apply_delta(delta_from_dict(payload))
                    self._wal_replayed += 1
            finally:
                self._wal_replaying = False

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, when the service is durable."""
        return self._wal

    # ------------------------------------------------------------------
    # replication (primary side)
    # ------------------------------------------------------------------
    def delta_feed(self, since: int) -> dict[str, Any]:
        """Serialised deltas after ``since`` — the ``/v1/deltas`` payload.

        Served from the database's in-memory log when it still covers the
        range, falling back to the WAL's segments when the bounded log has
        dropped entries.  Raises
        :class:`~repro.exceptions.ReplicationGapError` when neither can
        cover it — the replica must re-sync from a full snapshot.
        """
        with self._lock:
            version = self.database.version
            if since > version:
                raise ReplicationGapError(
                    f"replica claims version {since} but the primary is at "
                    f"{version}; the replica followed a different history and "
                    "must re-sync from a snapshot"
                )
            try:
                deltas = self.database.deltas_since(since)
                return {
                    "since": since,
                    "version": version,
                    "source": "memory",
                    "deltas": [delta_to_dict(delta) for delta in deltas],
                }
            except DatasetError:
                pass  # bounded log truncated — try the durable tier
            if self._wal is not None:
                try:
                    payloads = self._wal.payloads_since(since)
                except WALError as error:
                    raise ReplicationGapError(
                        f"cannot serve deltas since version {since}: {error}"
                    ) from error
                return {
                    "since": since,
                    "version": version,
                    "source": "wal",
                    "deltas": payloads,
                }
            raise ReplicationGapError(
                f"cannot serve deltas since version {since}: the in-memory "
                f"log has dropped that range and no write-ahead log is "
                "attached; re-sync from a snapshot"
            )

    def replication_snapshot(self) -> dict[str, Any]:
        """Full bootstrap payload for a replica (database + model + config).

        Everything a :class:`~repro.api.replication.ReplicaService` needs to
        reconstruct an identical service: the database contents, the trained
        model's architecture and exact weights (JSON round-trips doubles
        losslessly), the configuration, and the maintainer parameters when
        live views are enabled.
        """
        from repro.api.replication import model_to_payload

        with self._lock:
            maintainer = None
            if self._maintainer is not None:
                maintainer = {
                    "batch_size": self._maintainer.processor.batch_size,
                    "label_source": self._maintainer.label_source,
                }
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "replica_bootstrap",
                "version": self.database.version,
                "dataset": self.dataset,
                "database": self.database.to_dict(),
                "model": model_to_payload(self.model),
                "config": self.config.canonical_dict(),
                "maintainer": maintainer,
            }

    # ------------------------------------------------------------------
    # the explain surface
    # ------------------------------------------------------------------
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
    ) -> ExplanationResult:
        """Produce (or fetch from cache) one label's explanation view.

        Accepts either a prebuilt :class:`~repro.api.types.ExplainRequest`
        or the equivalent keyword arguments.  The result's provenance
        records whether it was served from cache.
        """
        if request is None:
            request = ExplainRequest(
                algorithm=algorithm,
                label=label,
                config=config or self.config,
                max_nodes=max_nodes,
                graph_ids=tuple(graph_ids) if graph_ids is not None else None,
                limit=limit,
            )
        request, key, cached = self.planner.plan(request)
        if cached is not None:
            return cached

        # A live maintainer serves matching stream requests without any
        # recompute (its views are repaired per database delta).
        maintained = self._maintained_result(request)
        if maintained is not None:
            return maintained

        # The explanation itself runs outside the lock so concurrent
        # requests for *different* jobs proceed in parallel; two concurrent
        # misses on the same key redundantly (but harmlessly) both compute.
        graphs = self.planner.select_graphs(request)
        explainer = create_explainer(
            request.algorithm, self.model, config=request.effective_config()
        )
        start = time.perf_counter()
        view = explainer.explain_label(graphs, request.label)
        result = self.planner.build_result(
            request, view, graphs, time.perf_counter() - start
        )
        self.planner.record(key, result)
        return result

    def explain_many(
        self,
        labels: Sequence[int] | None = None,
        *,
        algorithm: str = "approx",
        max_nodes: int | None = None,
        config: Configuration | None = None,
        limit: int | None = None,
    ) -> list[ExplanationResult]:
        """One explanation per label of interest (every predicted label by
        default); cached labels are served from the store.  Fanning the
        graphs out over worker processes is
        :class:`~repro.api.sharding.ShardRouter`'s job."""
        if labels is None:
            labels = sorted(set(self.planner.predicted_labels().values()))
        return [
            self.explain(
                algorithm=algorithm,
                label=label,
                max_nodes=max_nodes,
                config=config,
                limit=limit,
            )
            for label in labels
        ]

    # ------------------------------------------------------------------
    # the dynamic-database surface (ingest / remove / relabel)
    # ------------------------------------------------------------------
    def enable_live_views(
        self,
        *,
        batch_size: int = DEFAULT_STREAM_BATCH_SIZE,
        label_source: str = "predicted",
        restore: bool = True,
    ) -> ViewMaintainer:
        """Attach (or return) the live StreamGVEX :class:`ViewMaintainer`.

        The maintainer streams every database graph once, then repairs its
        views per mutation delta.  With a ``cache_dir``, a snapshot of the
        maintained state is persisted through the view store after every
        mutation, and ``restore=True`` warm-restarts from it — graphs the
        snapshot already covers are *not* re-streamed.
        """
        with self._lock:
            self._ensure_open()
            if self._maintainer is not None:
                return self._maintainer
            maintainer: ViewMaintainer | None = None
            if restore:
                try:
                    payload = self.store.get_snapshot(self._maintainer_key())
                except Exception:
                    payload = None  # corrupt snapshot file: rebuild
                # A snapshot taken under different maintenance parameters
                # must not silently override the caller's: rebuild instead.
                if payload is not None and (
                    payload.get("batch_size") != batch_size
                    or payload.get("label_source") != label_source
                ):
                    payload = None
                if payload is not None:
                    try:
                        maintainer = ViewMaintainer.from_snapshot(
                            payload, self.model, self.database, config=self.config
                        )
                        maintainer.label_predictor = self.planner.memoised_prediction
                    except Exception:
                        # Stale, foreign, or malformed snapshot: a warm
                        # restart is an optimisation, never a hard failure.
                        maintainer = None
            if maintainer is None:
                maintainer = ViewMaintainer(
                    self.model,
                    self.config,
                    batch_size=batch_size,
                    label_source=label_source,
                    label_predictor=self.planner.memoised_prediction,
                ).attach(self.database)
            # Maintainer row state must mutate under the service lock so the
            # locked view reads in _maintained_result can never observe a
            # torn repair — also for mutations made directly on the
            # database object, whose subscription hooks run unlocked.
            maintainer.lock = self._lock
            if (
                maintainer.processor.batch_size != DEFAULT_STREAM_BATCH_SIZE
                or maintainer.label_source != "predicted"
            ):
                warnings.warn(
                    "live views maintained with non-default batch_size/"
                    "label_source cannot serve explain(algorithm='stream') "
                    "requests (those must match a fresh StreamGVEX run); "
                    "read them via live_views()/maintainer instead",
                    stacklevel=2,
                )
            self._maintainer = maintainer
            self._persist_maintainer()
            self._refresh_maintained()
            return maintainer

    @property
    def maintainer(self) -> ViewMaintainer | None:
        """The live view maintainer, when :meth:`enable_live_views` ran."""
        return self._maintainer

    def live_views(self) -> ExplanationViewSet:
        """The incrementally maintained view per label (enables live views)."""
        return self.enable_live_views().view_set()

    def ingest(
        self, graph: Graph, label: int | None = None, *, graph_id: int | None = None
    ) -> dict[str, Any]:
        """Add a graph to the live database, repairing views incrementally.

        The arriving graph streams its nodes through the maintainer's swap
        rules (one per-graph pass — independent of database size); every
        maintained label's refreshed view is re-registered in the result
        cache under the new database version, so subsequent ``explain``
        requests are served without recomputation.  Returns a mutation
        summary (stable graph id, database version, refreshed labels).
        """
        with self._lock:
            self._ensure_open()
            # Validate before touching either the database *or the caller's
            # graph object*: a rejected ingest must leave both unchanged
            # (the suggested remedy — retry without an id — only works if
            # the rejected id was never written onto the graph).
            wanted_id = graph_id if graph_id is not None else graph.graph_id
            if wanted_id is not None and wanted_id in self.planner.graphs_by_id:
                raise ExplanationError(
                    f"graph id {wanted_id} is already in the database; "
                    "remove it first or ingest without an id to auto-assign one"
                )
            # Validate *before* mutating: a graph the model cannot classify
            # (e.g. mismatched feature dimensionality) must be rejected
            # cleanly, not crash mid-delta with the database already grown.
            # The feature-matrix probe is the cheap structural check — no
            # forward pass; the model's own inference runs once, in the
            # delta hooks.
            if graph.num_nodes() > 0:
                try:
                    graph.feature_matrix(getattr(self.model, "feature_dim", None))
                except Exception as error:
                    raise ExplanationError(
                        f"cannot ingest graph {wanted_id!r}: the service's "
                        f"model cannot classify it ({error})"
                    ) from error
            if graph_id is not None:
                graph.graph_id = graph_id
            self.database.add_graph(graph, label)
            return self._mutation_summary("ingest", graph.graph_id)

    def remove(self, graph_id: int) -> dict[str, Any]:
        """Remove a graph by stable id, retracting its view contributions."""
        with self._lock:
            self._ensure_open()
            self.database.remove_graph(graph_id)
            return self._mutation_summary("remove", graph_id)

    def relabel(self, graph_id: int, label: int) -> dict[str, Any]:
        """Change a graph's ground-truth label (moves it between groups)."""
        with self._lock:
            self._ensure_open()
            self.database.relabel_graph(graph_id, label)
            return self._mutation_summary("relabel", graph_id)

    # ------------------------------------------------------------------
    # stored-view access
    # ------------------------------------------------------------------
    def view_set(self) -> ExplanationViewSet:
        """The latest stored view per label, as one queryable set."""
        return self.planner.view_set()

    def results(self) -> list[ExplanationResult]:
        """The latest stored result per label (sorted by label)."""
        return self.planner.results()

    def query(self) -> "ServiceQuery":
        """A query facade over every currently stored view."""
        return ServiceQuery(self)

    def save_views(self, path: str | Path) -> Path:
        """Persist the latest result per label as one envelope file."""
        results = self.results()
        if not results:
            raise ExplanationError(
                "the service holds no views to save; call explain() first"
            )
        return save_artifact(results, path)

    def load_views(self, path: str | Path) -> list[ExplanationResult]:
        """Ingest results saved by :meth:`save_views` into the store."""
        loaded = load_artifact(path, graphs_by_id=self.planner.graphs_by_id)
        if isinstance(loaded, ExplanationResult):
            loaded = [loaded]
        if not isinstance(loaded, list):
            raise ExplanationError(
                f"{path} does not hold explanation results (found "
                f"{type(loaded).__name__}); save with ExplanationService.save_views"
            )
        with self._lock:
            for result in loaded:
                self.planner.record(self.planner.result_key(result), result)
        return loaded

    def close(self) -> None:
        """Detach from the database (unsubscribe hooks, stop maintenance).

        The service object stays queryable over already-stored views, but no
        longer tracks database mutations — and refuses to make any: a
        detached service applying ingest/remove/relabel would mutate the
        database while serving views (and cache keys) frozen at the
        pre-close state.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self.database.unsubscribe(self._delta_hook)
            if self._maintainer is not None:
                self._persist_maintainer()
                self._maintainer.detach()
                self._maintainer = None
            if self._wal is not None:
                self._wal.close()
                self._wal = None
            self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExplanationError(
                "this ExplanationService is closed; it no longer tracks "
                "database mutations, so mutating through it would serve "
                "stale views — build a fresh service instead"
            )

    def stats(self) -> dict[str, Any]:
        """Service health snapshot (dataset, model quality, cache counters)."""
        from repro.core.caching import with_hit_rate
        from repro.matching.engine import get_engine

        return {
            "dataset": self.dataset,
            "num_graphs": len(self.database),
            "database_version": self.database.version,
            "labels_explained": self.planner.labels_explained(),
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "backend": "sparse",
            "cache": with_hit_rate(self.store.stats()),
            "match_engine_cache": with_hit_rate(get_engine().stats()),
            "sampling": {"objective": self.config.objective} | sampling_stats(),
            "maintainer": self._maintainer.stats() if self._maintainer else None,
            "wal": (
                {
                    "base_version": self._wal.base_version,
                    "last_version": self._wal.last_version,
                    "segments": self._wal.num_segments,
                    "replayed_on_open": self._wal_replayed,
                }
                if self._wal is not None
                else None
            ),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    # -- dynamic-database internals -------------------------------------
    def _on_delta(self, delta: DatabaseDelta) -> None:
        """Cheap bookkeeping for *every* database mutation (delta-aware).

        Runs synchronously from the database's subscription hook — also for
        mutations made directly on the database object, not through the
        service.  Logs the delta, then hands it to the planner (fresh cache
        keys, memo and graph index in step, O(delta)); maintained labels are
        re-registered lazily from the live maintainer.
        """
        with self._lock:
            # Durability first: the delta reaches the fsync'd log before any
            # in-process bookkeeping consumes it.  An append failure
            # propagates to the mutating caller with the in-memory state one
            # mutation ahead of the log — the service refuses to limp along
            # half-durable, matching the loud-failure contract of _open_wal.
            # Replayed deltas are already in the log and skip the append.
            if self._wal is not None and not self._wal_replaying:
                self._wal.append(delta_to_dict(delta), delta.version)
            self.planner.on_mutation(delta.kind, delta.graph_id, delta.graph)

    #: Mutations between maintainer snapshot writes.  The snapshot is an
    #: optimisation, not the source of truth: a restore streams whatever the
    #: snapshot does not cover, so a stale-by-a-few-deltas snapshot only
    #: costs that many per-graph passes at the next warm restart, while
    #: writing the full O(rows) snapshot on *every* delta would make each
    #: single-graph mutation pay O(database) disk work.
    SNAPSHOT_EVERY = 16

    def _mutation_summary(self, op: str, graph_id: int | None) -> dict[str, Any]:
        refreshed = self._refresh_maintained()
        self._mutations_since_snapshot += 1
        if self._mutations_since_snapshot >= self.SNAPSHOT_EVERY:
            self._persist_maintainer()
        return {
            "op": op,
            "graph_id": graph_id,
            "database_version": self.database.version,
            "num_graphs": len(self.database),
            "maintained": self._maintainer is not None,
            "refreshed_labels": refreshed,
            "maintainer": self._maintainer.stats() if self._maintainer else None,
        }

    def _refresh_maintained(self) -> list[int]:
        """Re-register every maintained label's view under the current keys.

        This is the "refresh instead of recompute" half of delta-aware
        invalidation: the maintainer's incrementally repaired views become
        the cached results for the new database version, so the fingerprint
        cache warms again without a single explainer run.
        """
        if self._maintainer is None:
            return []
        refreshed = []
        for label in self._maintainer.maintained_labels():
            request = ExplainRequest(algorithm="stream", label=label, config=self.config)
            if self._maintained_result(request) is not None:
                refreshed.append(label)
        return refreshed

    def _maintainer_key(self) -> str:
        # Keyed by dataset + database name + model identity, but *not* the
        # database version: a warm restart resumes from the latest snapshot
        # and streams just the graphs the snapshot does not cover.  The
        # database name keeps two same-model services over different
        # databases from restoring each other's rows out of a shared
        # cache_dir (graph ids overlap across databases); from_snapshot
        # additionally validates restored node sets against the graphs.
        prefix = (self.dataset or "custom").lower()
        name = "".join(ch for ch in self.database.name.lower() if ch.isalnum())
        return f"{prefix}-{name}-{self.planner.weights_digest[:12]}-maintainer"

    def _persist_maintainer(self) -> None:
        if self._maintainer is None or self.store.spill_dir is None:
            return
        self.store.put_snapshot(self._maintainer_key(), self._maintainer.snapshot())
        self._mutations_since_snapshot = 0

    def _maintained_result(self, request: ExplainRequest) -> ExplanationResult | None:
        """Serve a stream request straight from the live maintainer.

        Only when the request matches what the maintainer maintains — the
        ``stream`` algorithm over the whole database under the maintainer's
        exact configuration (same fingerprint, default batch size, predicted
        label groups) — so the served view is identical to what a fresh
        ``StreamGVEX`` recompute would produce.  The result is registered in
        the store under the current context key.
        """
        maintainer = self._maintainer
        if (
            maintainer is None
            or request.label is None
            or maintainer.label_source != "predicted"
            or maintainer.processor.batch_size != DEFAULT_STREAM_BATCH_SIZE
            or not self.planner.is_whole_stream(request, maintainer.config)
        ):
            return None
        # View assembly and registration run under the service lock: the
        # HTTP server serves /explain and /ingest on different threads, and
        # mutations (which hold this lock across the database call and its
        # synchronous subscription hooks) must never interleave with a read
        # of the maintainer's row state.
        with self._lock:
            start = time.perf_counter()
            view = maintainer.view_for(request.label)
            result = self.planner.build_result(
                request, view, self.database.graphs, time.perf_counter() - start
            )
            self.planner.record(self.planner.cache_key(request), result)
        return result


class ServiceQuery:
    """Downstream queries over a service's stored views (no re-explaining).

    Wraps :class:`~repro.core.views.ViewQueryEngine` over the latest view
    per label and adds the metric reports the paper's case studies read off
    a view (fidelity, conciseness).
    """

    def __init__(self, service: ServiceSurface) -> None:
        from repro.core.views import ViewQueryEngine

        self.service = service
        self.views = service.view_set()
        if len(self.views) == 0:
            raise ExplanationError(
                "no views stored yet; run service.explain() (or load_views) "
                "before querying"
            )
        self.engine = ViewQueryEngine(self.views, service.database)

    # -- pattern-centric ------------------------------------------------
    def patterns(self, label: int) -> list:
        """Higher-tier patterns explaining one label."""
        return self.engine.patterns_for_label(label)

    def labels_with_pattern(self, pattern) -> list[int]:
        """Labels whose witnesses contain the pattern ('which classes?')."""
        return self.engine.labels_with_pattern(pattern)

    def discriminative_patterns(self, label: int) -> list:
        """Patterns unique to one label's view."""
        return self.engine.discriminative_patterns(label)

    # -- graph-centric --------------------------------------------------
    def witness(self, graph_id: int) -> dict[str, Any] | None:
        """The stored witness subgraph + matching patterns for one graph."""
        return self.engine.explanation_for_graph(graph_id)

    # -- reporting ------------------------------------------------------
    def report(self, label: int) -> dict[str, Any]:
        """Fidelity + conciseness of one label's stored view."""
        from repro.metrics import conciseness_report, fidelity_report

        view = self.views.view_for(label)
        return {
            "label": label,
            "fidelity": fidelity_report(self.service.model, view.subgraphs),
            "conciseness": conciseness_report(view),
        }

    def summary(self) -> dict[int, dict[str, float]]:
        """Per-label sizes/compression of every stored view."""
        return self.engine.summary()
