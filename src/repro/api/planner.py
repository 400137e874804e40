"""How an explain request picks its label, its graphs and its cache key.

:class:`RequestPlanner` makes these decisions once, for the single-process
:class:`~repro.api.service.ExplanationService` and the sharded
:class:`~repro.api.sharding.ShardRouter` alike:

* the label of a request that names none — the smallest model-predicted
  label among its graphs, read from a memo that is built once, under the
  owner's lock, and kept in step with every mutation;
* the graphs it covers — the id filter in database order, then, under a
  ``limit``, test-split graphs first, filtered to the label;
* its cache key — dataset, a context fingerprint (model weights, database
  size and version, test split) and the request fingerprint;
* the latest result per label, which ``view_set``/``results`` read;
* the :class:`~repro.api.types.ExplanationResult` and
  :class:`~repro.api.types.Provenance` a computed view is wrapped in.

Its owner calls :meth:`RequestPlanner.on_mutation` after every database
mutation: the planner moves onto fresh cache keys, drops the previous
generation from the store, and updates the memo and the graph index in
O(delta).
"""

from __future__ import annotations

import hashlib
import threading
from collections.abc import Sequence
from typing import Any

from repro.api.registry import DEFAULT_REGISTRY
from repro.api.store import ViewStore
from repro.api.types import ExplainRequest, ExplanationResult, Provenance
from repro.core.config import Configuration
from repro.core.explanation import ExplanationView, ExplanationViewSet
from repro.core.sampling import estimator_summary
from repro.exceptions import ExplanationError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph

__all__ = ["RequestPlanner"]


class RequestPlanner:
    """Label resolution, graph selection, cache keys and latest results.

    ``lock`` is the owner's re-entrant lock: the owner holds it across its
    own mutations, so the memo build, the selection reads and the mutation
    bookkeeping never interleave.
    """

    def __init__(
        self,
        database: GraphDatabase,
        model: Any,
        dataset: str | None,
        test_ids: Sequence[int | None],
        store: ViewStore,
        lock: threading.RLock,
    ) -> None:
        self.database = database
        self.model = model
        self.dataset = dataset
        self.test_ids: list[int | None] = list(test_ids)
        self.store = store
        self.lock = lock
        self._prefix = (dataset or "custom").lower()
        self.graphs_by_id: dict[int | None, Graph] = {
            graph.graph_id: graph for graph in database.graphs
        }
        # Reloaded subgraphs resolve against the live graph objects.
        store.graphs_by_id = self.graphs_by_id
        # Model-assigned label per graph id, filled lazily (the model is
        # fixed for the owner's lifetime, so one batched pass serves every
        # request's label filtering).
        self._predicted: dict[int | None, int] | None = None
        # Latest result key per label — what view_set/results read.
        self._latest: dict[int, str] = {}
        # Cache keys embed the *context* identity (model weights, database
        # size/version, split) next to the request fingerprint, so a
        # persistent cache_dir can never serve views computed by a different
        # model — e.g. after retraining with other epochs on the same
        # dataset — or by the same model over different database contents.
        # The weight digest is hashed once; mutations only re-fold the
        # cheap database identity.
        self.weights_digest = model.weights_digest()
        self.context_fingerprint = self._fingerprint_context()

    # ------------------------------------------------------------------
    # label resolution and graph selection
    # ------------------------------------------------------------------
    def _memo(self) -> dict[int | None, int]:
        """The predicted-label memo, built on first use (caller holds the lock)."""
        if self._predicted is None:
            graphs = [graph for graph in self.database.graphs if graph.num_nodes() > 0]
            assigned = self.model.predict_many(graphs)
            self._predicted = {
                graph.graph_id: label for graph, label in zip(graphs, assigned)
            }
        return self._predicted

    def predicted_labels(self) -> dict[int | None, int]:
        """A copy of the model-assigned label per non-empty graph id."""
        with self.lock:
            return dict(self._memo())

    def memoised_prediction(self, graph: Graph) -> int | None:
        """Already-computed predicted label for a graph, if any.

        Handed to a view maintainer as its ``label_predictor`` so each
        ingest pays exactly one forward pass: :meth:`on_mutation` predicts
        into the memo, and the maintainer reads it back instead of
        predicting again.  Never *builds* the memo (that would turn one
        ingest into a database-wide batched pass at an arbitrary moment).
        """
        with self.lock:
            if self._predicted is None:
                return None
            return self._predicted.get(graph.graph_id)

    def resolve_label(self, request: ExplainRequest) -> ExplainRequest:
        """The request pinned to a label: its own, else the smallest
        predicted label among the graphs it selects."""
        if request.label is not None:
            return request
        with self.lock:
            predicted = self._memo()
            pool = (
                [predicted[graph_id] for graph_id in request.graph_ids if graph_id in predicted]
                if request.graph_ids is not None
                else list(predicted.values())
            )
        if not pool:
            raise ExplanationError(
                "cannot infer a label to explain: the request selects no "
                "non-empty graphs"
            )
        return request.with_label(min(pool))

    def select_graphs(self, request: ExplainRequest) -> list[Graph]:
        """The graphs a label-resolved request explains, in explain order."""
        if request.graph_ids is not None:
            wanted = set(request.graph_ids)
            graphs = [graph for graph in self.database.graphs if graph.graph_id in wanted]
        else:
            graphs = list(self.database.graphs)
        if request.limit is not None:
            # Test-split graphs first (the paper explains the test set;
            # train-split graphs only top the group up), matching the
            # experiment runners' label_group semantics.
            test_rank = {graph_id: rank for rank, graph_id in enumerate(self.test_ids)}
            graphs = sorted(
                graphs, key=lambda graph: test_rank.get(graph.graph_id, len(test_rank))
            )
            with self.lock:
                predicted = self._memo()
                graphs = [
                    graph for graph in graphs if predicted.get(graph.graph_id) == request.label
                ][: request.limit]
        return graphs

    @staticmethod
    def is_whole_stream(request: ExplainRequest, config: Configuration) -> bool:
        """A ``stream`` request over the whole database under ``config``.

        Live maintained state answers exactly these requests (identical to
        a fresh StreamGVEX run); anything else is computed on demand.
        """
        if request.graph_ids is not None or request.limit is not None:
            return False
        try:
            if DEFAULT_REGISTRY.resolve(request.algorithm) != "stream":
                return False
        except ExplanationError:
            return False
        return request.effective_config().fingerprint() == config.fingerprint()

    # ------------------------------------------------------------------
    # cache keys and stored results
    # ------------------------------------------------------------------
    def _fingerprint_context(self) -> str:
        """Stable hash of the model weights + database/split identity.

        Part of every cache key: a spill directory shared across runs must
        never serve views computed by a different (e.g. retrained) model,
        and the adopt path must not collide across unrelated model/database
        pairs.  The database *version* is folded in, so every mutation moves
        the planner onto fresh cache keys — results computed over the old
        contents become unreachable instead of being served stale.
        """
        digest = hashlib.sha256()
        digest.update(self.weights_digest.encode("utf-8"))
        digest.update(str(len(self.database)).encode("utf-8"))
        digest.update(str(self.database.version).encode("utf-8"))
        digest.update(str(self.test_ids).encode("utf-8"))
        return digest.hexdigest()[:12]

    def cache_key(self, request: ExplainRequest) -> str:
        return f"{self._prefix}-{self.context_fingerprint}-{request.fingerprint()}"

    def result_key(self, result: ExplanationResult) -> str:
        """The key a loaded result is stored under in the current context."""
        prefix = (result.provenance.dataset or self.dataset or "custom").lower()
        return f"{prefix}-{self.context_fingerprint}-{result.provenance.request_fingerprint}"

    def plan(
        self, request: ExplainRequest
    ) -> tuple[ExplainRequest, str, ExplanationResult | None]:
        """Resolve the label and look the request up in the store.

        Returns the resolved request, its cache key, and the cached result
        (marked as a cache hit) when there is one.
        """
        request = self.resolve_label(request)
        key = self.cache_key(request)
        with self.lock:
            cached = self.store.get(key)
            if cached is None:
                return request, key, None
            self._latest[cached.provenance.label] = key
        return request, key, cached.marked_cached()

    def build_result(
        self,
        request: ExplainRequest,
        view: ExplanationView,
        graphs: Sequence[Graph],
        runtime: float,
        missing_shards: Sequence[int] = (),
    ) -> ExplanationResult:
        """Wrap a view computed over ``graphs`` with its provenance."""
        config = request.effective_config()
        return ExplanationResult(
            view=view,
            provenance=Provenance(
                algorithm=request.algorithm,
                label=request.label,
                config_fingerprint=config.fingerprint(),
                request_fingerprint=request.fingerprint(),
                runtime_seconds=runtime,
                backend="sparse",
                num_graphs=len(graphs),
                dataset=self.dataset,
                estimator=estimator_summary(config, graphs),
            ),
            degraded=bool(missing_shards),
            missing_shards=tuple(missing_shards),
        )

    def record(self, key: str, result: ExplanationResult) -> None:
        """Store a result and make it its label's latest.

        A result planned before a mutation landed is not stored: its key
        belongs to the generation :meth:`on_mutation` already discarded, so
        storing it would leave a dead entry behind and serve a view of the
        old contents as the label's latest.
        """
        with self.lock:
            if key.rsplit("-", 2)[1] != self.context_fingerprint:
                return
            self.store.put(key, result)
            self._latest[result.provenance.label] = key

    def labels_explained(self) -> list[int]:
        with self.lock:
            return sorted(self._latest)

    def results(self) -> list[ExplanationResult]:
        """The latest stored result per label (sorted by label)."""
        with self.lock:
            latest = dict(self._latest)
        collected = []
        for label in sorted(latest):
            result = self.store.get(latest[label])
            if result is not None:
                collected.append(result)
        return collected

    def view_set(self) -> ExplanationViewSet:
        """The latest stored view per label, as one queryable set."""
        views = ExplanationViewSet()
        for result in self.results():
            views.add(result.view)
        return views

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def on_mutation(self, kind: str, graph_id: int | None, graph: Graph | None = None) -> None:
        """Bookkeeping for one applied database mutation.

        Every result computed over the previous database contents — any
        algorithm, limit, or graph selection, not just the latest per
        label — becomes unreachable (keys embed the old context
        fingerprint), so the whole generation is discarded from both store
        tiers; otherwise a long-running live-ingest owner accumulates one
        dead artifact per request variant per mutation, forever.
        """
        with self.lock:
            # Cache keys move first: they must move even when the model
            # work below fails, or pre-mutation views would keep being
            # served for the changed database.
            old_context = self.context_fingerprint
            self.context_fingerprint = self._fingerprint_context()
            self.store.discard_prefix(f"{self._prefix}-{old_context}-")
            self._latest.clear()
            if kind == "add" and graph is not None:
                self.graphs_by_id[graph_id] = graph
                if self._predicted is not None and graph.num_nodes() > 0:
                    try:
                        self._predicted[graph_id] = self.model.predict(graph)
                    except Exception:
                        # Unclassifiable graph added directly on the
                        # database: drop the memo rather than poison it; a
                        # later label query rebuilds (and surfaces the
                        # error to the caller who asks).
                        self._predicted = None
            elif kind == "remove":
                self.graphs_by_id.pop(graph_id, None)
                if self._predicted is not None:
                    self._predicted.pop(graph_id, None)

