"""Parallel view generation (section 5, "Parallel Implementation").

The per-graph work of GVEX — influence analysis, greedy selection, pattern
summarisation — is independent across source graphs, so the database can be
partitioned across workers.  :func:`parallel_explain` shards the label group
over a pool of processes (or threads / a serial loop for environments where
process pools are unavailable) and merges the per-shard views.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from collections.abc import Sequence

from repro.core.approx import ApproxGVEX
from repro.core.config import Configuration
from repro.core.explanation import ExplanationView, ExplanationViewSet
from repro.core.streaming import StreamGVEX
from repro.exceptions import ExplanationError
from repro.gnn.models import GNNClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph

__all__ = ["parallel_explain", "merge_views"]


def _shard(items: Sequence, num_shards: int) -> list[list]:
    shards: list[list] = [[] for _ in range(num_shards)]
    for index, item in enumerate(items):
        shards[index % num_shards].append(item)
    return [shard for shard in shards if shard]


def merge_views(views: Sequence[ExplanationView], label: int) -> ExplanationView:
    """Merge per-shard views of the same label into one view.

    Subgraphs are concatenated; patterns are deduplicated by canonical key.
    """
    merged = ExplanationView(label=label)
    seen_patterns: set[tuple] = set()
    for view in views:
        if view.label != label:
            raise ExplanationError("cannot merge views of different labels")
        merged.subgraphs.extend(view.subgraphs)
        merged.explainability += view.explainability
        for pattern in view.patterns:
            key = pattern.canonical_key()
            if key not in seen_patterns:
                seen_patterns.add(key)
                merged.patterns.append(pattern)
    for index, pattern in enumerate(merged.patterns):
        pattern.pattern_id = index
    merged.metadata["merged_from"] = len(views)
    return merged


# Per-process state installed by the pool initializer: the model is unpickled
# once per worker process and the explainer built once, instead of shipping
# (and rebuilding) both with every shard of graphs.  Only process-pool
# workers read this — each worker process owns its private copy — so the
# serial and thread backends (which build per-shard explainers locally) stay
# re-entrant under concurrent parallel_explain calls.
_WORKER_STATE: dict = {}

# Shards per worker: more shards than workers gives the pool slack to balance
# uneven per-graph costs, while the initializer keeps the per-shard overhead
# to unpickling only the graphs themselves.
_SHARDS_PER_WORKER = 4


def _build_explainer(
    model: GNNClassifier, config: Configuration, algorithm: str, batch_size: int
) -> ApproxGVEX | StreamGVEX:
    if algorithm == "stream":
        return StreamGVEX(model, config, batch_size=batch_size)
    return ApproxGVEX(model, config)


def _init_worker(model: GNNClassifier, config: Configuration, algorithm: str, batch_size: int) -> None:
    """Process-pool initializer: build this worker's explainer exactly once.

    Each worker process owns a private match-engine memo, sized once here via
    the explainer constructor (``config.match_cache_size``).  The memo is
    identity-keyed and ``_run_shard`` rebuilds graph objects per shard, so
    entries amortise *within* a shard (where the heavy repeat queries live),
    not across shards.
    """
    _WORKER_STATE["explainer"] = _build_explainer(model, config, algorithm, batch_size)


def _run_shard(
    explainer: ApproxGVEX | StreamGVEX, graph_payloads: list[dict], labels: Sequence[int]
) -> list[dict]:
    """Explain one shard of graphs for all labels."""
    database = GraphDatabase()
    database.extend(Graph.from_dict(payload) for payload in graph_payloads)
    from repro.matching.engine import warm_match_indices

    # Prebuild the CSR views so the first probe of every graph does not pay
    # the snapshot cost inside the timed explanation loop, and the
    # match-engine indices (degree / neighbour-signature / edge tables) so
    # this worker's first coverage query backtracks immediately.
    database.warm_sparse_cache()
    warm_match_indices(database.graphs)
    results = []
    for label in labels:
        # Passing the database (a graph sequence) rather than a bare list
        # lets predict_batch reuse its memoised block-diagonal batch across
        # the per-label calls instead of restacking it for every label.
        view = explainer.explain_label(database, label)
        results.append(view.to_dict() | {"__explainability": view.explainability})
    return results


def _explain_shard(args: tuple) -> list[dict]:
    """Process-pool entry point: reuse the worker's initializer-built explainer."""
    graph_payloads, labels = args
    return _run_shard(_WORKER_STATE["explainer"], graph_payloads, labels)


def parallel_explain(
    model: GNNClassifier,
    database: GraphDatabase | Sequence[Graph],
    config: Configuration | None = None,
    labels: Sequence[int] | None = None,
    num_workers: int = 2,
    backend: str = "process",
    algorithm: str = "approx",
    batch_size: int = 8,
) -> ExplanationViewSet:
    """Generate explanation views using a pool of workers.

    ``backend`` selects ``process`` (default), ``thread`` or ``serial``.  The
    serial backend runs the exact same sharded code path in-process, which is
    what the efficiency benchmarks use as the 1-worker reference point.
    """
    config = config or Configuration()
    graphs = list(database.graphs) if isinstance(database, GraphDatabase) else list(database)
    if not graphs:
        raise ExplanationError("cannot explain an empty graph collection")
    if labels is None:
        labels = sorted({model.predict(graph) for graph in graphs})
    if num_workers < 1:
        raise ExplanationError("num_workers must be at least 1")

    # Chunked sharding: several shards per worker balance uneven per-graph
    # costs; the worker initializer unpickles the model once per *worker*
    # rather than once per shard.
    num_shards = num_workers if num_workers == 1 else num_workers * _SHARDS_PER_WORKER
    shards = _shard(graphs, num_shards)
    jobs = [
        ([graph.to_dict() for graph in shard], list(labels))
        for shard in shards
    ]
    init_args = (model, config, algorithm, batch_size)

    def run_local(job: tuple) -> list[dict]:
        # In-process shards get their own explainer (no pickling to save),
        # keeping concurrent parallel_explain calls fully isolated.
        return _run_shard(_build_explainer(*init_args), *job)

    if backend == "serial" or num_workers == 1 or len(jobs) == 1:
        shard_results = [run_local(job) for job in jobs]
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=num_workers) as pool:
            shard_results = list(pool.map(run_local, jobs))
    elif backend == "process":
        try:
            with ProcessPoolExecutor(
                max_workers=num_workers, initializer=_init_worker, initargs=init_args
            ) as pool:
                shard_results = list(pool.map(_explain_shard, jobs))
        except (OSError, PermissionError):
            # Sandboxed environments may forbid new processes; fall back.
            shard_results = [run_local(job) for job in jobs]
    else:
        raise ExplanationError(f"unknown backend '{backend}'")

    # Rebuild views from the serialised shard results and merge per label.
    from repro.core.explanation import ExplanationSubgraph  # local import to avoid cycle at module load
    from repro.graphs.pattern import GraphPattern

    views = ExplanationViewSet()
    graph_by_id = {graph.graph_id: graph for graph in graphs}
    for label_index, label in enumerate(labels):
        per_shard_views = []
        for shard_result in shard_results:
            payload = shard_result[label_index]
            view = ExplanationView(
                label=label,
                patterns=[GraphPattern.from_dict(p) for p in payload["patterns"]],
                explainability=payload["__explainability"],
            )
            for sub_payload in payload["subgraphs"]:
                source = graph_by_id.get(sub_payload["source_graph_id"])
                if source is None:
                    continue
                view.subgraphs.append(
                    ExplanationSubgraph(
                        source_graph=source,
                        nodes=set(sub_payload["nodes"]),
                        label=label,
                        explainability=sub_payload["explainability"],
                        consistent=sub_payload["consistent"],
                        counterfactual=sub_payload["counterfactual"],
                    )
                )
            per_shard_views.append(view)
        views.add(merge_views(per_shard_views, label))
    return views
