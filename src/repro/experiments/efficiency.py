"""Exp-2 efficiency and scalability (Fig. 9).

* Fig. 9a/9b/9c — runtime of every explainer on MUT / ENZ / all datasets.
* Fig. 9d — scalability of GVEX with the number of input graphs (PCQ).
* Fig. 9e — parallel speed-up with multiple shard workers.
* Fig. 9f — StreamGVEX runtime as a function of the processed batch fraction
  (the anytime property).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.sharding import ShardRouter
from repro.core.approx import ApproxGVEX
from repro.core.config import Configuration
from repro.core.streaming import StreamGVEX
from repro.experiments.setup import ExperimentContext, build_explainers, prepare_context
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.metrics.runtime import time_call

__all__ = [
    "RuntimeRow",
    "ScalabilityRow",
    "ParallelRow",
    "AnytimeRow",
    "run_runtime_comparison",
    "run_scalability",
    "run_parallel_speedup",
    "run_anytime_batches",
]


@dataclass
class RuntimeRow:
    dataset: str
    explainer: str
    seconds: float
    num_graphs: int


@dataclass
class ScalabilityRow:
    dataset: str
    num_graphs: int
    approx_seconds: float
    stream_seconds: float


@dataclass
class ParallelRow:
    dataset: str
    num_workers: int
    seconds: float
    speedup: float


@dataclass
class AnytimeRow:
    dataset: str
    batch_fraction: float
    seconds: float
    explainability: float


def _fresh_copies(graphs: list[Graph]) -> list[Graph]:
    """Copies of ``graphs`` with their CSR views built and no analysis cached."""
    copies = [graph.copy() for graph in graphs]
    for graph in copies:
        graph.sparse_view()
    return copies


def run_runtime_comparison(
    context: ExperimentContext,
    max_nodes: int = 8,
    explainer_names: list[str] | None = None,
    graphs_limit: int = 4,
) -> list[RuntimeRow]:
    """Fig. 9a-9c rows: wall-clock per explainer on one dataset.

    Each explainer runs on its own graph copies, so GVEX times its analyses
    rather than cores an earlier run cached on shared graph objects.
    """
    label = context.labels()[0]
    graphs = context.label_group(label, limit=graphs_limit) or context.test_graphs(limit=graphs_limit)
    explainers = build_explainers(context.model, max_nodes=max_nodes, include=explainer_names)
    rows = []
    for name, explainer in explainers.items():
        _, seconds = time_call(explainer.explain_many, _fresh_copies(graphs))
        rows.append(
            RuntimeRow(dataset=context.dataset, explainer=name, seconds=seconds, num_graphs=len(graphs))
        )
    return rows


def run_scalability(
    dataset: str = "PCQ",
    graph_counts: list[int] | None = None,
    max_nodes: int = 6,
    epochs: int = 30,
) -> list[ScalabilityRow]:
    """Fig. 9d rows: GVEX runtime versus the number of input graphs.

    ApproxGVEX and StreamGVEX each run on their own graph copies (see
    :func:`run_runtime_comparison`).
    """
    graph_counts = graph_counts or [15, 30, 45]
    config = Configuration().with_default_bound(0, max_nodes)
    rows = []
    for count in graph_counts:
        context = prepare_context(dataset, num_graphs=count, epochs=epochs)
        label = context.labels()[0]
        graphs = [graph for graph in context.database.graphs if context.model.predict(graph) == label]
        approx = ApproxGVEX(context.model, config)
        stream = StreamGVEX(context.model, config, batch_size=8)
        _, approx_seconds = time_call(approx.explain_label, _fresh_copies(graphs), label)
        _, stream_seconds = time_call(stream.explain_label, _fresh_copies(graphs), label)
        rows.append(
            ScalabilityRow(
                dataset=context.dataset,
                num_graphs=count,
                approx_seconds=approx_seconds,
                stream_seconds=stream_seconds,
            )
        )
    return rows


def run_parallel_speedup(
    context: ExperimentContext | None = None,
    worker_counts: list[int] | None = None,
    max_nodes: int = 6,
    graphs_limit: int = 8,
) -> list[ParallelRow]:
    """Fig. 9e rows: runtime with 1, 2, 4 workers (speed-up relative to 1).

    Each worker count serves the label group from a :class:`ShardRouter`
    with that many worker processes, booted before the timed call: one
    approx explain, its per-graph rows computed on the workers and
    summarized once on the router.
    """
    context = context or prepare_context("MUT")
    worker_counts = worker_counts or [1, 2, 4]
    config = Configuration().with_default_bound(0, max_nodes)
    label = context.labels()[0]
    graphs = context.label_group(label, limit=graphs_limit) or context.test_graphs(limit=graphs_limit)
    rows = []
    baseline_seconds: float | None = None
    for workers in worker_counts:
        database = GraphDatabase(context.dataset)
        database.extend(graph.copy() for graph in graphs)
        with ShardRouter(
            context.dataset, database=database, model=context.model,
            num_shards=workers, config=config, backend="process", supervise=False,
        ) as router:
            _, seconds = time_call(router.explain, algorithm="approx", label=label)
        if baseline_seconds is None:
            baseline_seconds = seconds
        rows.append(
            ParallelRow(
                dataset=context.dataset,
                num_workers=workers,
                seconds=seconds,
                speedup=baseline_seconds / seconds if seconds > 0 else 0.0,
            )
        )
    return rows


def run_anytime_batches(
    context: ExperimentContext | None = None,
    batch_fractions: list[float] | None = None,
    max_nodes: int = 6,
    dataset: str = "PCQ",
    graphs_limit: int = 4,
) -> list[AnytimeRow]:
    """Fig. 9f rows: StreamGVEX runtime/quality versus processed fraction.

    The stream of each test graph is truncated to the requested fraction of
    its nodes, so the row at fraction 1.0 corresponds to the full pass and the
    runtime should grow roughly linearly with the fraction.
    """
    context = context or prepare_context(dataset)
    batch_fractions = batch_fractions or [0.25, 0.5, 0.75, 1.0]
    config = Configuration().with_default_bound(0, max_nodes)
    label = context.labels()[0]
    graphs = context.label_group(label, limit=graphs_limit) or context.test_graphs(limit=graphs_limit)
    rows = []
    for fraction in batch_fractions:
        stream = StreamGVEX(context.model, config, batch_size=6)

        def explain_truncated() -> float:
            total_explainability = 0.0
            for graph in graphs:
                order = graph.nodes
                cutoff = max(1, int(round(fraction * len(order))))
                subgraph, _, _ = stream.explain_graph(graph, label, node_order=order[:cutoff])
                if subgraph is not None:
                    total_explainability += subgraph.explainability
            return total_explainability

        explainability, seconds = time_call(explain_truncated)
        rows.append(
            AnytimeRow(
                dataset=context.dataset,
                batch_fraction=fraction,
                seconds=seconds,
                explainability=explainability,
            )
        )
    return rows
