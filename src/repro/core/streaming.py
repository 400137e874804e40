"""StreamGVEX: single-pass, anytime view maintenance (section 5, Algorithm 3).

The streaming algorithm consumes the nodes of each source graph as a stream
(in batches) and incrementally maintains the node cache ``Vs`` and pattern
set ``Pc`` with the ``IncUpdateVS`` / ``IncUpdateP`` swap rules, refreshing
the influence/diversity structures per batch (``IncEVerify``) so the
maintained view always has an anytime quality guarantee *relative to the
processed fraction*.

The per-graph machinery lives in
:class:`~repro.core.maintenance.NodeStreamProcessor` (one shared
implementation), and the label-level pass *is* a replay of add-deltas
through a :class:`~repro.core.maintenance.ViewMaintainer`: each graph of the
label group arrives as one delta, is streamed once, and the view is
assembled from the maintainer's rows — exactly the machinery that keeps
views live over a mutable :class:`~repro.graphs.database.GraphDatabase`.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

from repro.core.explanation import (
    ExplanationRow,
    ExplanationSubgraph,
    ExplanationView,
    ExplanationViewSet,
)
from repro.core.maintenance import NodeStreamProcessor, ViewMaintainer, assemble_stream_view
from repro.core.sampling import build_analysis
from repro.exceptions import ExplanationError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph

__all__ = ["StreamGVEX"]


class StreamGVEX(NodeStreamProcessor):
    """Streaming, anytime generation of explanation views (Algorithm 3).

    Inherits the whole per-graph pass (``VpExtend``, ``IncUpdateVS``,
    ``IncUpdateP``, :meth:`explain_graph`) from
    :class:`~repro.core.maintenance.NodeStreamProcessor` and adds the
    per-label / full-database driver surface.
    """

    # ------------------------------------------------------------------
    # per-label and full drivers (same shape as ApproxGVEX)
    # ------------------------------------------------------------------
    def explain_rows(self, graphs: Sequence[Graph], label: int) -> list[ExplanationRow]:
        """The label group's rows: one streamed row per graph the GNN assigns
        ``label``, in input order.

        A replay of add-deltas through a transient :class:`ViewMaintainer`
        bound to this explainer (so its ``EVerify`` and any subclass policy
        overrides carry through): one ingest per graph.
        """
        maintainer = ViewMaintainer(processor=self, labels=(label,))
        for graph, predicted in zip(graphs, self._predicted_labels(graphs)):
            maintainer.ingest(graph, predicted=predicted)
        return maintainer.rows()

    def assemble(self, rows: Iterable[ExplanationRow], label: int, start: float) -> ExplanationView:
        """The stream assembly law over ``rows`` (:func:`assemble_stream_view`).

        ``runtime_seconds`` is the rows' summed streaming cost, as in a
        maintained view, so ``start`` is not read.
        """
        return assemble_stream_view(rows, label, self.batch_size)

    def explain_label(self, graphs: Sequence[Graph], label: int) -> ExplanationView:
        """Streamed explanation view for one label group; ``runtime_seconds``
        is the whole call's wall time."""
        start = time.perf_counter()
        view = self.assemble(self.explain_rows(graphs, label), label, start)
        view.metadata["runtime_seconds"] = time.perf_counter() - start
        return view

    def explain(
        self,
        database: GraphDatabase | Sequence[Graph],
        labels: Sequence[int] | None = None,
    ) -> ExplanationViewSet:
        """Streamed explanation views for every label of interest."""
        graphs = list(database.graphs) if isinstance(database, GraphDatabase) else list(database)
        if not graphs:
            raise ExplanationError("cannot explain an empty graph collection")
        if labels is None:
            labels = sorted(set(self._predicted_labels(graphs)))
        views = ExplanationViewSet()
        for label in labels:
            views.add(self.explain_label(graphs, label))
        return views

    def explain_instance(self, graph: Graph) -> ExplanationSubgraph:
        """Single-graph explanation (baseline-comparison convenience)."""
        label = self.model.predict(graph)
        subgraph, _, _ = self.explain_graph(graph, label)
        if subgraph is None:
            analysis = build_analysis(self.model, graph, self.config)
            best = max(graph.nodes, key=lambda node: analysis.explainability({node}))
            subgraph = ExplanationSubgraph(
                source_graph=graph,
                nodes={best},
                label=label,
                explainability=analysis.explainability({best}),
            )
            self.everify.annotate(subgraph)
        return subgraph
