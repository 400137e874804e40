"""Query engine over explanation views (the "queryable" property).

The paper motivates graph views as *directly queryable* explanation
structures: a domain expert should be able to ask questions such as

* "which toxicophores (patterns) occur in mutagens?",
* "which nonmutagens contain pattern P22?",
* "which patterns separate class A from class B?",

without re-running the explainer.  :class:`ViewQueryEngine` indexes an
:class:`~repro.core.explanation.ExplanationViewSet` against the original
graph database and answers those queries with the pattern-matching substrate.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.explanation import ExplanationViewSet
from repro.exceptions import ExplanationError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.matching.engine import has_matching

__all__ = ["ViewQueryEngine"]


class ViewQueryEngine:
    """Answers pattern/label queries over a set of explanation views."""

    def __init__(self, views: ExplanationViewSet, database: GraphDatabase | Sequence[Graph]) -> None:
        self.views = views
        self.graphs = list(database.graphs) if isinstance(database, GraphDatabase) else list(database)
        if not self.graphs:
            raise ExplanationError("the query engine needs at least one graph")
        # Pattern index: (label, pattern_id) -> pattern object.
        self._patterns: dict[tuple[int, int], GraphPattern] = {}
        for view in self.views:
            for pattern in view.patterns:
                pattern_id = pattern.pattern_id if pattern.pattern_id is not None else len(self._patterns)
                self._patterns[(view.label, pattern_id)] = pattern

    # ------------------------------------------------------------------
    # pattern-centric queries
    # ------------------------------------------------------------------
    def patterns_for_label(self, label: int) -> list[GraphPattern]:
        """All higher-tier patterns explaining one label."""
        return list(self.views.view_for(label).patterns)

    def graphs_containing_pattern(self, pattern: GraphPattern, label: int | None = None) -> list[Graph]:
        """Source graphs (optionally restricted to a label group) containing the pattern."""
        result = []
        for graph in self.graphs:
            if label is not None and not self._graph_in_label_group(graph, label):
                continue
            if has_matching(pattern, graph):
                result.append(graph)
        return result

    def labels_with_pattern(self, pattern: GraphPattern) -> list[int]:
        """Labels whose explanation subgraphs contain the pattern (e.g. 'which
        classes does this toxicophore occur in?')."""
        return self.views.labels_containing_pattern(pattern)

    def discriminative_patterns(self, label: int) -> list[GraphPattern]:
        """Patterns that occur only in the given label's explanation subgraphs."""
        return self.views.discriminative_patterns(label)

    # ------------------------------------------------------------------
    # graph-centric queries
    # ------------------------------------------------------------------
    def explanation_for_graph(self, graph_id: int) -> dict[str, object] | None:
        """The explanation subgraph and matching patterns recorded for a graph."""
        for view in self.views:
            for subgraph in view.subgraphs:
                if subgraph.source_graph.graph_id == graph_id:
                    matching = [
                        pattern
                        for pattern in view.patterns
                        if has_matching(pattern, subgraph.subgraph())
                    ]
                    return {
                        "label": view.label,
                        "nodes": sorted(subgraph.nodes),
                        "patterns": matching,
                        "consistent": subgraph.consistent,
                        "counterfactual": subgraph.counterfactual,
                    }
        return None

    def summary(self) -> dict[int, dict[str, float]]:
        """Per-label summary: number of subgraphs, patterns, compression."""
        return {
            view.label: {
                "num_subgraphs": float(len(view.subgraphs)),
                "num_patterns": float(len(view.patterns)),
                "compression": view.compression(),
                "explainability": view.explainability,
            }
            for view in self.views
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _graph_in_label_group(self, graph: Graph, label: int) -> bool:
        if label not in self.views:
            return False
        view = self.views.view_for(label)
        graph_ids = {subgraph.source_graph.graph_id for subgraph in view.subgraphs}
        return graph.graph_id in graph_ids
