"""Explanation structures: explanation subgraphs, explanation views, view sets.

These are the output objects of GVEX (section 2.2):

* :class:`ExplanationSubgraph` — the lower tier: a node-induced subgraph of a
  source graph that is consistent (same predicted label) and counterfactual
  (removing it flips the prediction);
* :class:`ExplanationView` — one label's two-tier view ``(P^l, G_s^l)``;
* :class:`ExplanationRow` — one graph's share of a view, the unit every
  fan-out boundary carries (:meth:`ExplanationRow.to_dict` is its one wire
  and snapshot form, :func:`assemble_view_from_rows` its one decode and
  assembly call);
* :class:`ExplanationViewSet` — the per-label collection ``{G^l_V | l in L}``
  returned by the end-to-end explainers, with the query helpers that make the
  views "queryable".
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ExplanationError
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.graphs.subgraph import induced_subgraph, remove_subgraph
from repro.matching.engine import has_matching

__all__ = [
    "ExplanationRow",
    "ExplanationSubgraph",
    "ExplanationView",
    "ExplanationViewSet",
    "assemble_view_from_rows",
]


@dataclass
class ExplanationSubgraph:
    """A lower-tier explanation subgraph ``G^l_s`` for one source graph."""

    source_graph: Graph
    nodes: set[int]
    label: int
    explainability: float = 0.0
    consistent: bool | None = None
    counterfactual: bool | None = None

    def subgraph(self) -> Graph:
        """The node-induced subgraph object."""
        return induced_subgraph(self.source_graph, self.nodes)

    def residual(self) -> Graph:
        """``G \\ G_s`` — the source graph with the explanation removed."""
        return remove_subgraph(self.source_graph, self.nodes)

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_edges(self) -> int:
        return self.subgraph().num_edges()

    def sparsity(self) -> float:
        """Per-graph sparsity ``1 - (|Vs|+|Es|)/(|V|+|E|)`` (Eq. 10 term)."""
        total = self.source_graph.num_nodes() + self.source_graph.num_edges()
        if total == 0:
            return 0.0
        return 1.0 - (self.num_nodes() + self.num_edges()) / total

    def is_valid_explanation(self) -> bool:
        """True when both the consistent and counterfactual properties hold."""
        return bool(self.consistent) and bool(self.counterfactual)

    def to_dict(self) -> dict[str, Any]:
        return {
            "source_graph_id": self.source_graph.graph_id,
            "nodes": sorted(self.nodes),
            "label": self.label,
            "explainability": self.explainability,
            "consistent": self.consistent,
            "counterfactual": self.counterfactual,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any], source_graph: Graph) -> "ExplanationSubgraph":
        """The subgraph fields of a :meth:`to_dict` or row payload, over ``source_graph``.

        Values come back exactly as JSON carried them (no ``float()``
        coercion), so a decoded view hashes like the one that was encoded.
        """
        return cls(
            source_graph=source_graph,
            nodes=set(payload["nodes"]),
            label=payload["label"],
            explainability=payload.get("explainability", 0.0),
            consistent=payload.get("consistent"),
            counterfactual=payload.get("counterfactual"),
        )


@dataclass
class ExplanationRow:
    """One graph's share of a label's view.

    ``subgraph`` is the graph's explanation subgraph, or ``None`` when the
    streaming pass could not meet the lower coverage bound.  ``patterns``
    are the patterns StreamGVEX maintains per graph; ApproxGVEX and the
    baselines leave them empty and mine patterns once, at assembly.
    ``runtime_seconds`` is the streaming pass's cost for this graph (0.0
    where an explainer does not time its rows).  A row depends on its
    graph alone, which is what lets a sharded tier compute rows anywhere
    and assemble them once.
    """

    graph_id: int | None
    label: int | None
    subgraph: ExplanationSubgraph | None
    patterns: list[GraphPattern] = field(default_factory=list)
    runtime_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """The row's JSON-safe form: the wire format, and the snapshot row
        less its ``stored_label``."""
        subgraph = self.subgraph
        return {
            "graph_id": self.graph_id,
            "label": self.label,
            "nodes": None if subgraph is None else sorted(subgraph.nodes),
            "explainability": None if subgraph is None else subgraph.explainability,
            "consistent": None if subgraph is None else subgraph.consistent,
            "counterfactual": None if subgraph is None else subgraph.counterfactual,
            "patterns": [pattern.to_dict() for pattern in self.patterns],
            "runtime_seconds": self.runtime_seconds,
        }

    @classmethod
    def from_dict(
        cls, payload: dict[str, Any], source_graph: Graph | None, **fields: Any
    ) -> "ExplanationRow":
        """Inverse of :meth:`to_dict`, over the decoding side's graph.

        ``fields`` are passed on to the constructor (a subclass's own
        fields).
        """
        return cls(
            graph_id=payload.get("graph_id"),
            label=payload.get("label"),
            subgraph=(
                None
                if payload.get("nodes") is None
                else ExplanationSubgraph.from_dict(payload, source_graph)
            ),
            patterns=[GraphPattern.from_dict(entry) for entry in payload.get("patterns", [])],
            runtime_seconds=float(payload.get("runtime_seconds", 0.0)),
            **fields,
        )


@dataclass
class ExplanationView:
    """A two-tier explanation view ``G^l_V = (P^l, G^l_s)`` for one label."""

    label: int
    patterns: list[GraphPattern] = field(default_factory=list)
    subgraphs: list[ExplanationSubgraph] = field(default_factory=list)
    explainability: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # sizes used by the conciseness metrics
    # ------------------------------------------------------------------
    def total_subgraph_nodes(self) -> int:
        return sum(subgraph.num_nodes() for subgraph in self.subgraphs)

    def total_subgraph_edges(self) -> int:
        return sum(subgraph.num_edges() for subgraph in self.subgraphs)

    def total_pattern_nodes(self) -> int:
        return sum(pattern.num_nodes() for pattern in self.patterns)

    def total_pattern_edges(self) -> int:
        return sum(pattern.num_edges() for pattern in self.patterns)

    def compression(self) -> float:
        """Eq. 11: how much smaller the patterns are than the subgraphs."""
        subgraph_size = self.total_subgraph_nodes() + self.total_subgraph_edges()
        if subgraph_size == 0:
            return 0.0
        pattern_size = self.total_pattern_nodes() + self.total_pattern_edges()
        return 1.0 - pattern_size / subgraph_size

    # ------------------------------------------------------------------
    # queryable interface
    # ------------------------------------------------------------------
    def subgraph_objects(self) -> list[Graph]:
        """The induced subgraph objects of the lower tier."""
        return [subgraph.subgraph() for subgraph in self.subgraphs]

    def patterns_matching(self, graph: Graph) -> list[GraphPattern]:
        """Patterns of this view that occur in the given graph."""
        return [pattern for pattern in self.patterns if has_matching(pattern, graph)]

    def graphs_containing(self, pattern: GraphPattern) -> list[Graph]:
        """Source graphs of this view whose explanation subgraph contains the pattern."""
        result = []
        for subgraph in self.subgraphs:
            if has_matching(pattern, subgraph.subgraph()):
                result.append(subgraph.source_graph)
        return result

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "explainability": self.explainability,
            "patterns": [pattern.to_dict() for pattern in self.patterns],
            "subgraphs": [subgraph.to_dict() for subgraph in self.subgraphs],
            "metadata": dict(self.metadata),
        }


class ExplanationViewSet:
    """The per-label collection of explanation views ``{G^l_V}``."""

    def __init__(self, views: Sequence[ExplanationView] | None = None) -> None:
        self._views: dict[int, ExplanationView] = {}
        for view in views or []:
            self.add(view)

    def add(self, view: ExplanationView) -> None:
        self._views[view.label] = view

    def labels(self) -> list[int]:
        return sorted(self._views)

    def view_for(self, label: int) -> ExplanationView:
        return self._views[label]

    def __contains__(self, label: object) -> bool:
        return label in self._views

    def __len__(self) -> int:
        return len(self._views)

    def __iter__(self) -> Iterator[ExplanationView]:
        return iter(self._views[label] for label in self.labels())

    def total_explainability(self) -> float:
        """The aggregated objective of Eq. 7."""
        return float(sum(view.explainability for view in self))

    # ------------------------------------------------------------------
    # cross-label queries (the "queryable" property)
    # ------------------------------------------------------------------
    def labels_containing_pattern(self, pattern: GraphPattern) -> list[int]:
        """Which labels' explanation subgraphs contain a given pattern?

        This answers queries such as "which toxicophores occur in mutagens?"
        from the paper's Example 1.1.
        """
        result = []
        for view in self:
            if any(has_matching(pattern, sub.subgraph()) for sub in view.subgraphs):
                result.append(view.label)
        return result

    def discriminative_patterns(self, label: int) -> list[GraphPattern]:
        """Patterns of one label's view that occur in *no other* label's subgraphs."""
        view = self.view_for(label)
        other_subgraphs = [
            sub.subgraph()
            for other in self
            if other.label != label
            for sub in other.subgraphs
        ]
        discriminative = []
        for pattern in view.patterns:
            if not any(has_matching(pattern, graph) for graph in other_subgraphs):
                discriminative.append(pattern)
        return discriminative

    def to_dict(self) -> dict[str, Any]:
        return {"views": [view.to_dict() for view in self]}


def assemble_view_from_rows(
    payloads: Iterable[dict[str, Any]],
    label: int,
    graphs_by_id: dict[int | None, Graph],
    explainer: Any,
    start: float,
) -> ExplanationView:
    """Decode row payloads and assemble one label's view with ``explainer``.

    The receiving half of every fan-out: a coordinator collects
    :meth:`ExplanationRow.to_dict` payloads, puts them in its own global
    order, and hands them here together with the explainer whose
    ``assemble`` law builds the view.  Payloads of another label are
    skipped, so callers may pass unfiltered rows.  Raises when a row names
    a graph ``graphs_by_id`` does not hold: placement and assembly must
    agree on membership, and silently dropping a row would corrupt the
    view.
    """

    def decoded() -> Iterator[ExplanationRow]:
        # Lazily: an assembly keeps few of a row's decoded patterns, so the
        # rest are freed row by row instead of all living until the end.
        for payload in payloads:
            if payload.get("label") != label:
                continue
            graph = graphs_by_id.get(payload.get("graph_id"))
            if graph is None:
                raise ExplanationError(
                    f"cannot assemble the view for label {label}: row graph "
                    f"{payload.get('graph_id')!r} is not in the assembling database"
                )
            yield ExplanationRow.from_dict(payload, graph)

    return explainer.assemble(decoded(), label, start)
