"""View verification: the ``EVerify`` / ``PMatch`` primitive operators.

Section 3.3 defines view verification as three constraints on a candidate
two-tier structure ``(P, Gs)``:

* **C1** — it is a graph view: the patterns cover every node of the
  subgraphs (graph-view property via node-induced matching);
* **C2** — each subgraph is an explanation subgraph: consistent
  (``M(Gs) = M(G)``) and counterfactual (``M(G \\ Gs) != M(G)``);
* **C3** — the view properly covers the label group under the configured
  coverage bounds ``[b_l, u_l]``.

The full decision problem is NP-complete; these operators implement the
practical verifiers GVEX uses (exact GNN inference for C2, bounded
isomorphism search for C1/C3).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.config import Configuration
from repro.core.explanation import ExplanationSubgraph, ExplanationView
from repro.gnn.models import GNNClassifier
from repro.graphs.graph import Graph
from repro.matching.coverage import pattern_set_covered_nodes

__all__ = ["EVerify", "VerificationReport", "verify_view"]


class EVerify:
    """GNN inference operator (constraint C2).

    ``EVerify`` answers the two model queries GVEX needs — "is this candidate
    subgraph still assigned the source label?" and "does removing it flip the
    label?" — one probe per question, sliced from the graph's CSR cache, and
    the ``VpExtend`` verdicts of a whole greedy frontier in one batched pass
    (:meth:`vp_extend`).  It keeps no memo: every answer is computed on the
    graph's current version.
    """

    def __init__(self, model: GNNClassifier) -> None:
        self.model = model

    def _classify(self, graph: Graph, nodes: Iterable[int]) -> int:
        """``M(G[nodes])``, sliced straight out of the graph's CSR cache."""
        return self.model.predict_node_subset(graph, nodes)

    def _classify_sets(
        self, graph: Graph, node_sets: Iterable[frozenset[int]]
    ) -> dict[frozenset[int], int]:
        """``M(G[nodes])`` of each distinct set, in one ``predict_subsets`` call."""
        distinct = list(dict.fromkeys(node_sets))
        if not distinct:
            return {}
        return dict(zip(distinct, self.model.predict_subsets(graph, distinct)))

    def predict(self, graph: Graph) -> int:
        """Label of a full graph."""
        return self._classify(graph, graph.nodes)

    def is_consistent(self, graph: Graph, nodes: set[int], label: int) -> bool:
        """C2 first half: ``M(G[nodes]) == label``."""
        if not nodes:
            return False
        return self._classify(graph, nodes) == label

    def is_counterfactual(self, graph: Graph, nodes: set[int], label: int) -> bool:
        """C2 second half: ``M(G \\ G[nodes]) != label``."""
        remaining = set(graph.nodes) - set(nodes)
        if not remaining:
            # Removing everything certainly removes the evidence for the label.
            return True
        return self._classify(graph, remaining) != label

    def vp_extend(
        self,
        graph: Graph,
        nodes: Sequence[int],
        selected: set[int],
        label: int,
        config: Configuration,
    ) -> list[bool]:
        """``VpExtend`` (Procedure 2) per frontier node: can it extend ``selected``?

        A node passes under ``verification_mode="none"`` or when
        ``selected | {node}`` is below ``min_check_size`` (too small for the
        GNN check to mean anything); else the extension must be consistent,
        and under ``"strict"`` also counterfactual.  The size bound is the
        caller's: the greedy loops stop before an extension could exceed it.
        The consistency probes of the whole frontier run in one
        ``predict_subsets`` call, and the strict residual probes in one more.
        """
        extensions = [frozenset(selected | {node}) for node in nodes]
        verdicts = [True] * len(extensions)
        if config.verification_mode == "none":
            return verdicts
        checked = [
            index for index, extended in enumerate(extensions)
            if len(extended) >= config.min_check_size
        ]
        labels = self._classify_sets(graph, (extensions[index] for index in checked))
        for index in checked:
            verdicts[index] = labels[extensions[index]] == label
        if config.verification_mode == "strict":
            all_nodes = frozenset(graph.nodes)
            residuals = {
                index: all_nodes - extensions[index] for index in checked if verdicts[index]
            }
            labels.update(
                self._classify_sets(
                    graph, (rest for rest in residuals.values() if rest and rest not in labels)
                )
            )
            for index, rest in residuals.items():
                # An empty residual certainly lacks the evidence for the label.
                verdicts[index] = not rest or labels[rest] != label
        return verdicts

    def annotate(self, subgraph: ExplanationSubgraph) -> ExplanationSubgraph:
        """Fill in the consistent/counterfactual flags of a subgraph."""
        subgraph.consistent = self.is_consistent(
            subgraph.source_graph, subgraph.nodes, subgraph.label
        )
        subgraph.counterfactual = self.is_counterfactual(
            subgraph.source_graph, subgraph.nodes, subgraph.label
        )
        return subgraph


@dataclass
class VerificationReport:
    """Outcome of the three-constraint view verification."""

    is_graph_view: bool
    is_explanation_view: bool
    properly_covers: bool
    uncovered_nodes: int
    total_subgraph_nodes: int
    inconsistent_subgraphs: int
    non_counterfactual_subgraphs: int

    @property
    def satisfied(self) -> bool:
        """True when all three constraints C1-C3 hold."""
        return self.is_graph_view and self.is_explanation_view and self.properly_covers


def verify_view(
    view: ExplanationView,
    model: GNNClassifier,
    config: Configuration,
    max_matchings: int | None = 64,
) -> VerificationReport:
    """Check constraints C1-C3 for an explanation view.

    The coverage constraint (C3) is interpreted per source graph: every
    explanation subgraph must contain between ``b_l`` and ``u_l`` nodes, the
    reading used by the paper's experiments when sweeping ``u_l``.
    """
    everify = EVerify(model)
    subgraph_objects = [subgraph.subgraph() for subgraph in view.subgraphs]

    # C1: the patterns must cover every node of every explanation subgraph.
    coverage = pattern_set_covered_nodes(view.patterns, subgraph_objects, max_matchings=max_matchings)
    uncovered = 0
    for index, graph in enumerate(subgraph_objects):
        uncovered += graph.num_nodes() - len(coverage[index])
    is_graph_view = uncovered == 0

    # C2: every subgraph must be consistent and counterfactual.
    inconsistent = 0
    non_counterfactual = 0
    for subgraph in view.subgraphs:
        if not everify.is_consistent(subgraph.source_graph, subgraph.nodes, subgraph.label):
            inconsistent += 1
        if not everify.is_counterfactual(subgraph.source_graph, subgraph.nodes, subgraph.label):
            non_counterfactual += 1
    is_explanation_view = inconsistent == 0 and non_counterfactual == 0

    # C3: coverage bounds.
    bound = config.bound_for(view.label)
    properly_covers = all(bound.contains(subgraph.num_nodes()) for subgraph in view.subgraphs)

    return VerificationReport(
        is_graph_view=is_graph_view,
        is_explanation_view=is_explanation_view,
        properly_covers=properly_covers,
        uncovered_nodes=uncovered,
        total_subgraph_nodes=sum(graph.num_nodes() for graph in subgraph_objects),
        inconsistent_subgraphs=inconsistent,
        non_counterfactual_subgraphs=non_counterfactual,
    )
