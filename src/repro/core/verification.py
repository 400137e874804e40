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

import weakref
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.config import Configuration
from repro.core.explanation import ExplanationSubgraph, ExplanationView
from repro.gnn.models import GNNClassifier
from repro.graphs.graph import Graph
from repro.graphs.subgraph import remove_subgraph
from repro.matching.coverage import pattern_set_covered_nodes

__all__ = ["EVerify", "VerificationReport", "prime_vp_extend_probes", "verify_view"]


def prime_vp_extend_probes(
    everify: "EVerify",
    graph: Graph,
    nodes: Sequence[int],
    selected: set[int],
    label: int,
    config: Configuration,
    upper: int | None = None,
) -> None:
    """Warm ``EVerify``'s memo for a whole ``VpExtend`` frontier at once.

    Primes the consistency probes of ``selected | {node}`` for every
    candidate (restricted to candidates within the ``upper`` size bound when
    given — the ApproxGVEX contract; StreamGVEX passes ``None`` because its
    full cache is handled by the swapping rule), and, under strict
    verification, the residual probes of the consistent candidates.  The
    subsequent per-node ``VpExtend`` calls then hit the cache instead of
    running one inference each.
    """
    if config.verification_mode == "none":
        return
    probes = []
    for node in nodes:
        extended = frozenset(selected | {node})
        if (upper is None or len(extended) <= upper) and len(extended) >= config.min_check_size:
            probes.append(extended)
    everify.prime(graph, probes)
    if config.verification_mode == "strict" and probes:
        all_nodes = set(graph.nodes)
        residuals = [
            frozenset(all_nodes - extended)
            for extended in probes
            if everify.is_consistent(graph, extended, label)
        ]
        everify.prime(graph, residuals)


class EVerify:
    """GNN inference operator with memoisation (constraint C2).

    ``EVerify`` answers the two model queries GVEX needs — "is this candidate
    subgraph still assigned the source label?" and "does removing it flip the
    label?" — caching predictions by (graph id, node set) so repeated greedy
    probes of the same candidate are free.
    """

    def __init__(self, model: GNNClassifier) -> None:
        self.model = model
        # Per graph object: (graph version when cached, {node set: label}).
        # A version bump drops that graph's entries wholesale, so probes on
        # mutating graphs neither read stale labels nor accumulate dead
        # entries from superseded versions.  Keyed by weak reference — not
        # ``id()`` — so a long-lived EVerify (worker pools reuse one
        # explainer across shards) can never serve another graph's labels
        # after CPython recycles a freed graph's address, and entries die
        # with their graphs instead of accumulating.
        self._cache: weakref.WeakKeyDictionary[Graph, tuple[int, dict[frozenset[int], int]]] = (
            weakref.WeakKeyDictionary()
        )
        self.inference_calls = 0

    def _labels(self, graph: Graph) -> dict[frozenset[int], int]:
        """The memo of ``graph``'s current version (older versions dropped)."""
        entry = self._cache.get(graph)
        if entry is None or entry[0] != graph.version:
            entry = (graph.version, {})
            self._cache[graph] = entry
        return entry[1]

    def _classify(self, graph: Graph, nodes: frozenset[int]) -> int:
        """``M(G[nodes])``, sliced straight out of the graph's CSR cache."""
        return self.model.predict_node_subset(graph, nodes)

    def _predict_nodes(self, graph: Graph, nodes: frozenset[int]) -> int:
        labels = self._labels(graph)
        label = labels.get(nodes)
        if label is None:
            label = labels[nodes] = self._classify(graph, nodes)
            self.inference_calls += 1
        return label

    def predict(self, graph: Graph) -> int:
        """Label of a full graph (cached)."""
        return self._predict_nodes(graph, frozenset(graph.nodes))

    def prime(self, graph: Graph, node_sets: Sequence[frozenset[int]]) -> int:
        """Batch-compute and cache the labels of many candidate node sets.

        All uncached sets are classified in a single block-diagonal
        message-passing pass (``GNNClassifier.predict_subsets``), so a
        greedy round that is about to probe a whole frontier pays one
        inference instead of one per candidate.  Subsequent
        :meth:`is_consistent` / :meth:`is_counterfactual` calls hit the
        cache.  Returns the number of sets actually classified; a no-op
        when fewer than two sets are missing.
        """
        labels = self._labels(graph)
        missing = [nodes for nodes in dict.fromkeys(node_sets) if nodes and nodes not in labels]
        if len(missing) < 2:
            return 0
        for nodes, label in zip(missing, self.model.predict_subsets(graph, missing)):
            labels[nodes] = label
        self.inference_calls += len(missing)
        return len(missing)

    def is_consistent(self, graph: Graph, nodes: set[int], label: int) -> bool:
        """C2 first half: ``M(G[nodes]) == label``."""
        if not nodes:
            return False
        return self._predict_nodes(graph, frozenset(nodes)) == label

    def is_counterfactual(self, graph: Graph, nodes: set[int], label: int) -> bool:
        """C2 second half: ``M(G \\ G[nodes]) != label``."""
        remaining = frozenset(set(graph.nodes) - set(nodes))
        if not remaining:
            # Removing everything certainly removes the evidence for the label.
            return True
        return self._predict_nodes(graph, remaining) != label

    def annotate(self, subgraph: ExplanationSubgraph) -> ExplanationSubgraph:
        """Fill in the consistent/counterfactual flags of a subgraph."""
        subgraph.consistent = self.is_consistent(
            subgraph.source_graph, subgraph.nodes, subgraph.label
        )
        subgraph.counterfactual = self.is_counterfactual(
            subgraph.source_graph, subgraph.nodes, subgraph.label
        )
        return subgraph

    def stats(self) -> dict[str, int]:
        entries = sum(len(labels) for _, labels in self._cache.values())
        return {"inference_calls": self.inference_calls, "cache_entries": entries}


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


def residual_prediction(model: GNNClassifier, graph: Graph, nodes: set[int]) -> int:
    """Label assigned to ``G \\ G[nodes]`` (convenience wrapper for metrics)."""
    return model.predict(remove_subgraph(graph, nodes))
