"""ApproxGVEX: the 1/2-approximate explain-and-summarize algorithm (section 4).

For a single source graph the algorithm

1. precomputes influence/diversity structures once (``EVerify`` line 2),
2. greedily grows a node set ``Vs`` by repeatedly adding the candidate with
   the largest marginal explainability gain, where candidates are the nodes
   that pass the ``VpExtend`` verification (consistency / size bound), up to
   the upper coverage bound ``u_l``,
3. tops up from the backup candidate set ``Vu`` until the lower bound ``b_l``
   is met (returning nothing when that is impossible), and
4. summarises the induced explanation subgraphs into patterns with ``Psum``.

The driver :class:`ApproxGVEX` applies this per graph of a label group and
assembles the per-label :class:`~repro.core.explanation.ExplanationView`.
Growth and top-up run the CELF engine of :mod:`repro.core.selection`; the
eager loops it reproduces node for node live in :mod:`repro.core.oracles`,
for the identity tests and the benchmarks.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.core.caching import LRUCache, accumulate_cache_stats
from repro.core.config import Configuration, CoverageBound
from repro.core.explanation import ExplanationSubgraph, ExplanationView, ExplanationViewSet
from repro.core.quality import GraphAnalysis
from repro.core.sampling import build_analysis
from repro.core.selection import lazy_greedy_select
from repro.core.summarize import summarize_subgraphs
from repro.core.verification import EVerify, prime_vp_extend_probes
from repro.exceptions import ExplanationError
from repro.gnn.models import GNNClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.subgraph import induced_subgraph
from repro.matching.engine import apply_config_cache_size
from repro.mining.candidates import PatternGenerator

__all__ = ["ApproxGVEX", "SubsetProbabilities"]


class SubsetProbabilities:
    """``P(label | G[nodes])`` for node subsets of one graph, memoised.

    The greedy tie-breakers and the counterfactual swap loop probe many
    overlapping subsets.  The memo is an LRU capped by the configuration, so
    memory stays flat on large graphs; each miss is a matrix slice plus a
    forward pass rather than a materialised subgraph.
    """

    def __init__(self, model: GNNClassifier, graph: Graph, label: int, capacity: int) -> None:
        self.model = model
        self.graph = graph
        self.label = label
        self.cache: LRUCache[frozenset[int], float] = LRUCache(capacity)

    def __call__(self, nodes: frozenset[int]) -> float:
        if not nodes:
            return 0.0
        cached = self.cache.get(nodes)
        if cached is None:
            cached = float(self.model.predict_proba_nodes(self.graph, nodes)[self.label])
            self.cache.put(nodes, cached)
        return cached

    def removal_gain(self, residual: frozenset[int], node: int) -> float:
        """Drop in the residual graph's probability when ``node`` leaves it."""
        return self(residual) - self(residual - {node})

    def addition_gain(self, kept: frozenset[int], node: int) -> float:
        """Rise in the kept subgraph's probability when ``node`` joins it."""
        return self(kept | {node}) - self(kept)

    def prefetch(self, node_sets: Sequence[frozenset[int]]) -> None:
        """Fill the memo for many subsets with one batched forward pass."""
        if self.cache.capacity <= 0:
            return  # nowhere to store the batch results
        missing = [
            nodes for nodes in dict.fromkeys(node_sets) if nodes and nodes not in self.cache
        ]
        if len(missing) < 2:
            return
        probabilities = self.model.predict_proba_subsets(self.graph, missing)
        for nodes, row in zip(missing, probabilities):
            self.cache.put(nodes, float(row[self.label]))


class ApproxGVEX:
    """Explain-and-summarize view generation (Algorithm 1 + driver).

    Parameters
    ----------
    model:
        The fixed, trained GNN classifier ``M``.
    config:
        The GVEX configuration ``C``.
    pattern_generator:
        Optional custom ``PGen``; by default one is built from the
        configuration's pattern caps.
    """

    def __init__(
        self,
        model: GNNClassifier,
        config: Configuration | None = None,
        pattern_generator: PatternGenerator | None = None,
    ) -> None:
        self.model = model
        self.config = config or Configuration()
        self.pattern_generator = pattern_generator or PatternGenerator(
            max_pattern_size=self.config.max_pattern_size,
            max_candidates=self.config.max_pattern_candidates,
        )
        self.everify = EVerify(model)
        # The match memo is process-wide; apply this configuration's cap
        # (a REPRO_MATCH_CACHE_SIZE operator override takes precedence).
        apply_config_cache_size(self.config.match_cache_size)

    def _build_analysis(self, graph: Graph) -> GraphAnalysis:
        """Influence/diversity structures of one graph (Algorithm 1 line 2)."""
        return build_analysis(self.model, graph, self.config)

    # ------------------------------------------------------------------
    # VpExtend (Procedure 2)
    # ------------------------------------------------------------------
    def _vp_extend(
        self,
        candidate: int,
        selected: set[int],
        graph: Graph,
        label: int,
    ) -> bool:
        """Can ``candidate`` extend the current explanation node set?"""
        bound = self.config.bound_for(label)
        extended = selected | {candidate}
        if len(extended) > bound.upper:
            return False
        if self.config.verification_mode == "none":
            return True
        if len(extended) < self.config.min_check_size:
            # Too small for the GNN consistency check to be meaningful.
            return True
        if not self.everify.is_consistent(graph, extended, label):
            return False
        if self.config.verification_mode == "strict":
            if not self.everify.is_counterfactual(graph, extended, label):
                return False
        return True

    def _vp_extend_many(
        self,
        nodes: Sequence[int],
        selected: set[int],
        graph: Graph,
        label: int,
    ) -> list[bool]:
        """Batched ``VpExtend``: same per-node answers, amortised inference.

        The model probes behind the per-node checks are primed through
        ``EVerify.prime`` — one block-diagonal inference pass for the whole
        frontier — before the (now cache-hitting) per-node logic runs.
        """
        prime_vp_extend_probes(
            self.everify, graph, nodes, selected, label, self.config,
            upper=self.config.bound_for(label).upper,
        )
        return [self._vp_extend(node, selected, graph, label) for node in nodes]

    # ------------------------------------------------------------------
    # explanation phase for a single graph (Algorithm 1 lines 1-17)
    # ------------------------------------------------------------------
    def explain_graph(self, graph: Graph, label: int | None = None) -> ExplanationSubgraph | None:
        """Compute an explanation subgraph for one graph, or ``None``.

        ``None`` is returned when no candidate set satisfying the lower
        coverage bound exists (Algorithm 1 lines 16-17).
        """
        if graph.num_nodes() == 0:
            return None
        if label is None:
            label = self.model.predict(graph)
        bound = self.config.bound_for(label)
        analysis = self._build_analysis(graph)
        probabilities = SubsetProbabilities(
            self.model, graph, label, self.config.label_probability_cache_size
        )
        try:
            backup: set[int] = set()
            selected = self._grow(graph, label, analysis, probabilities, bound, backup)
            if len(selected) < bound.lower and backup - selected:
                selected = self._top_up(graph, label, analysis, selected, backup, bound.lower)
            if len(selected) < bound.lower or not selected:
                return None
            if self.config.verification_mode != "none":
                selected = self._complete_counterfactual(
                    graph, label, analysis, probabilities, selected
                )
        finally:
            # The memo dies with this call; bank its counters for stats().
            accumulate_cache_stats("label_probability", probabilities.cache)
        subgraph = ExplanationSubgraph(
            source_graph=graph,
            nodes=selected,
            label=label,
            explainability=analysis.explainability(selected),
        )
        return self.everify.annotate(subgraph)

    def _grow(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
        probabilities: SubsetProbabilities,
        bound: CoverageBound,
        backup: set[int],
    ) -> set[int]:
        """Greedy growth under the upper bound (Algorithm 1 lines 3-9).

        Keeps selecting the candidate with the best marginal gain until the
        size budget is exhausted or no candidate passes ``VpExtend``; when
        the bound has a lower end, every node that ever passes verification
        lands in ``backup`` for the top-up.  Runs the
        CELF engine, which re-evaluates only the heap entries whose stale
        upper bound still competes.  Ties on the Eq.-2 gain (coverage
        saturates quickly on small graphs) go to the largest counterfactual
        gain: the drop in the residual graph's probability of ``label`` when
        the node moves into the explanation, which steers the budget towards
        the nodes the classifier actually relies on.
        """
        all_nodes = frozenset(graph.nodes)

        def choose_tied(tied: Sequence[int], current: set[int]) -> int:
            residual = all_nodes - current
            self._prefetch(probabilities, [residual] + [residual - {node} for node in tied])
            return max(
                tied,
                key=lambda node: (
                    round(probabilities.removal_gain(residual, node), 6),
                    analysis.exerted_influence(node),
                    -node,
                ),
            )

        return lazy_greedy_select(
            analysis,
            graph.nodes,
            set(),
            bound.upper,
            lambda nodes, current: self._vp_extend_many(nodes, current, graph, label),
            choose_tied,
            gain_key=lambda gain: round(float(gain), 9),
            backup=backup if bound.lower > 0 else None,
        )

    def _top_up(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
        selected: set[int],
        backup: set[int],
        lower: int,
    ) -> set[int]:
        """Grow ``selected`` from the backup set until the lower bound is met."""
        return lazy_greedy_select(
            analysis,
            sorted(backup - selected),
            selected,
            lower,
            lambda nodes, current: self._vp_extend_many(nodes, current, graph, label),
            lambda tied, current: min(tied),
        )

    def _prefetch(
        self, probabilities: SubsetProbabilities, node_sets: Sequence[frozenset[int]]
    ) -> None:
        """Batch the label-probability probes a selection step is about to make."""
        probabilities.prefetch(node_sets)

    def _complete_counterfactual(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
        probabilities: SubsetProbabilities,
        selected: set[int],
    ) -> set[int]:
        """Swap nodes until ``M(G \\ Gs) != l`` holds or one pass is spent.

        The definition of an explanation subgraph (section 2.2) requires the
        counterfactual property.  On very robust classifiers the greedy
        influence-maximising selection may leave it unsatisfied within the
        size budget, so the least valuable selected nodes are swapped for the
        unselected nodes with the largest counterfactual plus sufficiency
        gain.  The sufficiency gain is the rise in the kept subgraph's own
        probability of ``label`` when a node joins it: when a classifier's
        evidence is spread over a motif, single-node removals barely move the
        residual probability, but the nodes that make the kept subgraph
        sufficient are the ones whose joint removal flips the prediction.
        """
        all_nodes = frozenset(graph.nodes)
        swaps_left = len(selected)
        swapped_in: set[int] = set()
        while swaps_left > 0 and not self.everify.is_counterfactual(graph, selected, label):
            outside = all_nodes - selected
            # Nodes brought in by earlier swaps are protected from eviction,
            # otherwise the loop can oscillate and never assemble the full
            # counterfactual evidence set.
            evictable = selected - swapped_in
            if not outside or not evictable:
                break
            residual = frozenset(outside)
            current = frozenset(selected)
            self._prefetch(
                probabilities,
                [residual, current]
                + [residual - {node} for node in outside]
                + [current | {node} for node in outside],
            )
            best_out = max(
                outside,
                key=lambda node: (
                    round(
                        probabilities.removal_gain(residual, node)
                        + probabilities.addition_gain(current, node),
                        6,
                    ),
                    analysis.exerted_influence(node),
                    -node,
                ),
            )
            weakest_in = min(
                evictable,
                key=lambda node: (
                    analysis.loss_of_removal(selected, node),
                    analysis.exerted_influence(node),
                    node,
                ),
            )
            selected = (selected - {weakest_in}) | {best_out}
            swapped_in.add(best_out)
            swaps_left -= 1
        return selected

    # ------------------------------------------------------------------
    # per-label view and full view-set drivers
    # ------------------------------------------------------------------
    def _predicted_labels(self, graphs: Sequence[Graph]) -> list[int]:
        """Predicted label per graph (one batched pass for the whole group)."""
        return self.model.predict_many(graphs)

    def explain_label(self, graphs: Sequence[Graph], label: int) -> ExplanationView:
        """Explanation view for one label group (graphs the GNN assigns ``label``)."""
        start = time.perf_counter()
        subgraphs: list[ExplanationSubgraph] = []
        for graph, predicted in zip(graphs, self._predicted_labels(graphs)):
            if predicted != label:
                continue
            explanation = self.explain_graph(graph, label)
            if explanation is not None:
                subgraphs.append(explanation)
        summary = summarize_subgraphs(
            [explanation.subgraph() for explanation in subgraphs],
            pattern_generator=self.pattern_generator,
        )
        view = ExplanationView(
            label=label,
            patterns=summary.patterns,
            subgraphs=subgraphs,
            explainability=float(sum(explanation.explainability for explanation in subgraphs)),
            metadata={
                "algorithm": "ApproxGVEX",
                "edge_loss": summary.edge_loss,
                "node_coverage": summary.node_coverage,
                "fallback_singletons": summary.fallback_singletons,
                "runtime_seconds": time.perf_counter() - start,
            },
        )
        return view

    def explain(
        self,
        database: GraphDatabase | Sequence[Graph],
        labels: Sequence[int] | None = None,
    ) -> ExplanationViewSet:
        """Explanation views for every label of interest over a database."""
        graphs = list(database.graphs) if isinstance(database, GraphDatabase) else list(database)
        if not graphs:
            raise ExplanationError("cannot explain an empty graph collection")
        if labels is None:
            labels = sorted(set(self._predicted_labels(graphs)))
        views = ExplanationViewSet()
        for label in labels:
            views.add(self.explain_label(graphs, label))
        return views

    # ------------------------------------------------------------------
    # instance-level convenience (used by the baseline comparison harness)
    # ------------------------------------------------------------------
    def explain_instance(self, graph: Graph) -> ExplanationSubgraph:
        """Single-graph explanation with the graph's predicted label."""
        label = self.model.predict(graph)
        explanation = self.explain_graph(graph, label)
        if explanation is None:
            # Fall back to the highest-influence node so the caller always
            # receives a (possibly tiny) explanation to score.
            analysis = self._build_analysis(graph)
            best = max(graph.nodes, key=lambda node: analysis.explainability({node}))
            explanation = ExplanationSubgraph(
                source_graph=graph,
                nodes={best},
                label=label,
                explainability=analysis.explainability({best}),
            )
            self.everify.annotate(explanation)
        return explanation

    def induced_view_subgraphs(self, view: ExplanationView) -> list[Graph]:
        """Materialised subgraph objects of a view (utility for case studies)."""
        return [induced_subgraph(sub.source_graph, sub.nodes) for sub in view.subgraphs]
