"""ApproxGVEX: the explain-and-summarize algorithm of section 4.

The paper's 1/2 approximation ratio bounds the greedy phase (steps 2-3
below).  Under verification, :meth:`ApproxGVEX._complete_counterfactual`
then swaps nodes to make the explanation counterfactual, and that pass has
no floor: on 12 of 45 small audit graphs (<= 16 nodes) it ended below half
of the brute-force Eq.-2 optimum.

For a single source graph the algorithm

1. precomputes influence/diversity structures once (``EVerify`` line 2),
2. greedily grows a node set ``Vs`` by repeatedly adding the candidate with
   the largest marginal explainability gain, where candidates are the nodes
   that pass the ``VpExtend`` verification (consistency / size bound), up to
   the upper coverage bound ``u_l``,
3. tops up from the backup candidate set ``Vu`` until the lower bound ``b_l``
   is met (returning nothing when that is impossible), and
4. summarises the induced explanation subgraphs into patterns with ``Psum``.

:class:`ApproxGVEX` applies this per graph of a label group
(:meth:`~ApproxGVEX.explain_rows`) and assembles the per-label
:class:`~repro.core.explanation.ExplanationView` once over all rows
(:func:`assemble_view`).
Growth and top-up run the CELF engine of :mod:`repro.core.selection`.  The
greedy tie-break and the counterfactual swap loop score their candidates
from probe families (:class:`~repro.graphs.sparse.SubsetFamily`): one
batched pass per step returns every label probability as an array, and the
keys are the same float operations the per-subset form computes.  The eager
loops and the per-subset probes this reproduces node for node live in
:mod:`repro.core.oracles`, for the identity tests and the benchmarks.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.config import Configuration, CoverageBound
from repro.core.explanation import (
    ExplanationRow,
    ExplanationSubgraph,
    ExplanationView,
    ExplanationViewSet,
)
from repro.core.quality import GraphAnalysis
from repro.core.sampling import build_analysis
from repro.core.selection import lazy_greedy_select, top_up_select
from repro.core.summarize import summarize_subgraphs
from repro.core.verification import EVerify
from repro.exceptions import ExplanationError
from repro.gnn.models import GNNClassifier
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.sparse import SubsetFamily
from repro.matching.engine import apply_config_cache_size
from repro.mining.candidates import PatternGenerator

__all__ = ["ApproxGVEX", "assemble_view"]


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
        backup: set[int] = set()
        selected = self._grow(graph, label, analysis, bound, backup)
        if len(selected) < bound.lower and backup - selected:
            selected = self._top_up(graph, label, analysis, selected, backup, bound.lower)
        if len(selected) < bound.lower or not selected:
            return None
        if self.config.verification_mode != "none":
            selected = self._complete_counterfactual(graph, label, analysis, selected)
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
            probabilities = self._label_probabilities(graph, label, [(all_nodes - current, tied)])
            gains = (probabilities[0] - probabilities[1:]).tolist()
            return max(
                zip(tied, gains),
                key=lambda pair: (
                    round(pair[1], 6), analysis.exerted_influence(pair[0]), -pair[0]
                ),
            )[0]

        return lazy_greedy_select(
            analysis,
            graph.nodes,
            set(),
            bound.upper,
            # The budget keeps every extension within ``bound.upper``.
            lambda nodes, current: self.everify.vp_extend(graph, nodes, current, label, self.config),
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
        return top_up_select(
            self.everify, self.config, graph, label, analysis, selected, backup, lower
        )

    def _label_probabilities(
        self,
        graph: Graph,
        label: int,
        parts: Iterable[tuple[Iterable[int], Iterable[int]]],
    ) -> np.ndarray:
        """``P(label | G[nodes])`` of every block of a :class:`SubsetFamily`.

        One batched probe; an empty block reads 0.0.
        """
        family = SubsetFamily(parts)
        probabilities = self.model.predict_proba_subsets(graph, family)[:, label]
        probabilities[family.sizes == 0] = 0.0
        return probabilities

    def _complete_counterfactual(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
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
            outside = sorted(all_nodes - selected)
            # Nodes brought in by earlier swaps are protected from eviction,
            # otherwise the loop can oscillate and never assemble the full
            # counterfactual evidence set.
            evictable = selected - swapped_in
            if not outside or not evictable:
                break
            best_out = self._best_swap_in(graph, label, analysis, selected, outside)
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

    def _best_swap_in(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
        selected: set[int],
        outside: Sequence[int],
    ) -> int:
        """The outside node with the largest counterfactual plus sufficiency gain.

        One probe family scores every candidate: the residual graph and its
        leave-one-out sets, then the kept subgraph and its add-one sets.
        """
        probabilities = self._label_probabilities(
            graph, label, [(outside, outside), (selected, outside)]
        )
        residual, current = probabilities[0], probabilities[len(outside) + 1]
        removal = residual - probabilities[1 : len(outside) + 1]
        addition = probabilities[len(outside) + 2 :] - current
        gains = (removal + addition).tolist()
        return max(
            zip(outside, gains),
            key=lambda pair: (round(pair[1], 6), analysis.exerted_influence(pair[0]), -pair[0]),
        )[0]

    # ------------------------------------------------------------------
    # per-label view and full view-set drivers
    # ------------------------------------------------------------------
    def _predicted_labels(self, graphs: Sequence[Graph]) -> list[int]:
        """Predicted label per graph (one batched pass for the whole group)."""
        return self.model.predict_many(graphs)

    def explain_rows(self, graphs: Sequence[Graph], label: int) -> list[ExplanationRow]:
        """The explanation phase over a label group: one row per graph.

        A row holds the explanation subgraph of a graph the GNN assigns
        ``label``, in input order; graphs without one (Algorithm 1 lines
        16-17) contribute no row.
        """
        rows: list[ExplanationRow] = []
        for graph, predicted in zip(graphs, self._predicted_labels(graphs)):
            if predicted != label:
                continue
            explanation = self.explain_graph(graph, label)
            if explanation is not None:
                rows.append(ExplanationRow(graph.graph_id, label, explanation))
        return rows

    def assemble(self, rows: Iterable[ExplanationRow], label: int, start: float) -> ExplanationView:
        """This explainer's view over ``rows`` (see :func:`assemble_view`)."""
        return assemble_view(rows, label, self.pattern_generator, "ApproxGVEX", start)

    def explain_label(self, graphs: Sequence[Graph], label: int) -> ExplanationView:
        """Explanation view for one label group (graphs the GNN assigns ``label``)."""
        start = time.perf_counter()
        return self.assemble(self.explain_rows(graphs, label), label, start)

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


def assemble_view(
    rows: Iterable[ExplanationRow],
    label: int,
    pattern_generator: PatternGenerator,
    algorithm: str,
    start: float,
) -> ExplanationView:
    """The summarize step: one label's two-tier view from its per-graph rows.

    One ``Psum`` pass over *all* explanation subgraphs of the label group,
    in row order, plus the view and its metadata (``runtime_seconds`` counts
    from the ``perf_counter`` timestamp ``start``).  Every explain-and-
    summarize view is built here: :meth:`ApproxGVEX.explain_label`, the
    baseline adapter, and the shard router over rows gathered from every
    shard and put back in request order, so a sharded answer is the
    single-process answer.
    """
    subgraphs = [row.subgraph for row in rows if row.subgraph is not None]
    summary = summarize_subgraphs(
        [subgraph.subgraph() for subgraph in subgraphs], pattern_generator=pattern_generator
    )
    return ExplanationView(
        label=label,
        patterns=summary.patterns,
        subgraphs=subgraphs,
        explainability=float(sum(subgraph.explainability for subgraph in subgraphs)),
        metadata={
            "algorithm": algorithm,
            "edge_loss": summary.edge_loss,
            "node_coverage": summary.node_coverage,
            "fallback_singletons": summary.fallback_singletons,
            "runtime_seconds": time.perf_counter() - start,
        },
    )
