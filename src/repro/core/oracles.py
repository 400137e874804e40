"""Reference implementations the production explainers are checked against.

The production explainers run one path each: CELF selection with batched
probes in :class:`~repro.core.approx.ApproxGVEX`, and the batched swap pass
in :class:`~repro.core.maintenance.NodeStreamProcessor`.  The classes here
override those classes' hook methods with the paper-literal loops:

* :class:`ReferenceApproxGVEX` re-verifies and re-scores every unselected
  node on every greedy round, tops up the same way, probes one subset at a
  time, and predicts labels one graph at a time.
* :class:`ReferenceStreamProcessor` streams node by node and applies
  ``IncUpdateVS`` in the paper's order: case (b) (skip nodes whose
  neighbourhood adds no new pattern) before case (c) (the swap rule).  Its
  top-up and label prediction are the eager ones too.
* :class:`ReferenceStreamGVEX` is StreamGVEX running that pass.

Both paths give identical views on every input.  The identity tests and the
benchmark A/B arms import this module; production code must not.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.approx import ApproxGVEX, SubsetProbabilities
from repro.core.config import CoverageBound
from repro.core.maintenance import NodeStreamProcessor
from repro.core.quality import GraphAnalysis
from repro.core.streaming import StreamGVEX
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.matching.incremental import IncrementalMatcher

__all__ = ["ReferenceApproxGVEX", "ReferenceStreamGVEX", "ReferenceStreamProcessor"]


class _EagerTopUpAndLabels:
    """The eager top-up and per-graph label prediction both oracles share."""

    def _top_up(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
        selected: set[int],
        backup: set[int],
        lower: int,
    ) -> set[int]:
        selected = set(selected)
        while len(selected) < lower and backup - selected:
            usable = [
                node for node in backup - selected
                if self._vp_extend(node, selected, graph, label)
            ]
            if not usable:
                break
            gains = analysis.marginal_gains(selected, usable)
            best = max(range(len(usable)), key=lambda slot: (float(gains[slot]), -usable[slot]))
            selected.add(usable[best])
        return selected

    def _predicted_labels(self, graphs: Sequence[Graph]) -> list[int]:
        return [self.model.predict(graph) for graph in graphs]


class ReferenceApproxGVEX(_EagerTopUpAndLabels, ApproxGVEX):
    """ApproxGVEX with the eager greedy loops and per-subset probes."""

    def _grow(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
        probabilities: SubsetProbabilities,
        bound: CoverageBound,
        backup: set[int],
    ) -> set[int]:
        all_nodes = frozenset(graph.nodes)
        selected: set[int] = set()
        while len(selected) < bound.upper and all_nodes - selected:
            candidates = [
                node for node in all_nodes - selected
                if self._vp_extend(node, selected, graph, label)
            ]
            backup |= set(candidates)
            if not candidates:
                break
            gains = analysis.marginal_gains(selected, candidates)
            residual = all_nodes - selected
            best = max(
                range(len(candidates)),
                key=lambda slot: (
                    round(float(gains[slot]), 9),
                    round(probabilities.removal_gain(residual, candidates[slot]), 6),
                    analysis.exerted_influence(candidates[slot]),
                    -candidates[slot],
                ),
            )
            selected.add(candidates[best])
        return selected

    def _prefetch(
        self, probabilities: SubsetProbabilities, node_sets: Sequence[frozenset[int]]
    ) -> None:
        """No batching: every probe runs when it is first asked for."""


class ReferenceStreamProcessor(_EagerTopUpAndLabels, NodeStreamProcessor):
    """The per-node stream pass with ``IncUpdateVS`` in the paper's order."""

    def _process_batch(
        self,
        batch: Sequence[int],
        selected: set[int],
        backup: set[int],
        patterns: list[GraphPattern],
        analysis: GraphAnalysis,
        matcher: IncrementalMatcher,
        seen_graph: Graph,
        graph: Graph,
        label: int,
        upper_bound: int,
    ) -> tuple[set[int], list[GraphPattern]]:
        for node in batch:
            backup.add(node)
            if not self._vp_extend(node, selected, seen_graph, label):
                continue
            updated = self._inc_update_vs(
                node, selected, analysis, patterns, matcher, seen_graph, upper_bound
            )
            if updated != selected:
                selected = updated
                if node in selected:
                    patterns = self._inc_update_p(node, selected, patterns, graph, matcher)
        return selected, patterns

    def _inc_update_vs(
        self,
        candidate: int,
        selected: set[int],
        analysis: GraphAnalysis,
        patterns: list[GraphPattern],
        matcher: IncrementalMatcher,
        seen_graph: Graph,
        upper_bound: int,
    ) -> set[int]:
        if candidate in selected:
            return selected
        if len(selected) < upper_bound:
            return selected | {candidate}
        # Case (b): skip nodes the pattern set already summarises and nodes
        # that would not contribute any new pattern.
        if patterns and candidate in matcher.covered_by_set(patterns, seen_graph):
            if not self.pattern_generator.generate_incremental(
                seen_graph, candidate, patterns, hops=self.config.diversity_hops
            ):
                return selected
        # Case (c): swap against the weakest cached node when the gain is at
        # least twice the loss.
        weakest = min(selected, key=lambda node: (analysis.loss_of_removal(selected, node), node))
        reduced = selected - {weakest}
        gain_new = analysis.explainability(reduced | {candidate}) - analysis.explainability(reduced)
        gain_old = analysis.explainability(selected) - analysis.explainability(reduced)
        if gain_new >= 2.0 * gain_old:
            return reduced | {candidate}
        return selected


class ReferenceStreamGVEX(ReferenceStreamProcessor, StreamGVEX):
    """StreamGVEX whose per-graph pass is :class:`ReferenceStreamProcessor`."""
