"""Reference implementations the production code is checked against.

Production runs one path per computation.  This module holds the per-node
and paper-literal forms of those paths, under explicit names, for the
identity tests and the benchmark A/B arms; production code must not import
it.  The kernels are the ``reference_*`` functions, :class:`ReferenceEVerify`
(one materialised ``G[nodes]`` per probe, no batching) and
:class:`ReferenceGraphAnalysis` (boolean masks, one gain per candidate).
:class:`ReferenceApproxGVEX` (eager greedy loops, per-subset probes) and
:class:`ReferenceStreamGVEX` (the per-node stream pass, ``IncUpdateVS`` case
(b) before case (c)) compose them, with eager top-up and per-graph label
prediction.

Each reference gives the same results as its production counterpart on
every input, except :func:`reference_jacobian_l1`, which agrees to float
rounding.  The oracle explainers always score the exact objective, so the
identity holds for the default ``objective="exact"``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.approx import ApproxGVEX, SubsetProbabilities
from repro.core.config import CoverageBound
from repro.core.maintenance import NodeStreamProcessor
from repro.core.quality import CoverageState, GraphAnalysis
from repro.core.streaming import StreamGVEX
from repro.core.verification import EVerify
from repro.exceptions import MiningError, ModelError, NodeNotFoundError
from repro.gnn.influence import _layer_operator
from repro.gnn.models import GNNClassifier
from repro.gnn.tensor_ops import relu_grad
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.matching.incremental import IncrementalMatcher
from repro.matching.isomorphism import has_matching, iter_matchings
from repro.mining.frequent import FrequentPattern

__all__ = [
    "ReferenceApproxGVEX",
    "ReferenceCoverageState",
    "ReferenceEVerify",
    "ReferenceGraphAnalysis",
    "ReferenceStreamGVEX",
    "ReferenceStreamProcessor",
    "reference_covered_edges",
    "reference_covered_nodes",
    "reference_enumerate_connected_patterns",
    "reference_frequent_patterns",
    "reference_induced_subgraph",
    "reference_iter_connected_pattern_keys",
    "reference_jacobian_l1",
    "reference_khop_subgraph",
]


# ----------------------------------------------------------------------
# subgraph extraction
# ----------------------------------------------------------------------
def reference_induced_subgraph(
    graph: Graph, nodes: Iterable[int], graph_id: int | None = None
) -> Graph:
    """``G[nodes]`` built node by node and edge by edge."""
    node_set = set(nodes)
    for node in node_set:
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
    sub = Graph(graph_id=graph.graph_id if graph_id is None else graph_id)
    for node in graph.nodes:
        if node in node_set:
            sub.add_node(node, graph.node_type(node), graph.node_features(node))
    for u, v in graph.edges:
        if u in node_set and v in node_set:
            sub.add_edge(u, v, graph.edge_type(u, v))
    return sub


def reference_khop_subgraph(graph: Graph, center: int, hops: int) -> Graph:
    """The ``hops``-hop neighbourhood of ``center`` by set-based BFS."""
    if not graph.has_node(center):
        raise NodeNotFoundError(center)
    if hops < 0:
        raise ValueError("hops must be non-negative")
    frontier = {center}
    seen = {center}
    for _ in range(hops):
        next_frontier: set[int] = set()
        for node in frontier:
            next_frontier |= graph.neighbors(node) - seen
        seen |= next_frontier
        frontier = next_frontier
        if not frontier:
            break
    return reference_induced_subgraph(graph, seen)


# ----------------------------------------------------------------------
# influence
# ----------------------------------------------------------------------
def reference_jacobian_l1(model: GNNClassifier, graph: Graph) -> np.ndarray:
    """``I1[v, u]`` from the full 4-D Jacobian, one einsum per layer."""
    if graph.num_nodes() == 0:
        return np.zeros((0, 0))
    features = graph.feature_matrix(model.feature_dim)
    propagation = model.propagation_matrix(graph)
    num_nodes, feature_dim = features.shape

    # jac[v, i, u, j] = d hidden[v, i] / d features[u, j]
    jac = np.zeros((num_nodes, feature_dim, num_nodes, feature_dim))
    for u in range(num_nodes):
        jac[u, :, u, :] = np.eye(feature_dim)

    hidden = features
    for layer in model.conv_layers:
        hidden, cache = layer.forward(hidden, propagation)
        weight = layer.params.get("weight")
        if weight is None:
            raise ModelError("exact influence is only implemented for GCN/GIN layers")
        operator = _layer_operator(layer, cache, num_nodes)
        # pre[v, i] = sum_w operator[v, w] sum_m hidden_prev[w, m] weight[m, i]
        jac = np.einsum("vw,wmuj,mi->viuj", operator, jac, weight, optimize=True)
        if layer.activation:
            gates = relu_grad(cache["pre_activation"])
            jac = jac * gates[:, :, None, None]

    return np.abs(jac).sum(axis=(1, 3))


# ----------------------------------------------------------------------
# pattern mining
# ----------------------------------------------------------------------
def _reference_pattern_keys(
    graph: Graph, max_pattern_size: int, max_patterns_per_graph: int
) -> Iterator[tuple[tuple, GraphPattern]]:
    """``(key, pattern)`` per distinct key, one induce + canonicalise per set."""
    if max_pattern_size < 1:
        raise MiningError("max_pattern_size must be at least 1")
    seen: set[tuple] = set()
    visited_sets: set[frozenset[int]] = set()
    frontier: deque[frozenset[int]] = deque(frozenset({node}) for node in graph.nodes)
    visited_sets.update(frontier)
    while frontier and len(seen) < max_patterns_per_graph:
        node_set = frontier.popleft()
        pattern = GraphPattern.from_graph(reference_induced_subgraph(graph, node_set))
        key = pattern.canonical_key()
        if key not in seen:
            seen.add(key)
            yield key, pattern
        if len(node_set) >= max_pattern_size:
            continue
        boundary: set[int] = set()
        for node in node_set:
            boundary |= graph.neighbors(node)
        for neighbour in sorted(boundary - node_set):
            extended = node_set | {neighbour}
            if extended not in visited_sets:
                visited_sets.add(extended)
                frontier.append(extended)


def reference_enumerate_connected_patterns(
    graph: Graph, max_pattern_size: int, max_patterns_per_graph: int = 256
) -> list[GraphPattern]:
    """Breadth-first enumeration, one induce + canonicalise per node set."""
    return [
        pattern
        for _, pattern in _reference_pattern_keys(graph, max_pattern_size, max_patterns_per_graph)
    ]


def reference_iter_connected_pattern_keys(
    graph: Graph, max_pattern_size: int, max_patterns_per_graph: int = 256
) -> Iterator[tuple]:
    """Distinct canonical keys of :func:`reference_enumerate_connected_patterns`."""
    return (key for key, _ in _reference_pattern_keys(graph, max_pattern_size, max_patterns_per_graph))


def reference_frequent_patterns(
    graphs: Sequence[Graph],
    min_support: int = 2,
    max_pattern_size: int = 5,
    max_patterns_per_graph: int = 256,
) -> list[FrequentPattern]:
    """Frequent patterns from the reference enumeration and matcher."""
    graphs = list(graphs)
    candidates: dict[tuple, GraphPattern] = {}
    for graph in graphs:
        for key, pattern in _reference_pattern_keys(graph, max_pattern_size, max_patterns_per_graph):
            candidates.setdefault(key, pattern)
    results = []
    for pattern in candidates.values():
        supporting = [index for index, graph in enumerate(graphs) if has_matching(pattern, graph)]
        if len(supporting) >= min_support:
            results.append(FrequentPattern(pattern, len(supporting), supporting))
    results.sort(key=lambda fp: (-fp.support, -fp.pattern.size()))
    return results


# ----------------------------------------------------------------------
# coverage
# ----------------------------------------------------------------------
def reference_covered_nodes(
    pattern: GraphPattern, graph: Graph, max_matchings: int | None = None
) -> set[int]:
    """Graph nodes covered by at least one matching, by enumerating them."""
    covered: set[int] = set()
    for mapping in iter_matchings(pattern, graph, max_matchings=max_matchings):
        covered.update(mapping.values())
        if len(covered) == graph.num_nodes():
            break
    return covered


def reference_covered_edges(
    pattern: GraphPattern, graph: Graph, max_matchings: int | None = None
) -> set[tuple[int, int]]:
    """Graph edges covered by at least one matching, by enumerating them."""
    covered: set[tuple[int, int]] = set()
    for mapping in iter_matchings(pattern, graph, max_matchings=max_matchings):
        for u, v in pattern.edges:
            a, b = mapping[u], mapping[v]
            covered.add((a, b) if a <= b else (b, a))
        if len(covered) == graph.num_edges():
            break
    return covered


# ----------------------------------------------------------------------
# EVerify and the quality measures
# ----------------------------------------------------------------------
class ReferenceEVerify(EVerify):
    """EVerify that builds ``G[nodes]`` for every probe and never batches."""

    def _classify(self, graph: Graph, nodes: frozenset[int]) -> int:
        return self.model.predict(reference_induced_subgraph(graph, nodes))

    def prime(self, graph: Graph, node_sets: Sequence[frozenset[int]]) -> int:
        return 0


class ReferenceCoverageState(CoverageState):
    """:class:`CoverageState` over boolean masks instead of packed words."""

    __slots__ = ()

    def __init__(self, analysis: GraphAnalysis, selected: Iterable[int] = ()) -> None:
        self._analysis = analysis
        total = len(analysis.node_list)
        positions = analysis._positions(selected)
        if positions:
            self._covered = analysis._influence_mask[positions].any(axis=0)
        else:
            self._covered = np.zeros(total, dtype=bool)
        if self._covered.any():
            self._neigh_covered = analysis._neighbourhood_mask[self._covered].any(axis=0)
        else:
            self._neigh_covered = np.zeros(total, dtype=bool)
        self._influence = int(self._covered.sum())
        self._diversity = int(self._neigh_covered.sum())
        self._bounds: dict[int, float] = {}

    def _delta_counts(self, position: int) -> tuple[int, int, np.ndarray]:
        analysis = self._analysis
        newly = analysis._influence_mask[position] & ~self._covered
        new_influence = self._influence + int(newly.sum())
        if newly.any():
            neigh = analysis._neighbourhood_mask[newly].any(axis=0)
            new_diversity = self._diversity + int((neigh & ~self._neigh_covered).sum())
        else:
            new_diversity = self._diversity
        return new_influence, new_diversity, newly

    def _fold(self, newly: np.ndarray) -> None:
        self._covered |= newly
        self._neigh_covered |= self._analysis._neighbourhood_mask[newly].any(axis=0)

    def batch_gains(self, candidates: Sequence[int]) -> np.ndarray:
        return self._analysis._mask_gains(self._covered, candidates)


class ReferenceGraphAnalysis(GraphAnalysis):
    """Boolean-mask scores recomputed per call, one gain per candidate.

    The influence matrix stays the production one: ApproxGVEX breaks gain
    ties on summed influence, which :func:`reference_jacobian_l1` only
    matches to float rounding.
    """

    coverage_state = ReferenceCoverageState

    def influence_score(self, seed_nodes: Iterable[int]) -> int:
        positions = self._positions(seed_nodes)
        if not positions:
            return 0
        return int(self._influence_mask[positions].any(axis=0).sum())

    def diversity_score(self, seed_nodes: Iterable[int]) -> int:
        positions = self._positions(seed_nodes)
        if not positions:
            return 0
        influenced = self._influence_mask[positions].any(axis=0)
        if not influenced.any():
            return 0
        return int(self._neighbourhood_mask[influenced].any(axis=0).sum())

    def explainability(self, seed_nodes: Iterable[int]) -> float:
        total_nodes = len(self.node_list)
        if total_nodes == 0:
            return 0.0
        seeds = list(seed_nodes)
        influence = self.influence_score(seeds)
        diversity = self.diversity_score(seeds)
        return (influence + self.config.gamma * diversity) / total_nodes

    def marginal_gains(self, selected: Iterable[int], candidates: Sequence[int]) -> np.ndarray:
        selected_set = set(selected)
        return np.array([self.marginal_gain(selected_set, node) for node in candidates], dtype=float)


# ----------------------------------------------------------------------
# explainers
# ----------------------------------------------------------------------
class _ReferenceStack:
    """Reference EVerify and analysis, eager top-up, per-graph labels."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.everify = ReferenceEVerify(self.model)

    def _build_analysis(self, graph: Graph) -> GraphAnalysis:
        return ReferenceGraphAnalysis(self.model, graph, self.config)

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


class ReferenceApproxGVEX(_ReferenceStack, ApproxGVEX):
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


class ReferenceStreamProcessor(_ReferenceStack, NodeStreamProcessor):
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
