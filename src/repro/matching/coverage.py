"""Node and edge coverage of graphs by pattern sets (paper section 2.1).

A pattern ``P`` *covers* a node ``v`` (edge ``e``) of a graph when some
matching function of ``P`` maps a pattern node (edge) onto it.  A pattern set
covers a graph collection when every node is covered by at least one pattern.
These predicates drive the view-verification constraint C1/C3 and the Psum
summarisation objective.  The plain matching-enumeration loops they are
checked against are :func:`repro.core.oracles.reference_covered_nodes` /
:func:`~repro.core.oracles.reference_covered_edges`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.graphs.sparse import SparseGraphView
from repro.matching.engine import get_engine, type_histogram_deficit

__all__ = [
    "covered_nodes",
    "covered_edges",
    "pattern_set_covered_nodes",
    "pattern_set_covers_nodes",
    "coverage_summary",
]


def _type_prefilter_fails(pattern: GraphPattern, view: SparseGraphView) -> bool:
    """True when the type histograms alone rule out any matching.

    Thin wrapper over the single shared certificate implementation in
    :func:`repro.matching.engine.type_histogram_deficit`.
    """
    return type_histogram_deficit(pattern.graph.type_counts(), view.type_counts())


def _matched_edge_mask(pattern: GraphPattern, view: SparseGraphView) -> np.ndarray | None:
    """Boolean mask over the graph's edge list matched by a 2-node pattern.

    Returns ``None`` when some pattern type does not occur in the graph (the
    mask would be all-false, which the caller handles the same way).
    """
    u, v = pattern.edges[0]
    type_u = view.node_type_code(pattern.node_type(u))
    type_v = view.node_type_code(pattern.node_type(v))
    edge_code = view.edge_type_code(pattern.edge_type(u, v))
    if type_u is None or type_v is None or edge_code is None:
        return None
    ends_u = view.node_type_codes[view.edge_u]
    ends_v = view.node_type_codes[view.edge_v]
    mask = view.edge_type_codes == edge_code
    return mask & (
        ((ends_u == type_u) & (ends_v == type_v)) | ((ends_u == type_v) & (ends_v == type_u))
    )


def _fast_covered_nodes(
    pattern: GraphPattern, graph: Graph, max_matchings: int | None
) -> set[int] | None:
    """Vectorized coverage for the pattern shapes that dominate in practice.

    Handles singleton patterns (one type-array scan) and single-edge patterns
    (one mask over the flat edge arrays) exactly, plus the type-histogram
    emptiness certificate for larger patterns.  Returns ``None`` when the
    general backtracking search is required — either a larger pattern, or a
    matching cap that this path cannot reproduce faithfully.
    """
    if pattern.num_nodes() == 0 or pattern.num_nodes() > graph.num_nodes():
        return set()
    view = graph.sparse_view()
    if _type_prefilter_fails(pattern, view):
        return set()
    if pattern.num_nodes() == 1:
        code = view.node_type_code(pattern.node_type(pattern.nodes[0]))
        if code is None:
            return set()
        rows = view.rows_of_type(code)
        # The backtracking search visits nodes in insertion order, so a cap
        # keeps the first ``max_matchings`` rows — reproduced exactly here.
        if max_matchings is not None:
            rows = rows[:max_matchings]
        return {view.node_ids[row] for row in rows}
    if pattern.num_nodes() == 2 and pattern.num_edges() == 1:
        mask = _matched_edge_mask(pattern, view)
        if mask is None or not mask.any():
            return set()
        if max_matchings is not None:
            u, v = pattern.edges[0]
            same_types = pattern.node_type(u) == pattern.node_type(v)
            num_matchings = int(mask.sum()) * (2 if same_types else 1)
            if num_matchings > max_matchings:
                # A cap below the matching count truncates enumeration
                # order-dependently; defer to the reference search.
                return None
        rows = np.union1d(view.edge_u[mask], view.edge_v[mask])
        return {view.node_ids[row] for row in rows}
    return None


def covered_nodes(pattern: GraphPattern, graph: Graph, max_matchings: int | None = None) -> set[int]:
    """Graph nodes covered by at least one matching of ``pattern``."""
    fast = _fast_covered_nodes(pattern, graph, max_matchings)
    if fast is not None:
        return fast
    # Larger patterns (and capped small ones the closed forms defer on) go
    # through the memoised, prefiltered match engine; capped queries replay
    # the reference enumeration order so truncation is identical.
    return get_engine().covered_nodes(pattern, graph, max_matchings=max_matchings)


def _fast_covered_edges(
    pattern: GraphPattern, graph: Graph, max_matchings: int | None
) -> set[tuple[int, int]] | None:
    """Vectorized edge coverage for edgeless and single-edge patterns."""
    if pattern.num_nodes() == 0 or pattern.num_nodes() > graph.num_nodes():
        return set()
    if pattern.num_edges() == 0:
        # Matchings of an edgeless pattern never cover an edge.
        return set()
    view = graph.sparse_view()
    if _type_prefilter_fails(pattern, view):
        return set()
    if pattern.num_nodes() == 2 and pattern.num_edges() == 1:
        mask = _matched_edge_mask(pattern, view)
        if mask is None or not mask.any():
            return set()
        if max_matchings is not None:
            u, v = pattern.edges[0]
            same_types = pattern.node_type(u) == pattern.node_type(v)
            num_matchings = int(mask.sum()) * (2 if same_types else 1)
            if num_matchings > max_matchings:
                return None
        node_ids = view.node_ids
        covered: set[tuple[int, int]] = set()
        for row_u, row_v in zip(view.edge_u[mask], view.edge_v[mask]):
            a, b = node_ids[row_u], node_ids[row_v]
            covered.add((a, b) if a <= b else (b, a))
        return covered
    return None


def covered_edges(
    pattern: GraphPattern, graph: Graph, max_matchings: int | None = None
) -> set[tuple[int, int]]:
    """Graph edges covered by at least one matching of ``pattern``."""
    fast = _fast_covered_edges(pattern, graph, max_matchings)
    if fast is not None:
        return fast
    return get_engine().covered_edges(pattern, graph, max_matchings=max_matchings)


def pattern_set_covered_nodes(
    patterns: Iterable[GraphPattern],
    graphs: Sequence[Graph],
    max_matchings: int | None = None,
) -> dict[int, set[int]]:
    """Covered nodes per graph index for a whole pattern set."""
    coverage: dict[int, set[int]] = {index: set() for index in range(len(graphs))}
    for pattern in patterns:
        for index, graph in enumerate(graphs):
            if len(coverage[index]) == graph.num_nodes():
                continue
            coverage[index] |= covered_nodes(pattern, graph, max_matchings=max_matchings)
    return coverage


def pattern_set_covers_nodes(
    patterns: Iterable[GraphPattern],
    graphs: Sequence[Graph],
    max_matchings: int | None = None,
) -> bool:
    """True when the pattern set covers every node of every graph."""
    patterns = list(patterns)
    coverage = pattern_set_covered_nodes(patterns, graphs, max_matchings=max_matchings)
    return all(
        len(coverage[index]) == graph.num_nodes() for index, graph in enumerate(graphs)
    )


def coverage_summary(
    patterns: Iterable[GraphPattern],
    graphs: Sequence[Graph],
    max_matchings: int | None = None,
) -> dict[str, float]:
    """Fractions of nodes and edges covered by the pattern set.

    The edge fraction is the quantity behind the paper's *edge loss* metric
    (Fig. 8c/8d): ``edge_loss = 1 - covered_edge_fraction``.
    """
    patterns = list(patterns)
    total_nodes = sum(graph.num_nodes() for graph in graphs)
    total_edges = sum(graph.num_edges() for graph in graphs)
    node_hits = 0
    edge_hits = 0
    for graph in graphs:
        nodes_hit: set[int] = set()
        edges_hit: set[tuple[int, int]] = set()
        for pattern in patterns:
            nodes_hit |= covered_nodes(pattern, graph, max_matchings=max_matchings)
            edges_hit |= covered_edges(pattern, graph, max_matchings=max_matchings)
        node_hits += len(nodes_hit)
        edge_hits += len(edges_hit)
    return {
        "node_coverage": node_hits / total_nodes if total_nodes else 1.0,
        "edge_coverage": edge_hits / total_edges if total_edges else 1.0,
        "covered_nodes": float(node_hits),
        "covered_edges": float(edge_hits),
        "total_nodes": float(total_nodes),
        "total_edges": float(total_edges),
    }
