"""Bounded frequent connected-pattern mining (gSpan-style pattern growth).

This is a simplified, size-bounded variant of gSpan: patterns are grown one
node at a time from single-node seeds, duplicates are pruned with an
isomorphism-invariant canonical key, and support is counted with the exact
matcher.  It is intentionally bounded (pattern size <= ``max_pattern_size``)
because GVEX only needs small summarising patterns, never a full frequent
subgraph lattice.

Enumeration expands connected node sets breadth-first (a deque — seeds in
node insertion order, boundary nodes in sorted order — so the enumeration
sequence, and therefore any ``max_patterns_per_graph`` truncation, is fully
deterministic and reproducible across runs).  The canonical key of every
candidate node set is maintained *incrementally* while the set grows — adding
one node updates a handful of degree counters and appends the new induced
edges' descriptors — so the per-set cost of re-inducing a subgraph,
rebuilding a :class:`GraphPattern` and re-canonicalising it from scratch is
paid only for node sets whose key is genuinely new.  The re-canonicalising
reference, :func:`repro.core.oracles.reference_enumerate_connected_patterns`,
traverses identical frontiers and produces identical pattern lists; tests
and benchmarks compare the two.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import MiningError
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.graphs.subgraph import induced_subgraph
from repro.matching.engine import match_many

__all__ = [
    "FrequentPattern",
    "enumerate_connected_patterns",
    "frequent_patterns",
    "iter_connected_pattern_keys",
]


@dataclass
class FrequentPattern:
    """A mined pattern together with its support."""

    pattern: GraphPattern
    support: int
    supporting_graphs: list[int]


def _first_occurrences(graph: Graph, max_pattern_size: int, max_patterns_per_graph: int):
    """``(key, node set)`` for the first node set of every distinct key, lazily.

    Breadth-first over connected node sets.  Each frontier entry carries its
    node set *plus* the per-node induced degrees and the multiset of edge
    descriptors — exactly the ingredients of :meth:`Graph.structural_signature`
    — maintained incrementally as the set grows, so a key costs a sort of
    <= ``max_pattern_size`` tuples and no subgraph is induced.  The key tuple
    *is* the structural signature (same sorted ``(type, degree)`` node part,
    same sorted edge-descriptor part), so keys compare equal to
    ``GraphPattern.canonical_key()`` values.  Identical output to the
    reference enumeration: same frontier order, same keys, same
    first-occurrence node sets.
    """
    adjacency = {node: graph.neighbors(node) for node in graph.nodes}
    node_type = graph.node_types()
    seen: set[tuple] = set()
    visited_sets: set[frozenset[int]] = set()
    # Frontier entries: (node set, {node: induced degree}, [edge descriptors]).
    frontier: deque[tuple[frozenset[int], dict[int, int], list[tuple]]] = deque(
        (frozenset({node}), {node: 0}, []) for node in graph.nodes
    )
    visited_sets.update(entry[0] for entry in frontier)
    while frontier and len(seen) < max_patterns_per_graph:
        node_set, degrees, edge_descriptors = frontier.popleft()
        key = (
            tuple(sorted((node_type[node], degrees[node]) for node in node_set)),
            tuple(sorted(edge_descriptors)),
        )
        if key not in seen:
            seen.add(key)
            yield key, node_set
        if len(node_set) >= max_pattern_size:
            continue
        boundary: set[int] = set()
        for node in node_set:
            boundary |= adjacency[node]
        for neighbour in sorted(boundary - node_set):
            extended = node_set | {neighbour}
            if extended in visited_sets:
                continue
            visited_sets.add(extended)
            new_links = adjacency[neighbour] & node_set
            new_degrees = dict(degrees)
            new_degrees[neighbour] = len(new_links)
            new_edges = list(edge_descriptors)
            for other in new_links:
                new_degrees[other] += 1
                type_pair = tuple(sorted((node_type[neighbour], node_type[other])))
                new_edges.append((graph.edge_type(neighbour, other), type_pair))
            frontier.append((extended, new_degrees, new_edges))


def iter_connected_pattern_keys(
    graph: Graph,
    max_pattern_size: int,
    max_patterns_per_graph: int = 256,
):
    """Lazily yield the distinct canonical keys :func:`enumerate_connected_patterns`
    would produce, in the same order and under the same truncation cap.

    Lets callers that only need a *membership* answer ("does this graph
    contain any pattern whose key is not already known?") short-circuit the
    enumeration without materialising patterns — the streaming novelty probe
    (``PatternGenerator.has_novel_pattern``) is the hot consumer.
    """
    if max_pattern_size < 1:
        raise MiningError("max_pattern_size must be at least 1")
    return (key for key, _ in _first_occurrences(graph, max_pattern_size, max_patterns_per_graph))


def enumerate_connected_patterns(
    graph: Graph,
    max_pattern_size: int,
    max_patterns_per_graph: int = 256,
) -> list[GraphPattern]:
    """All connected induced patterns of ``graph`` up to ``max_pattern_size`` nodes.

    Enumeration expands connected node sets breadth-first (deterministically:
    seeds in insertion order, boundary extensions in sorted node order) and
    deduplicates by canonical key; it stops early once
    ``max_patterns_per_graph`` distinct patterns were produced so
    pathological graphs cannot blow up the search.  The truncated prefix is
    reproducible across runs and identical to the reference enumeration.
    """
    if max_pattern_size < 1:
        raise MiningError("max_pattern_size must be at least 1")
    return [
        GraphPattern.from_graph(induced_subgraph(graph, node_set))
        for _, node_set in _first_occurrences(graph, max_pattern_size, max_patterns_per_graph)
    ]


def frequent_patterns(
    graphs: Sequence[Graph],
    min_support: int = 2,
    max_pattern_size: int = 5,
    max_patterns_per_graph: int = 256,
) -> list[FrequentPattern]:
    """Connected patterns appearing in at least ``min_support`` of the graphs.

    Results are sorted by descending support, then descending pattern size, so
    the most frequent and most informative patterns come first.  Support is
    counted through :func:`repro.matching.engine.match_many`, which
    batch-prefilters the graph collection (type histograms) and memoises the
    surviving exact matches.
    """
    if min_support < 1:
        raise MiningError("min_support must be at least 1")
    graphs = list(graphs)
    candidate_index: dict[tuple, GraphPattern] = {}
    for graph in graphs:
        for pattern in enumerate_connected_patterns(
            graph, max_pattern_size, max_patterns_per_graph=max_patterns_per_graph
        ):
            candidate_index.setdefault(pattern.canonical_key(), pattern)
    results: list[FrequentPattern] = []
    for pattern in candidate_index.values():
        matched = match_many(pattern, graphs)
        supporting = [index for index, hit in enumerate(matched) if hit]
        if len(supporting) >= min_support:
            results.append(
                FrequentPattern(pattern=pattern, support=len(supporting), supporting_graphs=supporting)
            )
    results.sort(key=lambda fp: (-fp.support, -fp.pattern.size()))
    return results
