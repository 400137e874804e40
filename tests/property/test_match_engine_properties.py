"""Property tests: the match engine agrees with the reference matcher.

Random graphs x random patterns, asserting `has_matching`,
`matched_node_sets` and `count_matchings` agree between the engine and the
reference backtracking search — with and without the
vectorized prefilters — plus memo invalidation under graph mutation.
Capped queries must agree *as ordered lists* (the engine replays the
reference enumeration order when a cap binds); uncapped queries as sets.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracles import reference_covered_edges, reference_covered_nodes
from repro.graphs import GraphPattern, induced_subgraph
from repro.matching import isomorphism as reference
from repro.matching.engine import MatchEngine, get_engine, match_many

from tests.conftest import build_random_typed_graph

graph_params = st.tuples(
    st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10_000)
)


def grow_connected_pattern(graph, seed, max_size=4):
    """Extract a connected induced pattern of up to ``max_size`` nodes."""
    rng = random.Random(seed)
    nodes = {graph.nodes[seed % graph.num_nodes()]}
    target = rng.randint(1, max_size)
    while len(nodes) < target:
        frontier = set()
        for node in nodes:
            frontier |= graph.neighbors(node)
        frontier -= nodes
        if not frontier:
            break
        nodes.add(min(frontier))
    return GraphPattern.from_graph(induced_subgraph(graph, nodes))


@settings(max_examples=40, deadline=None)
@given(graph_params, st.booleans(), st.data())
def test_engine_agrees_with_reference_matcher(params, use_prefilters, data):
    num_nodes, seed = params
    graph = build_random_typed_graph(num_nodes, seed=seed)
    # Patterns from this graph (guaranteed matches) and from an unrelated
    # graph (frequently non-matching — exercises the emptiness certificates).
    other = build_random_typed_graph(max(3, num_nodes // 2), seed=seed + 1, num_types=4)
    patterns = [
        grow_connected_pattern(graph, seed),
        grow_connected_pattern(other, seed + 2),
    ]
    engine = MatchEngine()
    engine.use_prefilters = use_prefilters
    # cutoff 0 forces the indexed masked search even on tiny graphs; the
    # default delegates small graphs to the reference matcher (plus memo).
    engine.small_graph_cutoff = data.draw(st.sampled_from([0, 24]))
    cap = data.draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
    for pattern in patterns:
        assert engine.has_matching(pattern, graph) == reference.has_matching(
            pattern, graph
        )
        assert engine.count_matchings(pattern, graph, limit=cap) == reference.count_matchings(
            pattern, graph, limit=cap
        )
        engine_sets = engine.matched_node_sets(pattern, graph, max_matchings=cap)
        reference_sets = reference.matched_node_sets(pattern, graph, max_matchings=cap)
        if cap is None:
            assert {frozenset(s) for s in engine_sets} == {
                frozenset(s) for s in reference_sets
            }
        else:
            assert engine_sets == reference_sets


@settings(max_examples=25, deadline=None)
@given(graph_params)
def test_coverage_identical_across_backends(params):
    from repro.matching.coverage import covered_edges, covered_nodes

    num_nodes, seed = params
    graph = build_random_typed_graph(num_nodes, seed=seed)
    pattern = grow_connected_pattern(graph, seed, max_size=4)
    for cap in (None, 1, 64):
        assert covered_nodes(pattern, graph, max_matchings=cap) == reference_covered_nodes(
            pattern, graph, max_matchings=cap
        )
        assert covered_edges(pattern, graph, max_matchings=cap) == reference_covered_edges(
            pattern, graph, max_matchings=cap
        )


@settings(max_examples=20, deadline=None)
@given(graph_params)
def test_memo_invalidates_on_graph_version_bumps(params):
    num_nodes, seed = params
    graph = build_random_typed_graph(num_nodes, seed=seed)
    pattern = grow_connected_pattern(graph, seed, max_size=3)
    engine = MatchEngine()
    before = engine.covered_nodes(pattern, graph)
    # Mutate: append a pendant node of the pattern's first type, attached to
    # node 0 — the graph version bumps, so the memo entry must be recomputed.
    new_node = max(graph.nodes) + 1
    graph.add_node(new_node, pattern.node_type(pattern.nodes[0]))
    graph.add_edge(new_node, graph.nodes[0])
    after = engine.covered_nodes(pattern, graph)
    assert after == reference_covered_nodes(pattern, graph)
    assert new_node not in before  # the pre-mutation result was not rewritten


@settings(max_examples=20, deadline=None)
@given(graph_params, st.integers(min_value=2, max_value=5))
def test_match_many_equals_per_graph_reference(params, num_graphs):
    num_nodes, seed = params
    graphs = [
        build_random_typed_graph(num_nodes + offset % 3, seed=seed + offset)
        for offset in range(num_graphs)
    ]
    pattern = grow_connected_pattern(graphs[0], seed, max_size=3)
    flags = match_many(pattern, graphs)
    assert flags == [reference.has_matching(pattern, graph) for graph in graphs]


@settings(max_examples=15, deadline=None)
@given(graph_params)
def test_shared_engine_dispatch_is_consistent(params):
    """The process-wide engine (used by all call sites) matches the reference."""
    from repro.matching import has_matching as dispatched

    num_nodes, seed = params
    graph = build_random_typed_graph(num_nodes, seed=seed)
    pattern = grow_connected_pattern(graph, seed, max_size=4)
    assert dispatched(pattern, graph) == reference.has_matching(pattern, graph)
    assert get_engine().stats()["size"] >= 0
