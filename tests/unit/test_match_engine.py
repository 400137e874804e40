"""Unit tests for the indexed pattern-matching engine (repro.matching.engine)."""

import gc
import random

import pytest

from repro.graphs import Graph, GraphPattern
from repro.matching import isomorphism as reference
from repro.matching.engine import (
    SMALL_GRAPH_NODES,
    MatchEngine,
    count_matchings,
    get_engine,
    has_matching,
    match_many,
    matched_node_sets,
    set_match_cache_size,
    warm_match_indices,
)


def typed_graph():
    graph = Graph()
    graph.add_node(0, "A")
    graph.add_node(1, "B")
    graph.add_node(2, "A")
    graph.add_node(3, "C")
    graph.add_edge(0, 1, "x")
    graph.add_edge(1, 2, "x")
    graph.add_edge(2, 3, "y")
    return graph


def path_pattern(types, edge_types=None):
    pattern = GraphPattern()
    for index, node_type in enumerate(types):
        pattern.add_node(index, node_type)
    for index in range(len(types) - 1):
        edge_type = edge_types[index] if edge_types else "edge"
        pattern.add_edge(index, index + 1, edge_type)
    return pattern


def indexed_engine(**kwargs):
    """An engine forced onto the indexed masked search (no small-graph
    delegation), so the unit tests exercise the prefilter + mask machinery
    even on the tiny fixtures."""
    engine = MatchEngine(**kwargs)
    engine.small_graph_cutoff = 0
    return engine


class TestEngineCorrectness:
    def test_matches_reference_on_small_cases(self):
        engine = indexed_engine()
        graph = typed_graph()
        for types, edge_types in [
            (["A"], None),
            (["A", "B"], ["x"]),
            (["A", "B", "A"], ["x", "x"]),
            (["A", "B", "A", "C"], ["x", "x", "y"]),
            (["C", "A"], ["y"]),
            (["A", "B"], ["y"]),  # wrong edge type -> no match
            (["D"], None),  # unknown node type -> no match
        ]:
            pattern = path_pattern(types, edge_types)
            assert engine.has_matching(pattern, graph) == reference.has_matching(
                pattern, graph
            )
            assert engine.count_matchings(pattern, graph) == reference.count_matchings(
                pattern, graph
            )
            assert {frozenset(s) for s in engine.matched_node_sets(pattern, graph)} == {
                frozenset(s) for s in reference.matched_node_sets(pattern, graph)
            }

    def test_capped_queries_reproduce_reference_order_exactly(self):
        # A cap truncates enumeration, so the engine must replay the
        # reference matcher's exact order — lists, not sets, must agree.
        engine = indexed_engine()
        graph = Graph()
        for node in range(8):
            graph.add_node(node, "A")
        for node in range(1, 8):
            graph.add_edge(node - 1, node)
        pattern = path_pattern(["A", "A"])
        for cap in (1, 2, 3, 5):
            assert engine.matched_node_sets(
                pattern, graph, max_matchings=cap
            ) == reference.matched_node_sets(pattern, graph, max_matchings=cap)
            assert engine.covered_nodes(pattern, graph, max_matchings=cap) == {
                node
                for mapping in reference.find_matchings(pattern, graph, max_matchings=cap)
                for node in mapping.values()
            }

    def test_covered_edges_matches_reference(self):
        engine = indexed_engine()
        graph = typed_graph()
        pattern = path_pattern(["A", "B", "A"], ["x", "x"])
        expected = set()
        for mapping in reference.find_matchings(pattern, graph):
            for u, v in pattern.edges:
                a, b = mapping[u], mapping[v]
                expected.add((a, b) if a <= b else (b, a))
        assert engine.covered_edges(pattern, graph) == expected

    def test_prefilter_rejects_type_histogram_deficit(self):
        # Three A's requested, graph has two: candidate masks are non-empty
        # but the histogram certificate alone must answer "no match".
        engine = indexed_engine()
        graph = typed_graph()
        pattern = path_pattern(["A", "A", "A"])
        assert not engine.has_matching(pattern, graph)
        assert engine.stats()["size"] >= 1  # the negative result is memoised

    def test_search_without_prefilters_agrees(self):
        engine = indexed_engine()
        engine.use_prefilters = False
        graph = typed_graph()
        pattern = path_pattern(["A", "B", "A"], ["x", "x"])
        assert engine.has_matching(pattern, graph)
        assert engine.count_matchings(pattern, graph) == reference.count_matchings(
            pattern, graph
        )

    def test_empty_and_oversized_patterns(self):
        engine = indexed_engine()
        graph = typed_graph()
        assert not engine.has_matching(GraphPattern(), graph)
        assert engine.matched_node_sets(GraphPattern(), graph) == []
        big = path_pattern(["A"] * 10)
        assert not engine.has_matching(big, graph)
        assert engine.count_matchings(big, graph) == 0


def random_typed_graph(rng: random.Random, num_nodes: int, edge_probability: float) -> Graph:
    graph = Graph()
    for node in range(num_nodes):
        graph.add_node(node, rng.choice(["A", "B", "C"]))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(u, v, rng.choice(["x", "y"]))
    return graph


class TestRandomGraphs:
    """The interpreted masked search against the reference matcher.

    Every graph is above ``SMALL_GRAPH_NODES``, so the default engine runs
    its own indexed search instead of delegating to the reference.
    """

    @pytest.mark.parametrize("seed", [0, 3])
    def test_counts_match_reference_on_random_graphs(self, seed):
        rng = random.Random(seed)
        engine = MatchEngine()
        matched = 0
        for _ in range(30):
            graph = random_typed_graph(rng, rng.randint(26, 36), rng.uniform(0.05, 0.2))
            assert graph.num_nodes() > SMALL_GRAPH_NODES
            pattern = GraphPattern.from_graph(random_typed_graph(rng, rng.randint(1, 4), 0.6))
            expected = reference.count_matchings(pattern, graph)
            assert engine.count_matchings(pattern, graph) == expected
            cap = rng.randint(1, 5)
            assert engine.count_matchings(pattern, graph, limit=cap) == min(expected, cap)
            assert engine.has_matching(pattern, graph) == reference.has_matching(pattern, graph)
            matched += expected > 0
        assert matched > 0  # the fuzz must exercise non-trivial matches

    def test_cap_zero_counts_nothing(self):
        rng = random.Random(1)
        graph = random_typed_graph(rng, 26, 0.3)
        pattern = GraphPattern.from_graph(random_typed_graph(rng, 2, 1.0))
        assert reference.count_matchings(pattern, graph) > 0
        assert MatchEngine().count_matchings(pattern, graph, limit=0) == 0

    def test_disconnected_pattern(self):
        rng = random.Random(2)
        graph = random_typed_graph(rng, 28, 0.15)
        isolated = Graph()
        isolated.add_node(0, "A")
        isolated.add_node(1, "B")  # no edge: disconnected pattern
        pattern = GraphPattern.from_graph(isolated)
        expected = reference.count_matchings(pattern, graph)
        assert expected > 0
        assert MatchEngine().count_matchings(pattern, graph) == expected


class TestEngineMemo:
    def test_repeated_query_hits_the_memo(self):
        engine = indexed_engine()
        graph = typed_graph()
        pattern = path_pattern(["A", "B"], ["x"])
        engine.has_matching(pattern, graph)
        before = engine.stats()["hits"]
        engine.has_matching(pattern, graph)
        assert engine.stats()["hits"] == before + 1

    def test_memo_invalidates_on_version_bump(self):
        engine = indexed_engine()
        graph = typed_graph()
        pattern = path_pattern(["D"])
        assert not engine.has_matching(pattern, graph)
        graph.add_node(9, "D")  # bumps graph.version
        assert engine.has_matching(pattern, graph)
        assert engine.covered_nodes(pattern, graph) == {9}

    def test_same_pattern_object_rehits_across_query_kinds(self):
        engine = indexed_engine()
        graph = typed_graph()
        pattern = path_pattern(["A", "B"], ["x"])
        engine.covered_nodes(pattern, graph)
        before = engine.stats()["hits"]
        engine.covered_nodes(pattern, graph)
        assert engine.stats()["hits"] > before

    def test_signature_collisions_never_alias_memo_entries(self):
        # structural_signature is a heuristic invariant: a triangle-with-tail
        # and a square-with-pendant (uniform types) share a canonical key but
        # are NOT isomorphic.  The memo key must include the exact pattern
        # identity so one pattern's cached result never serves the other.
        def build(edges):
            pattern = GraphPattern()
            for node in range(5):
                pattern.add_node(node, "A")
            for u, v in edges:
                pattern.add_edge(u, v)
            return pattern

        triangle_tail = build([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        square_pendant = build([(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
        assert triangle_tail.canonical_key() == square_pendant.canonical_key()

        # A graph that *is* a square with a pendant: the square pattern
        # matches, the triangle pattern must not — even queried second.
        graph = Graph()
        for node in range(5):
            graph.add_node(node, "A")
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]:
            graph.add_edge(u, v)
        engine = indexed_engine()
        assert engine.has_matching(square_pendant, graph)
        assert not engine.has_matching(triangle_tail, graph)
        assert engine.covered_nodes(square_pendant, graph) == {0, 1, 2, 3, 4}
        assert engine.covered_nodes(triangle_tail, graph) == set()

    def test_dead_graph_entries_never_alias_new_graphs(self):
        engine = indexed_engine()
        pattern = path_pattern(["A"])
        graph = typed_graph()
        assert engine.has_matching(pattern, graph)
        del graph
        gc.collect()
        # A fresh graph (potentially recycling the old id) must recompute.
        other = Graph()
        other.add_node(0, "B")
        assert not engine.has_matching(pattern, other)

    def test_resize_and_zero_capacity(self):
        engine = indexed_engine(capacity=2)
        graph = typed_graph()
        for code in ("A", "B", "C"):
            engine.has_matching(path_pattern([code]), graph)
        assert engine.stats()["size"] <= 2
        engine.resize(0)
        assert engine.stats()["size"] == 0
        engine.has_matching(path_pattern(["A"]), graph)
        assert engine.stats()["size"] == 0  # storage disabled

    def test_set_match_cache_size_resizes_the_shared_engine(self):
        original = get_engine()._memo.capacity
        try:
            set_match_cache_size(17)
            assert get_engine()._memo.capacity == 17
        finally:
            set_match_cache_size(original)


class TestDispatchers:
    def test_dispatchers_agree_with_the_reference_matcher(self):
        graph = typed_graph()
        for pattern in (path_pattern(["A", "B"], ["x"]), path_pattern(["A", "C"], ["x"])):
            assert has_matching(pattern, graph) == reference.has_matching(pattern, graph)
            assert count_matchings(pattern, graph, limit=8) == reference.count_matchings(
                pattern, graph, limit=8
            )
            assert {frozenset(s) for s in matched_node_sets(pattern, graph)} == {
                frozenset(s) for s in reference.matched_node_sets(pattern, graph)
            }

    def test_match_many_agrees_with_per_graph_calls(self):
        graphs = [typed_graph() for _ in range(3)]
        graphs[1].remove_node(1)  # drop the only B
        pattern = path_pattern(["A", "B"], ["x"])
        flags = match_many(pattern, graphs)
        assert flags == [reference.has_matching(pattern, graph) for graph in graphs]

    def test_warm_match_indices_builds_per_view_tables(self):
        # Large enough to clear the small-graph cutoff (small graphs run the
        # reference search and are skipped by the warmer).
        graph = Graph()
        for node in range(30):
            graph.add_node(node, "A" if node % 2 else "B")
        for node in range(1, 30):
            graph.add_edge(node - 1, node)
        assert warm_match_indices([graph]) == 1
        view = graph.sparse_view()
        assert view._degrees is not None
        assert view._neighbour_type_counts is not None
        assert view._row_neighbour_sets is not None
        assert view._edge_code_map is not None
        # Sub-cutoff graphs never consult the indices; not warmed.
        assert warm_match_indices([typed_graph()]) == 0


class TestPatternKeyCache:
    def test_canonical_key_is_cached_until_mutation(self):
        pattern = path_pattern(["A", "B"], ["x"])
        first = pattern.canonical_key()
        assert pattern.canonical_key() is first  # same object: served from cache
        pattern.add_node(2, "C")
        second = pattern.canonical_key()
        assert second != first

    def test_eq_and_hash_follow_the_cached_key(self):
        left = path_pattern(["A", "B"], ["x"])
        right = path_pattern(["A", "B"], ["x"])
        assert left == right
        assert hash(left) == hash(right)
        right.add_node(2, "C")
        assert left != right


class TestConfigKnob:
    def test_match_cache_size_validation(self):
        from repro.core.config import Configuration
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="match_cache_size"):
            Configuration(match_cache_size=-1)
        assert Configuration(match_cache_size=0).match_cache_size == 0

    def test_explainer_construction_applies_the_knob(self, untrained_small_model):
        from repro.core.approx import ApproxGVEX
        from repro.core.config import Configuration

        original = get_engine()._memo.capacity
        try:
            ApproxGVEX(untrained_small_model, Configuration(match_cache_size=123))
            assert get_engine()._memo.capacity == 123
        finally:
            set_match_cache_size(original)

    def test_env_override_pins_the_cache_size(self, untrained_small_model, monkeypatch):
        # An operator-pinned REPRO_MATCH_CACHE_SIZE must not be silently
        # undone by constructing an explainer with some configuration.
        from repro.core.approx import ApproxGVEX
        from repro.core.config import Configuration

        original = get_engine()._memo.capacity
        try:
            monkeypatch.setenv("REPRO_MATCH_CACHE_SIZE", "777")
            set_match_cache_size(777)
            ApproxGVEX(untrained_small_model, Configuration(match_cache_size=5))
            assert get_engine()._memo.capacity == 777
        finally:
            monkeypatch.delenv("REPRO_MATCH_CACHE_SIZE", raising=False)
            set_match_cache_size(original)
