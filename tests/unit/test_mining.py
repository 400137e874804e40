"""Unit tests for the pattern-mining substrate (PGen / IncPGen / MDL)."""

import pytest

from repro.exceptions import MiningError
from repro.graphs import Graph, GraphPattern
from repro.matching import has_matching
from repro.mining import (
    PatternGenerator,
    description_length,
    enumerate_connected_patterns,
    frequent_patterns,
    mdl_rank,
    pattern_encoding_cost,
)
from repro.mining.frequent import iter_connected_pattern_keys


def typed_triangle():
    graph = Graph()
    graph.add_node(0, "A")
    graph.add_node(1, "B")
    graph.add_node(2, "A")
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(0, 2)
    return graph


def typed_path(types):
    graph = Graph()
    for index, node_type in enumerate(types):
        graph.add_node(index, node_type)
    for index in range(len(types) - 1):
        graph.add_edge(index, index + 1)
    return graph


class TestEnumeration:
    def test_single_node_patterns_included(self):
        patterns = enumerate_connected_patterns(typed_triangle(), max_pattern_size=1)
        types = {pattern.node_type(pattern.nodes[0]) for pattern in patterns}
        assert types == {"A", "B"}

    def test_patterns_are_connected(self):
        for pattern in enumerate_connected_patterns(typed_path(["A", "B", "C", "D"]), 3):
            assert pattern.is_connected()

    def test_size_bound_respected(self):
        for pattern in enumerate_connected_patterns(typed_triangle(), 2):
            assert pattern.num_nodes() <= 2

    def test_duplicates_removed(self):
        # A path A-A-A yields only two distinct patterns of size <= 2: the
        # single node A and the edge A-A.
        patterns = enumerate_connected_patterns(typed_path(["A", "A", "A"]), 2)
        assert len(patterns) == 2

    def test_per_graph_cap(self):
        patterns = enumerate_connected_patterns(typed_triangle(), 3, max_patterns_per_graph=2)
        assert len(patterns) <= 2

    def test_invalid_size_rejected(self):
        with pytest.raises(MiningError):
            enumerate_connected_patterns(typed_triangle(), 0)


class TestFrequentPatterns:
    def test_support_counting(self):
        graphs = [typed_path(["A", "B"]), typed_path(["A", "B", "C"]), typed_path(["C", "C"])]
        results = frequent_patterns(graphs, min_support=2, max_pattern_size=2)
        supports = {tuple(sorted(fp.pattern.graph.type_counts())): fp.support for fp in results}
        assert supports[("A",)] == 2
        assert supports[("A", "B")] == 2

    def test_results_sorted_by_support(self):
        graphs = [typed_path(["A", "B"]), typed_path(["A", "C"]), typed_path(["A", "D"])]
        results = frequent_patterns(graphs, min_support=1, max_pattern_size=1)
        assert results[0].support >= results[-1].support
        assert results[0].pattern.node_type(results[0].pattern.nodes[0]) == "A"

    def test_min_support_filters(self):
        graphs = [typed_path(["A", "B"]), typed_path(["C", "D"])]
        results = frequent_patterns(graphs, min_support=2, max_pattern_size=2)
        assert results == []

    def test_invalid_support_rejected(self):
        with pytest.raises(MiningError):
            frequent_patterns([typed_triangle()], min_support=0)


class TestMDL:
    def test_encoding_cost_grows_with_size(self):
        small = GraphPattern.from_graph(typed_path(["A", "B"]))
        large = GraphPattern.from_graph(typed_path(["A", "B", "C", "D"]))
        assert pattern_encoding_cost(large) > pattern_encoding_cost(small)

    def test_empty_pattern_costs_nothing(self):
        assert pattern_encoding_cost(GraphPattern()) == 0.0

    def test_description_length_prefers_covering_patterns(self):
        subgraphs = [typed_path(["A", "B", "A", "B"])]
        covering = GraphPattern.from_graph(typed_path(["A", "B"]))
        irrelevant = GraphPattern.from_graph(typed_path(["C", "C"]))
        assert description_length(covering, subgraphs) < description_length(irrelevant, subgraphs)

    def test_mdl_rank_orders_by_description_length(self):
        subgraphs = [typed_path(["A", "B", "A", "B"])]
        covering = GraphPattern.from_graph(typed_path(["A", "B"]))
        irrelevant = GraphPattern.from_graph(typed_path(["C", "C"]))
        ranked = mdl_rank([irrelevant, covering], subgraphs)
        assert ranked[0] == covering


class TestPatternGenerator:
    def test_generate_returns_ranked_unique_candidates(self):
        generator = PatternGenerator(max_pattern_size=2, max_candidates=5)
        candidates = generator.generate([typed_triangle(), typed_path(["A", "B"])])
        assert 0 < len(candidates) <= 5
        keys = [pattern.canonical_key() for pattern in candidates]
        assert len(keys) == len(set(keys))

    def test_generated_patterns_match_their_source(self):
        generator = PatternGenerator(max_pattern_size=2)
        source = typed_triangle()
        for pattern in generator.generate([source]):
            assert has_matching(pattern, source)

    def test_generate_skips_empty_subgraphs(self):
        generator = PatternGenerator()
        assert generator.generate([Graph()]) == []

    def test_incremental_generation_excludes_known_patterns(self):
        generator = PatternGenerator(max_pattern_size=2)
        graph = typed_path(["A", "B", "C"])
        existing = generator.generate([graph])
        fresh = generator.generate_incremental(graph, 2, existing, hops=2)
        existing_keys = {pattern.canonical_key() for pattern in existing}
        assert all(pattern.canonical_key() not in existing_keys for pattern in fresh)

    def test_incremental_generation_on_missing_node(self):
        generator = PatternGenerator()
        assert generator.generate_incremental(typed_triangle(), 99, []) == []


class TestEnumerationDeterminism:
    """BFS expansion (deque, sorted boundaries) makes enumeration — and any
    ``max_patterns_per_graph`` truncation — reproducible across runs and
    identical between the incremental-key fast path and the reference path."""

    def build_graph(self, seed=11, num_nodes=12):
        from tests.conftest import build_random_typed_graph

        return build_random_typed_graph(num_nodes, seed=seed)

    def test_enumeration_order_is_deterministic(self):
        graph = self.build_graph()
        first = enumerate_connected_patterns(graph, 3, max_patterns_per_graph=20)
        second = enumerate_connected_patterns(graph, 3, max_patterns_per_graph=20)
        assert [p.canonical_key() for p in first] == [p.canonical_key() for p in second]

    def test_truncation_is_a_prefix_of_the_full_enumeration(self):
        graph = self.build_graph()
        full = enumerate_connected_patterns(graph, 3, max_patterns_per_graph=10_000)
        truncated = enumerate_connected_patterns(graph, 3, max_patterns_per_graph=7)
        assert [p.canonical_key() for p in truncated] == [
            p.canonical_key() for p in full
        ][: len(truncated)]

    def test_breadth_first_yields_small_patterns_first(self):
        # All singleton node sets are seeded before any 2-node extension, so
        # a breadth-first frontier must emit every 1-node pattern before the
        # first multi-node one — the LIFO bug emitted large patterns first.
        graph = typed_path(["A", "B", "C", "D"])
        patterns = enumerate_connected_patterns(graph, 3)
        sizes = [pattern.num_nodes() for pattern in patterns]
        num_types = len({"A", "B", "C", "D"})
        assert sizes[:num_types] == [1] * num_types
        assert sizes == sorted(sizes)

    def test_incremental_and_reference_paths_agree(self):
        from repro.core.oracles import (
            reference_enumerate_connected_patterns,
            reference_iter_connected_pattern_keys,
        )

        for seed in (0, 3, 9):
            graph = self.build_graph(seed=seed)
            for cap in (6, 40, 10_000):
                fast = enumerate_connected_patterns(graph, 4, max_patterns_per_graph=cap)
                reference = reference_enumerate_connected_patterns(
                    graph, 4, max_patterns_per_graph=cap
                )
                assert [p.canonical_key() for p in fast] == [
                    p.canonical_key() for p in reference
                ]
                assert list(iter_connected_pattern_keys(graph, 4, cap)) == list(
                    reference_iter_connected_pattern_keys(graph, 4, cap)
                )

    def test_frequent_patterns_identical_across_backends(self):
        from repro.core.oracles import reference_frequent_patterns

        graphs = [self.build_graph(seed=seed, num_nodes=8) for seed in range(4)]
        def snapshot(results):
            return [
                (fp.pattern.canonical_key(), fp.support, tuple(fp.supporting_graphs))
                for fp in results
            ]

        fast = snapshot(frequent_patterns(graphs, min_support=2, max_pattern_size=3))
        reference = snapshot(reference_frequent_patterns(graphs, min_support=2, max_pattern_size=3))
        assert fast == reference
