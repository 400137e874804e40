"""Unit tests for the cached CSR sparse views (repro.graphs.sparse).

The equivalence classes compare the view-backed production paths with the
per-node references in :mod:`repro.core.oracles`.
"""

import numpy as np
import pytest

from repro.core.config import Configuration
from repro.core.oracles import (
    ReferenceEVerify,
    ReferenceGraphAnalysis,
    reference_covered_edges,
    reference_covered_nodes,
    reference_induced_subgraph,
    reference_khop_subgraph,
)
from repro.core.quality import GraphAnalysis
from repro.core.verification import EVerify
from repro.graphs import Graph, GraphPattern, induced_subgraph, khop_subgraph
from repro.graphs.sparse import BatchedGraphView
from repro.matching.coverage import covered_edges, covered_nodes


def build_test_graph() -> Graph:
    graph = Graph(graph_id=7)
    for node, node_type in [(4, "C"), (1, "N"), (9, "C"), (2, "O"), (6, "C")]:
        graph.add_node(node, node_type, features=[float(node), 1.0])
    graph.add_edge(4, 1, "single")
    graph.add_edge(1, 9, "double")
    graph.add_edge(9, 2, "single")
    graph.add_edge(4, 6, "single")
    return graph


class TestSparseGraphView:
    def test_csr_structure_matches_adjacency(self):
        graph = build_test_graph()
        view = graph.sparse_view()
        assert view.node_ids == graph.nodes
        for row, node in enumerate(view.node_ids):
            neighbours = {view.node_ids[i] for i in view.indices[view.indptr[row] : view.indptr[row + 1]]}
            assert neighbours == graph.neighbors(node)

    def test_cached_until_mutation(self):
        graph = build_test_graph()
        view = graph.sparse_view()
        assert graph.sparse_view() is view  # cache hit
        graph.add_node(11, "H")
        rebuilt = graph.sparse_view()
        assert rebuilt is not view
        assert 11 in rebuilt.index

    @pytest.mark.parametrize("mutation", ["add_node", "add_edge", "remove_node", "remove_edge"])
    def test_every_mutation_bumps_version(self, mutation):
        graph = build_test_graph()
        before = graph.version
        if mutation == "add_node":
            graph.add_node(11, "H")
        elif mutation == "add_edge":
            graph.add_edge(4, 9, "single")
        elif mutation == "remove_node":
            graph.remove_node(6)
        else:
            graph.remove_edge(4, 1)
        assert graph.version > before

    def test_matrices_match_reference(self):
        # Without a cached view the accessors build the matrices node by
        # node; with one they copy the view's cached matrices.
        uncached = build_test_graph()
        assert uncached.sparse_view_if_cached() is None
        graph = build_test_graph()
        graph.sparse_view()
        np.testing.assert_array_equal(graph.adjacency_matrix(), uncached.adjacency_matrix())
        np.testing.assert_array_equal(graph.feature_matrix(), uncached.feature_matrix())

    def test_returned_matrices_are_safe_copies(self):
        graph = build_test_graph()
        graph.sparse_view()
        matrix = graph.adjacency_matrix()
        matrix[0, 0] = 99.0
        assert graph.adjacency_matrix()[0, 0] == 0.0

    def test_dense_adjacency_self_loops(self):
        graph = build_test_graph()
        view = graph.sparse_view()
        expected = view.dense_adjacency() + np.eye(graph.num_nodes())
        np.testing.assert_array_equal(view.dense_adjacency_self_loops(), expected)

    def test_type_counts(self):
        graph = build_test_graph()
        assert graph.sparse_view().type_counts() == graph.type_counts()

    def test_warm_sparse_cache_prebuilds_views(self):
        from repro.graphs import GraphDatabase

        database = GraphDatabase()
        for index in range(3):
            database.add_graph(build_test_graph())
        assert database.warm_sparse_cache(feature_dim=2) == 3
        for graph in database.graphs:
            view = graph.sparse_view_if_cached()
            assert view is not None
            assert 2 in view._feature_cache

    def test_khop_rows_matches_bfs(self):
        graph = build_test_graph()
        view = graph.sparse_view()
        rows = view.khop_rows(view.index[4], 1)
        assert {view.node_ids[row] for row in rows} == {4, 1, 6}


class TestExtractionEquivalence:
    @pytest.mark.parametrize("nodes", [{4}, {4, 1, 9}, {4, 1, 9, 2, 6}, set()])
    def test_induced_subgraph_identical(self, nodes):
        graph = build_test_graph()
        reference = reference_induced_subgraph(graph, nodes)
        fast = induced_subgraph(graph, nodes)
        assert fast.nodes == reference.nodes
        assert fast.edges == reference.edges
        assert fast.node_types() == reference.node_types()
        for u, v in reference.edges:
            assert fast.edge_type(u, v) == reference.edge_type(u, v)
        for node in reference.nodes:
            np.testing.assert_array_equal(fast.node_features(node), reference.node_features(node))

    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_khop_subgraph_identical(self, hops):
        graph = build_test_graph()
        reference = reference_khop_subgraph(graph, 4, hops)
        fast = khop_subgraph(graph, 4, hops)
        assert fast.nodes == reference.nodes
        assert fast.edges == reference.edges


class TestCoverageEquivalence:
    def patterns(self):
        singleton = GraphPattern()
        singleton.add_node(0, "C")
        edge = GraphPattern()
        edge.add_node(0, "C")
        edge.add_node(1, "N")
        edge.add_edge(0, 1, "single")
        missing = GraphPattern()
        missing.add_node(0, "F")
        triangle = GraphPattern()
        for i, t in enumerate("CNC"):
            triangle.add_node(i, t)
        triangle.add_edge(0, 1, "single")
        triangle.add_edge(1, 2, "double")
        return [singleton, edge, missing, triangle]

    @pytest.mark.parametrize("max_matchings", [None, 1, 64])
    def test_covered_nodes_and_edges_identical(self, max_matchings):
        graph = build_test_graph()
        for pattern in self.patterns():
            ref_nodes = reference_covered_nodes(pattern, graph, max_matchings=max_matchings)
            ref_edges = reference_covered_edges(pattern, graph, max_matchings=max_matchings)
            assert covered_nodes(pattern, graph, max_matchings=max_matchings) == ref_nodes
            assert covered_edges(pattern, graph, max_matchings=max_matchings) == ref_edges


class TestModelEquivalence:
    def test_duplicate_node_ids_deduplicated(self, trained_mut_model, mut_database):
        graph = mut_database[0]
        nodes = graph.nodes[:4]
        reference = trained_mut_model.predict_proba_nodes(graph, nodes)
        duplicated = trained_mut_model.predict_proba_nodes(graph, nodes + nodes[:2])
        np.testing.assert_array_equal(duplicated, reference)

    def test_everify_cache_drops_superseded_versions(self, trained_mut_model):
        graph = build_test_graph()
        everify = EVerify(trained_mut_model.__class__(feature_dim=2, num_classes=2))
        everify.model.is_trained = True
        label = everify.predict(graph)
        everify.is_consistent(graph, set(graph.nodes[:3]), label)
        entries_before = everify.stats()["cache_entries"]
        graph.add_node(42, "C", features=[0.5, 0.5])
        everify.predict(graph)  # new version: superseded entries evicted
        assert everify.stats()["cache_entries"] <= entries_before

    def test_everify_and_gains_identical(self, trained_mut_model, mut_database):
        config = Configuration().with_default_bound(0, 6)
        graph = mut_database[0]
        probe_sets = [set(graph.nodes[:3]), set(graph.nodes[2:7]), set(graph.nodes)]
        results = {}
        for everify_class, analysis_class in (
            (EVerify, GraphAnalysis),
            (ReferenceEVerify, ReferenceGraphAnalysis),
        ):
            everify = everify_class(trained_mut_model)
            label = everify.predict(graph)
            analysis = analysis_class(trained_mut_model, graph, config)
            gains = analysis.marginal_gains(set(graph.nodes[:2]), graph.nodes[2:])
            results[everify_class] = (
                label,
                [everify.is_consistent(graph, nodes, label) for nodes in probe_sets],
                [everify.is_counterfactual(graph, nodes, label) for nodes in probe_sets],
                gains.tolist(),
            )
        assert results[EVerify] == results[ReferenceEVerify]


class TestBatchedGraphView:
    def test_block_adjacency_is_block_diagonal(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        graphs = [build_test_graph(), build_test_graph()]
        batch = BatchedGraphView.from_graphs(graphs)
        dense = np.zeros((batch.total_rows, batch.total_rows))
        offset = 0
        for graph in graphs:
            n = graph.num_nodes()
            dense[offset : offset + n, offset : offset + n] = graph.adjacency_matrix()
            offset += n
        adjacency = batch._block_adjacency()
        assert scipy_sparse.issparse(adjacency)
        np.testing.assert_array_equal(adjacency.toarray(), dense)

    def test_subset_blocks_match_induced_adjacency(self):
        pytest.importorskip("scipy.sparse")
        graph = build_test_graph()
        view = graph.sparse_view()
        rows = view.rows_for(graph.nodes[:3])
        batch = BatchedGraphView.from_subsets(
            view, np.concatenate([rows, np.arange(view.num_nodes)]), [len(rows), view.num_nodes]
        )
        blocks = batch._block_adjacency().toarray()
        np.testing.assert_array_equal(blocks[:3, :3], view.sub_adjacency(rows))
        np.testing.assert_array_equal(blocks[3:, 3:], view.dense_adjacency())

    def test_feature_matrix_concatenates_blocks(self):
        graph = build_test_graph()
        batch = BatchedGraphView.from_graphs([graph, graph])
        features = batch.feature_matrix(2)
        np.testing.assert_array_equal(features[:5], graph.feature_matrix(2))
        np.testing.assert_array_equal(features[5:], graph.feature_matrix(2))

    def test_segment_pool_handles_empty_blocks(self):
        graph = build_test_graph()
        empty = Graph()
        batch = BatchedGraphView.from_graphs([graph, empty, graph])
        hidden = np.arange(batch.total_rows * 2, dtype=float).reshape(batch.total_rows, 2)
        pooled = batch.segment_pool(hidden, "max")
        np.testing.assert_array_equal(pooled[0], hidden[:5].max(axis=0))
        np.testing.assert_array_equal(pooled[1], np.zeros(2))
        np.testing.assert_array_equal(pooled[2], hidden[5:].max(axis=0))
        summed = batch.segment_pool(hidden, "sum")
        np.testing.assert_array_equal(summed[2], hidden[5:].sum(axis=0))

    def test_gcn_propagate_matches_dense_normalisation(self):
        pytest.importorskip("scipy.sparse")
        from repro.gnn.tensor_ops import normalize_adjacency

        graph = build_test_graph()
        batch = BatchedGraphView.from_graphs([graph])
        hidden = graph.feature_matrix(2)
        expected = normalize_adjacency(graph.adjacency_matrix()) @ hidden
        np.testing.assert_allclose(batch.propagate("gcn", hidden), expected, atol=1e-12)
