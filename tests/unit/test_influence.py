"""Unit tests for the feature-influence estimators (paper Eqs. 3-4)."""

import random

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.gnn import GNNClassifier
from repro.core.oracles import reference_jacobian_l1
from repro.gnn.influence import (
    _layer_operator,
    influence_matrix,
    jacobian_l1_matrix,
    normalized_influence_matrix,
)
from repro.gnn.tensor_ops import relu_grad
from repro.graphs import Graph
from repro.graphs.subgraph import induced_subgraph
from tests.conftest import build_random_typed_graph


@pytest.fixture
def small_model():
    return GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=4, num_layers=2, seed=11)


class TestExactJacobian:
    def test_shape(self, small_model, path_graph):
        matrix = jacobian_l1_matrix(small_model, path_graph)
        assert matrix.shape == (5, 5)
        assert (matrix >= 0).all()

    def test_empty_graph(self, small_model):
        assert jacobian_l1_matrix(small_model, Graph()).shape == (0, 0)

    def test_far_nodes_have_zero_influence(self, small_model):
        # A path of 6 nodes with a 2-layer model: node 0 cannot influence node 5.
        graph = Graph()
        for node in range(6):
            graph.add_node(node, "P", [1.0, 0.0])
        for node in range(5):
            graph.add_edge(node, node + 1)
        matrix = jacobian_l1_matrix(small_model, graph)
        assert matrix[5, 0] == pytest.approx(0.0, abs=1e-12)
        assert matrix[1, 0] > 0.0

    def test_matches_finite_difference_jacobian(self, path_graph):
        """The exact per-pair L1 norms agree with numerically perturbed features."""
        model = GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=3, num_layers=2, seed=4)
        matrix = jacobian_l1_matrix(model, path_graph)
        features = path_graph.feature_matrix(2)
        adjacency = path_graph.adjacency_matrix()
        epsilon = 1e-6
        source, target = 1, 2  # adjacent nodes
        numerical = 0.0
        for j in range(2):
            plus = features.copy()
            plus[source, j] += epsilon
            minus = features.copy()
            minus[source, j] -= epsilon
            _, cache_plus = model.forward_matrices(plus, adjacency)
            _, cache_minus = model.forward_matrices(minus, adjacency)
            diff = (cache_plus["layer_outputs"][-1][target] - cache_minus["layer_outputs"][-1][target]) / (
                2 * epsilon
            )
            numerical += np.abs(diff).sum()
        assert matrix[target, source] == pytest.approx(numerical, rel=1e-4, abs=1e-6)


class TestInfluenceMatrix:
    def test_propagation_estimator_shape(self, small_model, path_graph):
        matrix = influence_matrix(small_model, path_graph, method="propagation")
        assert matrix.shape == (5, 5)
        assert (matrix >= 0).all()

    def test_auto_uses_exact_for_small_graphs(self, small_model, path_graph):
        auto = influence_matrix(small_model, path_graph, method="auto")
        exact = influence_matrix(small_model, path_graph, method="exact")
        np.testing.assert_allclose(auto, exact)

    def test_unknown_method_rejected(self, small_model, path_graph):
        with pytest.raises(ModelError):
            influence_matrix(small_model, path_graph, method="magic")

    def test_propagation_reflects_topology(self, small_model):
        # A star: the hub reaches every leaf within 2 hops, leaves reach each
        # other only through the hub.
        graph = Graph()
        graph.add_node(0, "S", [1.0, 0.0])
        for leaf in range(1, 5):
            graph.add_node(leaf, "S", [0.0, 1.0])
            graph.add_edge(0, leaf)
        matrix = influence_matrix(small_model, graph, method="propagation")
        assert matrix[1, 0] > 0
        assert matrix[1, 2] > 0  # two-hop path through the hub with k=2 layers


class TestNormalisedInfluence:
    def test_rows_source_columns_target_sum(self, small_model, path_graph):
        matrix = normalized_influence_matrix(small_model, path_graph, method="exact")
        # For each target v, the shares over sources u sum to 1.
        np.testing.assert_allclose(matrix.sum(axis=0), np.ones(5), atol=1e-9)

    def test_values_between_zero_and_one(self, small_model, path_graph):
        matrix = normalized_influence_matrix(small_model, path_graph)
        assert (matrix >= 0).all() and (matrix <= 1 + 1e-9).all()

    def test_empty_graph(self, small_model):
        assert normalized_influence_matrix(small_model, Graph()).size == 0


def identity_seeded_jacobian(model, graph):
    """The batched recurrence seeded with the ``n x n*d0 x d0`` identity.

    Every layer, the first included, runs the two GEMMs.  The production
    kernel skips the identity and must equal this bit for bit.
    """
    features = graph.sparse_view().feature_matrix(model.feature_dim)
    propagation = model.propagation_matrix(graph)
    num_nodes, feature_dim = features.shape
    flat = num_nodes * feature_dim
    jac = np.zeros((num_nodes, flat, feature_dim))
    for u in range(num_nodes):
        jac[u, u * feature_dim : (u + 1) * feature_dim, :] = np.eye(feature_dim)
    hidden = features
    for layer in model.conv_layers:
        hidden, cache = layer.forward(hidden, propagation)
        weight = layer.params["weight"]
        operator = _layer_operator(layer, cache, num_nodes)
        in_dim, out_dim = weight.shape
        contracted = jac.reshape(num_nodes * flat, in_dim) @ weight
        jac = (operator @ contracted.reshape(num_nodes, flat * out_dim)).reshape(
            num_nodes, flat, out_dim
        )
        if layer.activation:
            jac = jac * relu_grad(cache["pre_activation"])[:, None, :]
    return np.abs(jac).reshape(num_nodes, num_nodes, feature_dim * jac.shape[2]).sum(axis=2)


def isolated_nodes_graph():
    graph = Graph()
    for node in range(6):
        graph.add_node(node, "T", [float(node % 3), 1.0, 0.5 * node])
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(4, 5)  # node 3 is isolated
    graph.add_node(6, "T", [0.0, 0.0, 2.0])  # so is node 6
    return graph


def single_node_graph():
    graph = Graph()
    graph.add_node(0, "T", [1.0, -2.0, 0.5])
    return graph


def shuffled_prefixes(seed):
    graph = build_random_typed_graph(24, seed=seed)
    order = list(graph.nodes)
    random.Random(seed).shuffle(order)
    return [induced_subgraph(graph, order[:size]) for size in (1, 2, 5, 11, 24)]


JACOBIAN_MODELS = {
    "gcn": lambda: GNNClassifier(feature_dim=3, num_classes=2, hidden_dim=5, num_layers=3, seed=2),
    "gin": lambda: GNNClassifier(
        feature_dim=3, num_classes=2, hidden_dim=4, num_layers=2, conv="gin", seed=8
    ),
    "gcn-1-layer": lambda: GNNClassifier(
        feature_dim=3, num_classes=2, hidden_dim=4, num_layers=1, seed=5
    ),
}


class TestIdentityFreeJacobian:
    @pytest.fixture(params=sorted(JACOBIAN_MODELS))
    def model(self, request):
        return JACOBIAN_MODELS[request.param]()

    def graphs(self):
        return [single_node_graph(), isolated_nodes_graph(), *shuffled_prefixes(1), *shuffled_prefixes(4)]

    def test_bit_identical_to_the_identity_seeded_recurrence(self, model):
        for graph in self.graphs():
            assert np.array_equal(
                jacobian_l1_matrix(model, graph), identity_seeded_jacobian(model, graph)
            )

    def test_matches_the_einsum_reference(self, model):
        for graph in self.graphs():
            np.testing.assert_allclose(
                jacobian_l1_matrix(model, graph),
                reference_jacobian_l1(model, graph),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_isolated_nodes_only_influence_themselves(self, model):
        matrix = jacobian_l1_matrix(model, isolated_nodes_graph())
        for isolated in (3, 6):
            off_diagonal = np.delete(matrix[isolated], isolated)
            assert not off_diagonal.any()
            assert not np.delete(matrix[:, isolated], isolated).any()

    def test_sage_is_rejected(self, path_graph):
        sage = GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=3, num_layers=2, conv="sage")
        with pytest.raises(ModelError):
            jacobian_l1_matrix(sage, path_graph)
        with pytest.raises(ModelError):
            reference_jacobian_l1(sage, path_graph)
