"""Unit tests for the feature-influence estimators (paper Eqs. 3-4)."""

import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from repro.core import Configuration, GraphAnalysis
from repro.core.approx import ApproxGVEX
from repro.core.streaming import StreamGVEX
from repro.exceptions import ModelError
from repro.gnn import GNNClassifier, Trainer
from repro.core.oracles import reference_jacobian_l1
from repro.datasets import load_dataset
from repro.gnn.influence import (
    influence_matrix,
    jacobian_l1_matrix,
    normalize_influence,
    normalized_influence_matrix,
)
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


def node_features(node, feature_dim):
    return np.resize([float(node % 3), 1.0, 0.5 * node], feature_dim)


def isolated_nodes_graph(feature_dim=3):
    graph = Graph()
    for node in range(6):
        graph.add_node(node, "T", node_features(node, feature_dim))
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(4, 5)  # node 3 is isolated
    graph.add_node(6, "T", node_features(6, feature_dim))  # so is node 6
    return graph


def single_node_graph(feature_dim=3):
    graph = Graph()
    graph.add_node(0, "T", np.resize([1.0, -2.0, 0.5], feature_dim))
    return graph


def shuffled_prefixes(seed, feature_dim=3):
    graph = build_random_typed_graph(24, seed=seed, num_types=feature_dim)
    order = list(graph.nodes)
    random.Random(seed).shuffle(order)
    return [induced_subgraph(graph, order[:size]) for size in (1, 2, 5, 11, 24)]


def without_activation(model, *layers):
    for index in layers:
        model.conv_layers[index].activation = False
    return model


JACOBIAN_MODELS = {
    "gcn": lambda: GNNClassifier(feature_dim=3, num_classes=2, hidden_dim=5, num_layers=3, seed=2),
    "gin": lambda: GNNClassifier(
        feature_dim=3, num_classes=2, hidden_dim=4, num_layers=2, conv="gin", seed=8
    ),
    "gcn-1-layer": lambda: GNNClassifier(
        feature_dim=3, num_classes=2, hidden_dim=4, num_layers=1, seed=5
    ),
    # d0 > hidden and d0 < hidden: the folded first-layer matrix G[w] is
    # d0 x hidden, and the tensor's row axis is n * d0.
    "gcn-wide-input": lambda: GNNClassifier(
        feature_dim=9, num_classes=2, hidden_dim=3, num_layers=3, seed=6
    ),
    "gin-narrow-input": lambda: GNNClassifier(
        feature_dim=2, num_classes=2, hidden_dim=11, num_layers=4, conv="gin", seed=9
    ),
    # Linear layers: a middle gate and the gate folded into the L1 reduction.
    "gcn-linear-layers": lambda: without_activation(
        GNNClassifier(feature_dim=3, num_classes=2, hidden_dim=5, num_layers=4, seed=3), 1, 3
    ),
    "gcn-1-linear-layer": lambda: without_activation(
        GNNClassifier(feature_dim=3, num_classes=2, hidden_dim=4, num_layers=1, seed=5), 0
    ),
}


class TestIdentityFreeJacobian:
    @pytest.fixture(params=sorted(JACOBIAN_MODELS))
    def model(self, request):
        return JACOBIAN_MODELS[request.param]()

    def graphs(self, feature_dim):
        return [
            single_node_graph(feature_dim),
            isolated_nodes_graph(feature_dim),
            *shuffled_prefixes(1, feature_dim),
            *shuffled_prefixes(4, feature_dim),
        ]

    def test_matches_the_einsum_reference(self, model):
        for graph in self.graphs(model.feature_dim):
            np.testing.assert_allclose(
                jacobian_l1_matrix(model, graph),
                reference_jacobian_l1(model, graph),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_isolated_nodes_only_influence_themselves(self, model):
        matrix = jacobian_l1_matrix(model, isolated_nodes_graph(model.feature_dim))
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

    def test_peak_memory_is_two_tensors(self):
        """The kernel ping-pongs two ``n x n*d0 x hidden`` buffers and
        allocates no other full-size temporary."""
        database = load_dataset("SYN", num_graphs=2, seed=7, base_size=96)
        graph = database[0]
        model = GNNClassifier(feature_dim=8, num_classes=2, hidden_dim=16, num_layers=3, seed=0)
        jacobian_l1_matrix(model, graph)  # warm the view's cached matrices
        num_nodes = graph.num_nodes()
        tensor_bytes = num_nodes * num_nodes * model.feature_dim * model.hidden_dim * 8
        tracemalloc.start()
        try:
            jacobian_l1_matrix(model, graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 100 <= num_nodes <= 112
        assert peak <= 2.25 * tensor_bytes


class EinsumJacobianAnalysis(GraphAnalysis):
    """The production analysis with its influence from the einsum oracle."""

    def _normalized_influence(self, model, graph):
        return normalize_influence(reference_jacobian_l1(model, graph))


def on_einsum_jacobian(explainer_class):
    class OnEinsumJacobian(explainer_class):
        def _build_analysis(self, graph):
            return EinsumJacobianAnalysis(self.model, graph, self.config)

    return OnEinsumJacobian


VIEW_DATASETS = {
    "SYN": {"num_graphs": 4, "base_size": 24},
    "MUT": {"num_graphs": 6},
    "RED": {"num_graphs": 4, "base_size": 14},
}


@lru_cache(maxsize=None)
def view_context(dataset):
    database = load_dataset(dataset, seed=5, **VIEW_DATASETS[dataset])
    stats = database.statistics()
    model = GNNClassifier(
        feature_dim=max(1, int(stats["feature_dim"])),
        num_classes=max(2, len(database.class_labels())),
        hidden_dim=16,
        num_layers=3,
        seed=0,
    )
    Trainer(model, epochs=6, seed=5).fit(database)
    return database, model


def view_signature(view):
    return (
        [(subgraph.source_graph.graph_id, sorted(subgraph.nodes)) for subgraph in view.subgraphs],
        sorted(pattern.canonical_key() for pattern in view.patterns),
        view.explainability,
    )


class TestViewsIndependentOfJacobianOrder:
    """Every decision reads the influence through a threshold or a rounded
    tie key, so the views do not depend on the kernel's summation order."""

    @pytest.mark.parametrize("dataset", sorted(VIEW_DATASETS))
    @pytest.mark.parametrize(
        "explainer_class, kwargs",
        [(ApproxGVEX, {}), (StreamGVEX, {"batch_size": 4})],
        ids=["approx", "stream"],
    )
    def test_views_identical_on_either_kernel(self, dataset, explainer_class, kwargs):
        database, model = view_context(dataset)
        config = Configuration(theta=0.08).with_default_bound(2, 8)
        for label in sorted(set(model.predict_many(database.graphs))):
            production = explainer_class(model, config, **kwargs).explain_label(
                database.graphs, label
            )
            einsum = on_einsum_jacobian(explainer_class)(model, config, **kwargs).explain_label(
                database.graphs, label
            )
            assert view_signature(production) == view_signature(einsum)
