"""Unit tests for the GNN classifier."""

import numpy as np
import pytest

from repro.exceptions import ModelError, NotFittedError
from repro.gnn import GNNClassifier
from repro.gnn.loss import cross_entropy, cross_entropy_grad
from repro.graphs import Graph


class TestConstruction:
    def test_rejects_invalid_dimensions(self):
        with pytest.raises(ModelError):
            GNNClassifier(feature_dim=0, num_classes=2)
        with pytest.raises(ModelError):
            GNNClassifier(feature_dim=2, num_classes=1)
        with pytest.raises(ModelError):
            GNNClassifier(feature_dim=2, num_classes=2, num_layers=0)
        with pytest.raises(ModelError):
            GNNClassifier(feature_dim=2, num_classes=2, conv="transformer")

    def test_layer_stack_sizes(self):
        model = GNNClassifier(feature_dim=3, num_classes=4, hidden_dim=8, num_layers=2)
        assert len(model.conv_layers) == 2
        assert model.head.out_dim == 4

    @pytest.mark.parametrize("conv", ["gcn", "gin", "sage"])
    def test_all_conv_types_forward(self, conv, triangle_graph):
        model = GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=4, conv=conv, seed=0)
        logits = model.predict_logits(triangle_graph)
        assert logits.shape == (2,)

    def test_parameter_count_positive(self, untrained_small_model):
        assert untrained_small_model.parameter_count() > 0

    def test_seed_makes_weights_deterministic(self):
        first = GNNClassifier(feature_dim=2, num_classes=2, seed=42)
        second = GNNClassifier(feature_dim=2, num_classes=2, seed=42)
        np.testing.assert_allclose(
            first.conv_layers[0].params["weight"], second.conv_layers[0].params["weight"]
        )


class TestInference:
    def test_predict_returns_valid_label(self, untrained_small_model, triangle_graph):
        assert untrained_small_model.predict(triangle_graph) in (0, 1)

    def test_predict_proba_sums_to_one(self, untrained_small_model, triangle_graph):
        probs = untrained_small_model.predict_proba(triangle_graph)
        assert probs.sum() == pytest.approx(1.0)

    def test_predict_many(self, untrained_small_model, triangle_graph, path_graph):
        labels = untrained_small_model.predict_many([triangle_graph, path_graph])
        assert len(labels) == 2

    def test_empty_graph_prediction(self, untrained_small_model):
        empty = Graph()
        assert untrained_small_model.predict(empty) in (0, 1)

    def test_node_embeddings_shape(self, untrained_small_model, path_graph):
        embeddings = untrained_small_model.node_embeddings(path_graph)
        assert embeddings.shape == (5, untrained_small_model.hidden_dim)

    def test_node_embeddings_of_empty_graph(self, untrained_small_model):
        assert untrained_small_model.node_embeddings(Graph()).shape == (0, 8)

    def test_forward_matrices_matches_graph_forward(self, untrained_small_model, triangle_graph):
        logits_graph = untrained_small_model.predict_logits(triangle_graph)
        logits_matrix, _ = untrained_small_model.forward_matrices(
            triangle_graph.feature_matrix(2), triangle_graph.adjacency_matrix()
        )
        np.testing.assert_allclose(logits_graph, logits_matrix)

    def test_prediction_invariant_to_node_relabeling(self, untrained_small_model, triangle_graph):
        relabelled = triangle_graph.relabel({0: 5, 1: 6, 2: 7})
        np.testing.assert_allclose(
            untrained_small_model.predict_proba(triangle_graph),
            untrained_small_model.predict_proba(relabelled),
            atol=1e-9,
        )


class TestBackward:
    def test_backward_returns_feature_gradient(self, untrained_small_model, triangle_graph):
        logits, cache = untrained_small_model.forward(triangle_graph)
        grad = untrained_small_model.backward(cross_entropy_grad(logits, 0), cache)
        assert grad.shape == (3, 2)

    def test_end_to_end_gradient_matches_finite_differences(self, triangle_graph):
        model = GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=4, num_layers=2, seed=3)
        label = 1
        logits, cache = model.forward(triangle_graph)
        model.zero_grads()
        model.backward(cross_entropy_grad(logits, label), cache)
        analytic = model.conv_layers[0].grads["weight"].copy()

        weight = model.conv_layers[0].params["weight"]
        numerical = np.zeros_like(weight)
        epsilon = 1e-5
        for index in np.ndindex(weight.shape):
            original = weight[index]
            weight[index] = original + epsilon
            plus = cross_entropy(model.predict_logits(triangle_graph), label)
            weight[index] = original - epsilon
            minus = cross_entropy(model.predict_logits(triangle_graph), label)
            weight[index] = original
            numerical[index] = (plus - minus) / (2 * epsilon)
        np.testing.assert_allclose(analytic, numerical, atol=1e-4)


class TestPersistence:
    def test_get_set_weights_round_trip(self, triangle_graph):
        model = GNNClassifier(feature_dim=2, num_classes=2, seed=0)
        other = GNNClassifier(feature_dim=2, num_classes=2, seed=99)
        other.set_weights(model.get_weights())
        np.testing.assert_allclose(
            model.predict_logits(triangle_graph), other.predict_logits(triangle_graph)
        )

    def test_set_weights_shape_mismatch_raises(self):
        model = GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=8)
        other = GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=4)
        with pytest.raises(ModelError):
            other.set_weights(model.get_weights())

    def test_set_weights_wrong_layer_count_raises(self):
        model = GNNClassifier(feature_dim=2, num_classes=2, num_layers=3)
        other = GNNClassifier(feature_dim=2, num_classes=2, num_layers=2)
        with pytest.raises(ModelError):
            other.set_weights(model.get_weights())

    def test_require_trained(self, untrained_small_model):
        with pytest.raises(NotFittedError):
            untrained_small_model.require_trained()


class TestBatchedInference:
    """Database-level batched inference vs the per-graph reference paths."""

    @pytest.fixture(autouse=True)
    def _force_batching(self, monkeypatch):
        """Drop the row-count gate so small fixtures hit the batched path."""
        import repro.gnn.models as models_module

        monkeypatch.setattr(models_module, "_BATCH_MIN_ROWS", 0)

    @pytest.mark.parametrize("conv", ["gcn", "gin", "sage"])
    @pytest.mark.parametrize("pooling", ["max", "mean", "sum"])
    def test_predict_batch_matches_per_graph(self, mut_database, conv, pooling):
        model = GNNClassifier(
            feature_dim=14, num_classes=2, hidden_dim=8, num_layers=2,
            conv=conv, pooling=pooling, seed=2,
        )
        graphs = mut_database.graphs[:6]
        batched = model.predict_batch(graphs)
        assert batched == [model.predict(graph) for graph in graphs]

    @pytest.mark.parametrize("conv", ["gcn", "gin", "sage"])
    def test_batch_logits_close_to_per_graph(self, mut_database, conv):
        model = GNNClassifier(
            feature_dim=14, num_classes=2, hidden_dim=8, num_layers=2, conv=conv, seed=2
        )
        graphs = mut_database.graphs[:5]
        batched = model.batch_logits(graphs)
        reference = np.stack([model.predict_logits(graph) for graph in graphs])
        np.testing.assert_allclose(batched, reference, atol=1e-9)

    def test_predict_proba_batch_rows_match(self, trained_mut_model, mut_database):
        graphs = mut_database.graphs[:5]
        batched = trained_mut_model.predict_proba_batch(graphs)
        for row, graph in enumerate(graphs):
            np.testing.assert_allclose(
                batched[row], trained_mut_model.predict_proba(graph), atol=1e-9
            )

    def test_batch_handles_empty_graph(self, trained_mut_model, mut_database):
        graphs = [mut_database[0], Graph(), mut_database[1]]
        batched = trained_mut_model.predict_batch(graphs)
        assert batched == [trained_mut_model.predict(graph) for graph in graphs]

    def test_predict_subsets_matches_per_subset(self, trained_mut_model, mut_database):
        graph = mut_database[0]
        node_sets = [
            frozenset(graph.nodes[:3]),
            frozenset(graph.nodes[2:8]),
            frozenset(graph.nodes),
        ]
        batched = trained_mut_model.predict_subsets(graph, node_sets)
        assert batched == [
            trained_mut_model.predict_node_subset(graph, nodes) for nodes in node_sets
        ]

    def test_predict_proba_subsets_close(self, trained_mut_model, mut_database):
        graph = mut_database[0]
        node_sets = [frozenset(graph.nodes[:4]), frozenset(graph.nodes[3:9])]
        batched = trained_mut_model.predict_proba_subsets(graph, node_sets)
        for row, nodes in enumerate(node_sets):
            np.testing.assert_allclose(
                batched[row], trained_mut_model.predict_proba_nodes(graph, nodes), atol=1e-9
            )

    def test_single_graph_falls_back_to_reference(self, trained_mut_model, mut_database):
        graph = mut_database[0]
        np.testing.assert_array_equal(
            trained_mut_model.batch_logits([graph]), [trained_mut_model.predict_logits(graph)]
        )


class TestSubsetFamilies:
    """Probe families against the same node sets passed as a plain list."""

    @pytest.fixture(scope="class")
    def graphs(self, mut_database):
        from repro.datasets.synthetic import make_ba_motif_synthetic

        return {
            "mut": mut_database[0],
            "syn": make_ba_motif_synthetic(num_graphs=2, seed=1, base_size=96)[0],
        }

    @staticmethod
    def _model(graph, conv="gcn", pooling="max", last_activation=True):
        model = GNNClassifier(
            feature_dim=graph.sparse_view().resolve_feature_dim(None), num_classes=2,
            hidden_dim=8, num_layers=3, conv=conv, pooling=pooling, seed=3,
        )
        model.conv_layers[-1].activation = last_activation
        return model

    @staticmethod
    def _swap_step(graph):
        """The swap loop's probes: residual leave-one-out, kept add-one."""
        from repro.graphs.sparse import SubsetFamily

        selected = set(graph.nodes[::3][:5])
        outside = [node for node in graph.nodes if node not in selected]
        return SubsetFamily([(outside, outside), (selected, outside)])

    def test_family_is_a_lazy_sequence_of_its_node_sets(self):
        from repro.graphs.sparse import SubsetFamily

        family = SubsetFamily([({1, 2, 3}, [2, 4]), ({5}, [5])])
        expected = [
            frozenset({1, 2, 3}), frozenset({1, 3}), frozenset({1, 2, 3, 4}),
            frozenset({5}), frozenset(),
        ]
        assert len(family) == 5
        assert list(family) == expected
        assert family[-1] == frozenset()
        assert family.sizes.tolist() == [len(nodes) for nodes in expected]
        with pytest.raises(IndexError):
            family[5]

    @pytest.mark.parametrize("size", ["mut", "syn"])
    @pytest.mark.parametrize("last_activation", [True, False], ids=["relu", "linear"])
    @pytest.mark.parametrize("pooling", ["max", "mean", "sum"])
    @pytest.mark.parametrize("conv", ["gcn", "gin", "sage"])
    def test_family_logits_equal_materialised_sets(
        self, graphs, monkeypatch, size, conv, pooling, last_activation
    ):
        import repro.gnn.models as models_module

        # Batch the MUT-sized family too, so both sides run the batch kernels.
        monkeypatch.setattr(models_module, "_BATCH_MIN_ROWS", 0)
        graph = graphs[size]
        model = self._model(graph, conv, pooling, last_activation)
        family = self._swap_step(graph)
        np.testing.assert_array_equal(
            model.subsets_logits(graph, family), model.subsets_logits(graph, list(family))
        )

    def test_small_family_takes_the_sequential_path(self, graphs):
        graph = graphs["mut"]
        model = self._model(graph)
        family = self._swap_step(graph)
        assert family.sizes.sum() < 128
        expected = np.stack([model._subset_logits(graph, nodes) for nodes in family])
        np.testing.assert_array_equal(model.subsets_logits(graph, family), expected)

    def test_one_node_base_reads_zero_for_its_empty_block(self, graphs):
        from repro.core.approx import ApproxGVEX

        graph = graphs["syn"]
        model = self._model(graph)
        node = graph.nodes[0]
        probabilities = ApproxGVEX(model)._label_probabilities(graph, 1, [({node}, [node])])
        assert probabilities[1] == 0.0
        assert probabilities[0] == model.predict_proba_nodes(graph, {node})[1]

    def test_large_single_probe_matches_the_one_block_batch(self, graphs):
        pytest.importorskip("scipy.sparse")
        from repro.graphs import BatchedGraphView

        graph = graphs["syn"]
        model = self._model(graph, "sage")
        nodes = graph.nodes[:90]
        view = graph.sparse_view()
        batch = BatchedGraphView.from_subsets(view, view.rows_for(nodes), [len(nodes)])
        np.testing.assert_array_equal(
            model._subset_logits(graph, nodes), model._batched_logits(batch)[0]
        )
