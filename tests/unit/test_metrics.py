"""Unit tests for the evaluation metrics."""

import pytest

from repro.core import Configuration, ExplanationSubgraph, ExplanationView
from repro.core.approx import ApproxGVEX
from repro.gnn.models import _BATCH_MIN_ROWS
from repro.graphs import GraphPattern
from repro.metrics import (
    Stopwatch,
    compression,
    conciseness_report,
    edge_loss,
    fidelity_minus,
    fidelity_plus,
    fidelity_report,
    sparsity,
    time_call,
)


@pytest.fixture(scope="module")
def gvex_view(trained_mut_model, mut_database):
    config = Configuration(theta=0.08).with_default_bound(0, 8)
    return ApproxGVEX(trained_mut_model, config).explain_label(mut_database.graphs, 1)


class TestFidelity:
    def test_empty_explanations(self, trained_mut_model):
        assert fidelity_plus(trained_mut_model, []) == 0.0
        assert fidelity_minus(trained_mut_model, []) == 0.0

    def test_whole_graph_explanation_has_zero_fidelity_minus(self, trained_mut_model, mut_database):
        graph = mut_database[0]
        explanation = ExplanationSubgraph(
            source_graph=graph, nodes=set(graph.nodes), label=trained_mut_model.predict(graph)
        )
        assert fidelity_minus(trained_mut_model, [explanation]) == pytest.approx(0.0, abs=1e-9)

    def test_whole_graph_explanation_has_high_fidelity_plus(self, trained_mut_model, mut_database):
        graph = mut_database[0]
        label = trained_mut_model.predict(graph)
        explanation = ExplanationSubgraph(source_graph=graph, nodes=set(graph.nodes), label=label)
        # Removing everything leaves the uniform prior.
        expected = trained_mut_model.predict_proba(graph)[label] - 1.0 / trained_mut_model.num_classes
        assert fidelity_plus(trained_mut_model, [explanation]) == pytest.approx(expected)

    def test_fidelity_values_bounded(self, trained_mut_model, gvex_view):
        plus = fidelity_plus(trained_mut_model, gvex_view.subgraphs)
        minus = fidelity_minus(trained_mut_model, gvex_view.subgraphs)
        assert -1.0 <= plus <= 1.0
        assert -1.0 <= minus <= 1.0

    def test_report_fractions(self, trained_mut_model, gvex_view):
        report = fidelity_report(trained_mut_model, gvex_view.subgraphs)
        assert 0.0 <= report["consistent_fraction"] <= 1.0
        assert 0.0 <= report["counterfactual_fraction"] <= 1.0

    def test_batched_pass_equals_the_per_graph_mean(self, trained_mut_model, mut_database):
        """Several explanations share one block-diagonal pass per probe kind;
        one explanation runs per-graph forwards.  The two must agree."""
        model = trained_mut_model
        explanations = [
            ExplanationSubgraph(
                source_graph=graph, nodes=set(graph.nodes[:cut]), label=model.predict(graph)
            )
            for graph in mut_database.graphs
            for cut in (graph.num_nodes() // 3, 2 * graph.num_nodes() // 3)
        ]
        # Every probe kind clears the row threshold that turns batching on.
        for probed in (
            [explanation.source_graph for explanation in explanations],
            [explanation.subgraph() for explanation in explanations],
            [explanation.residual() for explanation in explanations],
        ):
            assert sum(graph.num_nodes() for graph in probed) >= _BATCH_MIN_ROWS
        for metric in (fidelity_plus, fidelity_minus):
            singles = [metric(model, [explanation]) for explanation in explanations]
            assert metric(model, explanations) == pytest.approx(
                sum(singles) / len(singles), abs=1e-9
            )

    def test_report_empty(self, trained_mut_model):
        report = fidelity_report(trained_mut_model, [])
        assert report["fidelity_plus"] == 0.0
        assert report["consistent_fraction"] == 0.0


class TestConciseness:
    def test_sparsity_of_empty_list(self):
        assert sparsity([]) == 0.0

    def test_sparsity_decreases_with_larger_explanations(self, mut_database):
        graph = mut_database[0]
        small = ExplanationSubgraph(source_graph=graph, nodes=set(graph.nodes[:2]), label=0)
        large = ExplanationSubgraph(source_graph=graph, nodes=set(graph.nodes[:8]), label=0)
        assert sparsity([small]) > sparsity([large])

    def test_compression_positive_for_gvex_views(self, gvex_view):
        assert compression(gvex_view) > 0.0

    def test_edge_loss_in_unit_interval(self, gvex_view):
        assert 0.0 <= edge_loss(gvex_view) <= 1.0

    def test_edge_loss_of_view_without_subgraphs(self):
        assert edge_loss(ExplanationView(label=0)) == 0.0

    def test_report_keys(self, gvex_view):
        report = conciseness_report(gvex_view)
        assert set(report) == {"sparsity", "compression", "edge_loss", "num_patterns", "num_subgraphs"}

    def test_compression_uses_pattern_sizes(self, mut_database):
        graph = mut_database[0]
        view = ExplanationView(label=0)
        view.subgraphs = [ExplanationSubgraph(source_graph=graph, nodes=set(graph.nodes[:6]), label=0)]
        big_pattern = GraphPattern()
        for node in range(20):
            big_pattern.add_node(node, "C")
            if node:
                big_pattern.add_edge(node - 1, node)
        view.patterns = [big_pattern]
        assert compression(view) < 0.0  # patterns larger than subgraphs give negative compression


class TestRuntime:
    def test_time_call_returns_result_and_duration(self):
        result, seconds = time_call(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0

    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        watch.measure("work", sum, range(10))
        watch.measure("work", sum, range(10))
        watch.measure("other", len, [1])
        assert watch.total("work") >= 0.0
        assert len(watch.records) == 3
        assert set(watch.as_dict()) == {"work", "other"}
        assert watch.total() == pytest.approx(watch.total("work") + watch.total("other"))
