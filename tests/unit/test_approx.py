"""Unit tests for ApproxGVEX (Algorithm 1)."""

import pytest

from repro.core import Configuration, verify_view
from repro.core.approx import ApproxGVEX
from repro.exceptions import ExplanationError
from repro.graphs import Graph


@pytest.fixture
def explainer(trained_mut_model):
    config = Configuration(theta=0.08).with_default_bound(0, 8)
    return ApproxGVEX(trained_mut_model, config)


class TestExplainGraph:
    def test_respects_upper_bound(self, explainer, mut_database):
        graph = mut_database[1]
        explanation = explainer.explain_graph(graph)
        assert explanation is not None
        assert len(explanation.nodes) <= 8

    def test_respects_lower_bound(self, trained_mut_model, mut_database):
        config = Configuration().with_default_bound(5, 8)
        explainer = ApproxGVEX(trained_mut_model, config)
        explanation = explainer.explain_graph(mut_database[1])
        if explanation is not None:
            assert len(explanation.nodes) >= 5

    def test_nodes_belong_to_source_graph(self, explainer, mut_database):
        graph = mut_database[2]
        explanation = explainer.explain_graph(graph)
        assert explanation.nodes <= set(graph.nodes)

    def test_empty_graph_returns_none(self, explainer):
        assert explainer.explain_graph(Graph()) is None

    def test_label_defaults_to_model_prediction(self, explainer, trained_mut_model, mut_database):
        graph = mut_database[3]
        explanation = explainer.explain_graph(graph)
        assert explanation.label == trained_mut_model.predict(graph)

    def test_explainability_recorded_positive(self, explainer, mut_database):
        explanation = explainer.explain_graph(mut_database[1])
        assert explanation.explainability > 0.0

    def test_unsatisfiable_lower_bound_returns_none(self, trained_mut_model, mut_database):
        graph = mut_database[0]
        config = Configuration().with_default_bound(graph.num_nodes() + 5, graph.num_nodes() + 10)
        explainer = ApproxGVEX(trained_mut_model, config)
        assert explainer.explain_graph(graph) is None

    def test_verification_mode_none_skips_model_checks(self, trained_mut_model, mut_database):
        config = Configuration(verification_mode="none").with_default_bound(0, 6)
        explainer = ApproxGVEX(trained_mut_model, config)
        explanation = explainer.explain_graph(mut_database[1])
        assert explanation is not None
        assert len(explanation.nodes) == 6

    def test_strict_mode_runs(self, trained_mut_model, mut_database):
        config = Configuration(verification_mode="strict").with_default_bound(0, 6)
        explainer = ApproxGVEX(trained_mut_model, config)
        # Strict verification may legitimately fail to find an explanation;
        # the call must still terminate and return either None or a valid set.
        explanation = explainer.explain_graph(mut_database[1])
        assert explanation is None or explanation.nodes


class TestExplainLabel:
    def test_view_structure(self, explainer, mut_database, trained_mut_model):
        label = 1
        view = explainer.explain_label(mut_database.graphs, label)
        assert view.label == label
        predicted = {
            graph.graph_id
            for graph in mut_database.graphs
            if trained_mut_model.predict(graph) == label
        }
        assert {sub.source_graph.graph_id for sub in view.subgraphs} <= predicted
        assert view.patterns

    def test_patterns_cover_subgraph_nodes(self, explainer, mut_database, trained_mut_model):
        view = explainer.explain_label(mut_database.graphs, 1)
        config = explainer.config
        report = verify_view(view, trained_mut_model, config)
        assert report.is_graph_view
        assert report.properly_covers

    def test_metadata_recorded(self, explainer, mut_database):
        view = explainer.explain_label(mut_database.graphs, 0)
        assert view.metadata["algorithm"] == "ApproxGVEX"
        assert "edge_loss" in view.metadata
        assert view.metadata["runtime_seconds"] >= 0.0

    def test_graphs_of_other_label_ignored(self, explainer, mut_database, trained_mut_model):
        view = explainer.explain_label(mut_database.graphs, 0)
        for subgraph in view.subgraphs:
            assert trained_mut_model.predict(subgraph.source_graph) == 0


class TestExplainAll:
    def test_views_for_all_labels(self, explainer, mut_database):
        views = explainer.explain(mut_database)
        assert set(views.labels()) <= {0, 1}
        assert len(views) >= 1

    def test_total_explainability_is_sum(self, explainer, mut_database):
        views = explainer.explain(mut_database)
        assert views.total_explainability() == pytest.approx(
            sum(view.explainability for view in views)
        )

    def test_empty_collection_rejected(self, explainer):
        with pytest.raises(ExplanationError):
            explainer.explain([])

    def test_explain_instance_always_returns_subgraph(self, explainer, mut_database):
        explanation = explainer.explain_instance(mut_database[0])
        assert explanation.nodes
        assert explanation.consistent is not None
