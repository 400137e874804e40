"""Unit tests for the EVerify operator and view verification (C1-C3)."""

import pytest

from repro.core import Configuration, EVerify, ExplanationSubgraph, ExplanationView, verify_view
from repro.core.summarize import summarize_subgraphs
from repro.graphs import GraphPattern
from repro.graphs.subgraph import induced_subgraph


@pytest.fixture
def mutagen_graph(mut_database, trained_mut_model):
    for graph, label in zip(mut_database.graphs, mut_database.labels):
        if label == 1 and trained_mut_model.predict(graph) == 1:
            return graph
    pytest.skip("no correctly classified mutagen in the fixture database")


class TestEVerify:
    def test_predict_matches_model(self, trained_mut_model, mutagen_graph):
        everify = EVerify(trained_mut_model)
        assert everify.predict(mutagen_graph) == trained_mut_model.predict(mutagen_graph)

    def test_consistency_of_full_graph(self, trained_mut_model, mutagen_graph):
        everify = EVerify(trained_mut_model)
        label = trained_mut_model.predict(mutagen_graph)
        assert everify.is_consistent(mutagen_graph, set(mutagen_graph.nodes), label)

    def test_empty_node_set_is_not_consistent(self, trained_mut_model, mutagen_graph):
        everify = EVerify(trained_mut_model)
        assert not everify.is_consistent(mutagen_graph, set(), 1)

    def test_counterfactual_when_everything_removed(self, trained_mut_model, mutagen_graph):
        everify = EVerify(trained_mut_model)
        assert everify.is_counterfactual(mutagen_graph, set(mutagen_graph.nodes), 1)

    def test_counterfactual_false_for_empty_removal(self, trained_mut_model, mutagen_graph):
        everify = EVerify(trained_mut_model)
        label = trained_mut_model.predict(mutagen_graph)
        assert not everify.is_counterfactual(mutagen_graph, set(), label)

    def test_annotate_fills_flags(self, trained_mut_model, mutagen_graph):
        everify = EVerify(trained_mut_model)
        explanation = ExplanationSubgraph(
            source_graph=mutagen_graph, nodes=set(mutagen_graph.nodes[:5]), label=1
        )
        annotated = everify.annotate(explanation)
        assert annotated.consistent is not None
        assert annotated.counterfactual is not None


class TestVerifyView:
    def build_view(self, graph, model, nodes=None, with_patterns=True):
        label = model.predict(graph)
        nodes = set(nodes if nodes is not None else graph.nodes)
        explanation = ExplanationSubgraph(source_graph=graph, nodes=nodes, label=label)
        patterns = []
        if with_patterns:
            summary = summarize_subgraphs([induced_subgraph(graph, nodes)])
            patterns = summary.patterns
        return ExplanationView(label=label, patterns=patterns, subgraphs=[explanation])

    def test_full_graph_view_satisfies_c1_and_c3(self, trained_mut_model, mutagen_graph):
        config = Configuration().with_default_bound(0, mutagen_graph.num_nodes())
        view = self.build_view(mutagen_graph, trained_mut_model)
        report = verify_view(view, trained_mut_model, config)
        assert report.is_graph_view
        assert report.properly_covers
        assert report.uncovered_nodes == 0

    def test_missing_patterns_fail_c1(self, trained_mut_model, mutagen_graph):
        config = Configuration().with_default_bound(0, mutagen_graph.num_nodes())
        view = self.build_view(mutagen_graph, trained_mut_model, with_patterns=False)
        report = verify_view(view, trained_mut_model, config)
        assert not report.is_graph_view
        assert report.uncovered_nodes == mutagen_graph.num_nodes()

    def test_oversized_subgraph_fails_c3(self, trained_mut_model, mutagen_graph):
        config = Configuration().with_default_bound(0, 2)
        view = self.build_view(mutagen_graph, trained_mut_model)
        report = verify_view(view, trained_mut_model, config)
        assert not report.properly_covers

    def test_full_graph_is_not_counterfactual(self, trained_mut_model, mutagen_graph):
        # Using the whole graph as its own explanation cannot satisfy the
        # counterfactual property (removing it leaves an empty graph, which we
        # do count as counterfactual) but it is consistent; a single-node
        # explanation of a robust classifier usually fails consistency instead.
        config = Configuration().with_default_bound(0, mutagen_graph.num_nodes())
        view = self.build_view(mutagen_graph, trained_mut_model, nodes=mutagen_graph.nodes[:1])
        report = verify_view(view, trained_mut_model, config)
        assert report.inconsistent_subgraphs + report.non_counterfactual_subgraphs >= 1
        assert not report.satisfied or report.is_explanation_view

    def test_report_satisfied_property(self, trained_mut_model, mutagen_graph):
        config = Configuration().with_default_bound(0, mutagen_graph.num_nodes())
        view = self.build_view(mutagen_graph, trained_mut_model)
        report = verify_view(view, trained_mut_model, config)
        assert report.satisfied == (
            report.is_graph_view and report.is_explanation_view and report.properly_covers
        )

    def test_pattern_that_matches_nothing_leaves_nodes_uncovered(
        self, trained_mut_model, mutagen_graph
    ):
        config = Configuration().with_default_bound(0, mutagen_graph.num_nodes())
        bogus = GraphPattern()
        bogus.add_node(0, "UNOBTAINIUM")
        view = self.build_view(mutagen_graph, trained_mut_model, with_patterns=False)
        view.patterns = [bogus]
        report = verify_view(view, trained_mut_model, config)
        assert report.uncovered_nodes == mutagen_graph.num_nodes()
