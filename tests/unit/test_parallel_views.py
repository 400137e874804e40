"""Unit tests for the view query engine."""

import pytest

from repro.core import Configuration
from repro.core.approx import ApproxGVEX
from repro.core.views import ViewQueryEngine
from repro.exceptions import ExplanationError
from repro.graphs import GraphPattern


@pytest.fixture(scope="module")
def small_views(trained_mut_model, mut_database):
    config = Configuration(theta=0.08).with_default_bound(0, 8)
    explainer = ApproxGVEX(trained_mut_model, config)
    return explainer.explain(mut_database)


class TestViewQueryEngine:
    def test_patterns_for_label(self, small_views, mut_database):
        engine = ViewQueryEngine(small_views, mut_database)
        label = small_views.labels()[0]
        assert engine.patterns_for_label(label) == small_views.view_for(label).patterns

    def test_summary_has_entry_per_label(self, small_views, mut_database):
        engine = ViewQueryEngine(small_views, mut_database)
        summary = engine.summary()
        assert set(summary) == set(small_views.labels())
        for stats in summary.values():
            assert stats["num_subgraphs"] >= 0

    def test_graphs_containing_pattern(self, small_views, mut_database):
        engine = ViewQueryEngine(small_views, mut_database)
        carbon = GraphPattern()
        carbon.add_node(0, "C")
        hits = engine.graphs_containing_pattern(carbon)
        assert len(hits) == len(mut_database)  # every molecule contains carbon

    def test_nitro_pattern_occurs_only_in_mutagen_label(self, small_views, mut_database, trained_mut_model):
        engine = ViewQueryEngine(small_views, mut_database)
        nitro = GraphPattern()
        nitro.add_node(0, "N")
        nitro.add_node(1, "O")
        nitro.add_node(2, "O")
        nitro.add_edge(0, 1, "double")
        nitro.add_edge(0, 2, "double")
        labels = engine.labels_with_pattern(nitro)
        assert 0 not in labels  # nonmutagen explanations never contain a nitro group

    def test_explanation_for_graph(self, small_views, mut_database):
        engine = ViewQueryEngine(small_views, mut_database)
        some_view = next(iter(small_views))
        graph_id = some_view.subgraphs[0].source_graph.graph_id
        result = engine.explanation_for_graph(graph_id)
        assert result is not None
        assert result["label"] == some_view.label
        assert engine.explanation_for_graph(10_000) is None

    def test_empty_database_rejected(self, small_views):
        with pytest.raises(ExplanationError):
            ViewQueryEngine(small_views, [])
