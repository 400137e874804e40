"""Round-trip and schema-stability tests for `repro.api.serialize`.

The acceptance criterion is *lossless* JSON persistence: node sets, labels,
metric floats, pattern structure, and provenance must survive
``from_dict(to_dict(x))`` exactly — across tier-1 datasets, views from the
production explainers (``sparse``) and from the oracle explainers of
:mod:`repro.core.oracles` (``legacy``), and both GVEX algorithms.  A committed golden file pins the
on-disk schema so accidental layout changes fail loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    SCHEMA_VERSION,
    ExplanationResult,
    Provenance,
    create_explainer,
    explanation_schema,
    load_artifact,
    result_from_dict,
    result_to_dict,
    save_artifact,
    validate_against_schema,
    view_from_dict,
    view_set_from_dict,
    view_set_to_dict,
    view_to_dict,
    views_equal,
)
from repro.core import Configuration, ExplanationSubgraph, ExplanationView, ExplanationViewSet
from repro.core.oracles import ReferenceApproxGVEX, ReferenceStreamGVEX
from repro.exceptions import ExplanationError
from repro.graphs import Graph, GraphPattern

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_view.json"


def build_reference_view() -> ExplanationView:
    """A deterministic, hand-built view (no model, no randomness)."""
    source = Graph(graph_id=7)
    source.add_node(0, "C", [1.0, 0.0])
    source.add_node(1, "N", [0.0, 1.0])
    source.add_node(2, "O", [0.5, 0.5])
    source.add_node(3, "C", [1.0, 0.0])
    source.add_edge(0, 1, "single")
    source.add_edge(1, 2, "double")
    source.add_edge(2, 3, "single")

    pattern = GraphPattern(pattern_id=0)
    pattern.add_node(0, "N")
    pattern.add_node(1, "O")
    pattern.add_edge(0, 1, "double")

    subgraph = ExplanationSubgraph(
        source_graph=source,
        nodes={1, 2},
        label=1,
        explainability=0.625,
        consistent=True,
        counterfactual=False,
    )
    return ExplanationView(
        label=1,
        patterns=[pattern],
        subgraphs=[subgraph],
        explainability=0.625,
        metadata={"algorithm": "reference", "runtime_seconds": 0.125},
    )


def build_reference_result() -> ExplanationResult:
    return ExplanationResult(
        view=build_reference_view(),
        provenance=Provenance(
            algorithm="reference",
            label=1,
            config_fingerprint="0" * 16,
            request_fingerprint="f" * 16,
            runtime_seconds=0.125,
            backend="sparse",
            num_graphs=1,
            dataset="GOLD",
        ),
    )


@pytest.fixture(scope="module")
def generated_views(trained_mut_model, mut_database):
    """Views from both algorithms, production and oracle (tier-1 MUT dataset)."""
    graphs = mut_database.graphs[:4]
    label = trained_mut_model.predict(graphs[0])
    config = Configuration().with_default_bound(0, 5)
    oracles = {"approx": ReferenceApproxGVEX, "stream": ReferenceStreamGVEX}
    views = {}
    for algorithm in ("approx", "stream"):
        explainer = create_explainer(algorithm, trained_mut_model, config=config)
        views[(algorithm, True)] = explainer.explain_label(graphs, label)
        oracle = oracles[algorithm](trained_mut_model, config)
        views[(algorithm, False)] = oracle.explain_label(graphs, label)
    return views


class TestRoundTrip:
    @pytest.mark.parametrize("algorithm", ["approx", "stream"])
    @pytest.mark.parametrize("backend", [True, False], ids=["sparse", "legacy"])
    def test_view_round_trip_is_lossless(self, generated_views, algorithm, backend):
        view = generated_views[(algorithm, backend)]
        restored = view_from_dict(view_to_dict(view))
        assert views_equal(view, restored)
        # Node-set and metric identity, asserted explicitly (the acceptance
        # criterion), not only through the composite equality helper.
        assert [sorted(s.nodes) for s in restored.subgraphs] == [
            sorted(s.nodes) for s in view.subgraphs
        ]
        assert restored.explainability == view.explainability
        assert [s.explainability for s in restored.subgraphs] == [
            s.explainability for s in view.subgraphs
        ]

    def test_round_trip_through_actual_json_text(self, generated_views):
        view = generated_views[("approx", True)]
        payload = json.loads(json.dumps(view_to_dict(view)))
        assert views_equal(view, view_from_dict(payload))

    def test_reference_view_round_trips(self):
        view = build_reference_view()
        assert views_equal(view, view_from_dict(view_to_dict(view)))

    def test_view_set_round_trip(self, generated_views):
        views = ExplanationViewSet([generated_views[("approx", True)]])
        restored = view_set_from_dict(view_set_to_dict(views))
        assert restored.labels() == views.labels()
        for label in views.labels():
            assert views_equal(views.view_for(label), restored.view_for(label))

    def test_result_round_trip_preserves_provenance(self):
        result = build_reference_result()
        restored = result_from_dict(result_to_dict(result))
        assert restored.provenance == result.provenance
        assert views_equal(result.view, restored.view)

    def test_source_graphs_resolve_from_a_database(self, generated_views, mut_database):
        view = generated_views[("approx", True)]
        payload = view_to_dict(view, include_source=False)
        graphs_by_id = {graph.graph_id: graph for graph in mut_database.graphs}
        restored = view_from_dict(payload, graphs_by_id=graphs_by_id)
        for original, loaded in zip(view.subgraphs, restored.subgraphs):
            assert loaded.source_graph is original.source_graph

    def test_missing_source_graph_is_an_actionable_error(self):
        payload = view_to_dict(build_reference_view(), include_source=False)
        with pytest.raises(ExplanationError, match="neither embedded nor resolvable"):
            view_from_dict(payload)


class TestArtifactFiles:
    def test_save_load_every_kind(self, tmp_path):
        view = build_reference_view()
        result = build_reference_result()
        artifacts = {
            "view.json": view,
            "set.json": ExplanationViewSet([view]),
            "result.json": result,
            "results.json": [result],
        }
        for filename, artifact in artifacts.items():
            path = save_artifact(artifact, tmp_path / filename)
            loaded = load_artifact(path)
            envelope = json.loads(path.read_text())
            assert envelope["schema_version"] == SCHEMA_VERSION
            assert not validate_against_schema(envelope, explanation_schema())
            assert type(loaded).__name__ in (
                "ExplanationView",
                "ExplanationViewSet",
                "ExplanationResult",
                "list",
            )

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = save_artifact(build_reference_view(), tmp_path / "v.json")
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(ExplanationError, match="schema version 999"):
            load_artifact(path)

    def test_unserialisable_object_rejected(self, tmp_path):
        with pytest.raises(ExplanationError, match="cannot serialise"):
            save_artifact({"not": "a view"}, tmp_path / "bad.json")  # type: ignore[arg-type]


class TestSchema:
    def test_generated_results_validate(self, generated_views):
        result = ExplanationResult(
            view=generated_views[("stream", True)],
            provenance=build_reference_result().provenance,
        )
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "kind": "explanation_result",
            "payload": result_to_dict(result),
        }
        assert validate_against_schema(envelope, explanation_schema()) == []

    def test_validator_reports_missing_keys(self):
        envelope = {"schema_version": SCHEMA_VERSION, "kind": "explanation_view"}
        errors = validate_against_schema(envelope, explanation_schema())
        assert any("payload" in error for error in errors)

    def test_validator_reports_type_mismatches(self):
        envelope = {
            "schema_version": "1",
            "kind": "explanation_view",
            "payload": {"label": 0, "patterns": [], "subgraphs": []},
        }
        errors = validate_against_schema(envelope, explanation_schema())
        assert any("schema_version" in error for error in errors)


class TestGoldenFile:
    """Schema stability: the committed golden envelope must never drift."""

    def test_golden_file_matches_the_current_serialiser(self):
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "kind": "explanation_result",
            "payload": result_to_dict(build_reference_result()),
        }
        committed = json.loads(GOLDEN_PATH.read_text())
        assert envelope == committed, (
            "serialised layout drifted from tests/data/golden_view.json; if the "
            "change is intentional, bump SCHEMA_VERSION, keep a loader for the "
            "old version, and regenerate the golden file"
        )

    def test_golden_file_validates_against_the_published_schema(self):
        committed = json.loads(GOLDEN_PATH.read_text())
        assert validate_against_schema(committed, explanation_schema()) == []

    def test_golden_file_still_loads(self):
        loaded = load_artifact(GOLDEN_PATH)
        assert isinstance(loaded, ExplanationResult)
        assert sorted(loaded.view.subgraphs[0].nodes) == [1, 2]
        assert loaded.view.explainability == 0.625


GOLDEN_DELTA_PATH = Path(__file__).parent.parent / "data" / "golden_delta.json"


def build_reference_delta():
    """A deterministic, hand-built add-delta (same source graph as the view)."""
    from repro.graphs.database import DatabaseDelta

    source = Graph(graph_id=7)
    source.add_node(0, "C", [1.0, 0.0])
    source.add_node(1, "N", [0.0, 1.0])
    source.add_node(2, "O", [0.5, 0.5])
    source.add_node(3, "C", [1.0, 0.0])
    source.add_edge(0, 1, "single")
    source.add_edge(1, 2, "double")
    source.add_edge(2, 3, "single")
    return DatabaseDelta(
        kind="add", graph_id=7, version=1, label=1, old_label=None, graph=source
    )


class TestDeltaCodec:
    """Lossless round-trips for the `database_delta` envelope (WAL + /v1/deltas)."""

    def test_add_delta_round_trips_losslessly(self):
        from repro.api import delta_from_dict, delta_to_dict

        delta = build_reference_delta()
        restored = delta_from_dict(json.loads(json.dumps(delta_to_dict(delta))))
        assert restored.kind == "add"
        assert restored.graph_id == 7
        assert restored.version == 1
        assert restored.label == 1
        assert restored.old_label is None
        assert restored.graph.to_dict() == delta.graph.to_dict()

    def test_remove_and_relabel_round_trip_without_a_graph(self):
        from repro.api import delta_from_dict, delta_to_dict
        from repro.graphs.database import DatabaseDelta

        for delta in (
            DatabaseDelta(kind="remove", graph_id=3, version=9, label=None, old_label=0),
            DatabaseDelta(kind="relabel", graph_id=3, version=10, label=1, old_label=0),
        ):
            restored = delta_from_dict(delta_to_dict(delta))
            assert restored.kind == delta.kind
            assert restored.graph_id == delta.graph_id
            assert restored.version == delta.version
            assert restored.label == delta.label
            assert restored.old_label == delta.old_label
            assert restored.graph is None

    def test_live_database_deltas_serialise(self, mut_database):
        from repro.api import delta_from_dict, delta_to_dict, delta_schema
        from repro.graphs import GraphDatabase

        database = GraphDatabase.from_dict(mut_database.to_dict())
        graph = Graph.from_dict(list(database)[0].to_dict())
        graph.graph_id = 900
        database.add_graph(graph, label=1)
        database.relabel_graph(900, 0)
        database.remove_graph(900)
        for delta in database.deltas_since(mut_database.version):
            envelope = delta_to_dict(delta)
            assert validate_against_schema(envelope, delta_schema()) == []
            restored = delta_from_dict(envelope)
            assert restored.version == delta.version

    def test_wrong_kind_is_refused(self):
        from repro.api import delta_from_dict, delta_to_dict

        envelope = delta_to_dict(build_reference_delta())
        envelope["kind"] = "explanation_view"
        with pytest.raises(ExplanationError, match="database_delta"):
            delta_from_dict(envelope)

    def test_wrong_schema_version_is_refused(self):
        from repro.api import delta_from_dict, delta_to_dict

        envelope = delta_to_dict(build_reference_delta())
        envelope["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ExplanationError, match="schema"):
            delta_from_dict(envelope)


class TestGoldenDeltaFile:
    """Stability of the delta envelope: the committed golden file never drifts."""

    def test_golden_delta_matches_the_current_serialiser(self):
        from repro.api import delta_to_dict

        envelope = delta_to_dict(build_reference_delta())
        committed = json.loads(GOLDEN_DELTA_PATH.read_text())
        assert envelope == committed, (
            "delta layout drifted from tests/data/golden_delta.json; the WAL and "
            "the /v1/deltas replication stream both persist this envelope — if "
            "the change is intentional, bump SCHEMA_VERSION, keep a loader for "
            "the old version, and regenerate the golden file"
        )

    def test_golden_delta_validates_against_the_published_schema(self):
        from repro.api import delta_schema

        committed = json.loads(GOLDEN_DELTA_PATH.read_text())
        assert validate_against_schema(committed, delta_schema()) == []

    def test_golden_delta_still_loads(self):
        from repro.api import delta_from_dict

        restored = delta_from_dict(json.loads(GOLDEN_DELTA_PATH.read_text()))
        assert restored.kind == "add"
        assert len(restored.graph.nodes) == 4
        assert restored.graph.graph_id == 7
