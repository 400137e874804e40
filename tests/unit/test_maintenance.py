"""Unit tests for delta-driven incremental view maintenance.

The load-bearing property: a :class:`ViewMaintainer` attached to a mutable
database produces, after any sequence of adds / removals / relabels, views
*identical* to a full ``StreamGVEX`` recompute over the database's current
contents (node sets, pattern keys, explainability) — the incremental path
inherits the anytime quality bound with zero slack.
"""

import dataclasses
import math
import time

import pytest

import repro.core.maintenance as maintenance
from repro.api import ViewStore
from repro.api.replication import view_signature as semantic_signature
from repro.core import Configuration, ViewMaintainer
from repro.core.explanation import assemble_view_from_rows
from repro.core.maintenance import NodeStreamProcessor
from repro.core.sampling import SampledGraphAnalysis, build_analysis
from repro.core.streaming import StreamGVEX
from repro.exceptions import ExplanationError
from repro.gnn import GNNClassifier
from repro.graphs import GraphDatabase


def view_signature(view):
    """Node sets + pattern keys + objective — what recompute identity means."""
    return (
        [sorted(subgraph.nodes) for subgraph in view.subgraphs],
        sorted(pattern.canonical_key() for pattern in view.patterns),
        round(view.explainability, 12),
    )


def assert_matches_recompute(maintainer, database, model, config, batch_size=5):
    reference = StreamGVEX(model, config, batch_size=batch_size)
    for label in maintainer.maintained_labels():
        recomputed = reference.explain_label(database.graphs, label)
        assert view_signature(maintainer.view_for(label)) == view_signature(recomputed)


@pytest.fixture
def stream_config():
    return Configuration(theta=0.08).with_default_bound(0, 8)


@pytest.fixture(scope="module")
def mut_pool(mut_database):
    """Private copies of the session graphs: these tests warm sparse caches
    and hand graphs to a mutable database, which must never leak into the
    session-scoped fixtures other test modules read."""
    return [graph.copy() for graph in mut_database.graphs]


@pytest.fixture
def live_database(mut_database, mut_pool):
    """A private mutable database over copied graphs (first 10)."""
    database = GraphDatabase("live")
    for graph, label in zip(mut_pool[:10], mut_database.labels[:10]):
        database.add_graph(graph, label)
    return database


@pytest.fixture
def maintainer(trained_mut_model, stream_config, live_database):
    return ViewMaintainer(trained_mut_model, stream_config, batch_size=5).attach(
        live_database
    )


class TestReplayEquivalence:
    def test_attach_replay_matches_recompute(
        self, maintainer, live_database, trained_mut_model, stream_config
    ):
        assert maintainer.maintained_labels()
        assert_matches_recompute(
            maintainer, live_database, trained_mut_model, stream_config
        )

    def test_adds_after_attach_match_recompute(
        self, maintainer, live_database, mut_database, mut_pool, trained_mut_model, stream_config
    ):
        for graph, label in zip(mut_pool[10:13], mut_database.labels[10:13]):
            live_database.add_graph(graph, label)
        assert len(live_database) == 13
        assert_matches_recompute(
            maintainer, live_database, trained_mut_model, stream_config
        )

    def test_removal_matches_recompute(
        self, maintainer, live_database, trained_mut_model, stream_config
    ):
        streamed_before = maintainer.graphs_streamed
        live_database.remove_graph(live_database.graphs[3].graph_id)
        live_database.remove_graph(live_database.graphs[0].graph_id)
        # Removal repair never re-streams surviving graphs.
        assert maintainer.graphs_streamed == streamed_before
        assert maintainer.rows_retracted == 2
        assert_matches_recompute(
            maintainer, live_database, trained_mut_model, stream_config
        )

    def test_remove_then_readd_matches_recompute(
        self, maintainer, live_database, trained_mut_model, stream_config
    ):
        graph = live_database.graphs[2]
        label = live_database.label_of(2)
        live_database.remove_graph(graph.graph_id)
        live_database.add_graph(graph, label)
        assert_matches_recompute(
            maintainer, live_database, trained_mut_model, stream_config
        )

    def test_streaming_cost_is_proportional_to_the_delta(
        self, maintainer, live_database, mut_database, mut_pool
    ):
        assert maintainer.graphs_streamed == 10
        live_database.add_graph(mut_pool[10], mut_database.labels[10])
        assert maintainer.graphs_streamed == 11  # one pass for one arrival


class TestRetractionRepair:
    def test_orphaned_patterns_are_dropped_from_the_view(self, maintainer, live_database):
        label = maintainer.maintained_labels()[0]
        keys_before = {
            pattern.canonical_key() for pattern in maintainer.view_for(label).patterns
        }
        # Remove every graph of the label group but one: any pattern only
        # that prefix witnessed must disappear from the reassembled view.
        rows = [
            graph.graph_id
            for graph in live_database.graphs
            if maintainer.model.predict(graph) == label
        ]
        for graph_id in rows[1:]:
            live_database.remove_graph(graph_id)
        keys_after = {
            pattern.canonical_key() for pattern in maintainer.view_for(label).patterns
        }
        assert keys_after <= keys_before
        report = maintainer.verify_label(label)
        assert report["violations"] == []

    def test_retract_reports_orphans(self, maintainer, live_database):
        graph_id = live_database.graphs[0].graph_id
        report = maintainer.retract(graph_id)
        assert report is not None
        assert report["orphaned_patterns"] >= 0
        assert maintainer.retract(graph_id) is None  # already gone

    def test_verify_label_covers_every_row(self, maintainer):
        for label in maintainer.maintained_labels():
            report = maintainer.verify_label(label)
            assert report["violations"] == []
            assert report["rows_checked"] > 0


class TestRelabel:
    def test_predicted_mode_relabel_is_bookkeeping_only(self, maintainer, live_database):
        streamed = maintainer.graphs_streamed
        view_before = view_signature(maintainer.view_for(maintainer.maintained_labels()[0]))
        live_database.set_label(0, 1 - (live_database.label_of(0) or 0))
        assert maintainer.graphs_streamed == streamed  # nothing re-streamed
        assert (
            view_signature(maintainer.view_for(maintainer.maintained_labels()[0]))
            == view_before
        )

    def test_stored_mode_relabel_moves_between_groups(
        self, trained_mut_model, stream_config, live_database
    ):
        maintainer = ViewMaintainer(
            trained_mut_model, stream_config, batch_size=5, label_source="stored"
        ).attach(live_database)
        graph = live_database.graphs[0]
        old_label = live_database.label_of(0)
        new_label = 1 - (old_label or 0)
        in_old = any(
            sub.source_graph.graph_id == graph.graph_id
            for sub in maintainer.view_for(old_label).subgraphs
        )
        live_database.relabel_graph(graph.graph_id, new_label)
        assert all(
            sub.source_graph.graph_id != graph.graph_id
            for sub in maintainer.view_for(old_label).subgraphs
        )
        moved = any(
            sub.source_graph.graph_id == graph.graph_id
            for sub in maintainer.view_for(new_label).subgraphs
        )
        # The graph left the old group; it joins the new one whenever its
        # explanation met the bound under the new label.
        assert in_old or not moved


class TestRestrictionAndLifecycle:
    def test_labels_restriction_skips_other_groups(
        self, trained_mut_model, stream_config, live_database
    ):
        label = trained_mut_model.predict(live_database.graphs[0])
        maintainer = ViewMaintainer(
            trained_mut_model, stream_config, batch_size=5, labels=(label,)
        ).attach(live_database)
        assert maintainer.maintained_labels() == [label]
        group = sum(
            1
            for graph in live_database.graphs
            if trained_mut_model.predict(graph) == label
        )
        assert maintainer.graphs_streamed == group

    def test_detach_stops_tracking(self, maintainer, live_database, mut_database, mut_pool):
        maintainer.detach()
        streamed = maintainer.graphs_streamed
        live_database.add_graph(mut_pool[12], mut_database.labels[12])
        assert maintainer.graphs_streamed == streamed

    def test_double_attach_rejected(self, maintainer, live_database):
        with pytest.raises(ExplanationError):
            maintainer.attach(live_database)

    def test_model_or_processor_required(self):
        with pytest.raises(ExplanationError):
            ViewMaintainer()

    def test_invalid_label_source_rejected(self, trained_mut_model):
        with pytest.raises(ExplanationError):
            ViewMaintainer(trained_mut_model, label_source="oracle")


class TestSnapshot:
    def test_snapshot_round_trip_through_view_store(
        self, tmp_path, maintainer, live_database, trained_mut_model, stream_config
    ):
        store = ViewStore(capacity=4, spill_dir=tmp_path)
        store.put_snapshot("maintainer", maintainer.snapshot())

        # A brand-new store over the same spill dir reloads it from disk.
        reloaded = ViewStore(capacity=4, spill_dir=tmp_path).get_snapshot("maintainer")
        assert reloaded is not None
        restored = ViewMaintainer.from_snapshot(
            reloaded, trained_mut_model, live_database, config=stream_config
        )
        assert restored.graphs_streamed == 0  # nothing re-streamed
        for label in maintainer.maintained_labels():
            assert view_signature(restored.view_for(label)) == view_signature(
                maintainer.view_for(label)
            )

    def test_snapshot_files_do_not_pollute_result_keys(self, tmp_path, maintainer):
        store = ViewStore(capacity=4, spill_dir=tmp_path)
        store.put_snapshot("maintainer", maintainer.snapshot())
        assert store.keys() == []

    def test_restore_streams_only_missing_graphs(
        self, maintainer, live_database, mut_database, mut_pool, trained_mut_model, stream_config
    ):
        payload = maintainer.snapshot()
        live_database.remove_graph(live_database.graphs[1].graph_id)
        live_database.add_graph(mut_pool[10], mut_database.labels[10])
        maintainer.detach()
        restored = ViewMaintainer.from_snapshot(
            payload, trained_mut_model, live_database, config=stream_config
        )
        assert restored.graphs_streamed == 1  # only the new arrival
        assert_matches_recompute(
            restored, live_database, trained_mut_model, stream_config
        )

    def test_config_mismatch_refuses_restore(
        self, maintainer, live_database, trained_mut_model
    ):
        payload = maintainer.snapshot()
        other = Configuration(theta=0.3).with_default_bound(0, 4)
        with pytest.raises(ExplanationError, match="configuration"):
            ViewMaintainer.from_snapshot(
                payload, trained_mut_model, live_database, config=other
            )

    def test_snapshot_is_json_serialisable(self, maintainer):
        import json

        payload = json.loads(json.dumps(maintainer.snapshot()))
        assert payload["kind"] == "view_maintainer_snapshot"
        assert len(payload["rows"]) == maintainer.stats()["rows"]


    def test_snapshots_with_retired_history_fields_still_restore(
        self, maintainer, live_database, trained_mut_model, stream_config
    ):
        """Snapshots written before rows lost their ``history`` field (and the
        maintainer its ``record_history`` option) restore unchanged."""
        payload = maintainer.snapshot()
        payload["record_history"] = False
        for row in payload["rows"]:
            row["history"] = [{"seen_fraction": 1.0, "selected_nodes": 1}]
        restored = ViewMaintainer.from_snapshot(
            payload, trained_mut_model, live_database, config=stream_config
        )
        assert restored.graphs_streamed == 0
        for label in maintainer.maintained_labels():
            assert view_signature(restored.view_for(label)) == view_signature(
                maintainer.view_for(label)
            )
        assert "history" not in restored.snapshot()["rows"][0]

    def test_shard_rows_assemble_to_view_for(
        self, maintainer, live_database, trained_mut_model, stream_config
    ):
        """Rows of per-shard explainers, sent as payloads, put back in
        database order and assembled once, reproduce the single maintainer's
        view."""
        graphs = live_database.graphs
        graphs_by_id = {graph.graph_id: graph for graph in graphs}
        for label in maintainer.maintained_labels():
            rows = []
            for shard in (graphs[1::2], graphs[0::2]):
                explainer = StreamGVEX(trained_mut_model, stream_config, batch_size=5)
                rows += [row.to_dict() for row in explainer.explain_rows(shard, label)]
            rows.sort(key=lambda row: live_database.index_of(row["graph_id"]))
            assembled = assemble_view_from_rows(
                rows, label, graphs_by_id, explainer, time.perf_counter()
            )
            assert semantic_signature(assembled) == semantic_signature(
                maintainer.view_for(label)
            )


class TestEquivalenceOnSecondDataset:
    def test_red_database_equivalence(self, red_database):
        """Tier-1 RED dataset: maintained views == recompute (an untrained
        model's predictions are arbitrary but deterministic, which is all
        equivalence needs)."""
        stats = red_database.statistics()
        model = GNNClassifier(
            feature_dim=max(1, int(stats["feature_dim"])),
            num_classes=2,
            hidden_dim=8,
            num_layers=2,
            seed=11,
        )
        config = Configuration(theta=0.1).with_default_bound(0, 6)
        pool = [graph.copy() for graph in red_database.graphs]  # keep session graphs cold
        database = GraphDatabase("red-live")
        for graph, label in zip(pool[:6], red_database.labels[:6]):
            database.add_graph(graph, label)
        maintainer = ViewMaintainer(model, config, batch_size=4).attach(database)
        for graph, label in zip(pool[6:9], red_database.labels[6:9]):
            database.add_graph(graph, label)
        database.remove_graph(database.graphs[2].graph_id)
        assert_matches_recompute(maintainer, database, model, config, batch_size=4)


class TestFinalAnalysisReuse:
    """A stream that saw every node reuses its last batch's analysis as the
    full-graph one; any other stream still builds the full-graph analysis."""

    BATCH_SIZE = 5

    @pytest.fixture
    def built(self, monkeypatch):
        """The graphs ``explain_graph`` built an analysis for, in call order."""
        graphs = []

        def counting_build(model, graph, config):
            graphs.append(graph)
            return build_analysis(model, graph, config)

        monkeypatch.setattr(maintenance, "build_analysis", counting_build)
        return graphs

    @pytest.fixture
    def processor(self, trained_mut_model, stream_config):
        return NodeStreamProcessor(trained_mut_model, stream_config, batch_size=self.BATCH_SIZE)

    @staticmethod
    def explain(processor, graph, node_order):
        subgraph, _, _ = processor.explain_graph(graph, label=0, node_order=node_order)
        assert subgraph is not None
        return subgraph

    def assert_full_graph_score(self, processor, graph, subgraph):
        expected = build_analysis(processor.model, graph, processor.config)
        assert subgraph.explainability == expected.explainability(subgraph.nodes)

    def test_covering_stream_builds_once_per_batch(self, processor, built, mut_pool):
        graph = mut_pool[0]
        subgraph = self.explain(processor, graph, list(graph.nodes)[::-1])
        assert len(built) == math.ceil(graph.num_nodes() / self.BATCH_SIZE)
        assert built[-1].num_nodes() == graph.num_nodes()
        self.assert_full_graph_score(processor, graph, subgraph)

    def test_strict_subset_order_builds_the_full_graph(self, processor, built, mut_pool):
        graph = mut_pool[1]
        order = list(graph.nodes)[:-3]
        subgraph = self.explain(processor, graph, order)
        assert len(built) == math.ceil(len(order) / self.BATCH_SIZE) + 1
        assert built[-1] is graph
        self.assert_full_graph_score(processor, graph, subgraph)

    def test_duplicated_order_builds_the_full_graph(self, processor, built, mut_pool):
        # As long as the graph, but two nodes repeat and two never arrive.
        graph = mut_pool[2]
        nodes = list(graph.nodes)
        order = nodes[:-2] + nodes[:2]
        subgraph = self.explain(processor, graph, order)
        assert len(order) == graph.num_nodes()
        assert len(built) == math.ceil(len(order) / self.BATCH_SIZE) + 1
        assert built[-1] is graph
        self.assert_full_graph_score(processor, graph, subgraph)

    def test_sampled_views_keep_the_full_graph_scores(self, trained_mut_model, mut_pool):
        config = Configuration(
            theta=0.08, objective="sampled", sample_budget=6, sample_threshold=8
        ).with_default_bound(0, 8)
        graphs = mut_pool[:6]
        assert all(
            isinstance(build_analysis(trained_mut_model, graph, config), SampledGraphAnalysis)
            for graph in graphs
        )
        view = StreamGVEX(trained_mut_model, config, batch_size=self.BATCH_SIZE).explain_label(
            graphs, 0
        )
        assert view.subgraphs
        # What the stream reported before the reuse: every score from a
        # fresh full-graph analysis, the view's score their sum.
        rescored = [
            dataclasses.replace(
                subgraph,
                explainability=build_analysis(
                    trained_mut_model, subgraph.source_graph, config
                ).explainability(subgraph.nodes),
            )
            for subgraph in view.subgraphs
        ]
        expected = dataclasses.replace(
            view,
            subgraphs=rescored,
            explainability=float(sum(subgraph.explainability for subgraph in rescored)),
        )
        assert semantic_signature(view) == semantic_signature(expected)
