"""Unit tests for `repro.api.service` (and the backing `ViewStore`)."""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    ExplainRequest,
    ExplanationService,
    ViewStore,
    views_equal,
)
from repro.core import Configuration
from repro.exceptions import ExplanationError


@pytest.fixture
def service(mut_database, trained_mut_model):
    """A service adopting the session-scoped trained MUT context."""
    return ExplanationService(
        "MUT",
        database=mut_database,
        model=trained_mut_model,
        config=Configuration().with_default_bound(0, 5),
    )


class TestConstruction:
    def test_adopt_path_requires_both_parts(self, mut_database):
        with pytest.raises(ExplanationError, match="both 'database' and 'model'"):
            ExplanationService("MUT", database=mut_database)

    def test_train_path_requires_a_dataset(self):
        with pytest.raises(ExplanationError, match="dataset name"):
            ExplanationService()

    def test_train_path_builds_a_context(self):
        trained = ExplanationService("SYN", epochs=3, num_graphs=6, seed=11)
        assert trained.train_accuracy is not None
        assert len(trained.database) == 6


class TestExplainAndCache:
    def test_explain_returns_provenance(self, service):
        result = service.explain(algorithm="approx", limit=3)
        assert result.provenance.algorithm == "approx"
        assert result.provenance.dataset == "MUT"
        assert result.provenance.num_graphs <= 3
        assert result.provenance.cache_hit is False
        assert result.provenance.runtime_seconds > 0.0
        assert len(result.provenance.config_fingerprint) == 16
        assert result.view.subgraphs

    def test_second_call_is_a_cache_hit(self, service):
        first = service.explain(algorithm="approx", limit=3)
        second = service.explain(algorithm="approx", limit=3)
        assert second.provenance.cache_hit is True
        assert views_equal(first.view, second.view)
        assert service.store.stats()["hits"] >= 1

    def test_request_object_and_kwargs_agree(self, service):
        request = ExplainRequest(algorithm="approx", limit=3, config=service.config)
        via_request = service.explain(request)
        via_kwargs = service.explain(algorithm="approx", limit=3)
        assert via_kwargs.provenance.cache_hit is True
        assert views_equal(via_request.view, via_kwargs.view)

    def test_parameter_changes_miss_the_cache(self, service):
        service.explain(algorithm="approx", limit=3, max_nodes=4)
        other = service.explain(algorithm="approx", limit=3, max_nodes=5)
        assert other.provenance.cache_hit is False

    def test_label_resolution_picks_a_predicted_label(self, service):
        result = service.explain(algorithm="approx", limit=2)
        assert result.provenance.label in set(
            service.model.predict(graph) for graph in service.database.graphs
        )

    def test_limited_selection_puts_test_split_graphs_first(self):
        """The paper explains the test split; limits must respect that."""
        trained = ExplanationService("SYN", epochs=3, num_graphs=8, seed=11)
        assert trained.planner.test_ids, "train path should record the test split"
        request = ExplainRequest(algorithm="approx", limit=2)
        request = trained.planner.resolve_label(request)
        selected = trained.planner.select_graphs(request)
        predicted = trained.planner.predicted_labels()
        expected = [
            graph_id
            for graph_id in trained.planner.test_ids
            if predicted.get(graph_id) == request.label
        ]
        for graph, graph_id in zip(selected, expected):
            assert graph.graph_id == graph_id

    def test_graph_ids_restrict_the_job(self, service):
        graph = service.database.graphs[0]
        label = service.model.predict(graph)
        result = service.explain(
            algorithm="approx", label=label, graph_ids=[graph.graph_id]
        )
        assert result.provenance.num_graphs == 1
        assert all(
            subgraph.source_graph.graph_id == graph.graph_id
            for subgraph in result.view.subgraphs
        )

    def test_baseline_algorithms_flow_through_the_same_cache(self, service):
        first = service.explain(algorithm="random", limit=2, max_nodes=3)
        second = service.explain(algorithm="random", limit=2, max_nodes=3)
        assert first.view.patterns, "baseline views are two-tier as well"
        assert second.provenance.cache_hit is True


class TestExplainMany:
    def test_covers_every_predicted_label(self, service):
        results = service.explain_many(limit=2)
        labels = [result.provenance.label for result in results]
        assert labels == sorted(set(labels))
        assert len(results) >= 1

    def test_second_fanout_is_served_from_cache(self, service):
        service.explain_many(limit=2)
        again = service.explain_many(limit=2)
        assert all(result.provenance.cache_hit for result in again)


class TestStoreSpill:
    def test_evicted_entries_reload_from_disk(self, tmp_path, mut_database, trained_mut_model):
        service = ExplanationService(
            "MUT",
            database=mut_database,
            model=trained_mut_model,
            cache_size=1,
            cache_dir=tmp_path / "cache",
        )
        first = service.explain(algorithm="approx", limit=2, max_nodes=3)
        service.explain(algorithm="approx", limit=2, max_nodes=4)  # evicts the first
        assert service.store.stats()["memory_entries"] == 1
        again = service.explain(algorithm="approx", limit=2, max_nodes=3)
        assert again.provenance.cache_hit is True
        assert views_equal(first.view, again.view)
        assert service.store.stats()["disk_loads"] >= 1

    def test_restarted_service_starts_warm(self, tmp_path, mut_database, trained_mut_model):
        cache_dir = tmp_path / "cache"
        first_service = ExplanationService(
            "MUT", database=mut_database, model=trained_mut_model, cache_dir=cache_dir
        )
        original = first_service.explain(algorithm="approx", limit=2)
        restarted = ExplanationService(
            "MUT", database=mut_database, model=trained_mut_model, cache_dir=cache_dir
        )
        warm = restarted.explain(algorithm="approx", limit=2)
        assert warm.provenance.cache_hit is True
        assert views_equal(original.view, warm.view)
        # Reloaded subgraphs resolve against the live database objects.
        assert all(
            subgraph.source_graph is restarted.planner.graphs_by_id[subgraph.source_graph.graph_id]
            for subgraph in warm.view.subgraphs
        )

    def test_store_capacity_must_be_positive(self):
        with pytest.raises(ExplanationError, match="capacity"):
            ViewStore(capacity=0)

    def test_different_model_never_hits_the_shared_cache(self, tmp_path, mut_database):
        """A retrained model must not be served another model's views."""
        from repro.gnn import GNNClassifier

        cache_dir = tmp_path / "cache"
        first_model = GNNClassifier(
            feature_dim=14, num_classes=2, hidden_dim=8, num_layers=2, seed=1
        )
        second_model = GNNClassifier(
            feature_dim=14, num_classes=2, hidden_dim=8, num_layers=2, seed=2
        )
        first = ExplanationService(
            "MUT", database=mut_database, model=first_model, cache_dir=cache_dir
        )
        second = ExplanationService(
            "MUT", database=mut_database, model=second_model, cache_dir=cache_dir
        )
        first.explain(algorithm="random", limit=2, max_nodes=3)
        other = second.explain(algorithm="random", limit=2, max_nodes=3)
        assert other.provenance.cache_hit is False
        assert first.planner.context_fingerprint != second.planner.context_fingerprint


class TestQueryFacade:
    def test_query_without_views_is_an_error(self, service):
        with pytest.raises(ExplanationError, match="no views stored"):
            service.query()

    def test_query_answers_after_explain(self, service):
        result = service.explain(algorithm="approx", limit=3)
        query = service.query()
        label = result.provenance.label
        assert query.patterns(label) == result.view.patterns
        summary = query.summary()
        assert label in summary
        witness_graph = result.view.subgraphs[0].source_graph.graph_id
        witness = query.witness(witness_graph)
        assert witness is not None
        assert witness["label"] == label

    def test_report_combines_fidelity_and_conciseness(self, service):
        result = service.explain(algorithm="approx", limit=3)
        report = service.query().report(result.provenance.label)
        assert set(report) == {"label", "fidelity", "conciseness"}
        assert "fidelity_plus" in report["fidelity"]
        assert "sparsity" in report["conciseness"]

    def test_labels_with_pattern(self, service):
        result = service.explain(algorithm="approx", limit=3)
        if result.view.patterns:
            labels = service.query().labels_with_pattern(result.view.patterns[0])
            assert result.provenance.label in labels


class TestPersistence:
    def test_save_and_reload_views(self, tmp_path, service):
        result = service.explain(algorithm="approx", limit=3)
        path = service.save_views(tmp_path / "views.json")
        fresh = ExplanationService(
            "MUT", database=service.database, model=service.model
        )
        loaded = fresh.load_views(path)
        assert len(loaded) == 1
        assert views_equal(loaded[0].view, result.view)
        # Loaded views serve queries without any explainer run.
        assert fresh.query().summary()

    def test_save_without_views_is_an_error(self, tmp_path, service):
        with pytest.raises(ExplanationError, match="no views"):
            service.save_views(tmp_path / "empty.json")

    def test_stats_snapshot(self, service):
        service.explain(algorithm="approx", limit=2)
        stats = service.stats()
        assert stats["dataset"] == "MUT"
        assert stats["num_graphs"] == len(service.database)
        assert stats["labels_explained"]
        assert "cache" in stats


@pytest.fixture(scope="module")
def mut_pool(mut_database):
    """Private graph copies: the dynamic tests warm sparse caches and mutate
    databases, which must never touch the session-scoped graphs."""
    return [graph.copy() for graph in mut_database.graphs]


@pytest.fixture
def live_service(mut_database, mut_pool, trained_mut_model):
    """A service over a *private* mutable copy of the session database."""
    from repro.graphs import GraphDatabase

    database = GraphDatabase("live")
    for graph, label in zip(mut_pool[:10], mut_database.labels[:10]):
        database.add_graph(graph, label)
    service = ExplanationService(
        "MUT",
        database=database,
        model=trained_mut_model,
        config=Configuration(theta=0.08).with_default_bound(0, 8),
    )
    yield service
    service.close()


class TestDynamicDatabase:
    def test_stream_requests_are_served_by_the_maintainer(self, live_service):
        live_service.enable_live_views()
        streamed = live_service.maintainer.graphs_streamed
        result = live_service.explain(algorithm="stream", label=1)
        # Served straight from maintained state: no additional streaming.
        assert live_service.maintainer.graphs_streamed == streamed
        assert result.view.subgraphs
        again = live_service.explain(algorithm="stream", label=1)
        assert again.provenance.cache_hit

    def test_ingest_refreshes_instead_of_recomputing(
        self, live_service, mut_database, mut_pool, trained_mut_model
    ):
        from repro.core.streaming import StreamGVEX

        live_service.enable_live_views()
        streamed = live_service.maintainer.graphs_streamed
        summary = live_service.ingest(mut_pool[10], mut_database.labels[10])
        # One per-graph pass for the arrival; every maintained label refreshed.
        assert live_service.maintainer.graphs_streamed == streamed + 1
        assert summary["refreshed_labels"] == live_service.maintainer.maintained_labels()
        assert summary["num_graphs"] == 11

        result = live_service.explain(algorithm="stream", label=1)
        assert result.provenance.cache_hit  # refreshed entry already cached
        reference = StreamGVEX(
            trained_mut_model, live_service.config
        ).explain_label(live_service.database.graphs, 1)
        assert [sorted(s.nodes) for s in result.view.subgraphs] == [
            sorted(s.nodes) for s in reference.subgraphs
        ]

    def test_mutation_invalidates_non_stream_results(self, live_service, mut_database, mut_pool):
        first = live_service.explain(algorithm="approx", label=1)
        assert not first.provenance.cache_hit
        cached = live_service.explain(algorithm="approx", label=1)
        assert cached.provenance.cache_hit
        live_service.ingest(mut_pool[11], mut_database.labels[11])
        recomputed = live_service.explain(algorithm="approx", label=1)
        assert not recomputed.provenance.cache_hit
        assert recomputed.provenance.num_graphs == 11

    def test_stale_latest_views_are_dropped_on_mutation(self, live_service, mut_database, mut_pool):
        live_service.explain(algorithm="approx", label=1)
        assert 1 in live_service.view_set().labels()
        live_service.ingest(mut_pool[12], mut_database.labels[12])
        # Without a maintainer nothing is refreshed; the stale view is gone.
        assert live_service.view_set().labels() == []

    def test_remove_and_relabel_round_trip(self, live_service):
        live_service.enable_live_views()
        victim = live_service.database.graphs[4].graph_id
        summary = live_service.remove(victim)
        assert summary["op"] == "remove"
        assert summary["num_graphs"] == 9
        assert victim not in [g.graph_id for g in live_service.database.graphs]
        target = live_service.database.graphs[0].graph_id
        summary = live_service.relabel(target, 1)
        assert summary["op"] == "relabel"
        assert live_service.database.label_of(0) == 1

    def test_duplicate_ingest_id_rejected(self, live_service, mut_database, mut_pool):
        existing = live_service.database.graphs[0].graph_id
        with pytest.raises(ExplanationError, match="already in the database"):
            live_service.ingest(mut_pool[13], graph_id=existing)

    def test_predicted_labels_updated_incrementally(self, live_service, mut_database, mut_pool):
        live_service.explain(algorithm="approx", label=1)  # builds the memo
        graph = mut_pool[10]
        live_service.ingest(graph, mut_database.labels[10])
        assert graph.graph_id in live_service.planner.predicted_labels()
        live_service.remove(graph.graph_id)
        assert graph.graph_id not in live_service.planner.predicted_labels()

    def test_memo_build_keeps_a_graph_ingested_meanwhile(
        self, live_service, mut_database, mut_pool, monkeypatch
    ):
        """A graph ingested on another thread while the predicted-label memo
        is being built must still enter it, or label-resolved and limited
        selections skip that graph until restart."""
        model = live_service.model
        real_predict_many = model.predict_many
        newcomer = mut_pool[12]
        ingested = threading.Event()

        def ingest() -> None:
            live_service.ingest(newcomer, mut_database.labels[12])
            ingested.set()

        racer = threading.Thread(target=ingest)

        def predict_many(graphs):
            if not racer.is_alive() and not ingested.is_set():
                racer.start()
                # Give the ingest its chance to land mid-build (it waits
                # for the lock where the memo is built under it).
                ingested.wait(timeout=1.0)
            return real_predict_many(graphs)

        monkeypatch.setattr(model, "predict_many", predict_many)
        first = live_service.database.graphs[0].graph_id
        live_service.explain(algorithm="approx", graph_ids=[first], max_nodes=3)
        racer.join(timeout=30)
        assert ingested.is_set()
        resolved = live_service.explain(
            algorithm="approx", graph_ids=[newcomer.graph_id], max_nodes=3
        )
        assert resolved.provenance.label == model.predict(newcomer)

    def test_result_planned_before_a_mutation_is_not_recorded(
        self, live_service, mut_database, mut_pool, monkeypatch
    ):
        """An explain that a mutation overtakes still answers its caller, but
        its view of the old contents must not become the label's latest nor
        stay behind in the store."""
        import repro.api.service as service_module

        real_create = service_module.create_explainer

        def create_explainer(*args, **kwargs):
            explainer = real_create(*args, **kwargs)
            explain_label = explainer.explain_label

            def overtaken(graphs, label):
                view = explain_label(graphs, label)
                racer = threading.Thread(
                    target=live_service.ingest,
                    args=(mut_pool[10], mut_database.labels[10]),
                )
                racer.start()
                racer.join()
                return view

            explainer.explain_label = overtaken
            return explainer

        monkeypatch.setattr(service_module, "create_explainer", create_explainer)
        result = live_service.explain(algorithm="approx", label=1, max_nodes=3)
        assert result.provenance.num_graphs == 10
        assert len(live_service.database) == 11
        assert live_service.results() == []
        assert live_service.store.stats()["memory_entries"] == 0

    def test_close_stops_tracking(self, live_service, mut_database, mut_pool):
        live_service.close()
        version = live_service.planner.context_fingerprint
        live_service.database.add_graph(mut_pool[14], mut_database.labels[14])
        assert live_service.planner.context_fingerprint == version


class TestMaintainerWarmRestart:
    def test_restart_restores_without_restreaming(
        self, tmp_path, mut_database, mut_pool, trained_mut_model
    ):
        from repro.graphs import GraphDatabase

        config = Configuration(theta=0.08).with_default_bound(0, 8)
        database = GraphDatabase("live")
        for graph, label in zip(mut_pool[:8], mut_database.labels[:8]):
            database.add_graph(graph, label)
        first = ExplanationService(
            "MUT",
            database=database,
            model=trained_mut_model,
            config=config,
            cache_dir=tmp_path,
            live_views=True,
        )
        first.ingest(mut_pool[8], mut_database.labels[8])
        first.close()

        second = ExplanationService(
            "MUT",
            database=database,
            model=trained_mut_model,
            config=config,
            cache_dir=tmp_path,
        )
        maintainer = second.enable_live_views()
        assert maintainer.graphs_streamed == 0
        assert maintainer.stats()["rows"] == 9
        second.close()

    def test_restart_with_other_config_rebuilds(
        self, tmp_path, mut_database, mut_pool, trained_mut_model
    ):
        from repro.graphs import GraphDatabase

        database = GraphDatabase("live")
        for graph, label in zip(mut_pool[:6], mut_database.labels[:6]):
            database.add_graph(graph, label)
        first = ExplanationService(
            "MUT",
            database=database,
            model=trained_mut_model,
            config=Configuration(theta=0.08).with_default_bound(0, 8),
            cache_dir=tmp_path,
            live_views=True,
        )
        first.close()
        second = ExplanationService(
            "MUT",
            database=database,
            model=trained_mut_model,
            config=Configuration(theta=0.2).with_default_bound(0, 6),
            cache_dir=tmp_path,
        )
        maintainer = second.enable_live_views()
        # Snapshot fingerprint mismatched: rebuilt by streaming afresh.
        assert maintainer.graphs_streamed == 6
        second.close()


class TestIngestValidation:
    def test_unclassifiable_graph_rejected_before_mutation(self, live_service):
        """A graph the model cannot classify (wrong feature dim) must be
        rejected cleanly with the database left untouched."""
        from repro.graphs import Graph

        bad = Graph()
        bad.add_node(0, "X", [1.0, 2.0])  # model expects feature_dim=14
        size = len(live_service.database)
        version = live_service.database.version
        with pytest.raises(ExplanationError, match="cannot classify"):
            live_service.ingest(bad, label=0)
        assert len(live_service.database) == size
        assert live_service.database.version == version

    def test_rejected_ingest_leaves_the_callers_graph_unmodified(self, live_service):
        """Finding: a rejected ingest must not have written the rejected id
        onto the caller's graph — the documented remedy (retry without an
        id) has to work."""
        from repro.graphs import Graph

        graph = Graph()
        for node in range(4):
            graph.add_node(node, "C", [1.0] * 14)
        graph.add_edge(0, 1)
        existing = live_service.database.graphs[0].graph_id
        with pytest.raises(ExplanationError, match="already in the database"):
            live_service.ingest(graph, graph_id=existing)
        assert graph.graph_id is None
        summary = live_service.ingest(graph, label=0)  # remedy works
        assert summary["graph_id"] is not None


class TestSnapshotIdentity:
    def test_snapshot_never_restores_across_databases(
        self, tmp_path, mut_database, mut_pool, trained_mut_model
    ):
        """Two same-model services over *different* databases sharing one
        cache_dir must not resurrect each other's maintained rows."""
        from repro.graphs import GraphDatabase

        config = Configuration(theta=0.08).with_default_bound(0, 8)
        first_db = GraphDatabase("first")
        for graph, label in zip(mut_pool[:6], mut_database.labels[:6]):
            first_db.add_graph(graph, label)
        first = ExplanationService(
            "MUT", database=first_db, model=trained_mut_model, config=config,
            cache_dir=tmp_path, live_views=True,
        )
        first.close()

        second_db = GraphDatabase("second")  # overlapping graph ids 0..5
        for graph, label in zip(mut_pool[6:12], mut_database.labels[6:12]):
            copy = graph.copy()
            copy.graph_id = None
            second_db.add_graph(copy, label)
        second = ExplanationService(
            "MUT", database=second_db, model=trained_mut_model, config=config,
            cache_dir=tmp_path,
        )
        maintainer = second.enable_live_views()
        # Nothing restored from the first database: every graph re-streamed.
        assert maintainer.graphs_streamed == 6
        for label in maintainer.maintained_labels():
            for subgraph in maintainer.view_for(label).subgraphs:
                assert subgraph.source_graph in second_db.graphs
        second.close()

    def test_closed_service_refuses_mutations(self, live_service, mut_pool):
        live_service.explain(algorithm="stream", label=1)
        live_service.close()
        with pytest.raises(ExplanationError, match="closed"):
            live_service.ingest(mut_pool[10], 1)
        with pytest.raises(ExplanationError, match="closed"):
            live_service.remove(live_service.database.graphs[0].graph_id)
        with pytest.raises(ExplanationError, match="closed"):
            live_service.relabel(live_service.database.graphs[0].graph_id, 0)

    def test_mutations_do_not_grow_the_spill_dir_unboundedly(
        self, tmp_path, mut_database, mut_pool, trained_mut_model
    ):
        """Stale per-version artifacts are discarded on mutation: the spill
        directory holds the current views + one maintainer snapshot, not
        O(mutations x labels) dead files."""
        from repro.graphs import GraphDatabase

        database = GraphDatabase("live")
        for graph, label in zip(mut_pool[:8], mut_database.labels[:8]):
            database.add_graph(graph, label)
        service = ExplanationService(
            "MUT",
            database=database,
            model=trained_mut_model,
            config=Configuration(theta=0.08).with_default_bound(0, 8),
            cache_dir=tmp_path,
            live_views=True,
        )
        for index in (8, 9, 10, 11):
            service.ingest(mut_pool[index], mut_database.labels[index])
        labels = len(service.maintainer.maintained_labels())
        spill_files = list(tmp_path.glob("*.json"))
        # current per-label views + the maintainer snapshot, nothing stale
        assert len(spill_files) <= labels + 1
        service.close()

    def test_ingest_runs_one_forward_pass_with_warm_memo(
        self, live_service, mut_pool, mut_database
    ):
        live_service.enable_live_views()
        live_service.planner.predicted_labels()  # warm the memo
        calls = {"n": 0}
        real_predict = live_service.model.predict

        original = live_service.model.predict
        def counted(graph):
            calls["n"] += 1
            return real_predict(graph)
        live_service.model.predict = counted
        try:
            live_service.ingest(mut_pool[10], mut_database.labels[10])
        finally:
            live_service.model.predict = original
        # delta hook predicts once into the memo; the maintainer reads the
        # memo back instead of predicting again.
        assert calls["n"] == 1
