"""Service-level WAL behaviour: durable mutations, replay on restart, feeds.

The contract under test: a service constructed over the same base database
and the same ``wal_dir`` as a crashed (never-closed) predecessor replays the
WAL tail and reaches the *same* semantic state — database contents, version,
and maintained-view signatures — as a service that never died.
"""

from __future__ import annotations

import pytest

from repro.api import ExplanationService
from repro.api.replication import view_signature
from repro.core import Configuration
from repro.exceptions import ExplanationError, ReplicationGapError
from repro.graphs import Graph, GraphDatabase


def copy_database(database, name="wal-svc") -> GraphDatabase:
    payload = database.to_dict()
    payload["name"] = name
    return GraphDatabase.from_dict(payload)


def copy_graph(graph, graph_id) -> Graph:
    payload = graph.to_dict()
    payload["graph_id"] = graph_id
    return Graph.from_dict(payload)


@pytest.fixture()
def durable_service(mut_database, trained_mut_model, tmp_path):
    def build(live_views=True, database=None):
        return ExplanationService(
            "MUT",
            database=database if database is not None else copy_database(mut_database),
            model=trained_mut_model,
            config=Configuration(theta=0.08).with_default_bound(0, 6),
            live_views=live_views,
            wal_dir=tmp_path / "wal",
        )

    return build


class TestDurableMutations:
    def test_every_mutation_lands_in_the_wal(self, durable_service, mut_database):
        service = durable_service()
        base = service.database.version
        service.ingest(copy_graph(mut_database.graphs[0], 900), label=1)
        service.relabel(900, 0)
        service.remove(900)
        wal_stats = service.stats()["wal"]
        assert wal_stats["base_version"] == base
        assert wal_stats["last_version"] == base + 3
        assert wal_stats["replayed_on_open"] == 0
        assert [p["payload"]["kind"] for p in service.wal.payloads_since(base)] == [
            "add", "relabel", "remove",
        ]
        service.close()

    def test_restart_replays_to_the_identical_state(
        self, durable_service, mut_database
    ):
        # The "crashed" primary: mutations acknowledged, service never closed.
        crashed = durable_service()
        crashed.ingest(copy_graph(mut_database.graphs[1], 901), label=1)
        crashed.ingest(copy_graph(mut_database.graphs[2], 902), label=0)
        crashed.relabel(901, 0)
        expected_version = crashed.database.version
        expected = {v.label: view_signature(v) for v in crashed.live_views()}
        crashed._wal.close()  # release the handle; no snapshot flush, no save

        recovered = durable_service()
        assert recovered.database.version == expected_version
        assert recovered.stats()["wal"]["replayed_on_open"] == 3
        assert recovered.database.has_graph(901) and recovered.database.has_graph(902)
        got = {v.label: view_signature(v) for v in recovered.live_views()}
        assert got == expected
        recovered.close()

    def test_replay_fires_the_service_bookkeeping(self, durable_service, mut_database):
        crashed = durable_service(live_views=False)
        crashed.ingest(copy_graph(mut_database.graphs[3], 903), label=1)
        crashed._wal.close()

        recovered = durable_service(live_views=False)
        # the replayed graph is servable through the normal query surface
        assert recovered.database.has_graph(903)
        summary = recovered.remove(903)
        assert summary["op"] == "remove"
        recovered.close()

    def test_database_ahead_of_the_wal_is_refused(
        self, durable_service, mut_database, trained_mut_model, tmp_path
    ):
        service = durable_service(live_views=False)
        service.ingest(copy_graph(mut_database.graphs[4], 904), label=1)
        service.close()

        ahead = copy_database(mut_database)
        ahead.add_graph(copy_graph(mut_database.graphs[5], 905), label=0)
        ahead.add_graph(copy_graph(mut_database.graphs[6], 906), label=0)
        # version(base+2) > wal covers base..base+1 → unrecoverable divergence
        with pytest.raises(ExplanationError, match="ahead"):
            ExplanationService(
                "MUT",
                database=ahead,
                model=trained_mut_model,
                wal_dir=tmp_path / "wal",
            )

    def test_database_behind_the_wal_base_is_refused(
        self, mut_database, trained_mut_model, tmp_path
    ):
        service = ExplanationService(
            "MUT",
            database=copy_database(mut_database),
            model=trained_mut_model,
            wal_dir=tmp_path / "wal",
        )
        # one recorded mutation pins the log's base on disk
        service.ingest(copy_graph(mut_database.graphs[0], 950), label=1)
        service.close()

        behind = GraphDatabase("wal-svc")  # version 4 < the WAL's recorded base
        for graph, label in zip(mut_database.graphs[:4], mut_database.labels[:4]):
            behind.add_graph(graph.copy(), label)
        with pytest.raises(ExplanationError, match="base"):
            ExplanationService(
                "MUT", database=behind, model=trained_mut_model, wal_dir=tmp_path / "wal"
            )


class TestDeltaFeed:
    def test_memory_feed_covers_recent_mutations(self, durable_service, mut_database):
        service = durable_service(live_views=False)
        base = service.database.version
        service.ingest(copy_graph(mut_database.graphs[7], 907), label=1)
        feed = service.delta_feed(base)
        assert feed["source"] == "memory"
        assert feed["since"] == base
        assert feed["version"] == base + 1
        assert [d["payload"]["graph_id"] for d in feed["deltas"]] == [907]
        service.close()

    def test_wal_covers_what_the_memory_log_dropped(
        self, durable_service, mut_database
    ):
        service = durable_service(live_views=False)
        base = service.database.version
        service.database.DELTA_LOG_CAPACITY = 1
        service.ingest(copy_graph(mut_database.graphs[8], 908), label=1)
        service.ingest(copy_graph(mut_database.graphs[9], 909), label=0)
        feed = service.delta_feed(base)
        assert feed["source"] == "wal"
        assert [d["payload"]["graph_id"] for d in feed["deltas"]] == [908, 909]
        service.close()

    def test_feed_past_the_head_is_a_gap(self, durable_service):
        service = durable_service(live_views=False)
        with pytest.raises(ReplicationGapError):
            service.delta_feed(service.database.version + 50)
        service.close()

    def test_dropped_range_without_wal_is_a_gap(
        self, mut_database, trained_mut_model
    ):
        service = ExplanationService(
            "MUT", database=copy_database(mut_database), model=trained_mut_model
        )
        base = service.database.version
        service.database.DELTA_LOG_CAPACITY = 1
        service.ingest(copy_graph(mut_database.graphs[10], 910), label=1)
        service.ingest(copy_graph(mut_database.graphs[11], 911), label=0)
        with pytest.raises(ReplicationGapError):
            service.delta_feed(base)
        service.close()


class TestReplicationSnapshot:
    def test_snapshot_round_trips_model_and_config(
        self, durable_service, trained_mut_model
    ):
        service = durable_service(live_views=False)
        payload = service.replication_snapshot()
        assert payload["kind"] == "replica_bootstrap"
        assert payload["version"] == service.database.version

        import numpy as np

        weights = trained_mut_model.get_weights()
        restored = payload["model"]["weights"]
        assert len(restored) == len(weights)
        for got_layer, want_layer in zip(restored, weights):
            for name, array in want_layer.items():
                assert np.array_equal(np.asarray(got_layer[name]), array)

        config = Configuration.from_canonical(payload["config"])
        assert config.fingerprint() == service.config.fingerprint()
        service.close()
