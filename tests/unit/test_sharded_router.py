"""The sharded serving tier's router, driven on the inline backend.

The inline backend runs the *same* :class:`ShardHost` implementation the
worker processes host, minus the process boundary — so these tests pin the
tier's semantic contracts cheaply, and the process-backend integration
tests only need to re-check what the boundary itself can break.

Contracts pinned here:

* a 1-shard tier is **identical** to the single-process service for every
  request type (stream, approx, limit selections);
* whole-database stream requests stay identical at *any* shard count (the
  router reassembles deterministic per-graph rows in global order);
* approx requests keep every graph's explanation node set at any shard
  count; only the merged pattern set may differ from the single process;
* mutations route to the owning shard, keep global/stored state agreeing,
  and are idempotent under retry;
* a killed worker is respawned from its bootstrap and the tier keeps
  answering.
"""

from __future__ import annotations

import os

import pytest

from repro.api import ExplanationService
from repro.api.replication import view_signature
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.exceptions import ExplanationError
from repro.graphs import Graph, GraphDatabase


@pytest.fixture(scope="module")
def shard_config():
    return Configuration(theta=0.08).with_default_bound(0, 8)


@pytest.fixture(scope="module")
def seed_payload(mut_database):
    """A 10-graph seed database, serialised once and copied per consumer."""
    database = GraphDatabase("seed")
    for graph, label in zip(mut_database.graphs[:10], mut_database.labels[:10]):
        database.add_graph(graph.copy(), label)
    return database.to_dict()


@pytest.fixture(scope="module")
def reference(seed_payload, trained_mut_model, shard_config):
    """The single-process oracle every sharded answer is held against."""
    service = ExplanationService(
        "MUT",
        database=GraphDatabase.from_dict(seed_payload),
        model=trained_mut_model,
        config=shard_config,
        live_views=True,
    )
    yield service
    service.close()


def make_router(seed_payload, model, config, num_shards, **kwargs) -> ShardRouter:
    return ShardRouter(
        "MUT",
        database=GraphDatabase.from_dict(seed_payload),
        model=model,
        num_shards=num_shards,
        config=config,
        backend="inline",
        **kwargs,
    )


def new_graph(mut_database, index=12) -> Graph:
    payload = mut_database.graphs[index].to_dict()
    payload["graph_id"] = None
    return Graph.from_dict(payload)


class TestShardedIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_stream_views_identical_at_any_shard_count(
        self, seed_payload, trained_mut_model, shard_config, reference, num_shards
    ):
        expected = {
            label: view_signature(reference.explain(algorithm="stream", label=label).view)
            for label in (0, 1)
        }
        with make_router(
            seed_payload, trained_mut_model, shard_config, num_shards
        ) as router:
            for label, signature in expected.items():
                result = router.explain(algorithm="stream", label=label)
                assert view_signature(result.view) == signature
                assert result.provenance.num_graphs == len(router.database)

    def test_single_shard_identical_for_every_request_type(
        self, seed_payload, trained_mut_model, shard_config, reference
    ):
        requests = [
            {"algorithm": "approx", "label": 1, "max_nodes": 6},
            {"algorithm": "approx", "label": 1, "max_nodes": 6, "limit": 3},
            {"algorithm": "approx", "label": 0, "max_nodes": 6, "graph_ids": [0, 2, 4]},
            {"algorithm": "stream", "label": 1},
        ]
        with make_router(seed_payload, trained_mut_model, shard_config, 1) as router:
            for request in requests:
                ours = router.explain(**request)
                oracle = reference.explain(**request)
                assert view_signature(ours.view) == view_signature(oracle.view)

    def test_multi_shard_approx_merges_per_shard_views(
        self, seed_payload, trained_mut_model, shard_config
    ):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            result = router.explain(algorithm="approx", label=1, max_nodes=6)
            sizes = router.plan.shard_sizes(router.database)
            assert result.view.metadata.get("merged_from") == sum(
                1 for size in sizes if size > 0
            )
            # Merged pattern ids are reassigned densely, like parallel_explain.
            assert [p.pattern_id for p in result.view.patterns] == list(
                range(len(result.view.patterns))
            )

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_multi_shard_approx_keeps_every_graphs_explanation(
        self, seed_payload, trained_mut_model, shard_config, reference, num_shards
    ):
        """The approx contract: per-graph node sets match the single process;
        only the merged pattern set may differ."""

        def node_sets(view):
            return {
                subgraph.source_graph.graph_id: sorted(subgraph.nodes)
                for subgraph in view.subgraphs
            }

        with make_router(
            seed_payload, trained_mut_model, shard_config, num_shards
        ) as router:
            for label in (0, 1):
                request = {"algorithm": "approx", "label": label, "max_nodes": 6}
                ours = router.explain(**request).view
                oracle = reference.explain(**request).view
                assert node_sets(ours) == node_sets(oracle)
                assert len(node_sets(ours)) == len(ours.subgraphs)

    def test_uneven_shard_counts_still_assemble(self, seed_payload, trained_mut_model, shard_config, reference):
        # 5 shards over 10 graphs: CRC placement leaves shards with very
        # different sizes (some possibly empty) — assembly must not care.
        with make_router(seed_payload, trained_mut_model, shard_config, 5) as router:
            sizes = router.plan.shard_sizes(router.database)
            assert sum(sizes) == 10 and len(set(sizes)) > 1
            expected = view_signature(reference.explain(algorithm="stream", label=1).view)
            assert view_signature(router.explain(algorithm="stream", label=1).view) == expected

    def test_repeat_requests_hit_the_router_cache(
        self, seed_payload, trained_mut_model, shard_config
    ):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            first = router.explain(algorithm="stream", label=1)
            second = router.explain(algorithm="stream", label=1)
            assert not first.provenance.cache_hit
            assert second.provenance.cache_hit
            assert view_signature(first.view) == view_signature(second.view)


class TestShardedMutations:
    def test_ingest_routes_and_matches_single_process_state(
        self, seed_payload, trained_mut_model, shard_config, mut_database
    ):
        oracle = ExplanationService(
            "MUT",
            database=GraphDatabase.from_dict(seed_payload),
            model=trained_mut_model,
            config=shard_config,
            live_views=True,
        )
        router = make_router(seed_payload, trained_mut_model, shard_config, 2)
        try:
            summary = router.ingest(new_graph(mut_database), 1)
            oracle_summary = oracle.ingest(new_graph(mut_database), 1)
            # Same never-reused auto-id discipline as the plain database.
            assert summary["graph_id"] == oracle_summary["graph_id"]
            assert summary["num_graphs"] == oracle_summary["num_graphs"] == 11
            assert summary["shard"] == router.plan.shard_of(summary["graph_id"])
            # Post-mutation stream views agree with the single-process run.
            for label in (0, 1):
                assert view_signature(
                    router.explain(algorithm="stream", label=label).view
                ) == view_signature(oracle.explain(algorithm="stream", label=label).view)
        finally:
            router.close()
            oracle.close()

    def test_remove_and_relabel_route_to_the_owner(
        self, seed_payload, trained_mut_model, shard_config
    ):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            removed = router.remove(3)
            assert removed["op"] == "remove"
            assert removed["num_graphs"] == 9
            assert 3 not in {graph.graph_id for graph in router.database.graphs}
            relabelled = router.relabel(4, 0)
            assert relabelled["op"] == "relabel"
            labels = dict(zip(
                (graph.graph_id for graph in router.database.graphs),
                router.database.labels,
            ))
            assert labels[4] == 0
            # The owning shard's worker sees the same state.
            shard = router.plan.shard_of(4)
            rows = router._call(shard, "stream_rows", {"label": None})["rows"]
            stored = {row["graph_id"]: row["stored_label"] for row in rows}
            assert stored[4] == 0
            assert 3 not in stored or router.plan.shard_of(3) != shard

    def test_mutations_are_idempotent_under_retry(
        self, seed_payload, trained_mut_model, shard_config, mut_database
    ):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            graph = new_graph(mut_database)
            summary = router.ingest(graph, 1)
            shard = summary["shard"]
            # Replaying the exact worker op (the router's crash-retry path)
            # must answer success, not a duplicate-id error.
            retried = router._call(
                shard,
                "mutate",
                {
                    "kind": "ingest",
                    "graph": graph.to_dict(),
                    "graph_id": summary["graph_id"],
                    "label": 1,
                },
            )
            assert retried["already_applied"] is True
            removed = router.remove(summary["graph_id"])
            retried = router._call(
                shard, "mutate", {"kind": "remove", "graph_id": summary["graph_id"]}
            )
            assert retried["already_applied"] is True
            assert removed["num_graphs"] == len(router.database)

    def test_duplicate_ingest_is_rejected_before_routing(
        self, seed_payload, trained_mut_model, shard_config, mut_database
    ):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            graph = new_graph(mut_database)
            with pytest.raises(ExplanationError, match="already in the database"):
                router.ingest(graph, 1, graph_id=0)
            # The rejected ingest must not have touched anything.
            assert len(router.database) == 10


class TestFailureRecovery:
    def test_killed_worker_respawns_and_requests_succeed(
        self, seed_payload, trained_mut_model, shard_config, reference, tmp_path
    ):
        router = make_router(
            seed_payload, trained_mut_model, shard_config, 2,
            cache_dir=tmp_path / "cache", wal_dir=tmp_path / "wal",
        )
        try:
            expected = view_signature(reference.explain(algorithm="stream", label=1).view)
            assert view_signature(router.explain(algorithm="stream", label=1).view) == expected
            router.kill_worker(0)
            router.kill_worker(1)
            # Next requests transparently respawn both workers and retry.
            router.store.clear_memory()
            router.store.discard_prefix("")  # force recompute through workers
            assert view_signature(router.explain(algorithm="stream", label=1).view) == expected
            assert router.stats()["respawns"] == 2
        finally:
            router.close()

    def test_mutations_survive_respawn_through_the_wal(
        self, seed_payload, trained_mut_model, shard_config, mut_database, tmp_path
    ):
        router = make_router(
            seed_payload, trained_mut_model, shard_config, 2,
            cache_dir=tmp_path / "cache", wal_dir=tmp_path / "wal",
        )
        try:
            summary = router.ingest(new_graph(mut_database), 1)
            shard = summary["shard"]
            router.kill_worker(shard)
            rows = router._call(shard, "stream_rows", {"label": None})["rows"]
            assert summary["graph_id"] in {row["graph_id"] for row in rows}
            assert router.stats()["respawns"] == 1
        finally:
            router.close()


class TestServiceSurface:
    def test_stats_reports_every_shard(self, seed_payload, trained_mut_model, shard_config):
        with make_router(seed_payload, trained_mut_model, shard_config, 3) as router:
            stats = router.stats()
            assert stats["role"] == "shard-router"
            assert stats["num_shards"] == 3
            assert stats["shard_backend"] == "inline"
            assert sum(stats["shard_sizes"]) == 10
            assert len(stats["shards"]) == 3
            for entry in stats["shards"]:
                assert entry["alive"] is True
                assert entry["pid"] == os.getpid()
                assert "maintained_labels" in entry
                assert "shard_size" in entry
            assert "hit_rate" in stats["shard_cache_aggregate"]

    def test_query_facade_and_view_set(self, seed_payload, trained_mut_model, shard_config):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            router.explain(algorithm="stream", label=0)
            router.explain(algorithm="stream", label=1)
            views = router.view_set()
            assert sorted(view.label for view in views) == [0, 1]
            summary = router.query().summary()
            assert set(summary) == {0, 1}
            assert len(router.results()) == 2

    def test_live_views_assemble_every_maintained_label(
        self, seed_payload, trained_mut_model, shard_config, reference
    ):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            ours = {view.label: view_signature(view) for view in router.live_views()}
            oracle = {
                view.label: view_signature(view) for view in reference.live_views()
            }
            assert ours == oracle

    def test_replication_endpoints_refuse_in_sharded_mode(
        self, seed_payload, trained_mut_model, shard_config
    ):
        with make_router(seed_payload, trained_mut_model, shard_config, 2) as router:
            with pytest.raises(ExplanationError, match="own WAL"):
                router.delta_feed(0)
            with pytest.raises(ExplanationError, match="single-process primary"):
                router.replication_snapshot()

    def test_closed_router_refuses_work(self, seed_payload, trained_mut_model, shard_config):
        router = make_router(seed_payload, trained_mut_model, shard_config, 2)
        router.close()
        router.close()  # idempotent
        with pytest.raises(ExplanationError, match="closed"):
            router.explain(algorithm="stream", label=1)
