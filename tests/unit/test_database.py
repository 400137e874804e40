"""Unit tests for the graph database container (and its mutation surface)."""

import pytest

from repro.exceptions import DatasetError
from repro.graphs import DatabaseDelta, Graph, GraphDatabase


def small_graph(graph_id=None, size=3):
    graph = Graph(graph_id=graph_id)
    for node in range(size):
        graph.add_node(node, "T", [1.0])
    for node in range(size - 1):
        graph.add_edge(node, node + 1)
    return graph


class TestConstruction:
    def test_add_graph_assigns_ids(self):
        database = GraphDatabase()
        index = database.add_graph(small_graph())
        assert index == 0
        assert database[0].graph_id == 0

    def test_add_graph_keeps_existing_id(self):
        database = GraphDatabase()
        database.add_graph(small_graph(graph_id=77))
        assert database[0].graph_id == 77

    def test_extend_with_labels(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph()], labels=[0, 1])
        assert database.labels == [0, 1]

    def test_extend_with_mismatched_labels_raises(self):
        database = GraphDatabase()
        with pytest.raises(DatasetError):
            database.extend([small_graph()], labels=[0, 1])

    def test_extend_without_labels(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph()])
        assert database.labels == [None, None]


class TestAccess:
    def test_len_and_iteration(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph()], labels=[0, 1])
        assert len(database) == 2
        assert len(list(database)) == 2

    def test_label_helpers(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph(), small_graph()], labels=[0, 1, 0])
        assert database.class_labels() == [0, 1]
        assert database.label_group_indices(0) == [0, 2]
        assert len(database.label_group(1)) == 1

    def test_set_label(self):
        database = GraphDatabase()
        database.add_graph(small_graph())
        database.set_label(0, 3)
        assert database.label_of(0) == 3

    def test_subset_preserves_labels(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph(), small_graph()], labels=[0, 1, 0])
        subset = database.subset([2, 0])
        assert len(subset) == 2
        assert subset.labels == [0, 0]


class TestMutation:
    def build(self, labels=(0, 1, 0, 1)):
        database = GraphDatabase()
        database.extend([small_graph() for _ in labels], labels=list(labels))
        return database

    def test_version_bumps_on_every_mutation_kind(self):
        database = self.build()
        version = database.version
        database.set_label(0, 9)
        assert database.version == version + 1
        database.remove_graph(1)
        assert database.version == version + 2
        database.add_graph(small_graph())
        assert database.version == version + 3

    def test_unchanged_relabel_is_a_no_op(self):
        database = self.build()
        version = database.version
        database.set_label(0, 0)
        assert database.version == version
        assert database.deltas_since(version) == []

    def test_remove_graph_returns_the_graph(self):
        database = self.build()
        removed = database.remove_graph(2)
        assert removed.graph_id == 2
        assert len(database) == 3
        assert not database.has_graph(2)

    def test_remove_unknown_id_raises(self):
        database = self.build()
        with pytest.raises(DatasetError):
            database.remove_graph(99)

    def test_graph_ids_stable_under_removal(self):
        """Auto ids are never reused: a graph added after a removal gets a
        fresh id, so old ids keep denoting the removed graph forever."""
        database = self.build()
        database.remove_graph(1)
        index = database.add_graph(small_graph())
        assert database[index].graph_id == 4
        assert [graph.graph_id for graph in database] == [0, 2, 3, 4]

    def test_id_accessors(self):
        database = self.build()
        database.remove_graph(0)
        assert database.index_of(2) == 1
        assert database.graph_by_id(3).graph_id == 3

    def test_label_groups_after_interleaved_removals_and_relabels(self):
        database = self.build(labels=(0, 1, 0, 1, 0))
        database.remove_graph(0)            # labels now [1, 0, 1, 0] for ids 1..4
        database.relabel_graph(3, 0)        # ids: 1->1, 2->0, 3->0, 4->0
        database.remove_graph(2)            # ids: 1->1, 3->0, 4->0
        assert [g.graph_id for g in database.label_group(0)] == [3, 4]
        assert database.label_group_indices(0) == [1, 2]
        assert database.label_group_indices(1) == [0]
        subset = database.subset(database.label_group_indices(0))
        assert [g.graph_id for g in subset] == [3, 4]
        assert subset.labels == [0, 0]

    def test_relabel_by_id_matches_positional_set_label(self):
        database = self.build()
        database.remove_graph(0)
        database.relabel_graph(3, 7)
        assert database.label_of(database.index_of(3)) == 7


class TestDeltasAndSubscriptions:
    def test_add_delta_carries_graph_and_label(self):
        database = GraphDatabase()
        database.add_graph(small_graph(), label=4)
        (delta,) = database.deltas_since(0)
        assert delta.kind == "add"
        assert delta.label == 4
        assert delta.graph is database[0]
        assert delta.version == database.version

    def test_remove_and_relabel_deltas_record_old_labels(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph()], labels=[0, 1])
        database.set_label(0, 5)
        database.remove_graph(1)
        relabel, removal = database.deltas_since(2)
        assert (relabel.kind, relabel.label, relabel.old_label) == ("relabel", 5, 0)
        assert (removal.kind, removal.old_label) == ("remove", 1)
        assert removal.graph is not None

    def test_deltas_since_future_version_raises(self):
        database = GraphDatabase()
        with pytest.raises(DatasetError):
            database.deltas_since(5)

    def test_truncated_delta_log_raises(self):
        database = GraphDatabase()
        database.DELTA_LOG_CAPACITY = 2
        for _ in range(4):
            database.add_graph(small_graph())
        with pytest.raises(DatasetError, match="truncated"):
            database.deltas_since(0)
        assert len(database.deltas_since(2)) == 2

    def test_subscribers_see_every_mutation_in_order(self):
        database = GraphDatabase()
        seen: list[tuple] = []
        database.subscribe(lambda delta: seen.append((delta.kind, delta.graph_id)))
        database.add_graph(small_graph(), label=0)
        database.set_label(0, 1)
        database.remove_graph(0)
        assert seen == [("add", 0), ("relabel", 0), ("remove", 0)]

    def test_unsubscribe_stops_delivery(self):
        database = GraphDatabase()
        seen: list[DatabaseDelta] = []
        handle = database.subscribe(seen.append)
        database.add_graph(small_graph())
        database.unsubscribe(handle)
        database.add_graph(small_graph())
        assert len(seen) == 1

    def test_invalid_delta_kind_rejected(self):
        with pytest.raises(DatasetError):
            DatabaseDelta(kind="replace", graph_id=0, version=1)


class TestBatchedViewCache:
    def test_batched_view_is_memoised(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph()], labels=[0, 1])
        assert database.batched_view() is database.batched_view()

    @pytest.mark.parametrize("mutate", ["add", "remove", "relabel"])
    def test_batch_cache_is_correct_under_every_mutation_kind(self, mutate):
        """Invalidation is *precise*: mutations that change what the
        selected positions denote (add shifting the selection, removal)
        rebuild; a relabel changes neither graph contents nor the selected
        objects, so the content-identical batch is reused."""
        database = GraphDatabase()
        database.extend([small_graph(), small_graph(), small_graph()], labels=[0, 1, 0])
        before = database.batched_view([0, 1])
        if mutate == "add":
            database.add_graph(small_graph())
            # Selection [0, 1] denotes the same graph objects: reuse is safe.
            assert database.batched_view([0, 1]) is before
            assert database.batched_view([0, 3]) is not before
        elif mutate == "remove":
            database.remove_graph(0)
            # Positions shifted: [0, 1] now denotes different graphs.
            assert database.batched_view([0, 1]) is not before
        else:
            database.set_label(0, 9)
            # Labels are not part of a batch: the identical batch is reused.
            assert database.batched_view([0, 1]) is before

    def test_member_graph_mutation_invalidates_the_batch(self):
        database = GraphDatabase()
        database.extend([small_graph(), small_graph()])
        before = database.batched_view()
        database[0].add_node(99, "T", [1.0])
        assert database.batched_view() is not before

    def test_eviction_is_recency_based(self):
        """The LRU keeps the most recently *used* batches, not the oldest
        inserted (the old hand-rolled dict evicted in insertion order)."""
        database = GraphDatabase()
        database.extend([small_graph() for _ in range(4)])
        database._batch_cache_size = 2
        first = database.batched_view([0])
        second = database.batched_view([1])
        assert database.batched_view([0]) is first  # refreshes recency of [0]
        database.batched_view([2])                  # evicts [1], not [0]
        assert database.batched_view([0]) is first
        assert database.batched_view([1]) is not second

    def test_removal_then_same_indices_returns_fresh_batch(self):
        """After a removal the same positional indices denote different
        graphs; the cache must not serve the pre-removal batch."""
        database = GraphDatabase()
        database.extend([small_graph(size=3), small_graph(size=4), small_graph(size=5)])
        before = database.batched_view([0, 1])
        database.remove_graph(0)
        after = database.batched_view([0, 1])
        assert after is not before
        # Block 1 now holds the 5-node graph (positions shifted down).
        assert after.offsets[2] - after.offsets[1] == 5
        assert after.gathers[1][0].num_nodes == 5


class TestStatistics:
    def test_statistics_of_empty_database(self):
        stats = GraphDatabase().statistics()
        assert stats["num_graphs"] == 0
        assert stats["avg_nodes"] == 0.0

    def test_statistics_values(self):
        database = GraphDatabase()
        database.extend([small_graph(size=3), small_graph(size=5)], labels=[0, 1])
        stats = database.statistics()
        assert stats["num_graphs"] == 2
        assert stats["num_classes"] == 2
        assert stats["avg_nodes"] == pytest.approx(4.0)
        assert stats["avg_edges"] == pytest.approx(3.0)
        assert stats["feature_dim"] == 1


class TestSerialisation:
    def test_round_trip_dict(self):
        database = GraphDatabase(name="demo")
        database.extend([small_graph(), small_graph()], labels=[0, 1])
        clone = GraphDatabase.from_dict(database.to_dict())
        assert clone.name == "demo"
        assert clone.labels == [0, 1]
        assert clone[1].num_nodes() == 3

    def test_save_and_load(self, tmp_path):
        database = GraphDatabase(name="demo")
        database.add_graph(small_graph(), label=1)
        path = tmp_path / "db.json"
        database.save(path)
        clone = GraphDatabase.load(path)
        assert clone.label_of(0) == 1
        assert clone[0].edges == database[0].edges
