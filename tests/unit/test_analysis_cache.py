"""The influence-analysis cores cached on a graph's sparse view.

:func:`repro.core.sampling.build_analysis` keeps one immutable
:class:`~repro.core.quality.AnalysisCore` per (model, ``theta``, ``radius``,
``influence_method``) on the graph's :class:`SparseGraphView`.  Pinned here:

* a cache hit answers exactly like an uncached run and like the reference
  explainer, on MUT and SYN;
* every input of the core misses: graph mutations, new weights (replaced or
  updated in place by a training epoch), ``theta``, ``radius`` and
  ``influence_method``; the label bound and ``gamma`` do not;
* the core's arrays are read-only;
* concurrent explains through one service, and routed explains on real
  shard workers (shared-memory views), answer like the serial run.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import ExplanationService
from repro.api.replication import view_signature
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.core.approx import ApproxGVEX
from repro.core.oracles import ReferenceApproxGVEX
from repro.core.quality import AnalysisCore
from repro.core.sampling import build_analysis
from repro.datasets.synthetic import make_ba_motif_synthetic
from repro.gnn import GNNClassifier
from repro.gnn.training import Trainer
from repro.graphs import GraphDatabase

CONFIG = Configuration(theta=0.08).with_default_bound(0, 8)


@pytest.fixture(scope="module")
def syn_database():
    return make_ba_motif_synthetic(num_graphs=8, seed=2, base_size=16)


@pytest.fixture(scope="module")
def syn_model(syn_database):
    model = GNNClassifier(feature_dim=8, num_classes=2, hidden_dim=16, num_layers=3, seed=4)
    Trainer(model, learning_rate=0.01, epochs=15, seed=4).fit(
        syn_database, train_indices=list(range(len(syn_database)))
    )
    return model


@pytest.fixture(scope="module")
def cases(mut_database, trained_mut_model, syn_database, syn_model):
    return {"MUT": (mut_database, trained_mut_model), "SYN": (syn_database, syn_model)}


@pytest.fixture
def computed(monkeypatch):
    """Records every core computation (a cache miss)."""
    calls: list[int] = []
    compute = AnalysisCore.compute.__func__

    def counting(cls, influence, embeddings, config):
        calls.append(len(embeddings))
        return compute(cls, influence, embeddings, config)

    monkeypatch.setattr(AnalysisCore, "compute", classmethod(counting))
    return calls


def copies(database, count=6):
    return [graph.copy() for graph in database.graphs[:count]]


def clone(model: GNNClassifier) -> GNNClassifier:
    twin = GNNClassifier(
        feature_dim=model.feature_dim,
        num_classes=model.num_classes,
        hidden_dim=model.hidden_dim,
        num_layers=model.num_layers,
        conv=model.conv,
        seed=model.seed,
    )
    twin.set_weights(model.get_weights())
    twin.is_trained = True
    return twin


class TestHitIdentity:
    @pytest.mark.parametrize("dataset", ["MUT", "SYN"])
    def test_hit_answers_like_an_uncached_run_and_the_reference(self, cases, computed, dataset):
        database, model = cases[dataset]
        graphs = copies(database)
        label = model.predict(graphs[0])
        uncached = view_signature(ApproxGVEX(model, CONFIG).explain_label(copies(database), label))
        misses = len(computed)
        assert misses > 0

        cold = view_signature(ApproxGVEX(model, CONFIG).explain_label(graphs, label))
        assert len(computed) == 2 * misses
        warm = view_signature(ApproxGVEX(model, CONFIG).explain_label(graphs, label))
        assert len(computed) == 2 * misses  # every analysis was a hit
        reference = view_signature(
            ReferenceApproxGVEX(model, CONFIG).explain_label(copies(database), label)
        )
        assert cold == warm == uncached == reference

    def test_hit_shares_the_core_and_not_the_request_state(
        self, mut_database, trained_mut_model, computed
    ):
        graph = mut_database.graphs[0].copy()
        first = build_analysis(trained_mut_model, graph, CONFIG)
        first.reset_coverage(graph.nodes[:2])
        first.explainability(graph.nodes[:3])
        second = build_analysis(trained_mut_model, graph, CONFIG)
        assert second.core is first.core
        assert len(computed) == 1
        assert second._coverage is None
        assert second._subset_scores == {}


class TestMisses:
    @pytest.fixture
    def graph(self, mut_database):
        return mut_database.graphs[1].copy()

    @pytest.mark.parametrize("mutation", ["add_node", "add_edge", "remove_node"])
    def test_graph_mutation_misses(self, trained_mut_model, graph, computed, mutation):
        before = build_analysis(trained_mut_model, graph, CONFIG)
        nodes = graph.nodes
        if mutation == "add_node":
            graph.add_node(10_000, "C", features=np.ones(14))
            graph.add_edge(10_000, nodes[0])
        elif mutation == "add_edge":
            u, v = next(
                (u, v) for u in nodes for v in nodes if u < v and v not in graph.neighbors(u)
            )
            graph.add_edge(u, v)
        else:
            graph.remove_node(nodes[-1])
        after = build_analysis(trained_mut_model, graph, CONFIG)
        assert after.core is not before.core
        assert len(computed) == 2
        fresh = build_analysis(trained_mut_model, graph.copy(), CONFIG)
        np.testing.assert_array_equal(after.core.influence_mask, fresh.core.influence_mask)
        np.testing.assert_array_equal(after.core.neighbourhood_mask, fresh.core.neighbourhood_mask)

    def test_new_weights_miss_and_equal_weights_hit(self, trained_mut_model, graph, computed):
        model = clone(trained_mut_model)
        before = build_analysis(model, graph, CONFIG)
        model.set_weights(model.get_weights())  # new arrays, same values
        assert build_analysis(model, graph, CONFIG).core is before.core
        weights = model.get_weights()
        weights[0]["weight"] = weights[0]["weight"] * 1.5
        model.set_weights(weights)
        assert build_analysis(model, graph, CONFIG).core is not before.core
        assert len(computed) == 2

    def test_an_in_place_training_epoch_misses(self, trained_mut_model, mut_database, graph, computed):
        model = clone(trained_mut_model)
        before = build_analysis(model, graph, CONFIG)
        arrays = [layer.params["weight"] for layer in model.all_layers()]
        Trainer(model, learning_rate=0.05, epochs=1, seed=1).fit(
            mut_database, train_indices=list(range(4))
        )
        # The optimiser updated the very same arrays.
        assert all(
            layer.params["weight"] is array for layer, array in zip(model.all_layers(), arrays)
        )
        after = build_analysis(model, graph, CONFIG)
        assert after.core is not before.core
        uncached = build_analysis(model, graph.copy(), CONFIG)
        np.testing.assert_array_equal(after.core.exerted_influence, uncached.core.exerted_influence)

    @pytest.mark.parametrize(
        "change",
        [{"theta": 0.2}, {"radius": 0.4}, {"influence_method": "propagation"}],
        ids=["theta", "radius", "influence_method"],
    )
    def test_each_core_threshold_misses(self, trained_mut_model, graph, computed, change):
        before = build_analysis(trained_mut_model, graph, CONFIG)
        after = build_analysis(trained_mut_model, graph, replace(CONFIG, **change))
        assert after.core is not before.core
        assert len(computed) == 2
        # The first key stays cached next to the new one.
        assert build_analysis(trained_mut_model, graph, CONFIG).core is before.core

    def test_bound_and_gamma_hit(self, trained_mut_model, graph, computed):
        before = build_analysis(trained_mut_model, graph, CONFIG)
        other = replace(CONFIG, gamma=CONFIG.gamma * 2).with_default_bound(1, 4)
        after = build_analysis(trained_mut_model, graph, other)
        assert after.core is before.core
        assert after.config is other
        assert len(computed) == 1


class TestReadOnly:
    def test_core_arrays_are_read_only(self, trained_mut_model, mut_database):
        analysis = build_analysis(trained_mut_model, mut_database.graphs[2].copy(), CONFIG)
        # The coverage state packs both masks before the check.
        analysis.reset_coverage(analysis.node_list[:1])
        core = analysis.core
        arrays = [
            core.influence_mask,
            core.neighbourhood_mask,
            core.exerted_influence,
            core.packed_influence(),
            core.packed_neighbourhood(),
        ]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]


class TestConcurrency:
    def test_two_threads_through_one_service_match_the_serial_run(
        self, mut_database, trained_mut_model
    ):
        requests = [(label, max_nodes) for label in (0, 1) for max_nodes in (4, 6, 8)]

        def service() -> ExplanationService:
            database = GraphDatabase("MUT")
            for graph, label in zip(mut_database.graphs[:8], mut_database.labels[:8]):
                database.add_graph(graph.copy(), label)
            return ExplanationService(
                "MUT", database=database, model=trained_mut_model, config=CONFIG, cache_size=1
            )

        serial_service = service()
        serial = {
            (label, max_nodes): view_signature(
                serial_service.explain(algorithm="approx", label=label, max_nodes=max_nodes).view
            )
            for label, max_nodes in requests
        }
        serial_service.close()

        shared = service()
        seen: dict[int, list] = {0: [], 1: []}
        errors: list[BaseException] = []

        def run(worker: int) -> None:
            order = requests if worker == 0 else list(reversed(requests))
            try:
                for _ in range(2):
                    for label, max_nodes in order:
                        view = shared.explain(algorithm="approx", label=label, max_nodes=max_nodes).view
                        seen[worker].append(((label, max_nodes), view_signature(view)))
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(worker,)) for worker in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shared.close()
        assert errors == []
        for results in seen.values():
            assert len(results) == 2 * len(requests)
            for key, signature in results:
                assert signature == serial[key]


class TestShardWorkers:
    def test_routed_explains_on_shared_memory_views_match_one_process(
        self, mut_database, trained_mut_model
    ):
        database = GraphDatabase("seed")
        for graph, label in zip(mut_database.graphs[:8], mut_database.labels[:8]):
            database.add_graph(graph.copy(), label)
        payload = database.to_dict()
        reference = ExplanationService(
            "MUT", database=GraphDatabase.from_dict(payload), model=trained_mut_model, config=CONFIG
        )
        with ShardRouter(
            "MUT",
            database=GraphDatabase.from_dict(payload),
            model=trained_mut_model,
            num_shards=2,
            config=CONFIG,
            backend="process",
        ) as router:
            # The second and third request per label reuse the workers' cores.
            for max_nodes in (8, 6, 8):
                for label in (0, 1):
                    expected = reference.explain(algorithm="approx", label=label, max_nodes=max_nodes)
                    routed = router.explain(algorithm="approx", label=label, max_nodes=max_nodes)
                    assert view_signature(routed.view) == view_signature(expected.view)
        reference.close()
