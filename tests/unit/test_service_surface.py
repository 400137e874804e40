"""The two serving front ends share one surface and one request planner.

:class:`ExplanationService` and :class:`ShardRouter` both implement
:class:`ServiceSurface` and plan requests through the same
:class:`~repro.api.planner.RequestPlanner`.  Each is held against a
single-process oracle over the same MUT database and model: equal cache
keys and equal views for label-resolved, ``graph_ids`` and ``limit``
requests, before and after an ingest and a remove.  One cache key is pinned
as a literal, so result files spilled into a ``cache_dir`` by earlier
releases stay readable.
"""

from __future__ import annotations

import pytest

from repro.api import ExplainRequest, ExplanationService, ServiceSurface
from repro.api.replication import view_signature
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.gnn import GNNClassifier
from repro.graphs import Graph, GraphDatabase

#: Requests covering every planning path: the label resolved from the
#: predicted memo (whole database, an id filter, a limit), and explicit
#: labels with an id filter or a limit.
REQUESTS = [
    {"algorithm": "approx", "max_nodes": 6},
    {"algorithm": "approx", "max_nodes": 5, "graph_ids": [1, 3, 6]},
    {"algorithm": "approx", "max_nodes": 5, "limit": 2},
    {"algorithm": "approx", "label": 0, "max_nodes": 6, "graph_ids": [0, 2, 4]},
    {"algorithm": "approx", "label": 1, "max_nodes": 6, "limit": 3},
]

#: ``cache_key`` of an approx request for label 1 (``max_nodes=6``) over a
#: 16-graph database and a seeded, untrained two-layer GCN, as the service
#: and the router computed it before they shared a planner.
PINNED_KEY = "mut-012ce604fff0-f2c33c03e28ebd73"


@pytest.fixture(scope="module")
def config():
    return Configuration(theta=0.08).with_default_bound(0, 8)


@pytest.fixture(scope="module")
def seed_payload(mut_database):
    database = GraphDatabase("seed")
    for graph, label in zip(mut_database.graphs[:10], mut_database.labels[:10]):
        database.add_graph(graph.copy(), label)
    return database.to_dict()


def build(kind, payload, model, config, num_shards=1):
    database = GraphDatabase.from_dict(payload)
    if kind == "service":
        return ExplanationService("MUT", database=database, model=model, config=config)
    return ShardRouter(
        "MUT",
        database=database,
        model=model,
        num_shards=num_shards,
        config=config,
        backend="inline",
        supervise=False,
    )


@pytest.fixture(params=["service", "router"])
def system(request, seed_payload, trained_mut_model, config):
    built = build(request.param, seed_payload, trained_mut_model, config)
    yield built
    built.close()


@pytest.fixture
def oracle(seed_payload, trained_mut_model, config):
    service = build("service", seed_payload, trained_mut_model, config)
    yield service
    service.close()


def new_graph(mut_database, index):
    payload = mut_database.graphs[index].to_dict()
    payload["graph_id"] = None
    return Graph.from_dict(payload)


def assert_plans_agree(system, oracle, config):
    for spec in REQUESTS:
        request = ExplainRequest(config=config, **spec)
        ours = system.planner.resolve_label(request)
        theirs = oracle.planner.resolve_label(request)
        assert ours == theirs
        assert system.planner.cache_key(ours) == oracle.planner.cache_key(theirs)
        assert [graph.graph_id for graph in system.planner.select_graphs(ours)] == [
            graph.graph_id for graph in oracle.planner.select_graphs(theirs)
        ]
        assert view_signature(system.explain(**spec).view) == view_signature(
            oracle.explain(**spec).view
        )


def test_implements_the_service_surface(system):
    assert isinstance(system, ServiceSurface)


def test_keys_and_views_match_before_and_after_mutations(
    system, oracle, config, mut_database
):
    assert_plans_agree(system, oracle, config)
    for target in (system, oracle):
        summary = target.ingest(new_graph(mut_database, 12), mut_database.labels[12])
        assert summary["graph_id"] == 10
    assert_plans_agree(system, oracle, config)
    for target in (system, oracle):
        target.remove(3)
    assert_plans_agree(system, oracle, config)
    assert system.planner.labels_explained() == oracle.planner.labels_explained()
    assert [result.label for result in system.results()] == [
        result.label for result in oracle.results()
    ]


@pytest.mark.parametrize("kind,num_shards", [("service", 1), ("router", 2)])
def test_cache_key_is_pinned(kind, num_shards, mut_database, config):
    model = GNNClassifier(feature_dim=14, num_classes=2, hidden_dim=8, num_layers=2, seed=1)
    built = build(kind, mut_database.to_dict(), model, config, num_shards)
    try:
        request = ExplainRequest(algorithm="approx", label=1, config=config, max_nodes=6)
        assert built.planner.cache_key(request) == PINNED_KEY
    finally:
        built.close()
