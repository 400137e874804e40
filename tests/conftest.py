"""Shared fixtures: small graphs, datasets, and a trained classifier.

Expensive fixtures (dataset construction, model training) are session-scoped
so the whole suite trains each model once.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import Configuration
from repro.core.sampling import build_analysis
from repro.core.verification import EVerify
from repro.datasets import make_mutagenicity, make_reddit_binary
from repro.gnn import GNNClassifier, Trainer
from repro.graphs import Graph


def build_triangle_graph() -> Graph:
    """A 3-node typed triangle with simple features."""
    graph = Graph(graph_id=0)
    graph.add_node(0, "A", [1.0, 0.0])
    graph.add_node(1, "B", [0.0, 1.0])
    graph.add_node(2, "A", [1.0, 0.0])
    graph.add_edge(0, 1, "x")
    graph.add_edge(1, 2, "x")
    graph.add_edge(0, 2, "y")
    return graph


def build_path_graph(length: int = 5, feature_dim: int = 2) -> Graph:
    """A typed path graph of the requested length."""
    graph = Graph(graph_id=1)
    for node in range(length):
        features = np.zeros(feature_dim)
        features[node % feature_dim] = 1.0
        graph.add_node(node, "P", features)
    for node in range(length - 1):
        graph.add_edge(node, node + 1)
    return graph


def build_random_typed_graph(num_nodes: int, seed: int = 0, num_types: int = 3) -> Graph:
    """A connected random typed graph used by property-based tests."""
    rng = random.Random(seed)
    graph = Graph()
    for node in range(num_nodes):
        features = np.zeros(num_types)
        features[node % num_types] = 1.0
        graph.add_node(node, f"T{node % num_types}", features)
    for node in range(1, num_nodes):
        graph.add_edge(node, rng.randrange(node))
    extra_edges = max(0, num_nodes // 2)
    for _ in range(extra_edges):
        u, v = rng.sample(range(num_nodes), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def on_production_kernels(oracle_class: type) -> type:
    """``oracle_class``'s reference loops over the production EVerify and analysis.

    The oracle explainers of :mod:`repro.core.oracles` run the reference
    kernels as well as the reference loops; this isolates the loops.
    """

    class OnProductionKernels(oracle_class):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.everify = EVerify(self.model)

        def _build_analysis(self, graph: Graph):
            return build_analysis(self.model, graph, self.config)

    return OnProductionKernels


@pytest.fixture
def triangle_graph() -> Graph:
    return build_triangle_graph()


@pytest.fixture
def path_graph() -> Graph:
    return build_path_graph()


@pytest.fixture(scope="session")
def mut_database():
    """A small MUTAGENICITY-like database."""
    return make_mutagenicity(num_graphs=16, seed=3)


@pytest.fixture(scope="session")
def red_database():
    """A small REDDIT-BINARY-like database."""
    return make_reddit_binary(num_graphs=10, seed=3, base_size=14)


@pytest.fixture(scope="session")
def trained_mut_model(mut_database):
    """A GCN trained to high accuracy on the small MUT database."""
    model = GNNClassifier(feature_dim=14, num_classes=2, hidden_dim=16, num_layers=3, seed=5)
    trainer = Trainer(model, learning_rate=0.01, epochs=40, seed=5)
    trainer.fit(mut_database, train_indices=list(range(len(mut_database))))
    return model


@pytest.fixture(scope="session")
def untrained_small_model():
    """An untrained 2-feature classifier for structural tests."""
    return GNNClassifier(feature_dim=2, num_classes=2, hidden_dim=8, num_layers=2, seed=1)


@pytest.fixture
def default_config() -> Configuration:
    return Configuration().with_default_bound(0, 8)
