"""Statistical and identity properties of the sampled objective layer.

Two guarantees the estimator kernels declare, checked across seeds:

1. **Bounds hold** — for any node subset, the sampled influence fraction is
   within the *achieved* epsilon of the exact influence fraction, and the
   sampled diversity fraction within epsilon of its conditional estimand
   (the quantity it actually estimates; see the module docstring of
   :mod:`repro.core.sampling`).  Sample sizes are union-bounded over the
   population, so a single violation is a ~``delta / n`` event — an
   estimator bug, not noise.
2. **Sub-threshold identity** — graphs at or below ``sample_threshold``
   route to the plain exact analysis under ``objective="sampled"`` and
   select node-for-node identically to the exact configuration.

A third test re-scores the sampled selection under the exact objective.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core import Configuration
from repro.core.quality import GraphAnalysis
from repro.core.sampling import SampledGraphAnalysis, build_analysis
from repro.core.selection import lazy_greedy_select
from repro.gnn import GNNClassifier
from repro.graphs.generators import attach_motif, barabasi_albert_graph, house_motif

SEEDS = (0, 1, 7, 23, 101)
BUDGET = 6

SAMPLED_CONFIG = Configuration(
    objective="sampled", sample_budget=128, epsilon=0.25, delta=0.1
)


@pytest.fixture(scope="module")
def model():
    return GNNClassifier(feature_dim=8, num_classes=2, hidden_dim=16, num_layers=2, seed=13)


def make_graph(num_nodes: int, seed: int):
    rng = random.Random(seed)
    graph = barabasi_albert_graph(num_nodes, 2, rng, node_type="base", feature_dim=8)
    attach_motif(graph, house_motif(), rng)
    graph.graph_id = 1000 + seed
    return graph


def greedy_nodes(analysis, budget: int) -> frozenset:
    return frozenset(
        lazy_greedy_select(
            analysis,
            list(analysis.node_list),
            set(),
            budget,
            vp_extend_many=lambda nodes, selected: [True] * len(nodes),
            choose_tied=lambda nodes, selected: min(nodes),
        )
    )


def subsets_under_test(graph, seed: int):
    """A spread of subset shapes: singletons, mid-size random, large random."""
    rng = random.Random(seed * 7919 + 3)
    nodes = list(graph.nodes)
    yield [nodes[0]]
    yield rng.sample(nodes, 5)
    yield rng.sample(nodes, 25)
    yield rng.sample(nodes, len(nodes) // 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_influence_estimates_land_inside_the_declared_bound(model, seed):
    graph = make_graph(420, seed)
    sampled = build_analysis(model, graph, replace(SAMPLED_CONFIG, seed=seed))
    assert isinstance(sampled, SampledGraphAnalysis)
    exact = GraphAnalysis(model, graph, replace(SAMPLED_CONFIG, seed=seed))
    population = graph.num_nodes()
    for subset in subsets_under_test(graph, seed):
        estimate = sampled.influence_fraction(subset)
        truth = exact.influence_score(subset) / population
        assert abs(estimate - truth) <= sampled.achieved_epsilon, (
            f"influence estimate {estimate:.4f} vs exact {truth:.4f} "
            f"outside epsilon={sampled.achieved_epsilon:.4f} (seed {seed})"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_diversity_estimates_land_inside_the_declared_bound(model, seed):
    graph = make_graph(420, seed)
    sampled = build_analysis(model, graph, replace(SAMPLED_CONFIG, seed=seed))
    assert isinstance(sampled, SampledGraphAnalysis)
    for subset in subsets_under_test(graph, seed):
        estimate = sampled.diversity_fraction(subset)
        estimand = sampled.conditional_diversity_fraction(subset)
        assert abs(estimate - estimand) <= sampled.achieved_epsilon, (
            f"diversity estimate {estimate:.4f} vs conditional estimand "
            f"{estimand:.4f} outside epsilon={sampled.achieved_epsilon:.4f} "
            f"(seed {seed})"
        )


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_sub_threshold_selection_is_identical_to_exact(model, seed):
    graph = make_graph(80, seed)  # below the default sample_threshold of 256
    sampled_config = replace(SAMPLED_CONFIG, seed=seed)
    exact_config = replace(Configuration(), seed=seed)
    routed = build_analysis(model, graph, sampled_config)
    assert type(routed) is GraphAnalysis
    reference = GraphAnalysis(model, graph, exact_config)
    assert greedy_nodes(routed, BUDGET) == greedy_nodes(reference, BUDGET)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_sampled_selection_quality_is_close_to_exact(model, seed):
    """End-to-end sanity: the sampled greedy run, re-scored under the exact
    objective, keeps most of the exact greedy value even at the loose test
    epsilon."""
    graph = make_graph(420, seed)
    sampled = build_analysis(model, graph, replace(SAMPLED_CONFIG, seed=seed))
    exact = GraphAnalysis(model, graph, replace(Configuration(), seed=seed))
    sampled_value = exact.explainability(sorted(greedy_nodes(sampled, BUDGET)))
    exact_value = exact.explainability(sorted(greedy_nodes(exact, BUDGET)))
    assert sampled_value >= 0.75 * exact_value
