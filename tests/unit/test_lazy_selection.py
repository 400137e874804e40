"""Lazy-greedy (CELF) selection: equivalence with the eager reference loops.

The CELF engine must be *output-identical* to the eager greedy loops of
:mod:`repro.core.oracles` — same explanation node sets, same explainability
— across tier-1 datasets, seeds, and both kernel sets under the eager loops:
``sparse`` runs them over the production EVerify and analysis, ``legacy``
over the reference ones (the oracle classes as they ship).  Production
scores the tie-breaks and the counterfactual swap loop from probe families
in one batched pass; the eager loops probe one subset at a time, so these
tests also pin the family kernel against per-subset probes.  The
incremental coverage state and the LRU cache are pinned here too.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core import Configuration, GraphAnalysis, LRUCache
from repro.core.approx import ApproxGVEX
from repro.core.oracles import (
    ReferenceApproxGVEX,
    ReferenceEVerify,
    ReferenceGraphAnalysis,
    ReferenceStreamGVEX,
)
from repro.core.streaming import StreamGVEX
from repro.core.selection import lazy_greedy_select
from repro.datasets import load_dataset
from repro.gnn import GNNClassifier, Trainer

from tests.conftest import on_production_kernels

TIER1_DATASETS = ("MUT", "SYN", "RED")
SEEDS = (3, 11)

_DATASET_KWARGS = {
    "MUT": {"num_graphs": 8},
    # Large enough that the batched-inference row gate engages (the MUT
    # fixtures stay below it, covering the sequential path).
    "SYN": {"num_graphs": 6, "base_size": 32},
    "RED": {"num_graphs": 6, "base_size": 14},
}


@lru_cache(maxsize=None)
def _context(dataset: str, seed: int):
    database = load_dataset(dataset, seed=seed, **_DATASET_KWARGS[dataset])
    stats = database.statistics()
    model = GNNClassifier(
        feature_dim=max(1, int(stats["feature_dim"])),
        num_classes=max(2, len(database.class_labels())),
        hidden_dim=16,
        num_layers=3,
        seed=0,
    )
    Trainer(model, epochs=15, seed=seed).fit(database)
    return database, model


def _eager(oracle_class, sparse: bool):
    """The oracle class, over the production kernels when ``sparse``."""
    return on_production_kernels(oracle_class) if sparse else oracle_class


def _view_fingerprint(view):
    return (
        [sorted(subgraph.nodes) for subgraph in view.subgraphs],
        view.explainability,
    )


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("dataset", TIER1_DATASETS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "legacy"])
    def test_approx_views_identical(self, dataset, seed, sparse):
        database, model = _context(dataset, seed)
        config = Configuration(theta=0.08).with_default_bound(0, 8)
        label = model.predict(database[0])
        lazy = ApproxGVEX(model, config).explain_label(database.graphs, label)
        eager = _eager(ReferenceApproxGVEX, sparse)(model, config).explain_label(
            database.graphs, label
        )
        assert _view_fingerprint(lazy)[0] == _view_fingerprint(eager)[0]
        assert lazy.explainability == eager.explainability

    @pytest.mark.parametrize("dataset", TIER1_DATASETS)
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "legacy"])
    def test_approx_lower_bound_topup_identical(self, dataset, sparse):
        """A positive lower bound exercises the backup bookkeeping + top-up."""
        database, model = _context(dataset, SEEDS[0])
        config = Configuration(theta=0.08).with_default_bound(5, 8)
        label = model.predict(database[0])
        lazy = ApproxGVEX(model, config).explain_label(database.graphs, label)
        eager = _eager(ReferenceApproxGVEX, sparse)(model, config).explain_label(
            database.graphs, label
        )
        assert _view_fingerprint(lazy)[0] == _view_fingerprint(eager)[0]
        assert lazy.explainability == eager.explainability

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "legacy"])
    def test_streaming_topup_identical(self, seed, sparse):
        """StreamGVEX's post-stream lower-bound top-up uses the CELF engine."""
        database, model = _context("MUT", seed)
        config = Configuration(theta=0.08, seed=seed).with_default_bound(4, 6)
        label = model.predict(database[0])
        lazy = StreamGVEX(model, config, batch_size=4).explain_label(database.graphs, label)
        eager = _eager(ReferenceStreamGVEX, sparse)(model, config, batch_size=4).explain_label(
            database.graphs, label
        )
        assert _view_fingerprint(lazy)[0] == _view_fingerprint(eager)[0]
        assert lazy.explainability == eager.explainability

    @pytest.mark.parametrize("mode", ["none", "strict"])
    def test_verification_modes_identical(self, mode):
        """The lazy loop re-verifies deferred candidates per round in every
        verification mode, matching the eager loop."""
        database, model = _context("MUT", SEEDS[0])
        config = Configuration(theta=0.08, verification_mode=mode).with_default_bound(0, 6)
        label = model.predict(database[0])
        lazy = ApproxGVEX(model, config).explain_label(database.graphs, label)
        eager = ReferenceApproxGVEX(model, config).explain_label(database.graphs, label)
        assert _view_fingerprint(lazy)[0] == _view_fingerprint(eager)[0]

    def test_cross_backend_views_identical(self):
        """The CELF loops agree on either kernel set."""
        database, model = _context("MUT", SEEDS[0])
        config = Configuration(theta=0.08).with_default_bound(0, 8)
        label = model.predict(database[0])

        class LazyOnReferenceKernels(ApproxGVEX):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                self.everify = ReferenceEVerify(self.model)

            def _build_analysis(self, graph):
                return ReferenceGraphAnalysis(self.model, graph, self.config)

        sparse_view = ApproxGVEX(model, config).explain_label(database.graphs, label)
        legacy_view = LazyOnReferenceKernels(model, config).explain_label(database.graphs, label)
        assert _view_fingerprint(sparse_view)[0] == _view_fingerprint(legacy_view)[0]
        assert sparse_view.explainability == legacy_view.explainability


class TestCoverageState:
    def _analysis(self):
        database, model = _context("MUT", SEEDS[0])
        return GraphAnalysis(model, database[1], Configuration(theta=0.08)), database[1]

    def test_batch_gains_match_marginal_gains(self):
        analysis, graph = self._analysis()
        state = analysis.reset_coverage()
        candidates = graph.nodes
        expected = analysis.marginal_gains(set(), candidates)
        np.testing.assert_array_equal(state.batch_gains(candidates), expected)

    def test_gain_matches_marginal_gain_after_commits(self):
        analysis, graph = self._analysis()
        nodes = graph.nodes
        state = analysis.reset_coverage()
        selected: set[int] = set()
        for pick in nodes[:4]:
            state.commit(pick)
            selected.add(pick)
        for candidate in nodes[4:10]:
            assert state.gain(candidate) == analysis.marginal_gain(selected, candidate)

    def test_commit_returns_realised_gain(self):
        analysis, graph = self._analysis()
        node = graph.nodes[0]
        state = analysis.reset_coverage()
        expected = analysis.marginal_gain(set(), node)
        assert state.commit(node) == expected
        assert state.explainability() == analysis.explainability({node})

    def test_gain_upper_bound_is_valid_stale_bound(self):
        """Stale bounds never underestimate the current gain (submodularity)."""
        analysis, graph = self._analysis()
        nodes = graph.nodes
        state = analysis.reset_coverage()
        state.batch_gains(nodes)
        for pick in nodes[:5]:
            state.commit(pick)
            for candidate in nodes[5:12]:
                stale = state.gain_upper_bound(candidate)
                assert stale >= state.gain(candidate)

    def test_seeded_state_matches_explainability(self):
        analysis, graph = self._analysis()
        seed_set = set(graph.nodes[:6])
        state = analysis.reset_coverage(seed_set)
        assert state.explainability() == analysis.explainability(seed_set)

    def test_analysis_level_commit_and_bound(self):
        analysis, graph = self._analysis()
        node = graph.nodes[0]
        analysis.reset_coverage()
        bound = analysis.gain_upper_bound(node)
        assert analysis.commit(node) == bound  # first commit realises the bound


class TestLazyGreedySelectEngine:
    def test_respects_budget_and_verification(self):
        analysis, graph = TestCoverageState()._analysis()
        blocked = {graph.nodes[0], graph.nodes[1]}
        selected = lazy_greedy_select(
            analysis,
            graph.nodes,
            set(),
            4,
            lambda nodes, current: [node not in blocked for node in nodes],
            lambda tied, current: min(tied),
        )
        assert len(selected) == 4
        assert not (selected & blocked)

    def test_all_candidates_failing_selects_nothing(self):
        analysis, graph = TestCoverageState()._analysis()
        selected = lazy_greedy_select(
            analysis,
            graph.nodes,
            set(),
            4,
            lambda nodes, current: [False] * len(nodes),
            lambda tied, current: min(tied),
        )
        assert selected == set()

    def test_backup_collects_passing_frontier(self):
        analysis, graph = TestCoverageState()._analysis()
        backup: set[int] = set()
        lazy_greedy_select(
            analysis,
            graph.nodes,
            set(),
            2,
            lambda nodes, current: [True] * len(nodes),
            lambda tied, current: min(tied),
            backup=backup,
        )
        assert backup == set(graph.nodes)


class TestLRUCache:
    def test_eviction_order(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables_storage(self):
        cache: LRUCache[str, int] = LRUCache(0)
        cache.put("a", 1)
        assert "a" not in cache
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_stats(self):
        cache: LRUCache[str, int] = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}
