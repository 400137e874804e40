"""The batched ``VpExtend`` frontier against the per-node reference loop.

``EVerify.vp_extend`` answers a whole greedy frontier with one
``predict_subsets`` call over the consistency probes (and one more over the
residuals under strict verification).
:class:`~repro.core.oracles.ReferenceEVerify` answers node by node, one
materialised ``G[nodes]`` probe per question.  The verdicts must agree on
every frontier shape the explainers produce: empty, single and many-node
frontiers, extensions around ``min_check_size``, repeated ``node_order``
entries, candidates whose residual is empty, and graphs mutated after their
CSR cache was built.
"""

import numpy as np
import pytest

from repro.core import Configuration
from repro.core.approx import ApproxGVEX
from repro.core.oracles import ReferenceApproxGVEX, ReferenceEVerify
from repro.core.verification import EVerify
from repro.datasets import load_dataset
from repro.gnn import GNNClassifier
from repro.gnn.training import Trainer

MODES = ("none", "consistent", "strict")
MIN_CHECK_SIZE = 4
FRONTIER_SIZE = 16


@pytest.fixture(scope="module")
def syn_case():
    database = load_dataset("SYN", num_graphs=4, seed=2, base_size=70)
    model = GNNClassifier(feature_dim=8, num_classes=2, hidden_dim=16, num_layers=3, seed=0)
    Trainer(model, learning_rate=0.01, epochs=10, seed=0).fit(
        database, train_indices=list(range(len(database)))
    )
    return model, database.graphs[:2]


def mutated_copy(model, graph):
    """A copy of ``graph`` that gains a node and an edge after a probe has
    built its CSR cache, so its verdicts must come from the new version."""
    mutated = graph.copy()
    EVerify(model).predict(mutated)
    new_node = max(mutated.nodes) + 1
    mutated.add_node(new_node, "C", features=np.full(model.feature_dim, 0.5))
    mutated.add_edge(new_node, mutated.nodes[0])
    return mutated


@pytest.fixture(params=["MUT", "SYN"])
def case(request, trained_mut_model, mut_database, syn_case):
    if request.param == "MUT":
        return trained_mut_model, mut_database.graphs[:2]
    return syn_case


def selections(graph) -> dict[str, set[int]]:
    nodes = graph.nodes
    return {
        "empty": set(),
        # A new node extends these to one below / exactly at min_check_size.
        "below_check": set(nodes[: MIN_CHECK_SIZE - 2]),
        "at_check": set(nodes[: MIN_CHECK_SIZE - 1]),
        "spread": set(nodes[1:14:2]),
        # Extending by nodes[0] gives the whole graph: an empty residual.
        "all_but_one": set(nodes[1:]),
    }


def frontiers(graph, selected: set[int]) -> list[list[int]]:
    outside = [node for node in graph.nodes if node not in selected]
    # The many-node frontier repeats selected nodes, as a repeated
    # ``node_order`` entry does in the stream pass, and ends on the last
    # node (the one a mutated copy gained).
    return [[], outside[:1], graph.nodes[:FRONTIER_SIZE] + outside[:2] + outside[-1:]]


@pytest.mark.parametrize("mode", MODES)
def test_frontier_verdicts_equal_the_per_node_loop(case, mode):
    model, graphs = case
    config = Configuration(verification_mode=mode, min_check_size=MIN_CHECK_SIZE)
    batched, per_node = EVerify(model), ReferenceEVerify(model)
    for graph in [*graphs, mutated_copy(model, graphs[0])]:
        for selected in selections(graph).values():
            for frontier in frontiers(graph, selected):
                for label in (0, 1):
                    expected = per_node.vp_extend(graph, frontier, selected, label, config)
                    assert batched.vp_extend(graph, frontier, selected, label, config) == expected
                    assert len(expected) == len(frontier)


@pytest.mark.parametrize("mode", MODES)
def test_frontier_edge_cases(case, mode):
    model, graphs = case
    config = Configuration(verification_mode=mode, min_check_size=MIN_CHECK_SIZE)
    everify = EVerify(model)
    graph = graphs[0]
    chosen = selections(graph)
    label = everify.predict(graph)
    outside = graph.nodes[-1]

    # One below min_check_size passes unprobed, whatever the label.
    for probe_label in (0, 1):
        below = everify.vp_extend(graph, [outside], chosen["below_check"], probe_label, config)
        assert below == [True]

    # A node already selected extends to ``selected`` itself.
    spread = chosen["spread"]
    inside = min(spread)
    if mode != "none":
        expected = everify.is_consistent(graph, spread, label)
        if mode == "strict":
            expected = expected and everify.is_counterfactual(graph, spread, label)
        assert everify.vp_extend(graph, [inside], spread, label, config) == [expected]

    # The whole graph is consistent with its own label, and its residual is
    # empty, so it reads counterfactual under strict verification.
    first = graph.nodes[0]
    assert everify.vp_extend(graph, [first], chosen["all_but_one"], label, config) == [True]


@pytest.mark.parametrize("explainer_class", [ApproxGVEX, ReferenceApproxGVEX])
def test_growth_never_asks_past_the_upper_bound(case, explainer_class, monkeypatch):
    """The greedy budget stops before an extension could exceed ``u_l``,
    so ``VpExtend`` itself carries no size check."""
    model, graphs = case
    upper = 5
    config = Configuration(verification_mode="none").with_default_bound(0, upper)
    explainer = explainer_class(model, config)
    asked = []
    vp_extend = explainer.everify.vp_extend

    def recording(graph, nodes, selected, label, config):
        asked.extend(len(selected | {node}) for node in nodes)
        return vp_extend(graph, nodes, selected, label, config)

    monkeypatch.setattr(explainer.everify, "vp_extend", recording)
    for graph in graphs:
        subgraph = explainer.explain_graph(graph)
        assert subgraph is not None and len(subgraph.nodes) <= upper
    assert asked and max(asked) == upper


@pytest.mark.parametrize("mode", MODES)
def test_one_batched_probe_per_frontier(case, mode, monkeypatch):
    model, graphs = case
    config = Configuration(verification_mode=mode, min_check_size=MIN_CHECK_SIZE)
    graph = graphs[0]
    calls = []
    predict_subsets = model.predict_subsets

    def counting(graph, node_sets):
        calls.append(len(node_sets))
        return predict_subsets(graph, node_sets)

    def refuse(*args, **kwargs):
        raise AssertionError("single probe reached")

    monkeypatch.setattr(model, "predict_subsets", counting)
    monkeypatch.setattr(model, "predict_node_subset", refuse)
    selected = selections(graph)["spread"]
    frontier = graph.nodes[:FRONTIER_SIZE]
    EVerify(model).vp_extend(graph, frontier, selected, model.predict(graph), config)
    if mode == "none":
        assert calls == []
    else:
        # The repeated entries share one probe of ``selected`` itself.
        assert calls[0] == len(set(frontier) - selected) + 1
        assert len(calls) <= (2 if mode == "strict" else 1)


def test_one_set_batch_probe_equals_the_single_probe(case):
    """A one-set ``predict_subsets`` runs the sequential single-subset path,
    so a one-candidate frontier reads the same logits as a lone probe."""
    model, graphs = case
    for graph in graphs:
        nodes = graph.nodes
        for subset in (nodes[:1], nodes[:5], nodes[::2], nodes):
            logits = model.subsets_logits(graph, [subset])
            np.testing.assert_array_equal(logits[0], model._subset_logits(graph, subset))
            assert model.predict_subsets(graph, [subset]) == [
                model.predict_node_subset(graph, subset)
            ]
