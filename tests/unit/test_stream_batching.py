"""Batched stream swaps vs the per-node reference pass.

``StreamGVEX`` processes each arriving batch in one go: primed VpExtend
verdicts, swap-first IncUpdateVS and short-circuit novelty probes.
:class:`~repro.core.oracles.ReferenceStreamGVEX` runs the paper-literal
per-node loop.  The two must produce *identical* views — same node sets,
same patterns, same explainability — on every input; these tests pin that
across stream seeds, both kernel sets under the per-node loop and both
``ViewMaintainer`` label sources.
"""

import pytest

from repro.core import Configuration
from repro.core.maintenance import ViewMaintainer
from repro.core.oracles import ReferenceStreamGVEX
from repro.core.streaming import StreamGVEX
from repro.graphs.database import GraphDatabase

from tests.conftest import on_production_kernels

CONFIG = Configuration(theta=0.08).with_default_bound(0, 8)


def _view_signature(view) -> tuple:
    return (
        view.label,
        [sorted(subgraph.nodes) for subgraph in view.subgraphs],
        sorted(pattern.canonical_key() for pattern in view.patterns),
        round(view.explainability, 12),
    )


def _stream_signatures(explainer_class, model, database, seed) -> list[tuple]:
    explainer = explainer_class(model, CONFIG, batch_size=5, seed=seed)
    labels = sorted({model.predict(graph) for graph in database.graphs})
    return [
        _view_signature(explainer.explain_label(database.graphs, label))
        for label in labels
    ]


@pytest.mark.parametrize("seed", [0, 7])
def test_batched_equals_per_node_stream(trained_mut_model, mut_database, seed):
    batched = _stream_signatures(StreamGVEX, trained_mut_model, mut_database, seed)
    per_node = _stream_signatures(ReferenceStreamGVEX, trained_mut_model, mut_database, seed)
    assert batched == per_node


def test_batched_equals_per_node_on_both_backends(trained_mut_model, mut_database):
    """The per-node pass agrees with the batched one on either kernel set."""
    batched = _stream_signatures(StreamGVEX, trained_mut_model, mut_database, seed=0)
    for per_node_class in (ReferenceStreamGVEX, on_production_kernels(ReferenceStreamGVEX)):
        assert _stream_signatures(per_node_class, trained_mut_model, mut_database, seed=0) == batched


@pytest.mark.parametrize("label_source", ["predicted", "stored"])
def test_maintainer_views_identical_across_batching(
    trained_mut_model, mut_database, label_source
):
    """Views repaired delta by delta equal a reference-pass recompute."""
    graphs = mut_database.graphs
    labels = mut_database.labels
    split = len(graphs) - 4
    database = GraphDatabase("mut-live")
    for graph, label in zip(graphs[:split], labels[:split]):
        database.add_graph(graph.copy(), label)
    live = ViewMaintainer(
        trained_mut_model, CONFIG, batch_size=5, label_source=label_source
    ).attach(database)
    for graph, label in zip(graphs[split:], labels[split:]):
        database.add_graph(graph.copy(), label)
    live.detach()

    recompute = ViewMaintainer(
        processor=ReferenceStreamGVEX(trained_mut_model, CONFIG, batch_size=5),
        label_source=label_source,
    ).attach(database)
    recompute.detach()
    assert live.maintained_labels() == recompute.maintained_labels()
    for label in live.maintained_labels():
        assert _view_signature(live.view_for(label)) == _view_signature(
            recompute.view_for(label)
        )
