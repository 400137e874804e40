"""One row type, one codec, one ``explain_rows``/``assemble`` protocol.

Every explainer splits ``explain_label`` into per-graph rows and one
assembly.  A row depends on its graph alone, so rows computed by separate
explainers over any partition of the graphs, put back in input order and
assembled once, must give the single-pass view — in process, and after the
rows crossed a process boundary as JSON.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import create_explainer
from repro.api.replication import view_signature
from repro.core import Configuration
from repro.core.explanation import ExplanationRow, ExplanationSubgraph, assemble_view_from_rows
from repro.exceptions import ExplanationError
from repro.graphs import GraphPattern


@pytest.fixture(scope="module")
def rows_config():
    return Configuration(theta=0.08).with_default_bound(0, 8)


@pytest.mark.parametrize(
    ("algorithm", "name"),
    [("approx", "ApproxGVEX"), ("stream", "StreamGVEX"), ("random", "Random")],
    ids=["approx", "stream", "random"],
)
@pytest.mark.parametrize("wire", [False, True], ids=["objects", "wire"])
def test_rows_from_separate_explainers_assemble_to_explain_label(
    algorithm, name, wire, trained_mut_model, mut_database, rows_config
):
    graphs = mut_database.graphs[:12]
    expected = create_explainer(algorithm, trained_mut_model, config=rows_config).explain_label(
        graphs, 1
    )
    rows = []
    for chunk in (graphs[8:], graphs[:3], graphs[3:8]):
        explainer = create_explainer(algorithm, trained_mut_model, config=rows_config)
        rows += explainer.explain_rows(chunk, 1)
    assert rows
    position = {graph.graph_id: index for index, graph in enumerate(graphs)}
    rows.sort(key=lambda row: position[row.graph_id])
    assembler = create_explainer(algorithm, trained_mut_model, config=rows_config)
    start = time.perf_counter()
    if wire:
        payloads = json.loads(json.dumps([row.to_dict() for row in rows]))
        graphs_by_id = {graph.graph_id: graph for graph in graphs}
        assembled = assemble_view_from_rows(payloads, 1, graphs_by_id, assembler, start)
    else:
        assembled = assembler.assemble(rows, 1, start)
    # Both tiers non-empty, so the signature comparison cannot pass on an
    # empty tier.
    assert assembled.subgraphs
    assert assembled.patterns
    assert view_signature(assembled) == view_signature(expected)
    assert assembled.metadata["algorithm"] == name
    assert assembled.metadata["runtime_seconds"] >= 0.0


class TestRowCodec:
    def test_round_trip_keeps_every_field(self, mut_database):
        graph = mut_database[0]
        pattern = GraphPattern()
        pattern.add_node(0, "C")
        subgraph = ExplanationSubgraph(
            graph, {0, 1}, 1, explainability=0.25, consistent=True, counterfactual=False
        )
        row = ExplanationRow(graph.graph_id, 1, subgraph, [pattern], runtime_seconds=0.5)
        payload = json.loads(json.dumps(row.to_dict()))
        restored = ExplanationRow.from_dict(payload, graph)
        assert restored.to_dict() == row.to_dict()
        assert restored.subgraph.source_graph is graph

    def test_a_row_without_a_subgraph_stays_without_one(self, mut_database):
        graph = mut_database[0]
        payload = ExplanationRow(graph.graph_id, 0, None).to_dict()
        assert payload["nodes"] is None and payload["explainability"] is None
        assert ExplanationRow.from_dict(payload, graph).subgraph is None

    def test_json_numbers_come_back_unchanged(self, mut_database):
        # view_signature hashes the JSON: an int must not turn into a float.
        graph = mut_database[0]
        payload = ExplanationRow(graph.graph_id, 1, ExplanationSubgraph(graph, {0}, 1, 0)).to_dict()
        assert ExplanationRow.from_dict(payload, graph).subgraph.explainability == 0
        assert type(ExplanationRow.from_dict(payload, graph).subgraph.explainability) is int

    def test_assembly_refuses_a_row_of_an_unknown_graph(
        self, trained_mut_model, mut_database, rows_config
    ):
        graph = mut_database[0]
        payload = ExplanationRow(404, 1, None).to_dict()
        explainer = create_explainer("stream", trained_mut_model, config=rows_config)
        with pytest.raises(ExplanationError, match="not in the assembling database"):
            assemble_view_from_rows(
                [payload], 1, {graph.graph_id: graph}, explainer, time.perf_counter()
            )


def test_a_stream_view_sums_its_rows_streaming_cost(trained_mut_model, mut_database, rows_config):
    """One stream runtime law for maintained, routed and assembled views;
    ``start`` is not read (a wall time from 0.0 would be the uptime)."""
    explainer = create_explainer("stream", trained_mut_model, config=rows_config)
    rows = explainer.explain_rows(mut_database.graphs[:6], 1)
    assert rows
    view = explainer.assemble(rows, 1, 0.0)
    assert view.metadata["runtime_seconds"] == sum(row.runtime_seconds for row in rows)
