"""The one-pass subset gather behind batched EVerify probes.

``BatchedGraphView.from_subsets`` builds the block-diagonal CSR and the
stacked feature rows of many node subsets of one graph in a single
vectorised gather.  It must equal the per-block construction entry for
entry, and the probe logits built on it must not move by a single bit.
"""

import random

import numpy as np
import pytest

from repro.gnn import GNNClassifier
from repro.gnn.models import _BATCH_MIN_ROWS
from repro.graphs.sparse import BatchedGraphView
from repro.graphs.subgraph import induced_subgraph
from tests.conftest import build_random_typed_graph

scipy_sparse = pytest.importorskip("scipy.sparse")


@pytest.fixture(scope="module")
def graph():
    return build_random_typed_graph(40, seed=3)


def per_block_csr(view, row_sets):
    """Block-stacked ``adjacency[rows][:, rows]``, one scipy slice per block."""
    adjacency = view.scipy_adjacency()
    blocks = [adjacency[rows][:, rows] for rows in row_sets]
    stacked = scipy_sparse.block_diag(blocks, format="csr") if blocks else None
    if stacked is None or not len(stacked.indices):
        total = sum(len(rows) for rows in row_sets)
        return np.zeros(total + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    stacked.sort_indices()
    return stacked.indptr, stacked.indices


def from_row_sets(view, row_sets):
    stacked = np.concatenate([np.zeros(0, dtype=np.int64)] + [np.asarray(rows) for rows in row_sets])
    return BatchedGraphView.from_subsets(view, stacked, [len(rows) for rows in row_sets])


def subset_cases(view):
    rng = np.random.default_rng(7)
    n = view.num_nodes
    random_sets = [np.sort(rng.choice(n, size=size, replace=False)) for size in (3, 9, 17, 25)]
    return {
        "random": random_sets,
        "empty": [np.zeros(0, dtype=np.int64), random_sets[0], np.zeros(0, dtype=np.int64)],
        "singleton": [np.array([5]), np.array([0]), np.array([n - 1])],
        "full-graph": [np.arange(n), random_sets[1], np.arange(n)],
        "non-contiguous": [np.arange(0, n, 3), np.arange(1, n, 7), np.array([2, 19, 38])],
        "repeated-set": [random_sets[2], random_sets[2], random_sets[2]],
        "only-empty": [np.zeros(0, dtype=np.int64)],
    }


class TestOnePassGather:
    @pytest.mark.parametrize(
        "case",
        ["random", "empty", "singleton", "full-graph", "non-contiguous", "repeated-set", "only-empty"],
    )
    def test_csr_matches_per_block_construction(self, graph, case):
        view = graph.sparse_view()
        row_sets = subset_cases(view)[case]
        batch = from_row_sets(view, row_sets)
        indptr, indices = per_block_csr(view, row_sets)
        assert np.array_equal(batch.indptr, indptr)
        assert np.array_equal(batch.indices, indices)

    @pytest.mark.parametrize("case", ["random", "empty", "full-graph", "non-contiguous"])
    def test_features_are_the_stacked_block_rows(self, graph, case):
        view = graph.sparse_view()
        row_sets = subset_cases(view)[case]
        batch = from_row_sets(view, row_sets)
        features = view.feature_matrix(3)
        expected = np.concatenate([features[rows] for rows in row_sets], axis=0)
        assert np.array_equal(batch.feature_matrix(3), expected)

    def test_random_subsets_of_many_graphs(self):
        rng = random.Random(11)
        for seed in range(6):
            view = build_random_typed_graph(rng.randint(8, 60), seed=seed).sparse_view()
            row_sets = [
                np.array(sorted(rng.sample(range(view.num_nodes), rng.randint(0, view.num_nodes))))
                for _ in range(rng.randint(1, 12))
            ]
            batch = from_row_sets(view, row_sets)
            indptr, indices = per_block_csr(view, row_sets)
            assert np.array_equal(batch.indptr, indptr)
            assert np.array_equal(batch.indices, indices)


class TestSubsetsLogits:
    @pytest.fixture(scope="class", params=["gcn", "gin", "sage"])
    def model(self, request):
        return GNNClassifier(
            feature_dim=3, num_classes=2, hidden_dim=8, num_layers=3, conv=request.param, seed=4
        )

    def test_bit_identical_to_the_per_block_batch(self, model, graph):
        rng = random.Random(5)
        nodes = list(graph.nodes)
        node_sets = [set(rng.sample(nodes, rng.randint(1, len(nodes)))) for _ in range(12)]
        node_sets += [set(), set(nodes), {nodes[4]}]
        # Unsorted ids with repeats dedupe exactly as a set would.
        node_sets.append([nodes[9], nodes[2], nodes[9], nodes[30], nodes[2]])
        assert sum(len(node_set) for node_set in node_sets) >= _BATCH_MIN_ROWS
        view = graph.sparse_view()
        # The batch as built block by block: per-set sorted rows, a scipy
        # slice per block, feature rows concatenated per block.
        blocks = [
            (view, np.fromiter(sorted({view.index[node] for node in node_set}), dtype=np.int64))
            for node_set in node_sets
        ]
        per_block = BatchedGraphView(
            [len(rows) for _, rows in blocks], *per_block_csr(view, [rows for _, rows in blocks]), blocks
        )
        expected = model._batched_logits(per_block)
        assert np.array_equal(model.subsets_logits(graph, node_sets), expected)

    def test_matches_materialised_subgraphs(self, model, graph):
        rng = random.Random(9)
        nodes = list(graph.nodes)
        node_sets = [rng.sample(nodes, rng.randint(2, len(nodes))) for _ in range(10)]
        assert sum(len(node_set) for node_set in node_sets) >= _BATCH_MIN_ROWS
        batched = model.subsets_logits(graph, node_sets)
        for row, node_set in zip(batched, node_sets):
            np.testing.assert_allclose(
                row, model.predict_logits(induced_subgraph(graph, node_set)), atol=1e-10
            )
