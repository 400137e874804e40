"""Property tests for the bit-packed coverage kernels (PR 7 tentpole).

The packed fast path of :mod:`repro.core.quality` must be *bit-identical* to
the boolean-mask oracle by construction: every float score is computed from
integer popcounts that must equal the oracle's boolean counts exactly.  These
tests fuzz that claim at three levels — the raw pack/unpack/popcount
helpers (including the odd-tail widths where padding bugs live), the
word-level AND / AND-NOT counting idiom the coverage deltas use, and the
public ``GraphAnalysis`` / ``CoverageState`` scores against the boolean-mask
``ReferenceGraphAnalysis`` / ``ReferenceCoverageState`` oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Configuration, GraphAnalysis
from repro.core.oracles import ReferenceGraphAnalysis
from repro.core.quality import pack_rows, unpack_bits, word_popcounts
from repro.gnn import GNNClassifier
from repro.graphs import Graph

from tests.conftest import build_random_typed_graph

# Widths straddling the uint64 word boundary: empty, single bit, one word
# minus/exactly/plus one bit, two-word tails, and a several-word case.
_WIDTHS = [0, 1, 63, 64, 65, 127, 128, 200]

mask_params = st.tuples(
    st.sampled_from(_WIDTHS),
    st.integers(min_value=1, max_value=6),       # rows
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),  # fill density (empty/full included)
)


def _random_mask(width: int, rows: int, seed: int, density: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((rows, width)) < density


@settings(max_examples=60, deadline=None)
@given(mask_params)
def test_pack_unpack_roundtrip(params):
    width, rows, seed, density = params
    mask = _random_mask(width, rows, seed, density)
    packed = pack_rows(mask)
    assert packed.dtype == np.uint64
    assert packed.shape == (rows, (width + 63) // 64)
    for row in range(rows):
        np.testing.assert_array_equal(unpack_bits(packed[row], width), mask[row])


@settings(max_examples=60, deadline=None)
@given(mask_params)
def test_word_popcounts_match_boolean_row_sums(params):
    width, rows, seed, density = params
    mask = _random_mask(width, rows, seed, density)
    packed = pack_rows(mask)
    per_row = word_popcounts(packed).sum(axis=1)
    np.testing.assert_array_equal(per_row, mask.sum(axis=1))


@settings(max_examples=60, deadline=None)
@given(mask_params)
def test_packed_and_andnot_counts_match_boolean(params):
    """The coverage-delta idiom: popcount(new & ~covered) over packed words.

    ``~covered`` flips the pad bits of the final word to 1, so the identity
    relies on the other operand's pad bits being 0 — exactly how
    ``CoverageState`` uses it.  Fuzz that exact expression shape.
    """
    width, rows, seed, density = params
    influence = _random_mask(width, rows, seed, density)
    covered = _random_mask(width, 1, seed + 1, 1.0 - density)[0]
    packed_influence = pack_rows(influence)
    packed_covered = pack_rows(covered[None, :])[0]
    for row in range(rows):
        newly = packed_influence[row] & ~packed_covered
        expected = int(np.count_nonzero(influence[row] & ~covered))
        assert int(word_popcounts(newly).sum()) == expected
        # Union-then-count, the diversity-delta shape.
        union = np.bitwise_or.reduce(packed_influence, axis=0) | packed_covered
        assert int(word_popcounts(union).sum()) == int(
            np.count_nonzero(influence.any(axis=0) | covered)
        )


@pytest.fixture(scope="module")
def model():
    return GNNClassifier(feature_dim=3, num_classes=2, hidden_dim=6, num_layers=2, seed=21)


analysis_params = st.tuples(
    st.integers(min_value=4, max_value=12),       # graph size
    st.integers(min_value=0, max_value=10_000),   # seed
    st.sampled_from([0.02, 0.1, 0.2]),            # theta
    st.sampled_from([0.0, 0.5, 1.0]),             # gamma
)


@settings(max_examples=25, deadline=None)
@given(analysis_params, st.data())
def test_scores_bit_identical_across_backends(model, params, data):
    num_nodes, seed, theta, gamma = params
    graph = build_random_typed_graph(num_nodes, seed=seed)
    config = Configuration(theta=theta, radius=0.3, gamma=gamma)
    subset = data.draw(st.sets(st.sampled_from(graph.nodes), max_size=num_nodes))
    results = {}
    for analysis_class in (GraphAnalysis, ReferenceGraphAnalysis):
        analysis = analysis_class(model, graph, config)
        results[analysis_class] = (
            analysis.influence_score(subset),
            analysis.diversity_score(subset),
            analysis.explainability(subset),
            analysis.influenced_nodes(subset),
        )
    assert results[GraphAnalysis] == results[ReferenceGraphAnalysis]


@settings(max_examples=20, deadline=None)
@given(analysis_params)
def test_coverage_state_greedy_trace_identical_across_backends(model, params):
    """Replay a full greedy trace (batch_gains -> gain -> commit) per backend.

    The packed ``CoverageState`` must reproduce the oracle's floats bit for
    bit at every step, not just on final totals — this is the exact call
    sequence the CELF loop issues.
    """
    num_nodes, seed, theta, gamma = params
    graph = build_random_typed_graph(num_nodes, seed=seed)
    config = Configuration(theta=theta, radius=0.3, gamma=gamma)
    traces = {}
    for analysis_class in (GraphAnalysis, ReferenceGraphAnalysis):
        analysis = analysis_class(model, graph, config)
        coverage = analysis.reset_coverage()
        trace = []
        selected: set[int] = set()
        for _ in range(min(4, num_nodes)):
            remaining = [node for node in graph.nodes if node not in selected]
            gains = coverage.batch_gains(remaining)
            best = max(range(len(remaining)), key=lambda slot: (gains[slot], -remaining[slot]))
            node = remaining[best]
            trace.append((tuple(gains.tolist()), coverage.gain(node), coverage.commit(node)))
            selected.add(node)
        trace.append(coverage.explainability())
        traces[analysis_class] = trace
    assert traces[GraphAnalysis] == traces[ReferenceGraphAnalysis]


def test_empty_graph_scores_match_the_boolean_oracle(model):
    """An empty graph has no packed words; every score stays the oracle's zero."""
    config = Configuration()
    results = {}
    for analysis_class in (GraphAnalysis, ReferenceGraphAnalysis):
        analysis = analysis_class(model, Graph(), config)
        coverage = analysis.reset_coverage([0])
        results[analysis_class] = (
            analysis.influence_score([0]),
            analysis.diversity_score([0]),
            analysis.explainability([0]),
            analysis.marginal_gains(set(), [0, 1]).tolist(),
            coverage.explainability(),
            coverage.batch_gains([0, 1]).tolist(),
            coverage.gain(0),
            coverage.gain_upper_bound(1),
            coverage.commit(0),
        )
    assert results[GraphAnalysis] == results[ReferenceGraphAnalysis]
    assert results[GraphAnalysis] == (0, 0, 0.0, [0.0, 0.0], 0.0, [0.0, 0.0], 0.0, 0.0, 0.0)
