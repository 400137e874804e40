"""Quality measures: feature influence, neighbourhood diversity, explainability.

Implements equations 2-6 of the paper.  All scores for one source graph are
computed through a :class:`GraphAnalysis` object that performs the expensive
model work once (influence matrix ``I2`` and last-layer embeddings) and then
answers set-function queries ``I(Vs)``, ``D(Vs)`` and marginal gains in time
linear in the graph size — this is the "once-for-all inference" of
ApproxGVEX line 2.  The model work lands in an immutable
:class:`AnalysisCore`, which :func:`repro.core.sampling.build_analysis`
shares between the analyses of an unchanged graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.config import Configuration
from repro.gnn.influence import normalized_influence_matrix
from repro.gnn.models import GNNClassifier
from repro.graphs.graph import Graph

__all__ = [
    "AnalysisCore",
    "CoverageState",
    "GraphAnalysis",
    "pack_rows",
    "unpack_bits",
    "word_popcounts",
    "view_explainability",
]

# ----------------------------------------------------------------------
# bit-packed mask kernels
# ----------------------------------------------------------------------
# Boolean coverage masks are (also) stored as uint64 word matrices so the
# hot set-coverage counts become vectorized popcounts over packed AND/ANDN
# words.  Packing uses ``np.packbits(..., bitorder="little")`` and a raw
# byte reinterpretation, so pack/unpack are exact inverses and every count
# equals the boolean oracle's ``.sum()`` by construction — the float score
# expressions downstream therefore stay bit-for-bit identical.

_WORD_BITS = 64

if hasattr(np, "bitwise_count"):

    def word_popcounts(words: np.ndarray) -> np.ndarray:
        """Per-word popcounts of a uint64 array (any shape)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - numpy < 2.0 fallback
    _BYTE_POPCOUNTS = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

    def word_popcounts(words: np.ndarray) -> np.ndarray:
        """Per-word popcounts of a uint64 array (any shape)."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _BYTE_POPCOUNTS[as_bytes].reshape(words.shape + (8,)).sum(axis=-1)


def pack_rows(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(rows, n)`` matrix into ``(rows, ceil(n/64))`` words."""
    rows, width = mask.shape
    words = (width + _WORD_BITS - 1) // _WORD_BITS
    if width == 0:
        return np.zeros((rows, 0), dtype=np.uint64)
    packed_bytes = np.packbits(mask, axis=1, bitorder="little")
    pad = words * 8 - packed_bytes.shape[1]
    if pad:
        packed_bytes = np.concatenate(
            [packed_bytes, np.zeros((rows, pad), dtype=np.uint8)], axis=1
        )
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`pack_rows` for one word row: boolean vector of ``count``."""
    if count == 0:
        return np.zeros(0, dtype=bool)
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), count=count, bitorder="little").astype(bool)


def _popcount(words: np.ndarray) -> int:
    return int(word_popcounts(words).sum())


def _or_reduce_rows(packed: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """OR of the selected packed rows (``rows`` must be non-empty)."""
    return np.bitwise_or.reduce(packed[rows], axis=0)


class CoverageState:
    """Incremental coverage bookkeeping for one growing seed set.

    The Eq.-2 objective is a weighted sum of two coverage functions — the
    influenced-node set (Eq. 5) and the union of embedding neighbourhoods of
    the influenced nodes (Eq. 6).  Both are monotone submodular, so a greedy
    loop never needs to re-derive them from scratch: this object keeps the
    covered-node masks (as uint64 words) and the integer coverage counts of
    the committed seed set, answers a candidate's exact marginal gain as a
    popcount of *newly* covered rows, and folds a pick in with
    :meth:`commit` in time proportional to the rows that actually changed.

    Gains are computed with exactly the same float expression as
    :meth:`GraphAnalysis.marginal_gain` (score-after minus score-before with
    integer counts), so they are bit-identical to the eager loop's values —
    the property the CELF selection engine relies on for identical output.
    The boolean-mask form is :class:`repro.core.oracles.ReferenceCoverageState`.
    """

    __slots__ = ("_analysis", "_covered", "_neigh_covered", "_influence", "_diversity", "_bounds")

    def __init__(self, analysis: "GraphAnalysis", selected: Iterable[int] = ()) -> None:
        self._analysis = analysis
        positions = analysis._positions(selected)
        influence_words = analysis._packed_influence()
        if positions:
            self._covered = _or_reduce_rows(influence_words, np.asarray(positions))
        else:
            self._covered = np.zeros(influence_words.shape[1], dtype=np.uint64)
        self._influence = _popcount(self._covered)
        if self._influence:
            rows = np.flatnonzero(unpack_bits(self._covered, len(analysis.node_list)))
            self._neigh_covered = _or_reduce_rows(analysis._packed_neighbourhood(), rows)
        else:
            self._neigh_covered = np.zeros(influence_words.shape[1], dtype=np.uint64)
        self._diversity = _popcount(self._neigh_covered)
        # Last exact gain computed per node — a valid stale upper bound on the
        # node's current gain because coverage gains only shrink as the
        # committed set grows (submodularity).
        self._bounds: dict[int, float] = {}

    # ------------------------------------------------------------------
    # scores
    # ------------------------------------------------------------------
    def _score(self, influence: int, diversity: int) -> float:
        total = len(self._analysis.node_list)
        if total == 0:
            return 0.0
        return (influence + self._analysis.config.gamma * diversity) / total

    def explainability(self) -> float:
        """Eq.-2 score of the committed seed set."""
        return self._score(self._influence, self._diversity)

    def _delta_counts(self, position: int) -> tuple[int, int, np.ndarray]:
        analysis = self._analysis
        newly = analysis._packed_influence()[position] & ~self._covered
        added = _popcount(newly)
        new_influence = self._influence + added
        if added:
            rows = np.flatnonzero(unpack_bits(newly, len(analysis.node_list)))
            neigh = _or_reduce_rows(analysis._packed_neighbourhood(), rows)
            new_diversity = self._diversity + _popcount(neigh & ~self._neigh_covered)
        else:
            new_diversity = self._diversity
        return new_influence, new_diversity, newly

    def _fold(self, newly: np.ndarray) -> None:
        """OR newly influenced rows and their neighbourhoods into the masks."""
        rows = np.flatnonzero(unpack_bits(newly, len(self._analysis.node_list)))
        self._covered |= newly
        self._neigh_covered |= _or_reduce_rows(self._analysis._packed_neighbourhood(), rows)

    # ------------------------------------------------------------------
    # gains
    # ------------------------------------------------------------------
    def gain(self, node: int) -> float:
        """Exact marginal Eq.-2 gain of adding ``node`` to the committed set.

        Also refreshes the node's stale bound (see :meth:`gain_upper_bound`).
        """
        position = self._analysis._index.get(node)
        if position is None:
            value = 0.0
        else:
            new_influence, new_diversity, _ = self._delta_counts(position)
            value = self._score(new_influence, new_diversity) - self.explainability()
        self._bounds[node] = value
        return value

    def batch_gains(self, candidates: Sequence[int]) -> np.ndarray:
        """Exact marginal gains of every candidate (one vectorized pass).

        Values are element-wise identical to :meth:`gain`.  Stale bounds are
        *not* recorded here — the CELF engine keeps its own heap of stale
        gains, so per-candidate dict writes in this hot call would be dead
        weight; :meth:`gain_upper_bound` computes lazily on first use instead.
        """
        analysis = self._analysis
        total = len(analysis.node_list)
        gains = np.zeros(len(candidates))
        if total == 0 or not len(candidates):
            return gains
        slots, positions = analysis._known(candidates)
        if not slots.size:
            return gains
        # Newly-covered words per candidate (ANDN), influence counts as
        # popcounts; the diversity delta only needs the neighbourhood rows
        # of the *newly* influenced nodes OR'd against the covered union, so
        # candidates that add nothing are free.
        new_words = analysis._packed_influence()[positions] & ~self._covered[None, :]
        influence_counts = self._influence + word_popcounts(new_words).sum(axis=1)
        neighbourhood = analysis._packed_neighbourhood()
        diversity_counts = np.full(slots.size, self._diversity, dtype=np.int64)
        for row in range(slots.size):
            words = new_words[row]
            if words.any():
                rows = np.flatnonzero(unpack_bits(words, total))
                union = _or_reduce_rows(neighbourhood, rows)
                diversity_counts[row] = self._diversity + _popcount(union & ~self._neigh_covered)
        scores = (influence_counts + analysis.config.gamma * diversity_counts) / total
        gains[slots] = scores - self.explainability()
        return gains

    def gain_upper_bound(self, node: int) -> float:
        """Stale upper bound on ``node``'s current gain (lazily initialised).

        Returns the gain last computed for the node; if the node was never
        scored, computes (and caches) its exact gain now.
        """
        cached = self._bounds.get(node)
        if cached is None:
            cached = self.gain(node)
        return cached

    # ------------------------------------------------------------------
    # committing a pick
    # ------------------------------------------------------------------
    def commit(self, node: int) -> float:
        """Fold ``node`` into the committed set; returns the realised gain.

        Only the rows the pick newly covers are touched, so a commit costs
        O(changed) instead of a full objective re-evaluation.
        """
        position = self._analysis._index.get(node)
        if position is None:
            return 0.0
        before = self.explainability()
        new_influence, new_diversity, newly = self._delta_counts(position)
        if new_influence != self._influence:
            self._fold(newly)
        self._influence = new_influence
        self._diversity = new_diversity
        self._bounds.pop(node, None)
        return self.explainability() - before


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class AnalysisCore:
    """The label-independent structures of one exact analysis.

    The influenced-by mask (Eq. 5, ``I2 >= theta``), the total influence
    each node exerts and the embedding-neighbourhood mask (Eq. 6,
    normalised distance ``<= r``) depend only on the graph, the fixed GNN
    and ``theta`` / ``r`` — not on the label or its bound — so one core
    serves every analysis of an unchanged graph.  Every array is
    read-only; the uint64 word-packed copies of the two masks are built
    on first use and kept.
    """

    __slots__ = (
        "influence_mask",
        "neighbourhood_mask",
        "exerted_influence",
        "_packed_influence",
        "_packed_neighbourhood",
    )

    def __init__(
        self,
        influence_mask: np.ndarray,
        neighbourhood_mask: np.ndarray,
        exerted_influence: np.ndarray,
    ) -> None:
        self.influence_mask = _read_only(influence_mask)
        self.neighbourhood_mask = _read_only(neighbourhood_mask)
        self.exerted_influence = _read_only(exerted_influence)
        self._packed_influence: np.ndarray | None = None
        self._packed_neighbourhood: np.ndarray | None = None

    @classmethod
    def compute(cls, influence: np.ndarray, embeddings: np.ndarray, config: Configuration) -> "AnalysisCore":
        """Threshold ``I2`` and the embedding distances of a non-empty graph.

        ``influence[u, v]`` is the share of node v's sensitivity
        attributable to node u (Eq. 4); ``embeddings`` are the last-layer
        node representations, row-aligned with it.
        """
        # Embedding distances for the diversity term (Eq. 6), normalised to
        # [0, 1] so the radius threshold is scale-free.
        differences = embeddings[:, None, :] - embeddings[None, :, :]
        distances = np.linalg.norm(differences, axis=2)
        max_distance = distances.max()
        if max_distance > 0:
            distances = distances / max_distance
        return cls(
            # influenced-by mask (Eq. 5): entry [u, v] true when u influences v.
            influence >= config.theta,
            distances <= config.radius,
            # Total influence each node exerts over the graph; the algorithms
            # use it to break ties between candidates with identical gain.
            influence.sum(axis=1),
        )

    @classmethod
    def empty(cls) -> "AnalysisCore":
        """The core of a graph without nodes."""
        return cls(np.zeros((0, 0), dtype=bool), np.zeros((0, 0), dtype=bool), np.zeros(0))

    def packed_influence(self) -> np.ndarray:
        """uint64 word-packed copy of the influenced-by mask."""
        if self._packed_influence is None:
            self._packed_influence = _read_only(pack_rows(self.influence_mask))
        return self._packed_influence

    def packed_neighbourhood(self) -> np.ndarray:
        """uint64 word-packed copy of the embedding-neighbourhood mask."""
        if self._packed_neighbourhood is None:
            self._packed_neighbourhood = _read_only(pack_rows(self.neighbourhood_mask))
        return self._packed_neighbourhood


class GraphAnalysis:
    """Influence/diversity structures for one graph, plus per-request state.

    The model work (``I2``, the embeddings and the masks thresholded from
    them) is an immutable :class:`AnalysisCore`; the coverage state of a
    greedy run and the memo of scored subsets belong to this instance.
    Constructing the class directly always computes a fresh core.
    :func:`repro.core.sampling.build_analysis`, the factory every
    production explainer calls, instead passes the core cached on the
    graph's :class:`~repro.graphs.sparse.SparseGraphView` under the key
    (model architecture and weights digest, ``theta``, ``radius``,
    ``influence_method``).  Any graph mutation moves ``Graph.version`` and
    so retires the view together with its cores.  A core holds about
    ``2 * n**2`` bytes of boolean masks (about 23 KB at ``n = 106``), below
    the ``n**2`` float64 operator the view already keeps for probes.

    Parameters
    ----------
    model, graph, config:
        The fixed GNN, the source graph, and the GVEX configuration whose
        ``theta`` / ``radius`` / ``gamma`` thresholds the scores use.
    core:
        A core previously computed for this graph, model, ``theta``,
        ``radius`` and ``influence_method``; computed here when ``None``.
    """

    #: The incremental coverage state :meth:`reset_coverage` builds.
    coverage_state: type = CoverageState

    def __init__(
        self,
        model: GNNClassifier,
        graph: Graph,
        config: Configuration,
        core: AnalysisCore | None = None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.node_list = graph.nodes
        self._index = {node: position for position, node in enumerate(self.node_list)}
        if core is None:
            if self.node_list:
                core = AnalysisCore.compute(
                    self._normalized_influence(model, graph), model.node_embeddings(graph), config
                )
            else:
                core = AnalysisCore.empty()
        self.core = core
        self._influence_mask = core.influence_mask
        self._neighbourhood_mask = core.neighbourhood_mask
        self._exerted_influence = core.exerted_influence

        # Lazily built float copy of the neighbourhood mask (batched
        # diversity via one matrix product); only the batched marginal
        # gains read it, so it stays per instance.
        self._neighbourhood_float_cache: np.ndarray | None = None
        # Memo of Eq.-2 scores per queried seed set: the streaming swap loop re-evaluates the same selected/reduced subsets
        # for every arriving node, so this turns most of IncUpdateVS's
        # objective calls into dict hits.
        self._subset_scores: dict[frozenset[int], float] = {}
        self._coverage: CoverageState | None = None

    def _normalized_influence(self, model: GNNClassifier, graph: Graph) -> np.ndarray:
        """``I2`` (Eq. 4) from the configured estimator."""
        return normalized_influence_matrix(model, graph, method=self.config.influence_method)

    # ------------------------------------------------------------------
    # low-level accessors
    # ------------------------------------------------------------------
    @property
    def _neighbourhood_float(self) -> np.ndarray:
        """Float copy used to batch-evaluate diversity via one matrix product."""
        if self._neighbourhood_float_cache is None:
            self._neighbourhood_float_cache = self._neighbourhood_mask.astype(float)
        return self._neighbourhood_float_cache

    def _packed_influence(self) -> np.ndarray:
        """uint64 word-packed copy of the influenced-by mask."""
        return self.core.packed_influence()

    def _packed_neighbourhood(self) -> np.ndarray:
        """uint64 word-packed copy of the embedding-neighbourhood mask."""
        return self.core.packed_neighbourhood()

    def _packed_counts(self, positions: Sequence[int]) -> tuple[int, int]:
        """``(I, D)`` integer counts of a non-empty seed position set."""
        influenced = _or_reduce_rows(self._packed_influence(), np.asarray(positions))
        influence = _popcount(influenced)
        if influence == 0:
            return 0, 0
        rows = np.flatnonzero(unpack_bits(influenced, len(self.node_list)))
        neighbourhood = _or_reduce_rows(self._packed_neighbourhood(), rows)
        return influence, _popcount(neighbourhood)
    def _positions(self, nodes: Iterable[int]) -> list[int]:
        return [self._index[node] for node in nodes if node in self._index]

    def influenced_nodes(self, seed_nodes: Iterable[int]) -> set[int]:
        """Nodes of the graph influenced by the seed set (Eq. 5's set)."""
        positions = self._positions(seed_nodes)
        if not positions:
            return set()
        mask = self._influence_mask[positions].any(axis=0)
        return {self.node_list[i] for i in np.flatnonzero(mask)}

    def influence_score(self, seed_nodes: Iterable[int]) -> int:
        """``I(Vs)``: number of nodes influenced by the seed set (Eq. 5)."""
        positions = self._positions(seed_nodes)
        if not positions:
            return 0
        return self._packed_counts(positions)[0]

    def diversity_score(self, seed_nodes: Iterable[int]) -> int:
        """``D(Vs)``: size of the union of embedding neighbourhoods of the
        influenced nodes (Eq. 6)."""
        positions = self._positions(seed_nodes)
        if not positions:
            return 0
        return self._packed_counts(positions)[1]

    # ------------------------------------------------------------------
    # the explainability objective
    # ------------------------------------------------------------------
    def explainability(self, seed_nodes: Iterable[int]) -> float:
        """Per-graph contribution ``(I(Vs) + gamma * D(Vs)) / |V|`` (Eq. 2)."""
        total_nodes = len(self.node_list)
        if total_nodes == 0:
            return 0.0
        key = frozenset(seed_nodes)
        cached = self._subset_scores.get(key)
        if cached is None:
            positions = self._positions(key)
            if positions:
                influence, diversity = self._packed_counts(positions)
            else:
                influence = diversity = 0
            cached = (influence + self.config.gamma * diversity) / total_nodes
            if len(self._subset_scores) >= 8192:
                self._subset_scores.clear()
            self._subset_scores[key] = cached
        return cached

    def exerted_influence(self, node: int) -> float:
        """Total normalised influence ``sum_v I2(node, v)`` the node exerts.

        Rounded to 9 places, like the gains: the algorithms break ties on
        it, and a tie must not depend on the summation order of the
        influence kernel.
        """
        position = self._index.get(node)
        if position is None:
            return 0.0
        return round(float(self._exerted_influence[position]), 9)

    def marginal_gain(self, selected: set[int], candidate: int) -> float:
        """Explainability gain of adding ``candidate`` to ``selected``."""
        return self.explainability(selected | {candidate}) - self.explainability(selected)

    def marginal_gains(self, selected: Iterable[int], candidates: Sequence[int]) -> np.ndarray:
        """Explainability gains of adding each candidate to ``selected``.

        Batched form of :meth:`marginal_gain`: the influenced sets of all
        candidates are evaluated as one boolean matrix and the diversity term
        as one matrix product, instead of two full objective evaluations per
        candidate.  The influence/diversity counts are integers, so the gains
        are bit-identical to the per-candidate loop of
        :class:`repro.core.oracles.ReferenceGraphAnalysis`.
        """
        positions = self._positions(selected)
        if positions:
            return self._mask_gains(self._influence_mask[positions].any(axis=0), candidates)
        return self._mask_gains(np.zeros(len(self.node_list), dtype=bool), candidates)

    def _known(self, candidates: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, positions)`` of the candidates that are graph nodes."""
        known = [(slot, self._index[node]) for slot, node in enumerate(candidates) if node in self._index]
        return (
            np.array([slot for slot, _ in known], dtype=np.intp),
            np.array([position for _, position in known], dtype=np.intp),
        )

    def _mask_gains(self, covered: np.ndarray, candidates: Sequence[int]) -> np.ndarray:
        """Gains of each candidate over the boolean influenced-node mask ``covered``."""
        total_nodes = len(self.node_list)
        gains = np.zeros(len(candidates))
        slots, positions = self._known(candidates)
        if total_nodes == 0 or not slots.size:
            return gains
        base_influence = int(covered.sum())
        base_diversity = int((covered @ self._neighbourhood_float > 0).sum()) if base_influence else 0
        base_score = (base_influence + self.config.gamma * base_diversity) / total_nodes
        influenced = covered[None, :] | self._influence_mask[positions]
        influence_counts = influenced.sum(axis=1)
        diversity_counts = (influenced @ self._neighbourhood_float > 0).sum(axis=1)
        scores = (influence_counts + self.config.gamma * diversity_counts) / total_nodes
        gains[slots] = scores - base_score
        return gains

    # ------------------------------------------------------------------
    # incremental coverage state (CELF support)
    # ------------------------------------------------------------------
    def reset_coverage(self, selected: Iterable[int] = ()) -> CoverageState:
        """Start a fresh :class:`CoverageState` seeded with ``selected``.

        The returned state is also installed as the analysis's *current*
        coverage, which :meth:`commit` / :meth:`gain_upper_bound` act on.
        """
        self._coverage = self.coverage_state(self, selected)
        return self._coverage

    def _current_coverage(self) -> CoverageState:
        if self._coverage is None:
            self._coverage = self.coverage_state(self)
        return self._coverage

    def commit(self, node: int) -> float:
        """Fold ``node`` into the current coverage state (realised gain)."""
        return self._current_coverage().commit(node)

    def gain_upper_bound(self, node: int) -> float:
        """Stale upper bound on ``node``'s marginal gain (see CELF)."""
        return self._current_coverage().gain_upper_bound(node)

    def loss_of_removal(self, selected: set[int], node: int) -> float:
        """Explainability lost by removing ``node`` from ``selected``."""
        return self.explainability(selected) - self.explainability(selected - {node})

    def num_nodes(self) -> int:
        return len(self.node_list)


def view_explainability(analyses: Sequence[GraphAnalysis], node_sets: Sequence[Iterable[int]]) -> float:
    """Aggregate explainability ``f`` of an explanation view (Eq. 2).

    ``analyses`` and ``node_sets`` are aligned: entry ``i`` is the analysis of
    source graph ``G_i`` and the node set of its explanation subgraph.
    """
    if len(analyses) != len(node_sets):
        raise ValueError("analyses and node_sets must be aligned")
    return float(sum(analysis.explainability(nodes) for analysis, nodes in zip(analyses, node_sets)))
