"""Sampled (approximate) objective layer for graphs past the exact regime.

Everything else in the reproduction is *exact* — bit-identical to the
paper's reference implementation — which caps the reachable graph size at
what full ``N x N`` influence matrices and ``N x N`` embedding-distance
masks can afford.  This module opens the graphs-too-big-for-exact regime
behind ``Configuration(objective="sampled", ...)``: the Eq.-2 coverage
functions are estimated from seeded, without-replacement samples of target
columns, with Hoeffding error bounds and an auto-chosen sample size (the
approximate-betweenness recipe: size the sample for the requested
``(epsilon, delta)``, cap it at the user's budget, and report the *achieved*
bound when the cap binds).

Estimator design
----------------
Both Eq.-2 coverage terms are sums of 0/1 indicators over the *target*
nodes ``x`` of the graph:

* ``I(Vs) = sum_x 1[x influenced by Vs]``            (Eq. 5)
* ``D(Vs) = sum_x 1[x within r of an influenced node]`` (Eq. 6)

so both admit classical mean estimation by column sampling:

1. **Influence** — a without-replacement sample ``A`` of ``m`` target
   nodes.  Each sampled target's full ``I2`` column is computed *exactly*
   with ``k`` sparse mat-vec passes over the propagation operator (rows of
   ``S^k``, the same estimator :func:`repro.gnn.influence.influence_matrix`
   uses for large graphs — sampling replaces the dense ``N x N`` matrix
   power with ``k * nnz * m`` work).  ``I_hat = (n/m) * |influenced(A)|``
   carries the standard Hoeffding bound for without-replacement sampling:
   ``|I_hat/n - I/n| <= epsilon`` with probability ``>= 1 - delta``.
2. **Diversity** — the influenced-node *witness* set is only known on the
   sample ``A``, so the estimand is the *conditional* diversity
   ``D_A(Vs) = sum_x 1[x within r of an influenced node in A]`` (a lower
   bound on ``D`` that every candidate is scored against consistently).
   It is estimated over an independent with-replacement column sample
   ``B``: conditioned on ``A``, the draws are i.i.d., so
   ``D_hat = (n/|B|) * |B-columns covered|`` carries the same Hoeffding
   bound *around* ``D_A``.  :meth:`SampledGraphAnalysis.conditional_diversity_fraction`
   computes the estimand exactly so tests and benchmarks can verify the
   declared bound without a full exact analysis.

The sample size is union-bounded over the population
(``m* = ceil(ln(2n/delta) / (2 epsilon^2))``), so one sample answers every
subset query of a greedy run within the bound, not just a single query.

Scope rules (enforced by :func:`build_analysis`, the factory every
explainer constructs analyses through):

* ``objective="exact"`` (default) — plain :class:`GraphAnalysis`, always.
* ``objective="sampled"`` but the graph has ``<= sample_threshold`` nodes,
  or the auto-chosen sample is not actually smaller than the population —
  plain :class:`GraphAnalysis` too: small inputs stay **bit-identical** to
  the reference no matter what the objective knob says.
* otherwise — :class:`SampledGraphAnalysis`.

The sampled path always uses the propagation influence estimator (the
exact Jacobian has no per-column form) and runs the packed uint64 popcount
kernels of :mod:`repro.core.quality`; it has no separate reference form.
"""

from __future__ import annotations

import math
import threading
import zlib
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.config import Configuration
from repro.core.quality import (
    GraphAnalysis,
    _or_reduce_rows,
    _popcount,
    pack_rows,
    unpack_bits,
)
from repro.gnn.models import GNNClassifier
from repro.graphs.graph import Graph

try:  # scipy ships with the [fast] extra; the dense fallback is exact too
    from scipy import sparse as scipy_sparse
except ImportError:  # pragma: no cover - exercised where scipy is absent
    scipy_sparse = None

__all__ = [
    "auto_sample_size",
    "achieved_epsilon",
    "build_analysis",
    "estimator_summary",
    "SampledGraphAnalysis",
    "SampledCoverageState",
    "sampling_stats",
    "reset_sampling_stats",
]


# ----------------------------------------------------------------------
# sample sizing (Hoeffding, union-bounded over the population)
# ----------------------------------------------------------------------
def auto_sample_size(population: int, epsilon: float, delta: float, budget: int) -> int:
    """Sample size for an additive ``epsilon`` bound at confidence ``1 - delta``.

    ``ceil(ln(2 * population / delta) / (2 * epsilon^2))`` — Hoeffding with a
    union bound over the population, so *every* coverage query answered from
    one sample holds simultaneously — capped by ``budget`` and by the
    population itself (sampling more columns than exist is just the exact
    computation).
    """
    if population <= 0:
        return 0
    hoeffding = math.ceil(
        math.log(2.0 * max(population, 2) / delta) / (2.0 * epsilon * epsilon)
    )
    return max(2, min(budget, population, hoeffding))


def achieved_epsilon(sample_size: int, delta: float, population: int) -> float:
    """The bound half-width a sample of ``sample_size`` actually achieves.

    Inverse of :func:`auto_sample_size`: when the budget caps the sample
    below the requested size, provenance records this (larger) epsilon
    instead of silently claiming the requested one.
    """
    if sample_size <= 0 or population <= 0:
        return 1.0
    return math.sqrt(
        math.log(2.0 * max(population, 2) / delta) / (2.0 * sample_size)
    )


# ----------------------------------------------------------------------
# process-wide estimator counters (surfaced through service stats)
# ----------------------------------------------------------------------
_STATS_LOCK = threading.Lock()


def _fresh_stats() -> dict[str, float]:
    return {
        "sampled_analyses": 0,
        "exact_fallbacks": 0,
        "last_sample_size": 0,
        "max_achieved_epsilon": 0.0,
    }


_STATS = _fresh_stats()


def sampling_stats() -> dict[str, float]:
    """Snapshot of the process-wide sampled-analysis counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_sampling_stats() -> None:
    """Zero the counters (tests and benchmark arms call this between runs)."""
    with _STATS_LOCK:
        _STATS.update(_fresh_stats())


def _record_sampled(sample_size: int, achieved: float) -> None:
    with _STATS_LOCK:
        _STATS["sampled_analyses"] += 1
        _STATS["last_sample_size"] = sample_size
        _STATS["max_achieved_epsilon"] = max(_STATS["max_achieved_epsilon"], achieved)


def _record_exact_fallback() -> None:
    with _STATS_LOCK:
        _STATS["exact_fallbacks"] += 1


# ----------------------------------------------------------------------
# the analysis factory — the one constructor the explainers call
# ----------------------------------------------------------------------
def build_analysis(model: GNNClassifier, graph: Graph, config: Configuration) -> GraphAnalysis:
    """Exact or sampled :class:`GraphAnalysis`, per the configuration's scope rules."""
    if config.objective != "sampled":
        return GraphAnalysis(model, graph, config)
    population = graph.num_nodes()
    sample_size = auto_sample_size(
        population, config.epsilon, config.delta, config.sample_budget
    )
    if population <= config.sample_threshold or sample_size >= population:
        _record_exact_fallback()
        return GraphAnalysis(model, graph, config)
    return SampledGraphAnalysis(model, graph, config, sample_size)


def estimator_summary(config: Configuration, graphs: Sequence[Graph]) -> dict | None:
    """Provenance payload describing how a request's graphs were estimated.

    Deterministic (mirrors :func:`build_analysis`'s scope rules without
    running anything), so the payload is stable across processes and safe
    to cache alongside the result.  ``None`` for exact configurations —
    provenance stays byte-identical to the pre-sampling schema there.
    """
    if config.objective != "sampled":
        return None
    sampled = 0
    exact = 0
    worst_epsilon = 0.0
    max_sample = 0
    for graph in graphs:
        population = graph.num_nodes()
        size = auto_sample_size(population, config.epsilon, config.delta, config.sample_budget)
        if population <= config.sample_threshold or size >= population:
            exact += 1
        else:
            sampled += 1
            worst_epsilon = max(worst_epsilon, achieved_epsilon(size, config.delta, population))
            max_sample = max(max_sample, size)
    return {
        "objective": "sampled",
        "sample_budget": config.sample_budget,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "sample_threshold": config.sample_threshold,
        "sampled_graphs": sampled,
        "exact_graphs": exact,
        "achieved_epsilon": round(worst_epsilon, 6),
        "max_sample_size": max_sample,
    }


# ----------------------------------------------------------------------
# estimator kernels
# ----------------------------------------------------------------------
def _seed_material(config: Configuration, graph: Graph, population: int) -> tuple[int, int, int]:
    """Stable RNG seed: configuration seed + graph identity + size.

    ``graph_id`` may be any hashable; non-int ids go through CRC32 so the
    stream is reproducible across processes (``hash()`` is salted).
    """
    graph_id = graph.graph_id
    if isinstance(graph_id, int) and not isinstance(graph_id, bool):
        token = graph_id & 0xFFFFFFFF
    else:
        token = zlib.crc32(repr(graph_id).encode("utf-8"))
    return (config.seed & 0xFFFFFFFF, token, population)


def _sampled_influence_columns(
    model: GNNClassifier, graph: Graph, positions: np.ndarray
) -> np.ndarray:
    """Exact ``I2`` columns for the sampled target positions.

    Row ``v`` of ``S^k`` is ``e_v^T S^k`` — ``k`` mat-vec passes instead of
    the dense matrix power — and the Eq.-4 normaliser ``sum_w I1(v, w)`` is
    the row's own sum, so each sampled column matches the full propagation
    estimator's column exactly (up to float association).  Runs through
    scipy CSR when available (``k * nnz * m`` work) and falls back to dense
    mat-vecs otherwise — same numbers either way, only the constant changes.
    """
    num_nodes = graph.num_nodes()
    propagation = model.propagation_matrix(graph)
    rows = np.zeros((len(positions), num_nodes))
    rows[np.arange(len(positions)), positions] = 1.0
    operator = scipy_sparse.csr_matrix(propagation) if scipy_sparse is not None else None
    for _ in range(model.num_layers):
        if operator is not None:
            rows = (operator.T @ rows.T).T  # rows @ S, computed sparse-side
        else:
            rows = rows @ propagation
    scale = 1.0
    for layer in model.conv_layers:
        weight = layer.params.get("weight")
        if weight is None:
            weight = layer.params.get("weight_neigh")
        scale *= max(np.abs(weight).sum(axis=0).max(), 1e-12)
    raw = np.abs(rows) * scale  # raw[j, u] = I1[v_j, u]
    totals = raw.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return (raw / totals).T  # [u, j] = I2[u, v_j]


def _max_pairwise_distance(embeddings: np.ndarray) -> float:
    """Global max embedding distance (the Eq.-6 normaliser), via the Gram trick.

    ``O(n^2)`` floats instead of the exact path's ``O(n^2 d)`` difference
    tensor — the one full-pairwise quantity the sampled path still needs.
    """
    squares = np.einsum("ij,ij->i", embeddings, embeddings)
    gram = embeddings @ embeddings.T
    d2 = squares[:, None] + squares[None, :] - 2.0 * gram
    return math.sqrt(max(float(d2.max()), 0.0))


def _distance_block(embeddings: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise distances between two node-position subsets (Gram trick)."""
    a = embeddings[rows]
    b = embeddings[cols]
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    d2 = sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


# ----------------------------------------------------------------------
# one sample arm: packed masks + incremental coverage counts
# ----------------------------------------------------------------------
class _SampleArm:
    """Immutable packed masks of one (influence, diversity) sample pair."""

    __slots__ = (
        "influence_packed",
        "influence_bool",
        "neigh_packed",
        "neigh_float",
        "sample_size",
        "diversity_size",
        "gamma",
    )

    def __init__(
        self, influence_mask: np.ndarray, witness_neigh_mask: np.ndarray, gamma: float
    ) -> None:
        # influence_mask: (N, m) bool — [u, j] true when source u influences
        # sampled target j.  witness_neigh_mask: (m, m_d) bool — [i, j] true
        # when diversity column j lies within radius of sampled target i.
        self.sample_size = influence_mask.shape[1]
        self.diversity_size = witness_neigh_mask.shape[1]
        self.influence_packed = pack_rows(influence_mask)
        self.neigh_packed = pack_rows(witness_neigh_mask)
        # Bool/float32 copies back the vectorized batch_gains: counts stay
        # below 2^24, so float32 accumulation is exact and the BLAS product
        # replaces a per-candidate python union loop.
        self.influence_bool = np.ascontiguousarray(influence_mask)
        self.neigh_float = np.ascontiguousarray(witness_neigh_mask, dtype=np.float32)
        self.gamma = gamma


class _ArmState:
    """Mutable coverage counters of one arm for one growing seed set.

    The packed algebra is :class:`~repro.core.quality.CoverageState`'s, with
    the column dimension the *sample* rather than the full node set and the
    score denominators the two sample sizes (the score is the estimated
    population *fraction* ``I_hat/n + gamma * D_hat/n``).
    """

    __slots__ = ("arm", "covered", "neigh_covered", "influence", "diversity")

    def __init__(self, arm: _SampleArm, positions: Sequence[int]) -> None:
        self.arm = arm
        if positions:
            self.covered = _or_reduce_rows(arm.influence_packed, np.asarray(positions))
        else:
            self.covered = np.zeros(arm.influence_packed.shape[1], dtype=np.uint64)
        self.influence = _popcount(self.covered)
        if self.influence:
            rows = np.flatnonzero(unpack_bits(self.covered, arm.sample_size))
            self.neigh_covered = _or_reduce_rows(arm.neigh_packed, rows)
        else:
            self.neigh_covered = np.zeros(arm.neigh_packed.shape[1], dtype=np.uint64)
        self.diversity = _popcount(self.neigh_covered)

    def score(self) -> float:
        return (
            self.influence / self.arm.sample_size
            + self.arm.gamma * self.diversity / self.arm.diversity_size
        )

    def _delta_counts(self, position: int) -> tuple[int, int, np.ndarray]:
        arm = self.arm
        newly = arm.influence_packed[position] & ~self.covered
        added = _popcount(newly)
        new_influence = self.influence + added
        if added:
            rows = np.flatnonzero(unpack_bits(newly, arm.sample_size))
            union = _or_reduce_rows(arm.neigh_packed, rows)
            new_diversity = self.diversity + _popcount(union & ~self.neigh_covered)
        else:
            new_diversity = self.diversity
        return new_influence, new_diversity, newly

    def gain(self, position: int) -> float:
        new_influence, new_diversity, _ = self._delta_counts(position)
        return (new_influence - self.influence) / self.arm.sample_size + self.arm.gamma * (
            new_diversity - self.diversity
        ) / self.arm.diversity_size

    def batch_gains(self, positions: np.ndarray) -> np.ndarray:
        arm = self.arm
        covered_bool = unpack_bits(self.covered, arm.sample_size)
        newly = arm.influence_bool[positions] & ~covered_bool[None, :]
        influence_counts = self.influence + newly.sum(axis=1)
        # Per-candidate neighbourhood unions as one (C, m) x (m, m_d) BLAS
        # product: a column is newly reachable when any newly covered witness
        # neighbours it and it is not reachable from the current coverage.
        reached = newly.astype(np.float32) @ arm.neigh_float > 0
        available = ~unpack_bits(self.neigh_covered, arm.diversity_size)
        diversity_counts = self.diversity + (reached & available[None, :]).sum(axis=1)
        scores = (
            influence_counts / arm.sample_size
            + arm.gamma * diversity_counts / arm.diversity_size
        )
        return scores - self.score()

    def commit(self, position: int) -> float:
        before = self.score()
        new_influence, new_diversity, newly = self._delta_counts(position)
        if new_influence != self.influence:
            rows = np.flatnonzero(unpack_bits(newly, self.arm.sample_size))
            self.covered |= newly
            self.neigh_covered |= _or_reduce_rows(self.arm.neigh_packed, rows)
        self.influence = new_influence
        self.diversity = new_diversity
        return self.score() - before


class SampledCoverageState:
    """Sampled counterpart of :class:`~repro.core.quality.CoverageState`.

    Exposes the same incremental-gain surface the CELF engine drives
    (``batch_gains`` / ``gain`` / ``gain_upper_bound`` / ``commit`` /
    ``explainability``) plus the two hooks the sampled selection semantics
    add:

    * ``gain_tolerance`` — the confidence-interval width within which two
      estimated gains are statistically indistinguishable (one sample-count
      quantum); the CELF engine widens its tie collection by it.
    * ``reverify_gains(nodes)`` — fresh-sample re-verification of a tie
      set: gains recomputed on the disjoint *holdout* sample and pooled
      with the primary estimate, weighted by sample size.  More data, so
      statistical ties usually break before the deterministic tie-breaker
      has to decide.
    """

    __slots__ = ("_analysis", "_primary", "_holdout", "_bounds", "gain_tolerance")

    def __init__(self, analysis: "SampledGraphAnalysis", selected: Iterable[int] = ()) -> None:
        self._analysis = analysis
        positions = analysis._positions(selected)
        self._primary = _ArmState(analysis._primary_arm, positions)
        self._holdout = (
            _ArmState(analysis._holdout_arm, positions)
            if analysis._holdout_arm is not None
            else None
        )
        self._bounds: dict[int, float] = {}
        self.gain_tolerance = analysis.gain_tolerance

    def explainability(self) -> float:
        return self._primary.score()

    def gain(self, node: int) -> float:
        position = self._analysis._index.get(node)
        value = 0.0 if position is None else self._primary.gain(position)
        self._bounds[node] = value
        return value

    def batch_gains(self, candidates: Sequence[int]) -> np.ndarray:
        analysis = self._analysis
        gains = np.zeros(len(candidates))
        if not len(candidates):
            return gains
        slots, positions = analysis._known(candidates)
        if not slots.size:
            return gains
        gains[slots] = self._primary.batch_gains(positions)
        return gains

    def gain_upper_bound(self, node: int) -> float:
        cached = self._bounds.get(node)
        if cached is None:
            cached = self.gain(node)
        return cached

    def reverify_gains(self, nodes: Sequence[int]) -> dict[int, float]:
        """Pooled fresh-sample gains for a statistically tied candidate set."""
        pooled: dict[int, float] = dict.fromkeys(nodes, 0.0)
        analysis = self._analysis
        known = [
            (node, analysis._index[node]) for node in nodes if node in analysis._index
        ]
        if not known:
            return pooled
        positions = np.array([position for _, position in known])
        values = self._primary.batch_gains(positions)
        if self._holdout is not None:
            primary_weight = self._primary.arm.sample_size
            holdout_weight = self._holdout.arm.sample_size
            fresh = self._holdout.batch_gains(positions)
            values = (primary_weight * values + holdout_weight * fresh) / (
                primary_weight + holdout_weight
            )
        for (node, _), value in zip(known, values):
            pooled[node] = float(value)
        return pooled

    def commit(self, node: int) -> float:
        position = self._analysis._index.get(node)
        if position is None:
            return 0.0
        realised = self._primary.commit(position)
        if self._holdout is not None:
            self._holdout.commit(position)
        self._bounds.pop(node, None)
        return realised


# ----------------------------------------------------------------------
# the sampled analysis
# ----------------------------------------------------------------------
class SampledGraphAnalysis(GraphAnalysis):
    """Drop-in :class:`GraphAnalysis` whose scores are sampled estimates.

    Construction cost is ``O(k * nnz * m + n * m)`` instead of the exact
    path's ``O(n^3)`` matrix power and ``O(n^2 d)`` distance tensor; every
    query (marginal gains, explainability, coverage state) runs over ``m``
    packed columns instead of ``n``.  Integer-count queries
    (:meth:`influence_score` / :meth:`diversity_score`) return the scaled
    estimates rounded to the nearest count.

    Build through :func:`build_analysis`, which enforces the scope rules —
    constructing this class directly bypasses the sub-threshold exactness
    guarantee.
    """

    coverage_state = SampledCoverageState

    def __init__(
        self,
        model: GNNClassifier,
        graph: Graph,
        config: Configuration,
        sample_size: int,
    ) -> None:
        # Deliberately *not* calling super().__init__ — the whole point is
        # to never materialise the O(n^2) exact structures.
        self.graph = graph
        self.config = config
        self.node_list = graph.nodes
        self._index = {node: position for position, node in enumerate(self.node_list)}
        self._subset_scores = {}
        self._coverage = None
        self._neighbourhood_float_cache = None
        self._packed_influence_cache = None
        self._packed_neighbourhood_cache = None

        population = len(self.node_list)
        self.population = population
        self.sample_size = sample_size
        self.achieved_epsilon = achieved_epsilon(sample_size, config.delta, population)
        rng = np.random.default_rng(_seed_material(config, graph, population))
        order = rng.permutation(population)
        holdout_size = min(max(2, sample_size // 4), population - sample_size)
        self.sample_positions = np.sort(order[:sample_size])
        self.holdout_positions = np.sort(order[sample_size : sample_size + holdout_size])
        # Diversity columns are i.i.d. with-replacement draws: conditioned on
        # the witness sample, Hoeffding applies cleanly to the conditional
        # estimand (see the module docstring).
        self.diversity_positions = rng.integers(0, population, size=sample_size)
        holdout_diversity = rng.integers(0, population, size=max(holdout_size, 1))

        # --- influence columns (one batched pass for primary + holdout) ---
        all_targets = np.concatenate([self.sample_positions, self.holdout_positions])
        columns = _sampled_influence_columns(model, graph, all_targets)
        influence_sub = columns >= config.theta
        self._influence_mask = influence_sub[:, :sample_size]
        holdout_influence = influence_sub[:, sample_size:]
        # Estimated total exerted influence per source (tie-break heuristic).
        self._exerted_influence = columns[:, :sample_size].sum(axis=1) * (
            population / sample_size
        )

        # --- embedding distances (sampled blocks + exact global max) ---
        embeddings = model.node_embeddings(graph)
        max_distance = _max_pairwise_distance(embeddings)
        self._embeddings = embeddings
        self._max_distance = max_distance

        def neigh_block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            distances = _distance_block(embeddings, rows, cols)
            if max_distance > 0:
                distances = distances / max_distance
            return distances <= config.radius

        self._witness_neigh_mask = neigh_block(self.sample_positions, self.diversity_positions)
        self._primary_arm = _SampleArm(
            self._influence_mask, self._witness_neigh_mask, config.gamma
        )
        if holdout_size >= 2:
            self._holdout_arm: _SampleArm | None = _SampleArm(
                holdout_influence,
                neigh_block(self.holdout_positions, holdout_diversity),
                config.gamma,
            )
        else:
            self._holdout_arm = None

        # Two estimated gains within one sample-count quantum of each other
        # are statistically indistinguishable; the CELF engine treats them
        # as tied and lets reverify_gains / the deterministic tie-breaker
        # decide.
        self.gain_tolerance = 1.0 / sample_size + config.gamma / sample_size
        _record_sampled(sample_size, self.achieved_epsilon)

    # ------------------------------------------------------------------
    # estimator bookkeeping
    # ------------------------------------------------------------------
    def estimator_info(self) -> dict:
        """Per-analysis estimator facts (folded into provenance upstream)."""
        return {
            "objective": "sampled",
            "population": self.population,
            "sample_size": int(self.sample_size),
            "holdout_size": int(len(self.holdout_positions)),
            "epsilon": self.config.epsilon,
            "delta": self.config.delta,
            "achieved_epsilon": round(self.achieved_epsilon, 6),
        }

    # ------------------------------------------------------------------
    # sampled counterparts of the exact query surface
    # ------------------------------------------------------------------
    def _sampled_counts(self, positions: Sequence[int]) -> tuple[int, int]:
        """``(covered influence columns, covered diversity columns)``."""
        if not positions:
            return 0, 0
        covered = self._influence_mask[positions].any(axis=0)
        influence = int(covered.sum())
        if influence == 0:
            return 0, 0
        diversity = int(self._witness_neigh_mask[covered].any(axis=0).sum())
        return influence, diversity

    def influenced_nodes(self, seed_nodes: Iterable[int]) -> set[int]:
        """Influenced nodes *within the sampled witness set* (Eq. 5's set,
        restricted to the targets the estimator actually observed)."""
        positions = self._positions(seed_nodes)
        if not positions:
            return set()
        covered = self._influence_mask[positions].any(axis=0)
        return {
            self.node_list[self.sample_positions[j]] for j in np.flatnonzero(covered)
        }

    def influence_score(self, seed_nodes: Iterable[int]) -> int:
        """Estimated ``I(Vs)``: sampled fraction scaled to the population."""
        covered, _ = self._sampled_counts(self._positions(seed_nodes))
        return int(round(covered * self.population / self.sample_size))

    def diversity_score(self, seed_nodes: Iterable[int]) -> int:
        """Estimated ``D(Vs)`` (conditional on the sampled witnesses)."""
        _, diversity = self._sampled_counts(self._positions(seed_nodes))
        return int(round(diversity * self.population / len(self.diversity_positions)))

    def explainability(self, seed_nodes: Iterable[int]) -> float:
        """Estimated Eq.-2 fraction ``(I_hat + gamma * D_hat) / n``."""
        seeds = list(seed_nodes)
        key = frozenset(seeds)
        cached = self._subset_scores.get(key)
        if cached is None:
            influence, diversity = self._sampled_counts(self._positions(seeds))
            cached = (
                influence / self.sample_size
                + self.config.gamma * diversity / len(self.diversity_positions)
            )
            if len(self._subset_scores) >= 8192:
                self._subset_scores.clear()
            self._subset_scores[key] = cached
        return cached

    def marginal_gains(self, selected: Iterable[int], candidates: Sequence[int]) -> np.ndarray:
        gains = np.zeros(len(candidates))
        if not len(candidates):
            return gains
        mask = self._influence_mask
        neigh_float = self._witness_neigh_float
        selected_positions = self._positions(selected)
        if selected_positions:
            base_mask = mask[selected_positions].any(axis=0)
            base_influence = int(base_mask.sum())
            base_diversity = (
                int((base_mask @ neigh_float > 0).sum()) if base_influence else 0
            )
        else:
            base_mask = np.zeros(self.sample_size, dtype=bool)
            base_influence = 0
            base_diversity = 0
        diversity_size = len(self.diversity_positions)
        base_score = (
            base_influence / self.sample_size
            + self.config.gamma * base_diversity / diversity_size
        )
        slots, positions = self._known(candidates)
        if not slots.size:
            return gains
        influenced = base_mask[None, :] | mask[positions]
        influence_counts = influenced.sum(axis=1)
        diversity_counts = (influenced @ neigh_float > 0).sum(axis=1)
        scores = (
            influence_counts / self.sample_size
            + self.config.gamma * diversity_counts / diversity_size
        )
        gains[slots] = scores - base_score
        return gains

    @property
    def _witness_neigh_float(self) -> np.ndarray:
        if self._neighbourhood_float_cache is None:
            self._neighbourhood_float_cache = self._witness_neigh_mask.astype(float)
        return self._neighbourhood_float_cache

    # ------------------------------------------------------------------
    # bound verification support (tests / benchmarks)
    # ------------------------------------------------------------------
    def conditional_diversity_fraction(self, seed_nodes: Iterable[int]) -> float:
        """Exact population fraction of the *conditional* diversity estimand.

        ``|{x in V : x within radius of an influenced sampled witness}| / n``
        — the quantity :meth:`explainability`'s diversity term estimates.
        Costs one ``(witnesses, n)`` distance block, so tests and the
        benchmark's bound check can verify the declared ``(epsilon, delta)``
        bound without building the full exact analysis.
        """
        positions = self._positions(seed_nodes)
        if not positions:
            return 0.0
        covered = self._influence_mask[positions].any(axis=0)
        witnesses = self.sample_positions[np.flatnonzero(covered)]
        if not len(witnesses):
            return 0.0
        distances = _distance_block(
            self._embeddings, witnesses, np.arange(self.population)
        )
        if self._max_distance > 0:
            distances = distances / self._max_distance
        return float((distances <= self.config.radius).any(axis=0).sum()) / self.population

    def influence_fraction(self, seed_nodes: Iterable[int]) -> float:
        """The sampled influence estimate as a population fraction."""
        covered, _ = self._sampled_counts(self._positions(seed_nodes))
        return covered / self.sample_size

    def diversity_fraction(self, seed_nodes: Iterable[int]) -> float:
        """The sampled (conditional) diversity estimate as a fraction."""
        _, diversity = self._sampled_counts(self._positions(seed_nodes))
        return diversity / len(self.diversity_positions)
