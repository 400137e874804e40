"""Lazy-greedy (CELF) selection engine shared by the GVEX explainers.

The Eq.-2 objective is monotone submodular, so a candidate's marginal gain
can only shrink as the selected set grows.  The classic CELF observation is
that a *stale* gain — one computed against an earlier, smaller selection —
is therefore a valid upper bound: the greedy argmax can keep candidates in a
max-heap of stale gains and re-evaluate only the entries whose bound still
competes with the best exact gain seen this round, instead of re-scoring
(and re-verifying) every unselected node on every iteration the way the
eager reference loop does.

The engine is written to be *output-identical* to the eager loops of
:mod:`repro.core.oracles`:

* exact gains come from :class:`~repro.core.quality.CoverageState`, whose
  float expression matches the eager ``marginal_gains`` bit for bit;
* comparisons happen on the same (possibly rounded) key the eager loop
  uses, and rounding is monotone, so a stale bound that loses rounded also
  loses exactly;
* every candidate whose exact key ties the round maximum is collected and
  handed to the caller's tie-breaker — the same candidates the eager
  ``max`` would have compared — so the expensive model-probe tie-breakers
  (counterfactual gain) run only on the ties that actually surface;
* a candidate that fails ``VpExtend`` this round is set aside and retried
  next round with its stale bound intact, mirroring the eager loop's
  per-round re-verification.

Sampled objectives (``Configuration(objective="sampled")``) plug into the
same engine through two optional attributes of the coverage state:
``gain_tolerance`` widens every gain comparison — two estimates within the
tolerance are statistically indistinguishable, so both are treated as tied
— and ``reverify_gains`` re-scores a tie set against fresh (holdout)
samples before the deterministic tie-breaker runs.  Exact states carry
neither attribute (tolerance 0), for which every widened comparison
reduces to the strict one — the exact path's output-identity guarantee is
untouched.

When the caller needs the eager loop's *backup* bookkeeping (the
lower-coverage-bound top-up consumes every node that ever passed
verification), ``track_backup`` verifies the full frontier each round —
through the caller's *batched* verifier, so the model probes still amortise
— while the gain evaluations stay lazy.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.quality import GraphAnalysis

if TYPE_CHECKING:
    from repro.core.config import Configuration
    from repro.core.verification import EVerify
    from repro.graphs.graph import Graph

__all__ = ["lazy_greedy_select", "top_up_select"]

# Verification results are cheap to batch but the first pop of a round has no
# exact-gain threshold yet; seed it one candidate at a time so laziness is
# preserved when the heap top is an immediate winner (the common case).
VpExtendMany = Callable[[Sequence[int], set[int]], Sequence[bool]]
ChooseTied = Callable[[Sequence[int], set[int]], int]


def lazy_greedy_select(
    analysis: GraphAnalysis,
    candidates: Iterable[int],
    selected: set[int],
    budget: int,
    vp_extend_many: VpExtendMany,
    choose_tied: ChooseTied,
    gain_key: Callable[[float], float] = lambda gain: gain,
    backup: set[int] | None = None,
) -> set[int]:
    """Grow ``selected`` greedily up to ``budget`` nodes, CELF-style.

    Parameters
    ----------
    analysis:
        The per-graph influence/diversity structures; the engine seeds a
        fresh incremental :class:`CoverageState` from ``selected``.
    candidates:
        The candidate pool (nodes already selected are ignored).
    selected:
        Starting node set; a *copy* is grown and returned.
    budget:
        Maximum size of the returned set (the eager loops' ``u_l`` or
        ``b_l`` bound).
    vp_extend_many:
        Batched verification: ``vp_extend_many(nodes, selected)`` returns
        one boolean per node, with the same semantics as the eager loops'
        per-node ``VpExtend``.
    choose_tied:
        Tie-breaker over the exact-gain ties of one round (called only when
        more than one candidate ties; receives the tied nodes and the
        current selection).
    gain_key:
        Monotone key applied to gains before comparison — ``round(g, 9)``
        for the main growth loop, identity for the top-up loop — matching
        the eager comparison exactly.
    backup:
        When given, every candidate that passes verification in any round is
        added (the eager loops' backup bookkeeping); this forces the whole
        frontier through ``vp_extend_many`` each round, but the calls are
        batched and the gain evaluations stay lazy.
    """
    selected = set(selected)
    state = analysis.reset_coverage(selected)
    # Sampled coverage states report the confidence-interval width within
    # which two estimated gains cannot be told apart; exact states have none
    # (tolerance 0 keeps every comparison strict and the engine bit-identical
    # to the eager reference).
    tolerance = float(getattr(state, "gain_tolerance", 0.0) or 0.0)
    reverify = getattr(state, "reverify_gains", None)
    pool = [node for node in dict.fromkeys(candidates) if node not in selected]
    if not pool:
        return selected
    gains = state.batch_gains(pool)
    heap: list[tuple[float, int]] = [(-float(gains[i]), node) for i, node in enumerate(pool)]
    heapq.heapify(heap)

    while len(selected) < budget and heap:
        passed: dict[int, bool] | None = None
        if backup is not None:
            frontier = [node for _, node in heap]
            passed = dict(zip(frontier, vp_extend_many(frontier, selected)))
            backup.update(node for node, ok in passed.items() if ok)

        best_key: float | None = None
        evaluated: list[tuple[int, float]] = []
        deferred: list[tuple[float, int]] = []
        while heap:
            stale = -heap[0][0]
            if best_key is not None and gain_key(stale) < best_key - tolerance:
                break
            # Pop the whole qualifying prefix at once so verification probes
            # batch; before the first exact gain there is no threshold, so
            # seed with a single pop.
            chunk: list[tuple[float, int]] = [heapq.heappop(heap)]
            if best_key is not None:
                while heap and gain_key(-heap[0][0]) >= best_key - tolerance:
                    chunk.append(heapq.heappop(heap))
            nodes = [node for _, node in chunk]
            if passed is not None:
                results: Sequence[bool] = [passed[node] for node in nodes]
            else:
                results = vp_extend_many(nodes, selected)
            ok_nodes: list[int] = []
            for (neg_stale, node), ok in zip(chunk, results):
                if not ok:
                    deferred.append((-neg_stale, node))
                    continue
                ok_nodes.append(node)
            if not ok_nodes:
                continue
            if tolerance > 0.0 and len(ok_nodes) > 1:
                # Sampled states widen the qualifying prefix to whole
                # confidence intervals, so chunks run to hundreds of nodes;
                # one vectorized pass beats that many scalar gain calls.
                # (Exact states keep the scalar path: their chunk gains
                # must stay bit-identical to the eager reference's.)
                fresh = state.batch_gains(ok_nodes)
            else:
                fresh = [state.gain(node) for node in ok_nodes]
            for node, exact in zip(ok_nodes, fresh):
                exact = float(exact)
                evaluated.append((node, exact))
                key = gain_key(exact)
                if best_key is None or key > best_key:
                    best_key = key

        if best_key is None:
            # Every remaining candidate failed verification this round; the
            # eager loop's candidate list is empty and it stops growing.
            break

        tied = [node for node, exact in evaluated if gain_key(exact) >= best_key - tolerance]
        if len(tied) > 1 and tolerance > 0.0 and reverify is not None:
            # Statistical ties: re-score against fresh (holdout) samples and
            # keep only the candidates that still achieve the pooled maximum;
            # any residual exact tie falls through to the deterministic
            # tie-breaker below.
            pooled = reverify(tied)
            best_pooled = max(gain_key(pooled[node]) for node in tied)
            tied = [node for node in tied if gain_key(pooled[node]) == best_pooled]
        winner = tied[0] if len(tied) == 1 else choose_tied(tied, selected)
        state.commit(winner)
        selected.add(winner)
        for node, exact in evaluated:
            if node != winner:
                heapq.heappush(heap, (-exact, node))
        for stale, node in deferred:
            heapq.heappush(heap, (-stale, node))

    return selected


def top_up_select(
    everify: EVerify,
    config: Configuration,
    graph: Graph,
    label: int,
    analysis: GraphAnalysis,
    selected: set[int],
    backup: set[int],
    lower: int,
) -> set[int]:
    """Grow ``selected`` from the backup set until the lower bound is met.

    The pool is the unselected backup nodes in node order, every extension
    passes ``VpExtend`` first, and exact-gain ties go to the smallest node.
    """
    return lazy_greedy_select(
        analysis,
        sorted(backup - selected),
        selected,
        lower,
        lambda nodes, current: everify.vp_extend(graph, nodes, current, label, config),
        lambda tied, current: min(tied),
    )
