"""Incremental view maintenance over a mutable graph database.

The paper's StreamGVEX (Section 5, Algorithm 3) maintains an explanation
view incrementally over a *node stream within one fixed graph*.  This module
lifts that machinery one level up, to a stream of whole-database mutations:

* :class:`NodeStreamProcessor` owns the per-graph streaming pass — the
  ``IncUpdateVS`` swapping rule (Procedure 4), ``IncUpdateP`` pattern
  maintenance (Procedure 5), the ``VpExtend`` verification gate, and the
  per-batch ``IncEVerify`` refresh.  :class:`~repro.core.streaming.StreamGVEX`
  *is* this processor plus the label-level driver surface, so there is a
  single implementation of the swap/pattern logic.
* :class:`ViewMaintainer` owns the live view state: one
  :class:`MaintainedExplanation` row per streamed graph (its node cache
  ``Vs``, pattern set ``Pc``, anytime history, and cost accounting), pattern
  reference counts per label, and lazily reassembled
  :class:`~repro.core.explanation.ExplanationView` objects.  Applying a
  database delta — a graph arriving, leaving, or being relabelled — repairs
  the views in time proportional to the delta: added graphs stream their
  nodes through the swap rules exactly once, removals retract the graph's
  row (dropping orphaned patterns at reassembly), and relabels move rows
  between label groups.

Because the per-graph streaming pass is independent across graphs (the node
stream lives inside one graph; the only cross-graph state is deterministic
pattern deduplication at view assembly), the maintained view after any
sequence of adds/removes is **exactly** the view a full StreamGVEX recompute
would produce on the resulting database — the incremental path inherits the
algorithm's 1/4-approximation anytime bound with zero slack.  The A/B
equivalence is asserted in the tier-1 tests and benchmarked (with a
regression-guard floor on the speedup) in ``benchmarks/bench_hot_paths.py``.

The same determinism is what makes the maintainer recoverable: replaying a
delta history — whether from a :class:`~repro.graphs.GraphDatabase` delta
log, a :class:`~repro.core.wal.WriteAheadLog` tail after a crash, or a
primary's ``/v1/deltas`` feed on a replica — drives these exact repair
paths and lands on the same views, which is how
``ExplanationService(wal_dir=...)`` and ``repro.api.replication`` get their
identity guarantees.  ``ViewMaintainer.from_snapshot`` restores the row
state without re-streaming; a WAL replay then only covers the mutations the
snapshot had not yet absorbed.
"""

from __future__ import annotations

import random
import time
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import Configuration
from repro.core.explanation import ExplanationSubgraph, ExplanationView, ExplanationViewSet
from repro.core.quality import GraphAnalysis
from repro.core.sampling import build_analysis
from repro.core.selection import lazy_greedy_select
from repro.core.verification import EVerify, prime_vp_extend_probes
from repro.exceptions import ExplanationError
from repro.gnn.models import GNNClassifier
from repro.graphs.database import DatabaseDelta, GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.graphs.subgraph import induced_subgraph
from repro.matching.engine import apply_config_cache_size
from repro.matching.incremental import IncrementalMatcher
from repro.mining.candidates import PatternGenerator

__all__ = [
    "MaintainedExplanation",
    "NodeStreamProcessor",
    "ViewMaintainer",
    "assemble_view_from_rows",
]

SNAPSHOT_KIND = "view_maintainer_snapshot"
SNAPSHOT_SCHEMA_VERSION = 1

#: Default node-batch size of the streaming pass.  Shared constant: the
#: service's maintained-result fast path may only serve a stream request
#: when the maintainer streams with the same batch size a fresh
#: ``create_explainer("stream")`` would use.
DEFAULT_STREAM_BATCH_SIZE = 8

_LABEL_SOURCES = ("predicted", "stored")


class NodeStreamProcessor:
    """The per-graph streaming pass of Algorithm 3 (shared single copy).

    Consumes one graph's nodes as a (batched, shuffled) stream and maintains

    * ``Vs`` — a node cache of size at most ``u_l`` holding the current
      explanation node set, updated with the greedy *swapping* rule of
      ``IncUpdateVS`` (a new node replaces the weakest cached node only when
      its gain is at least twice the loss, preserving the 1/4-approximation
      of streaming submodular maximisation), and
    * ``Pc`` — the current pattern set, updated by ``IncUpdateP``: newly
      selected nodes that are not yet covered trigger local pattern
      generation (``IncPGen`` on the r-hop neighbourhood) and patterns that
      stopped contributing coverage are swapped out.

    The influence/diversity structures are refreshed per batch on the seen
    fraction of the graph (``IncEVerify``), so the maintained state always
    has an anytime quality guarantee *relative to the processed fraction*.

    Both :class:`~repro.core.streaming.StreamGVEX` (which subclasses this)
    and :class:`ViewMaintainer` (which replays database deltas through it)
    share this one implementation.
    """

    def __init__(
        self,
        model: GNNClassifier,
        config: Configuration | None = None,
        pattern_generator: PatternGenerator | None = None,
        batch_size: int = DEFAULT_STREAM_BATCH_SIZE,
        seed: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise ExplanationError("batch_size must be at least 1")
        self.model = model
        self.config = config or Configuration()
        self.pattern_generator = pattern_generator or PatternGenerator(
            max_pattern_size=self.config.max_pattern_size,
            max_candidates=self.config.max_pattern_candidates,
        )
        self.batch_size = batch_size
        # The node-arrival shuffle must be reproducible (Fig. 12 sweeps
        # shuffled orders): default to the configuration's seed so two runs
        # with the same Configuration see identical streams.
        self.seed = self.config.seed if seed is None else seed
        self.everify = EVerify(model)
        # The match memo is process-wide; apply this configuration's cap
        # (a REPRO_MATCH_CACHE_SIZE operator override takes precedence).
        apply_config_cache_size(self.config.match_cache_size)

    def _build_analysis(self, graph: Graph) -> GraphAnalysis:
        """Influence/diversity structures of one (partially seen) graph."""
        return build_analysis(self.model, graph, self.config)

    # ------------------------------------------------------------------
    # VpExtend (same contract as in ApproxGVEX)
    # ------------------------------------------------------------------
    def _vp_extend(self, candidate: int, selected: set[int], graph: Graph, label: int) -> bool:
        # Deliberately no upper-bound rejection here: a full node cache is
        # handled by the IncUpdateVS swapping rule, not by VpExtend.
        extended = selected | {candidate}
        if self.config.verification_mode == "none":
            return True
        if len(extended) < self.config.min_check_size:
            return True
        if not self.everify.is_consistent(graph, extended, label):
            return False
        if self.config.verification_mode == "strict":
            if not self.everify.is_counterfactual(graph, extended, label):
                return False
        return True

    def _vp_extend_many(
        self,
        nodes: Sequence[int],
        selected: set[int],
        graph: Graph,
        label: int,
    ) -> list[bool]:
        """Batched ``VpExtend`` (no upper-bound filter: a full node cache is
        handled by the swapping rule, not by rejection)."""
        prime_vp_extend_probes(self.everify, graph, nodes, selected, label, self.config)
        return [self._vp_extend(node, selected, graph, label) for node in nodes]

    # ------------------------------------------------------------------
    # IncUpdateVS (Procedure 4)
    # ------------------------------------------------------------------
    def _inc_update_vs(
        self,
        candidate: int,
        selected: set[int],
        analysis: GraphAnalysis,
        patterns: list[GraphPattern],
        matcher: IncrementalMatcher,
        seen_graph: Graph,
        upper_bound: int,
    ) -> set[int]:
        """Apply the greedy swapping rule; returns the (possibly new) node cache."""
        if candidate in selected:
            return selected
        if len(selected) < upper_bound:
            return selected | {candidate}
        # Swap-first evaluation.  When the swap rule rejects, the answer is
        # ``selected`` whichever of the paper's cases (b) and (c) fires
        # first, so the case-(b) novelty question only needs answering for
        # the rare *accepted* swaps.  The objective calls run on the packed
        # popcount kernels with memoised subset scores, and the novelty
        # answer comes from the short-circuiting key probe: no patterns are
        # mined here (IncUpdateP mines them later, for accepted candidates).
        weakest = min(selected, key=lambda node: (analysis.loss_of_removal(selected, node), node))
        reduced = selected - {weakest}
        gain_new = analysis.explainability(reduced | {candidate}) - analysis.explainability(reduced)
        gain_old = analysis.explainability(selected) - analysis.explainability(reduced)
        if gain_new < 2.0 * gain_old:
            return selected
        if patterns:
            covered = matcher.covered_by_set(patterns, seen_graph)
            if candidate in covered and not self.pattern_generator.has_novel_pattern(
                seen_graph, candidate, patterns, hops=self.config.diversity_hops
            ):
                return selected
        return reduced | {candidate}

    # ------------------------------------------------------------------
    # IncUpdateP (Procedure 5)
    # ------------------------------------------------------------------
    def _inc_update_p(
        self,
        new_node: int,
        selected: set[int],
        patterns: list[GraphPattern],
        graph: Graph,
        matcher: IncrementalMatcher,
    ) -> list[GraphPattern]:
        """Maintain node coverage of the current explanation nodes by patterns."""
        current = induced_subgraph(graph, selected)
        covered = matcher.covered_by_set(patterns, current)
        uncovered = set(current.nodes) - covered
        updated = list(patterns)
        if uncovered:
            fresh = self.pattern_generator.generate_incremental(
                current,
                new_node if new_node in selected else next(iter(uncovered)),
                updated,
                hops=max(1, self.config.diversity_hops),
            )
            known = {pattern.canonical_key() for pattern in updated}
            for pattern in fresh:
                if pattern.canonical_key() not in known:
                    updated.append(pattern)
                    known.add(pattern.canonical_key())
            # Guarantee coverage with singleton patterns for anything left.
            matcher.invalidate()
            still_uncovered = set(current.nodes) - matcher.covered_by_set(updated, current)
            for node_type in sorted({current.node_type(node) for node in still_uncovered}):
                singleton = GraphPattern()
                singleton.add_node(0, node_type)
                if singleton.canonical_key() not in known:
                    updated.append(singleton)
                    known.add(singleton.canonical_key())
        # Swap out patterns that no longer contribute coverage (largest first).
        matcher.invalidate()
        pruned: list[GraphPattern] = []
        covered_so_far: set[int] = set()
        for pattern in sorted(updated, key=lambda p: -p.size()):
            contribution = matcher.covered_nodes(pattern, current) - covered_so_far
            if contribution:
                pruned.append(pattern)
                covered_so_far |= contribution
        matcher.invalidate()
        for index, pattern in enumerate(pruned):
            pattern.pattern_id = index
        return pruned

    def _process_batch(
        self,
        batch: Sequence[int],
        selected: set[int],
        backup: set[int],
        patterns: list[GraphPattern],
        analysis: GraphAnalysis,
        matcher: IncrementalMatcher,
        seen_graph: Graph,
        graph: Graph,
        label: int,
        upper_bound: int,
    ) -> tuple[set[int], list[GraphPattern]]:
        """Batched per-arrival work: one block of the node stream.

        ``VpExtend`` verdicts for the whole block are primed with one batched
        model probe against the current node cache; the swap rule then runs
        per node against the packed coverage kernels.  The node cache changes
        rarely (a swap needs gain >= 2x loss), so whenever it *does* change
        the not-yet-processed suffix is re-verified against the new cache —
        keeping the outcome identical to the per-node loop of
        :class:`~repro.core.oracles.ReferenceStreamProcessor`.
        """
        pending = list(batch)
        while pending:
            verdicts = self._vp_extend_many(pending, selected, seen_graph, label)
            restart_at: int | None = None
            for index, node in enumerate(pending):
                backup.add(node)
                if not verdicts[index]:
                    continue
                updated = self._inc_update_vs(
                    node, selected, analysis, patterns, matcher, seen_graph, upper_bound
                )
                if updated != selected:
                    selected = updated
                    if node in selected:
                        patterns = self._inc_update_p(node, selected, patterns, graph, matcher)
                    restart_at = index + 1
                    break
            if restart_at is None:
                break
            pending = pending[restart_at:]
        return selected, patterns

    # ------------------------------------------------------------------
    # per-graph streaming pass
    # ------------------------------------------------------------------
    def explain_graph(
        self,
        graph: Graph,
        label: int | None = None,
        node_order: Sequence[int] | None = None,
        record_history: bool = False,
    ) -> tuple[ExplanationSubgraph | None, list[GraphPattern], list[dict]]:
        """Process one graph's node stream.

        Returns the maintained explanation subgraph (or ``None`` when the
        lower coverage bound could not be met), the maintained pattern set,
        and — when ``record_history`` is set — one snapshot per batch with the
        seen fraction and the current explainability (the anytime curve of
        Fig. 9f).
        """
        if graph.num_nodes() == 0:
            return None, [], []
        if label is None:
            label = self.model.predict(graph)
        bound = self.config.bound_for(label)

        order = list(node_order) if node_order is not None else list(graph.nodes)
        if node_order is None:
            # A fresh seeded generator per graph keeps per-graph streams
            # independent of database iteration order.
            random.Random(self.seed).shuffle(order)

        selected: set[int] = set()
        backup: set[int] = set()
        patterns: list[GraphPattern] = []
        matcher = IncrementalMatcher()
        history: list[dict] = []
        seen: list[int] = []
        analysis: GraphAnalysis | None = None

        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            seen.extend(batch)
            seen_graph = induced_subgraph(graph, seen)
            # IncEVerify: refresh influence/diversity on the seen fraction.
            analysis = self._build_analysis(seen_graph)
            selected, patterns = self._process_batch(
                batch, selected, backup, patterns, analysis, matcher,
                seen_graph, graph, label, bound.upper,
            )
            if record_history:
                history.append(
                    {
                        "seen_fraction": len(seen) / graph.num_nodes(),
                        "selected_nodes": len(selected),
                        "explainability": analysis.explainability(selected),
                        "num_patterns": len(patterns),
                    }
                )

        # Post-processing: meet the lower bound from the backup set.
        if analysis is not None:
            if len(selected) < bound.lower and backup - selected:
                selected = self._top_up(graph, label, analysis, selected, backup, bound.lower)
            if selected:
                patterns = self._inc_update_p(
                    next(iter(selected)), selected, patterns, graph, matcher
                )

        if not selected or len(selected) < bound.lower:
            return None, patterns, history

        # A stream that saw every node ends on the graph itself, so reuse its
        # last analysis.  Count nodes: ``node_order`` may be partial or repeat.
        if seen_graph.num_nodes() != graph.num_nodes():
            analysis = self._build_analysis(graph)
        subgraph = ExplanationSubgraph(
            source_graph=graph,
            nodes=selected,
            label=label,
            explainability=analysis.explainability(selected),
        )
        self.everify.annotate(subgraph)
        return subgraph, patterns, history

    def _top_up(
        self,
        graph: Graph,
        label: int,
        analysis: GraphAnalysis,
        selected: set[int],
        backup: set[int],
        lower: int,
    ) -> set[int]:
        """Grow ``selected`` from the backup set until the lower bound is met."""
        return lazy_greedy_select(
            analysis,
            sorted(backup - selected),
            selected,
            lower,
            lambda nodes, current: self._vp_extend_many(nodes, current, graph, label),
            lambda tied, current: min(tied),
        )

    # ------------------------------------------------------------------
    # shared label prediction
    # ------------------------------------------------------------------
    def _predicted_labels(self, graphs: Sequence[Graph]) -> list[int]:
        """Predicted label per graph (one batched pass for the whole group)."""
        return self.model.predict_many(graphs)


class _WeakMaintainerHook:
    """Database subscription hook holding its maintainer only weakly.

    A database can outlive many maintainers (e.g. the in-process
    experiment-context cache); a dropped maintainer must not be pinned
    alive — paying a full streaming pass per mutation for views nobody
    reads — just because ``detach()`` was never called.
    """

    def __init__(self, maintainer: "ViewMaintainer", database: GraphDatabase) -> None:
        self._ref = weakref.ref(maintainer)
        self._database = weakref.ref(database)

    def __call__(self, delta: "DatabaseDelta") -> None:
        maintainer = self._ref()
        if maintainer is not None:
            maintainer.apply_delta(delta)
            return
        # Target collected without detach(): prune this dead hook so the
        # long-lived database does not accumulate no-op callbacks.
        database = self._database()
        if database is not None:
            database.unsubscribe(self)


@dataclass
class MaintainedExplanation:
    """One live "coverage row" of the maintained view state.

    Everything the streaming pass produced for one graph — its node cache as
    an :class:`ExplanationSubgraph` (``None`` when the lower coverage bound
    was not met), its pattern set, its anytime history, and cost accounting —
    retained so that database mutations never re-stream unaffected graphs.
    """

    graph_id: int | None
    label: int | None
    graph: Graph
    subgraph: ExplanationSubgraph | None
    patterns: list[GraphPattern] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)
    stored_label: int | None = None
    runtime_seconds: float = 0.0
    # Materialised explanation subgraph, cached so repeated verification
    # passes reuse one graph object (and the coverage matcher's memo keys,
    # which embed object identity, actually hit).
    _materialized: Graph | None = None

    def pattern_keys(self) -> set[tuple]:
        return {pattern.canonical_key() for pattern in self.patterns}

    def materialized_subgraph(self) -> Graph | None:
        if self.subgraph is None:
            return None
        if self._materialized is None:
            self._materialized = self.subgraph.subgraph()
        return self._materialized


class ViewMaintainer:
    """Live StreamGVEX state with delta-driven incremental repair.

    Parameters
    ----------
    model / config / batch_size / seed:
        Forwarded to a fresh :class:`NodeStreamProcessor` (ignored when
        ``processor`` is given).
    processor:
        An existing processor to stream through — e.g. a
        :class:`~repro.core.streaming.StreamGVEX` instance, so its warm
        ``EVerify`` memo and any subclass policy overrides are reused.
    labels:
        Restrict maintenance to these group labels (``None`` = maintain a
        view for every label that occurs).
    label_source:
        ``"predicted"`` (default) groups graphs by the model-assigned label,
        matching ``StreamGVEX.explain``'s semantics — a ground-truth relabel
        is then pure bookkeeping.  ``"stored"`` groups by the database's
        ground-truth label, so a relabel delta moves the graph between label
        groups and re-streams it (one graph's work) under the new label.
    record_history:
        Record the per-batch anytime curve for every streamed graph.
    label_predictor:
        Optional ``graph -> int | None`` callable consulted before running
        the model for a graph's predicted label — lets an owner with a
        warm prediction memo (the service) avoid a duplicate forward pass
        per ingested graph.  A ``None`` return falls back to the model.
    """

    def __init__(
        self,
        model: GNNClassifier | None = None,
        config: Configuration | None = None,
        *,
        processor: NodeStreamProcessor | None = None,
        batch_size: int = DEFAULT_STREAM_BATCH_SIZE,
        seed: int | None = None,
        labels: Iterable[int] | None = None,
        label_source: str = "predicted",
        record_history: bool = False,
        label_predictor=None,
    ) -> None:
        if processor is None:
            if model is None:
                raise ExplanationError(
                    "ViewMaintainer needs a model (or an existing NodeStreamProcessor)"
                )
            processor = NodeStreamProcessor(model, config, batch_size=batch_size, seed=seed)
        if label_source not in _LABEL_SOURCES:
            raise ExplanationError(
                f"label_source must be one of {_LABEL_SOURCES}, got {label_source!r}"
            )
        self.processor = processor
        self.model = processor.model
        self.config = processor.config
        self.labels = frozenset(labels) if labels is not None else None
        self.label_source = label_source
        self.record_history = record_history
        self.label_predictor = label_predictor
        # Rows are keyed by an internal monotonic id (graph ids can be None
        # or — in hand-built databases — duplicated); _by_graph_id maps a
        # stable graph id to its latest row for delta lookups.
        self._rows: dict[int, MaintainedExplanation] = {}
        self._by_graph_id: dict[int, int] = {}
        self._next_row_id = 0
        # Lazily (re)assembled views + the labels whose cache is stale.
        self._views: dict[int, ExplanationView] = {}
        self._dirty: set[int] = set()
        self.database: GraphDatabase | None = None
        self._subscription = None
        # Optional external mutex (any context manager): when set, every
        # delta application runs inside it, so an owner that reads views
        # under the same lock (the service) can never observe a torn
        # repair — also for mutations made directly on the database.
        self.lock = None
        # Long-lived coverage matcher for post-mutation re-verification;
        # entries for retracted graphs are forgotten eagerly (removal-safe).
        self._matcher = IncrementalMatcher()
        # Counters surfaced by stats(): how much streaming work the deltas
        # actually cost, versus what a recompute-per-mutation would have.
        self.graphs_streamed = 0
        self.rows_retracted = 0
        self.deltas_applied = 0
        self.patterns_orphaned = 0
        self.stream_seconds = 0.0

    # ------------------------------------------------------------------
    # database attachment
    # ------------------------------------------------------------------
    def attach(self, database: GraphDatabase, *, replay: bool = True) -> "ViewMaintainer":
        """Subscribe to a database's delta stream (optionally replaying it).

        With ``replay`` (the default), every graph already in the database is
        streamed through the swap rules — StreamGVEX's single pass *is* this
        replay.  Afterwards each mutation repairs the views incrementally.
        """
        if self.database is not None:
            raise ExplanationError("this ViewMaintainer is already attached to a database")
        self.database = database
        self._subscription = database.subscribe(_WeakMaintainerHook(self, database))
        if replay:
            self.refresh()
        return self

    def detach(self) -> None:
        """Unsubscribe from the attached database (state is kept)."""
        if self.database is not None and self._subscription is not None:
            self.database.unsubscribe(self._subscription)
        self.database = None
        self._subscription = None

    def refresh(self) -> None:
        """Stream every not-yet-maintained graph of the attached database.

        Predictions are batched database-level (one message-passing pass per
        call) before the per-graph streaming passes run.
        """
        if self.database is None:
            raise ExplanationError("refresh() needs an attached database")
        missing = [
            graph
            for graph in self.database.graphs
            if graph.graph_id not in self._by_graph_id and graph.num_nodes() > 0
        ]
        if not missing:
            return
        predicted = self.processor._predicted_labels(missing)
        labels = dict(zip(self.database.graphs, self.database.labels))
        for graph, assigned in zip(missing, predicted):
            self.ingest(graph, stored_label=labels.get(graph), predicted=assigned)

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------
    def apply_delta(self, delta: DatabaseDelta) -> dict[str, Any]:
        """Repair the maintained views for one database mutation."""
        if self.lock is not None:
            with self.lock:
                return self._apply_delta(delta)
        return self._apply_delta(delta)

    def _apply_delta(self, delta: DatabaseDelta) -> dict[str, Any]:
        self.deltas_applied += 1
        if delta.kind == "add":
            if delta.graph is None:
                raise ExplanationError("add delta carries no graph object")
            row = self.ingest(delta.graph, stored_label=delta.label)
            return {"op": "add", "graph_id": delta.graph_id, "streamed": row is not None}
        if delta.kind == "remove":
            report = self.retract(delta.graph_id)
            return {"op": "remove", "graph_id": delta.graph_id, **(report or {})}
        report = self.relabel(delta.graph_id, delta.label, old_label=delta.old_label)
        return {"op": "relabel", "graph_id": delta.graph_id, **(report or {})}

    def ingest(
        self,
        graph: Graph,
        *,
        stored_label: int | None = None,
        predicted: int | None = None,
    ) -> MaintainedExplanation | None:
        """Stream one arriving graph through the swap rules (IncUpdateVS/P).

        The cost is one StreamGVEX per-graph pass — independent of the
        database size.  Returns the new row, or ``None`` when the graph's
        group label falls outside the maintained ``labels`` restriction.
        """
        # Re-ingest-replaces-row semantics only apply when tracking a
        # database (there, ids are stable and unique).  A standalone replay
        # (StreamGVEX.explain_label over a caller-supplied graph list) must
        # process every graph even when ids collide across sources.
        if (
            self.database is not None
            and graph.graph_id is not None
            and graph.graph_id in self._by_graph_id
        ):
            self.retract(graph.graph_id)
        group = self._group_label(graph, stored_label=stored_label, predicted=predicted)
        if group is None or (self.labels is not None and group not in self.labels):
            return None
        start = time.perf_counter()
        subgraph, patterns, history = self.processor.explain_graph(
            graph, group, record_history=self.record_history
        )
        elapsed = time.perf_counter() - start
        row = MaintainedExplanation(
            graph_id=graph.graph_id,
            label=group,
            graph=graph,
            subgraph=subgraph,
            patterns=patterns,
            history=history,
            stored_label=stored_label,
            runtime_seconds=elapsed,
        )
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = row
        if graph.graph_id is not None:
            self._by_graph_id[graph.graph_id] = row_id
        self.graphs_streamed += 1
        self.stream_seconds += elapsed
        self._mark_dirty(group)
        return row

    def retract(self, graph_id: int | None) -> dict[str, Any] | None:
        """Retract a leaving graph's coverage rows (bounded repair).

        Drops the graph's row, counts the patterns it orphaned (canonical
        keys no remaining row of the label witnesses — they disappear from
        the reassembled view), and marks the label dirty.  No other graph is
        re-streamed: per-graph streaming state is independent, so removal
        repair is exact with O(label group) bookkeeping.
        """
        row_id = self._by_graph_id.pop(graph_id, None) if graph_id is not None else None
        row = self._rows.pop(row_id, None) if row_id is not None else None
        if row is None:
            return None
        self.rows_retracted += 1
        self._matcher.forget_graph(graph_id)
        surviving: set[tuple] = set()
        for other in self._rows.values():
            if other.label == row.label:
                surviving |= other.pattern_keys()
        orphaned = row.pattern_keys() - surviving
        self.patterns_orphaned += len(orphaned)
        if row.label is not None:
            self._mark_dirty(row.label)
        return {
            "label": row.label,
            "orphaned_patterns": len(orphaned),
            "remaining_rows": sum(1 for r in self._rows.values() if r.label == row.label),
        }

    def relabel(
        self, graph_id: int | None, label: int | None, *, old_label: int | None = None
    ) -> dict[str, Any] | None:
        """Move a relabelled graph between label groups.

        Under ``label_source="stored"`` the graph is re-streamed under its
        new group label (one graph's work); under ``"predicted"`` the group
        is model-assigned, so a ground-truth relabel is pure bookkeeping.
        """
        row_id = self._by_graph_id.get(graph_id) if graph_id is not None else None
        row = self._rows.get(row_id) if row_id is not None else None
        if row is None:
            # Not maintained yet — under stored-label grouping the relabel may
            # move the graph *into* a maintained group, so stream it now.
            if (
                self.label_source == "stored"
                and self.database is not None
                and self.database.has_graph(graph_id)
                and (self.labels is None or label in self.labels)
            ):
                streamed = self.ingest(
                    self.database.graph_by_id(graph_id), stored_label=label
                )
                return {"label": label, "old_label": old_label, "restreamed": streamed is not None}
            return None
        previous = row.stored_label if row.stored_label is not None else old_label
        row.stored_label = label
        if self.label_source != "stored" or label == row.label:
            return {"label": row.label, "restreamed": False}
        graph = row.graph
        self.retract(graph_id)
        streamed = self.ingest(graph, stored_label=label)
        return {
            "label": label,
            "old_label": previous,
            "restreamed": streamed is not None,
        }

    # ------------------------------------------------------------------
    # view assembly
    # ------------------------------------------------------------------
    def maintained_labels(self) -> list[int]:
        """Sorted labels for which the maintainer currently holds rows."""
        return sorted({row.label for row in self._rows.values() if row.label is not None})

    def view_for(self, label: int) -> ExplanationView:
        """The maintained two-tier view for one label (cached until dirty).

        Assembly mirrors ``StreamGVEX.explain_label`` exactly — subgraphs in
        database order, patterns deduplicated by canonical key in first-seen
        order — so the result is identical to a full recompute on the
        current database contents.
        """
        if label in self._dirty or label not in self._views:
            self._views[label] = self._build_view(label)
            self._dirty.discard(label)
        return self._views[label]

    def view_set(self) -> ExplanationViewSet:
        """Every maintained label's view as one queryable set."""
        views = ExplanationViewSet()
        for label in self.maintained_labels():
            views.add(self.view_for(label))
        return views

    def _ordered_rows(self) -> list[MaintainedExplanation]:
        """Rows in database order when attached, else in arrival order.

        Database order is what a full ``StreamGVEX.explain_label`` recompute
        would iterate, so following it keeps view assembly (subgraph order,
        pattern first-seen deduplication, float summation order) *identical*
        to the recompute even after relabels or remove-and-re-add cycles.
        """
        rows = list(self._rows.values())
        if self.database is None:
            return rows
        position = {graph.graph_id: idx for idx, graph in enumerate(self.database.graphs)}
        rows.sort(
            key=lambda row: position.get(
                row.graph_id if row.graph_id is not None else -1, len(position)
            )
        )
        return rows

    def _build_view(self, label: int) -> ExplanationView:
        rows = [row for row in self._ordered_rows() if row.label == label]
        subgraphs = [row.subgraph for row in rows if row.subgraph is not None]
        patterns: dict[tuple, GraphPattern] = {}
        for row in rows:
            for pattern in row.patterns:
                patterns.setdefault(pattern.canonical_key(), pattern)
        pattern_list = list(patterns.values())
        for index, pattern in enumerate(pattern_list):
            pattern.pattern_id = index
        histories = [row.history for row in rows] if self.record_history else []
        return ExplanationView(
            label=label,
            patterns=pattern_list,
            subgraphs=subgraphs,
            explainability=float(sum(subgraph.explainability for subgraph in subgraphs)),
            metadata={
                "algorithm": "StreamGVEX",
                "batch_size": self.processor.batch_size,
                "runtime_seconds": float(sum(row.runtime_seconds for row in rows)),
                "histories": histories,
            },
        )

    def verify_label(self, label: int) -> dict[str, Any]:
        """Re-verify the maintained invariants of one label's view.

        Checks, per row, that the pattern set still covers the explanation
        subgraph's nodes (constraint C1) and that the subgraph size honours
        the coverage bound — the post-removal sanity pass of the bounded
        repair path.  Returns a report; raises nothing.
        """
        matcher = self._matcher
        bound = self.config.bound_for(label)
        covered_rows = 0
        violations: list[dict[str, Any]] = []
        for row in self._rows.values():
            if row.label != label or row.subgraph is None:
                continue
            current = row.materialized_subgraph()
            covered = matcher.covered_by_set(row.patterns, current)
            if set(current.nodes) <= covered and bound.contains(len(row.subgraph.nodes)):
                covered_rows += 1
            else:
                violations.append(
                    {
                        "graph_id": row.graph_id,
                        "uncovered_nodes": sorted(set(current.nodes) - covered),
                        "size": len(row.subgraph.nodes),
                    }
                )
        return {
            "label": label,
            "rows_checked": covered_rows + len(violations),
            "violations": violations,
        }

    # ------------------------------------------------------------------
    # persistence (warm restarts through the ViewStore)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-serialisable snapshot of the full maintained state.

        Holds everything needed to warm-restart without re-streaming:
        per-row node sets, pattern payloads, histories and cost accounting,
        plus the configuration fingerprint (a restore under a different
        configuration must refuse rather than serve mismatched views).
        """
        return {
            "kind": SNAPSHOT_KIND,
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "config_fingerprint": self.config.fingerprint(),
            "batch_size": self.processor.batch_size,
            "seed": self.processor.seed,
            "label_source": self.label_source,
            "record_history": self.record_history,
            "labels": sorted(self.labels) if self.labels is not None else None,
            "database_version": self.database.version if self.database is not None else None,
            "rows": [self._row_payload(row) for row in self._rows.values()],
        }

    @staticmethod
    def _row_payload(row: MaintainedExplanation) -> dict[str, Any]:
        """One row's JSON-safe wire form (shared by snapshots and sharding)."""
        return {
            "graph_id": row.graph_id,
            "label": row.label,
            "stored_label": row.stored_label,
            "nodes": sorted(row.subgraph.nodes) if row.subgraph is not None else None,
            "explainability": (
                row.subgraph.explainability if row.subgraph is not None else None
            ),
            "consistent": row.subgraph.consistent if row.subgraph is not None else None,
            "counterfactual": (
                row.subgraph.counterfactual if row.subgraph is not None else None
            ),
            "patterns": [pattern.to_dict() for pattern in row.patterns],
            "history": row.history,
            "runtime_seconds": row.runtime_seconds,
        }

    def row_payloads(self, label: int | None = None) -> list[dict[str, Any]]:
        """Per-row wire payloads in database order (the sharded-assembly feed).

        Each entry is exactly one :meth:`snapshot` row.  Because the
        per-graph streaming pass shuffles every graph's node stream with a
        *fresh* seeded generator, rows are independent of database iteration
        order — a front-end holding rows from several maintainers (one per
        database shard) can reorder them by its own global database order
        and hand them to :func:`assemble_view_from_rows`, reproducing
        :meth:`view_for`'s assembly bit-for-bit.
        """
        rows = self._ordered_rows()
        if label is not None:
            rows = [row for row in rows if row.label == label]
        return [self._row_payload(row) for row in rows]

    @classmethod
    def from_snapshot(
        cls,
        payload: dict[str, Any],
        model: GNNClassifier,
        database: GraphDatabase,
        *,
        config: Configuration | None = None,
        processor: NodeStreamProcessor | None = None,
    ) -> "ViewMaintainer":
        """Warm-restart a maintainer from a :meth:`snapshot` payload.

        Rows whose graphs are still present in the database are restored
        without re-streaming; graphs the snapshot does not know (arrivals
        after the snapshot) are streamed fresh; snapshot rows for graphs no
        longer present are dropped.  Raises when the snapshot's kind/schema
        or configuration fingerprint does not match.
        """
        if not isinstance(payload, dict) or payload.get("kind") != SNAPSHOT_KIND:
            raise ExplanationError("payload is not a ViewMaintainer snapshot")
        if payload.get("schema_version") != SNAPSHOT_SCHEMA_VERSION:
            raise ExplanationError(
                f"unsupported maintainer snapshot schema "
                f"{payload.get('schema_version')!r} (expected {SNAPSHOT_SCHEMA_VERSION})"
            )
        maintainer = cls(
            model,
            config,
            processor=processor,
            batch_size=int(payload.get("batch_size", 8)),
            seed=payload.get("seed"),
            labels=payload.get("labels"),
            label_source=payload.get("label_source", "predicted"),
            record_history=bool(payload.get("record_history", False)),
        )
        fingerprint = maintainer.config.fingerprint()
        if payload.get("config_fingerprint") != fingerprint:
            raise ExplanationError(
                "maintainer snapshot was taken under a different configuration "
                f"({payload.get('config_fingerprint')} != {fingerprint}); "
                "rebuild instead of restoring"
            )
        by_id = {graph.graph_id: graph for graph in database.graphs}
        restored: dict[int | None, MaintainedExplanation] = {}
        for entry in payload.get("rows", []):
            graph = by_id.get(entry.get("graph_id"))
            if graph is None:
                continue
            nodes = entry.get("nodes")
            # Content-level identity guard: a snapshot row taken over a
            # *different* graph that happens to share the id (databases
            # assign overlapping auto ids) must be dropped — the graph is
            # then re-streamed — rather than resurrected as a wrong view.
            if nodes is not None and not set(nodes) <= set(graph.nodes):
                continue
            subgraph = None
            if nodes is not None:
                subgraph = ExplanationSubgraph(
                    source_graph=graph,
                    nodes=set(nodes),
                    label=entry["label"],
                    explainability=float(entry.get("explainability") or 0.0),
                    consistent=entry.get("consistent"),
                    counterfactual=entry.get("counterfactual"),
                )
            restored[graph.graph_id] = MaintainedExplanation(
                graph_id=graph.graph_id,
                label=entry.get("label"),
                graph=graph,
                subgraph=subgraph,
                patterns=[GraphPattern.from_dict(p) for p in entry.get("patterns", [])],
                history=list(entry.get("history", [])),
                stored_label=entry.get("stored_label"),
                runtime_seconds=float(entry.get("runtime_seconds", 0.0)),
            )
        # Install rows in *database order* so view assembly matches a fresh
        # replay exactly, then stream anything the snapshot did not cover.
        for graph in database.graphs:
            row = restored.get(graph.graph_id)
            if row is None:
                continue
            row_id = maintainer._next_row_id
            maintainer._next_row_id += 1
            maintainer._rows[row_id] = row
            maintainer._by_graph_id[graph.graph_id] = row_id
        maintainer._dirty.update(
            row.label for row in maintainer._rows.values() if row.label is not None
        )
        maintainer.attach(database, replay=False)
        maintainer.refresh()
        return maintainer

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _group_label(
        self, graph: Graph, *, stored_label: int | None, predicted: int | None
    ) -> int | None:
        if self.label_source == "stored" and stored_label is not None:
            return stored_label
        if predicted is not None:
            return predicted
        if graph.num_nodes() == 0:
            return None
        if self.label_predictor is not None:
            known = self.label_predictor(graph)
            if known is not None:
                return known
        return self.model.predict(graph)

    def _mark_dirty(self, label: int) -> None:
        self._dirty.add(label)

    def stats(self) -> dict[str, Any]:
        """Maintenance counters (how much work the deltas actually cost)."""
        return {
            "rows": len(self._rows),
            "maintained_labels": self.maintained_labels(),
            "graphs_streamed": self.graphs_streamed,
            "rows_retracted": self.rows_retracted,
            "deltas_applied": self.deltas_applied,
            "patterns_orphaned": self.patterns_orphaned,
            "stream_seconds": self.stream_seconds,
            "attached": self.database is not None,
            "label_source": self.label_source,
        }


# ----------------------------------------------------------------------
# cross-process view assembly (the sharded serving tier's identity lever)
# ----------------------------------------------------------------------
def assemble_view_from_rows(
    rows: Sequence[dict[str, Any]],
    label: int,
    graphs_by_id: dict[int | None, Graph],
    *,
    batch_size: int = DEFAULT_STREAM_BATCH_SIZE,
) -> ExplanationView:
    """Assemble one label's two-tier view from maintainer row payloads.

    The cross-process half of :meth:`ViewMaintainer.view_for`: a shard
    router collects :meth:`ViewMaintainer.row_payloads` from per-shard
    maintainers, orders them by its *global* database order, and this
    function applies the exact assembly law of ``_build_view`` — subgraphs
    in row order, patterns deduplicated by canonical key in first-seen
    order with reassigned ids, explainability summed in row order.  Since
    each row is computed independently of database iteration order (fresh
    seeded node-stream shuffle per graph), the result is bit-identical to
    a single maintainer (and hence a full ``StreamGVEX`` recompute) over
    the unsharded database.

    ``rows`` entries whose label differs are skipped, so callers may hand
    over unfiltered row lists.  Raises when a row references a graph the
    assembling database does not hold — shard routing and assembly must
    agree on membership, silently dropping a witness would corrupt the
    view.
    """
    subgraphs: list[ExplanationSubgraph] = []
    patterns: dict[tuple, GraphPattern] = {}
    runtime = 0.0
    for entry in rows:
        if entry.get("label") != label:
            continue
        runtime += float(entry.get("runtime_seconds", 0.0))
        nodes = entry.get("nodes")
        if nodes is not None:
            graph = graphs_by_id.get(entry.get("graph_id"))
            if graph is None:
                raise ExplanationError(
                    f"cannot assemble the view for label {label}: row graph "
                    f"{entry.get('graph_id')!r} is not in the assembling "
                    "database"
                )
            subgraphs.append(
                ExplanationSubgraph(
                    source_graph=graph,
                    nodes=set(nodes),
                    label=entry["label"],
                    explainability=float(entry.get("explainability") or 0.0),
                    consistent=entry.get("consistent"),
                    counterfactual=entry.get("counterfactual"),
                )
            )
        for payload in entry.get("patterns", []):
            pattern = GraphPattern.from_dict(payload)
            patterns.setdefault(pattern.canonical_key(), pattern)
    pattern_list = list(patterns.values())
    for index, pattern in enumerate(pattern_list):
        pattern.pattern_id = index
    return ExplanationView(
        label=label,
        patterns=pattern_list,
        subgraphs=subgraphs,
        explainability=float(sum(subgraph.explainability for subgraph in subgraphs)),
        metadata={
            "algorithm": "StreamGVEX",
            "batch_size": batch_size,
            "runtime_seconds": float(runtime),
            "histories": [],
        },
    )
