"""Indexed pattern-matching engine: the fast ``PMatch`` / ``IncPMatch`` substrate.

:mod:`repro.matching.isomorphism` is the paper-literal reference matcher — a
plain VF2-style backtracking search that re-derives everything per call.  It
is correct and kept untouched as the correctness oracle, but GVEX hammers it:
coverage predicates, view verification, explanation queries, mining support
counts and IncPGen dedup all funnel through ``has_matching``-shaped calls,
frequently with the *same* (pattern, graph) pair.  :class:`MatchEngine` makes
those calls cheap with three layers:

1. **Memoisation** — match results (existence, matched node/edge sets,
   matching counts) are memoised in a process-wide LRU
   (:class:`repro.core.caching.LRUCache`) keyed by the exact pattern and
   graph identities plus their mutation counters, weakref-guarded against
   garbage-collected objects recycling an ``id()``.  ``canonical_key()`` is
   deliberately *not* the key: it is a cheap heuristic invariant that
   non-isomorphic patterns can share, so keying on it would serve one
   pattern's results to a structurally different pattern.  Call sites hold
   on to their pattern objects across queries, which is what makes the memo
   effective despite the identity-based key.

2. **Vectorized prefilters** — per :class:`~repro.graphs.sparse.SparseGraphView`
   the engine consults cached type histograms, degree arrays and
   neighbour-type signature matrices (all built once per view) to compute a
   numpy candidate mask per pattern node.  A pattern whose type multiset
   exceeds the graph's histogram, or any pattern node with an empty candidate
   mask, is an exact emptiness certificate — no search runs at all.  This
   generalises the old 2-node-only ``_type_prefilter_fails`` to arbitrary
   patterns.

3. **Ordered masked search** — for uncapped queries the backtracking orders
   pattern nodes VF2++-style (fewest surviving candidates first, staying
   connected) and walks numpy candidate masks / CSR neighbour arrays instead
   of Python set intersections.  Queries with a ``max_matchings`` cap are
   *enumeration-order sensitive* (a cap truncates the sequence), so they run
   the reference matcher's exact node ordering and candidate order with the
   masks applied only as skip-filters — pruned candidates cannot occur in any
   complete matching, hence the yielded sequence (and therefore the truncated
   result) is bit-identical to the reference.

The module-level :func:`has_matching` / :func:`count_matchings` /
:func:`matched_node_sets` / :func:`match_many` dispatchers route through the
engine when the sparse backend is enabled (the default) and fall back to the
reference matcher under ``REPRO_SPARSE_BACKEND=0`` /
:func:`repro.graphs.sparse.sparse_backend` — the same A/B toggle every other
vectorized path uses, which is how benchmarks and tests assert identity.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import Counter
from collections.abc import Iterator, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.graphs.sparse import SparseGraphView, sparse_enabled
from repro.matching.isomorphism import _compatible as _reference_compatible
from repro.matching.isomorphism import _order_pattern_nodes as _reference_order
from repro.matching.isomorphism import has_matching as _reference_has_matching
from repro.matching.isomorphism import iter_matchings as _reference_iter_matchings

__all__ = [
    "MatchEngine",
    "get_engine",
    "set_match_cache_size",
    "warm_match_indices",
    "has_matching",
    "count_matchings",
    "matched_node_sets",
    "match_many",
]

DEFAULT_MATCH_CACHE_SIZE = 4096

# Below this node count the indexed search cannot recoup its setup cost (mask
# construction, per-view tables): the engine memoises but delegates the search
# itself to the reference matcher.  The streaming algorithm's IncPGen scoring
# probes thousands of *fresh* <=10-node neighbourhood subgraphs per run —
# exactly the shape where index setup would be pure overhead.
SMALL_GRAPH_NODES = 24

_MISS = object()


def type_histogram_deficit(pattern_counts: dict, graph_counts: dict) -> bool:
    """True when type histograms alone rule out any matching.

    A matching maps pattern nodes to *distinct* graph nodes of the same
    type, so a pattern needing more nodes of some type than the graph has
    cannot match — an exact emptiness certificate, independent of matching
    caps.  The single implementation behind the coverage fast path, the
    pattern-index feasibility check and the ``match_many`` batch prefilter.
    """
    return any(
        needed > graph_counts.get(node_type, 0)
        for node_type, needed in pattern_counts.items()
    )


class _PatternIndex:
    """Per-(pattern, view) candidate structure: masks, codes, adjacency.

    ``feasible`` is ``False`` when the prefilters alone certify that no
    matching exists (missing type/edge-type vocabulary, type histogram
    deficit, or an empty candidate mask for some pattern node).
    """

    __slots__ = ("nodes", "adj", "edge_codes", "masks", "feasible")

    def __init__(
        self, pattern: GraphPattern, view: SparseGraphView, use_prefilters: bool = True
    ) -> None:
        pattern_graph = pattern.graph
        self.nodes = list(pattern.nodes)
        self.adj = {node: pattern_graph.neighbors(node) for node in self.nodes}
        self.edge_codes: dict[tuple[int, int], int] = {}
        self.masks: dict[int, np.ndarray] = {}
        self.feasible = True

        # Type vocabulary + histogram certificates (exact, independent of caps).
        node_codes: dict[int, int] = {}
        for node in self.nodes:
            code = view.node_type_code(pattern.node_type(node))
            if code is None:
                self.feasible = False
                return
            node_codes[node] = code
        if type_histogram_deficit(pattern_graph.type_counts(), view.type_counts()):
            self.feasible = False
            return
        for u, v in pattern.edges:
            code = view.edge_type_code(pattern.edge_type(u, v))
            if code is None:
                self.feasible = False
                return
            key = (u, v) if u <= v else (v, u)
            self.edge_codes[key] = code

        # Candidate masks: type always; degree + neighbourhood signature when
        # prefiltering is on (it can be disabled to exercise the bare search).
        degrees = view.degrees() if use_prefilters else None
        neighbour_counts = view.neighbour_type_counts() if use_prefilters else None
        for node in self.nodes:
            mask = view.node_type_codes == node_codes[node]
            if use_prefilters and self.adj[node]:
                mask = mask & (degrees >= len(self.adj[node]))
                signature = Counter(node_codes[nbr] for nbr in self.adj[node])
                for code, needed in signature.items():
                    mask = mask & (neighbour_counts[:, code] >= needed)
            if not mask.any():
                self.feasible = False
                return
            self.masks[node] = mask

    def pattern_edge_code(self, u: int, v: int) -> int:
        return self.edge_codes[(u, v) if u <= v else (v, u)]

    def search_order(self) -> list[int]:
        """Most-constrained-first node order (VF2++-style).

        Start from the node with the fewest surviving candidates; then keep
        extending with a node adjacent to the ordered prefix (connectivity
        keeps the partial mapping anchored) again minimising the candidate
        count, breaking ties towards higher pattern degree then lower id so
        the order — and thus the engine's own enumeration — is deterministic.
        """
        counts = {node: int(self.masks[node].sum()) for node in self.nodes}
        ordered: list[int] = []
        ordered_set: set[int] = set()
        remaining = set(self.nodes)
        while remaining:
            pool = [
                node for node in remaining if self.adj[node] & ordered_set
            ] or sorted(remaining)
            chosen = min(pool, key=lambda node: (counts[node], -len(self.adj[node]), node))
            ordered.append(chosen)
            ordered_set.add(chosen)
            remaining.discard(chosen)
        return ordered


def _iter_row_mappings(
    index: _PatternIndex, view: SparseGraphView, max_matchings: int | None = None
) -> Iterator[dict[int, int]]:
    """Yield ``{pattern node -> graph row}`` mappings via the masked search.

    The *set* of complete mappings equals the reference matcher's; only the
    enumeration order differs, so this path serves every order-insensitive
    query (existence, uncapped unions/dedups, counts — a count capped at
    ``limit`` is ``min(total, limit)`` regardless of order).
    """
    order = index.search_order()
    neighbour_sets = view.row_neighbour_sets()
    edge_codes = view.edge_code_map()
    num_nodes = view.num_nodes
    # Candidate row lists, materialised lazily per pattern node: only nodes
    # with no mapped pattern neighbour scan the whole mask (the root — and,
    # for disconnected patterns, each component's first node); everyone else
    # walks an anchor's neighbour set.  Python ints + set lookups beat
    # per-step numpy scalar machinery by a wide margin at GVEX graph sizes.
    candidate_rows: dict[int, list[int]] = {}
    used: set[int] = set()
    mask_of = {node: index.masks[node] for node in order}
    mapping: dict[int, int] = {}
    yielded = 0

    def compatible(pattern_node: int, row: int) -> bool:
        pattern_neighbours = index.adj[pattern_node]
        for assigned, assigned_row in mapping.items():
            pattern_adjacent = assigned in pattern_neighbours
            if pattern_adjacent != (row in neighbour_sets[assigned_row]):
                return False
            if pattern_adjacent:
                lo, hi = (row, assigned_row) if row <= assigned_row else (assigned_row, row)
                if edge_codes[lo * num_nodes + hi] != index.pattern_edge_code(
                    pattern_node, assigned
                ):
                    return False
        return True

    def backtrack(position: int) -> Iterator[dict[int, int]]:
        nonlocal yielded
        if max_matchings is not None and yielded >= max_matchings:
            return
        if position == len(order):
            yielded += 1
            yield dict(mapping)
            return
        pattern_node = order[position]
        mapped_neighbours = [node for node in index.adj[pattern_node] if node in mapping]
        mask = mask_of[pattern_node]
        if mapped_neighbours:
            # Walk the neighbours of the mapped neighbour with the smallest
            # adjacency, keeping rows that survive the prefilter mask.
            anchor = min(
                mapped_neighbours, key=lambda node: len(neighbour_sets[mapping[node]])
            )
            candidates = [
                row
                for row in neighbour_sets[mapping[anchor]]
                if mask[row] and row not in used
            ]
        else:
            rows = candidate_rows.get(pattern_node)
            if rows is None:
                rows = index.masks[pattern_node].nonzero()[0].tolist()
                candidate_rows[pattern_node] = rows
            candidates = [row for row in rows if row not in used]
        for row in candidates:
            if compatible(pattern_node, row):
                mapping[pattern_node] = row
                used.add(row)
                yield from backtrack(position + 1)
                used.discard(row)
                del mapping[pattern_node]
                if max_matchings is not None and yielded >= max_matchings:
                    return

    yield from backtrack(0)


def _iter_reference_order(
    pattern: GraphPattern,
    graph: Graph,
    view: SparseGraphView,
    index: _PatternIndex,
    max_matchings: int | None,
) -> Iterator[dict[int, int]]:
    """Reference-identical enumeration with prefilter masks as skip-filters.

    This mirrors :func:`repro.matching.isomorphism.iter_matchings` — same
    pattern-node order, same candidate pools, same candidate order — and only
    *skips* candidates whose mask says they cannot occur in any complete
    matching.  Skipping such candidates never changes the sequence of
    complete matchings yielded, so results truncated by ``max_matchings`` are
    bit-identical to the reference matcher's.  Yields node-id mappings.
    """
    order = _reference_order(pattern, graph)
    graph_nodes = graph.nodes
    row_of = view.index
    masks = index.masks
    yielded = 0

    def backtrack(position: int, mapping: dict[int, int]) -> Iterator[dict[int, int]]:
        nonlocal yielded
        if max_matchings is not None and yielded >= max_matchings:
            return
        if position == len(order):
            yielded += 1
            yield dict(mapping)
            return
        pattern_node = order[position]
        candidate_pool: list[int] | None = None
        for neighbor in pattern.graph.neighbors(pattern_node):
            if neighbor in mapping:
                neighbourhood = graph.neighbors(mapping[neighbor])
                candidate_pool = (
                    [node for node in candidate_pool if node in neighbourhood]
                    if candidate_pool is not None
                    else sorted(neighbourhood)
                )
        candidates = candidate_pool if candidate_pool is not None else graph_nodes
        mask = masks[pattern_node]
        for graph_node in candidates:
            if not mask[row_of[graph_node]]:
                continue
            if _reference_compatible(pattern, graph, pattern_node, graph_node, mapping):
                mapping[pattern_node] = graph_node
                yield from backtrack(position + 1, mapping)
                del mapping[pattern_node]
                if max_matchings is not None and yielded >= max_matchings:
                    return

    yield from backtrack(0, {})


class MatchEngine:
    """Memoising, index-backed matcher shared process-wide.

    Thread-safe around the memo (the HTTP service handles requests on a
    thread pool); the searches themselves are pure functions of immutable
    snapshots.  ``use_prefilters`` exists so the property tests can exercise
    the bare ordered search against the reference matcher.
    """

    def __init__(self, capacity: int = DEFAULT_MATCH_CACHE_SIZE) -> None:
        # Imported lazily: repro.core pulls in the matching package through
        # the explainers, so a module-level import here would be circular.
        from repro.core.caching import LRUCache

        self._memo: LRUCache = LRUCache(capacity)
        self._lock = threading.Lock()
        self.use_prefilters = True
        self.small_graph_cutoff = SMALL_GRAPH_NODES

    # ------------------------------------------------------------------
    # memo plumbing
    # ------------------------------------------------------------------
    def resize(self, capacity: int) -> None:
        """Apply a new LRU capacity (keeps entries on grow, trims on shrink)."""
        with self._lock:
            self._memo.resize(capacity)

    def clear(self) -> None:
        """Drop every memoised match result."""
        with self._lock:
            self._memo.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return self._memo.stats()

    @staticmethod
    def _key(pattern: GraphPattern, graph: Graph, kind: str, cap) -> tuple:
        # Exact object identities + mutation counters (weakref-guarded in
        # _get).  Deliberately NOT pattern.canonical_key(): that is only a
        # cheap *heuristic* invariant — two non-isomorphic patterns can share
        # a structural signature — so keying on it would let one pattern's
        # cached results serve a structurally different pattern.
        return (
            id(pattern),
            pattern.graph.version,
            id(graph),
            graph.version,
            kind,
            cap,
        )

    def _get(self, key: tuple, pattern: GraphPattern, graph: Graph):
        with self._lock:
            entry = self._memo.get(key)
        if entry is None:
            return _MISS
        pattern_ref, graph_ref, payload = entry
        # A dead (or recycled-id) pattern/graph must never serve another
        # object's results; the versions in the key handle in-place mutation.
        if graph_ref() is not graph or pattern_ref() is not pattern:
            return _MISS
        return payload

    def _put(self, key: tuple, pattern: GraphPattern, graph: Graph, payload) -> None:
        with self._lock:
            self._memo.put(key, (weakref.ref(pattern), weakref.ref(graph), payload))

    # ------------------------------------------------------------------
    # shared search scaffolding
    # ------------------------------------------------------------------
    def _prepare(
        self, pattern: GraphPattern, graph: Graph
    ) -> tuple[SparseGraphView, _PatternIndex] | None:
        """Build (or recall) the per-(pattern, view) index; ``None`` certifies
        "no matching".  The index — candidate masks, edge codes, adjacency —
        is shared by every query kind against the same pair, so it lives in
        the same LRU as the results."""
        view = graph.sparse_view()
        key = self._key(pattern, graph, "index", self.use_prefilters)
        index = self._get(key, pattern, graph)
        if index is _MISS:
            index = _PatternIndex(pattern, view, use_prefilters=self.use_prefilters)
            self._put(key, pattern, graph, index)
        return (view, index) if index.feasible else None

    @staticmethod
    def _trivially_empty(pattern: GraphPattern, graph: Graph) -> bool:
        return pattern.num_nodes() == 0 or pattern.num_nodes() > graph.num_nodes()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_matching(self, pattern: GraphPattern, graph: Graph) -> bool:
        """True when the pattern matches the graph at least once."""
        if self._trivially_empty(pattern, graph):
            return False
        key = self._key(pattern, graph, "has", None)
        cached = self._get(key, pattern, graph)
        if cached is not _MISS:
            return cached
        if graph.num_nodes() <= self.small_graph_cutoff:
            result = _reference_has_matching(pattern, graph)
        else:
            prepared = self._prepare(pattern, graph)
            if prepared is None:
                result = False
            else:
                view, index = prepared
                result = (
                    next(_iter_row_mappings(index, view, max_matchings=1), None) is not None
                )
        self._put(key, pattern, graph, result)
        return result

    def count_matchings(self, pattern: GraphPattern, graph: Graph, limit: int | None = None) -> int:
        """Number of matching functions, optionally capped at ``limit``.

        A capped count is ``min(total, limit)`` whatever the enumeration
        order, so the fast ordered search is always safe here.
        """
        if self._trivially_empty(pattern, graph):
            return 0
        key = self._key(pattern, graph, "count", limit)
        cached = self._get(key, pattern, graph)
        if cached is not _MISS:
            return cached
        if graph.num_nodes() <= self.small_graph_cutoff:
            result = sum(
                1 for _ in _reference_iter_matchings(pattern, graph, max_matchings=limit)
            )
        else:
            prepared = self._prepare(pattern, graph)
            if prepared is None:
                result = 0
            else:
                view, index = prepared
                result = sum(1 for _ in _iter_row_mappings(index, view, max_matchings=limit))
        self._put(key, pattern, graph, result)
        return result

    def _iter_node_mappings(
        self,
        pattern: GraphPattern,
        graph: Graph,
        view: SparseGraphView,
        index: _PatternIndex,
        max_matchings: int | None,
    ) -> Iterator[dict[int, int]]:
        """Mappings onto *node ids*; reference order when a cap binds."""
        if max_matchings is None:
            node_ids = view.node_ids
            for mapping in _iter_row_mappings(index, view):
                yield {p: node_ids[row] for p, row in mapping.items()}
        else:
            yield from _iter_reference_order(pattern, graph, view, index, max_matchings)

    def _iter_capped_union(
        self,
        pattern: GraphPattern,
        graph: Graph,
        view: SparseGraphView,
        index: _PatternIndex,
        max_matchings: int | None,
    ) -> Iterator[dict[int, int]]:
        """Node-id mappings for *set-valued* capped queries (coverage unions).

        A cap only changes the result when it **binds** (more matchings exist
        than the cap).  The fast ordered search probes for ``cap + 1``
        matchings first: when the cap does not bind the union over all
        matchings is order-independent, so the collected fast-path mappings
        are the exact answer; only genuinely-truncated queries replay the
        reference enumeration order.  Never use this for ``matched_node_sets``
        — its *list order* is part of the contract whenever a cap is given.
        """
        if max_matchings is None:
            yield from self._iter_node_mappings(pattern, graph, view, index, None)
            return
        probe: list[dict[int, int]] = []
        for mapping in _iter_row_mappings(index, view, max_matchings=max_matchings + 1):
            probe.append(mapping)
        if len(probe) <= max_matchings:
            node_ids = view.node_ids
            for mapping in probe:
                yield {p: node_ids[row] for p, row in mapping.items()}
            return
        yield from _iter_reference_order(pattern, graph, view, index, max_matchings)

    def matched_node_sets(
        self, pattern: GraphPattern, graph: Graph, max_matchings: int | None = None
    ) -> list[set[int]]:
        """Distinct node sets covered by individual matchings.

        Capped queries reproduce the reference matcher's list exactly
        (including order); uncapped queries yield the same sets, possibly in
        a different discovery order.
        """
        if self._trivially_empty(pattern, graph):
            return []
        key = self._key(pattern, graph, "nodesets", max_matchings)
        cached = self._get(key, pattern, graph)
        if cached is not _MISS:
            return [set(node_set) for node_set in cached]
        sets: list[frozenset[int]] = []
        seen: set[frozenset[int]] = set()
        if graph.num_nodes() <= self.small_graph_cutoff:
            mappings: Iterator[dict[int, int]] = _reference_iter_matchings(
                pattern, graph, max_matchings=max_matchings
            )
            for mapping in mappings:
                node_set = frozenset(mapping.values())
                if node_set not in seen:
                    seen.add(node_set)
                    sets.append(node_set)
        else:
            prepared = self._prepare(pattern, graph)
            if prepared is not None:
                view, index = prepared
                for mapping in self._iter_node_mappings(
                    pattern, graph, view, index, max_matchings
                ):
                    node_set = frozenset(mapping.values())
                    if node_set not in seen:
                        seen.add(node_set)
                        sets.append(node_set)
        self._put(key, pattern, graph, tuple(sets))
        return [set(node_set) for node_set in sets]

    def covered_nodes(
        self, pattern: GraphPattern, graph: Graph, max_matchings: int | None = None
    ) -> set[int]:
        """Graph nodes covered by at least one matching (memoised)."""
        if self._trivially_empty(pattern, graph):
            return set()
        key = self._key(pattern, graph, "covered_nodes", max_matchings)
        cached = self._get(key, pattern, graph)
        if cached is not _MISS:
            return set(cached)
        covered: set[int] = set()
        total = graph.num_nodes()
        if total <= self.small_graph_cutoff:
            for mapping in _reference_iter_matchings(
                pattern, graph, max_matchings=max_matchings
            ):
                covered.update(mapping.values())
                if len(covered) == total:
                    break
        else:
            prepared = self._prepare(pattern, graph)
            if prepared is not None:
                view, index = prepared
                for mapping in self._iter_capped_union(
                    pattern, graph, view, index, max_matchings
                ):
                    covered.update(mapping.values())
                    if len(covered) == total and max_matchings is None:
                        break
        self._put(key, pattern, graph, frozenset(covered))
        return covered

    def covered_edges(
        self, pattern: GraphPattern, graph: Graph, max_matchings: int | None = None
    ) -> set[tuple[int, int]]:
        """Graph edges covered by at least one matching (memoised)."""
        if self._trivially_empty(pattern, graph):
            return set()
        key = self._key(pattern, graph, "covered_edges", max_matchings)
        cached = self._get(key, pattern, graph)
        if cached is not _MISS:
            return set(cached)
        covered: set[tuple[int, int]] = set()
        total = graph.num_edges()
        pattern_edges = pattern.edges
        if graph.num_nodes() <= self.small_graph_cutoff:
            for mapping in _reference_iter_matchings(
                pattern, graph, max_matchings=max_matchings
            ):
                for u, v in pattern_edges:
                    a, b = mapping[u], mapping[v]
                    covered.add((a, b) if a <= b else (b, a))
                if len(covered) == total:
                    break
        else:
            prepared = self._prepare(pattern, graph)
            if prepared is not None:
                view, index = prepared
                for mapping in self._iter_capped_union(
                    pattern, graph, view, index, max_matchings
                ):
                    for u, v in pattern_edges:
                        a, b = mapping[u], mapping[v]
                        covered.add((a, b) if a <= b else (b, a))
                    if len(covered) == total and max_matchings is None:
                        break
        self._put(key, pattern, graph, frozenset(covered))
        return covered

    def match_many(self, pattern: GraphPattern, graphs: Sequence[Graph]) -> list[bool]:
        """``has_matching`` over a whole graph collection.

        The batch prefilter compares the pattern's type histogram against
        every graph's cached histogram first, so the backtracking search only
        runs on the survivors — the call shape of mining support counts over
        a :class:`~repro.graphs.database.GraphDatabase`.
        """
        if pattern.num_nodes() == 0:
            return [False for _ in graphs]
        pattern_counts = pattern.graph.type_counts()
        pattern_size = pattern.num_nodes()
        results: list[bool] = []
        for graph in graphs:
            if pattern_size > graph.num_nodes():
                results.append(False)
                continue
            # Small graphs never build a CSR view here: they run the
            # reference search anyway, so a dict histogram is all we need.
            if graph.num_nodes() <= self.small_graph_cutoff:
                graph_counts = graph.type_counts()
            else:
                graph_counts = graph.sparse_view().type_counts()
            if type_histogram_deficit(pattern_counts, graph_counts):
                results.append(False)
                continue
            results.append(self.has_matching(pattern, graph))
        return results


# ----------------------------------------------------------------------
# process-wide engine + dispatchers (A/B'd by the sparse-backend toggle)
# ----------------------------------------------------------------------
_ENGINE: MatchEngine | None = None
_ENGINE_LOCK = threading.Lock()


def _env_cache_size() -> int:
    """Initial memo capacity, honouring ``REPRO_MATCH_CACHE_SIZE``.

    A malformed value fails loudly and names the env var — the first
    symptom would otherwise be a bare ``ValueError`` deep inside a match
    dispatch with no hint of its origin.
    """
    raw = os.environ.get("REPRO_MATCH_CACHE_SIZE")
    if raw is None:
        return DEFAULT_MATCH_CACHE_SIZE
    try:
        capacity = int(raw)
    except ValueError:
        capacity = -1
    if capacity < 0:  # same validation Configuration.match_cache_size applies
        from repro.exceptions import ConfigurationError

        raise ConfigurationError(
            f"REPRO_MATCH_CACHE_SIZE must be a non-negative integer, got {raw!r}; "
            "unset it or use e.g. REPRO_MATCH_CACHE_SIZE=8192 (0 disables memoisation)"
        ) from None
    return capacity


def get_engine() -> MatchEngine:
    """The process-wide match engine (created on first use)."""
    global _ENGINE
    if _ENGINE is None:
        with _ENGINE_LOCK:
            if _ENGINE is None:
                _ENGINE = MatchEngine(_env_cache_size())
    return _ENGINE


def set_match_cache_size(capacity: int) -> None:
    """Resize the process-wide match memo immediately.

    Later explainer constructions re-apply their own
    ``Configuration.match_cache_size`` (the configuration field owns the
    knob); set the ``REPRO_MATCH_CACHE_SIZE`` environment variable instead
    to pin a size against those configuration-driven resizes.
    """
    get_engine().resize(capacity)


def apply_config_cache_size(capacity: int) -> None:
    """Apply a ``Configuration.match_cache_size`` to the shared engine.

    Explainer constructors route through this so that an operator-pinned
    ``REPRO_MATCH_CACHE_SIZE`` environment override is never silently undone
    (or a warm cache evicted) by constructing an explainer with a default
    configuration.  Without the override, last-applied-configuration wins —
    the engine is process-wide, as documented on the configuration field.
    """
    if os.environ.get("REPRO_MATCH_CACHE_SIZE") is not None:
        return
    get_engine().resize(capacity)


def warm_match_indices(graphs: Sequence[Graph]) -> int:
    """Prebuild every graph's match-side indices (degree / neighbour-type
    signatures / row-neighbour sets / edge-code tables on the CSR view) so
    the first matcher query pays no setup cost — the match-engine analogue
    of ``GraphDatabase.warm_sparse_cache``.  Graphs at or below the engine's
    small-graph cutoff are skipped (they run the reference search and never
    consult these indices); returns the number of graphs actually warmed
    (0 when the sparse backend is disabled).
    """
    if not sparse_enabled():
        return 0
    cutoff = get_engine().small_graph_cutoff
    built = 0
    for graph in graphs:
        if graph.num_nodes() <= cutoff:
            continue
        view = graph.sparse_view()
        view.degrees()
        view.neighbour_type_counts()
        view.row_neighbour_sets()
        view.edge_code_map()
        built += 1
    return built


def has_matching(pattern: GraphPattern, graph: Graph) -> bool:
    """True when the pattern matches the graph at least once (engine-backed)."""
    if sparse_enabled():
        return get_engine().has_matching(pattern, graph)
    return _reference_has_matching(pattern, graph)


def count_matchings(pattern: GraphPattern, graph: Graph, limit: int | None = None) -> int:
    """Number of matching functions (optionally capped at ``limit``)."""
    if sparse_enabled():
        return get_engine().count_matchings(pattern, graph, limit=limit)
    from repro.matching.isomorphism import count_matchings as reference_count

    return reference_count(pattern, graph, limit=limit)


def matched_node_sets(
    pattern: GraphPattern, graph: Graph, max_matchings: int | None = None
) -> list[set[int]]:
    """Distinct sets of graph nodes covered by individual matchings."""
    if sparse_enabled():
        return get_engine().matched_node_sets(pattern, graph, max_matchings=max_matchings)
    from repro.matching.isomorphism import matched_node_sets as reference_sets

    return reference_sets(pattern, graph, max_matchings=max_matchings)


def match_many(pattern: GraphPattern, graphs: Sequence[Graph]) -> list[bool]:
    """``has_matching`` across a graph collection, batch-prefiltered."""
    if sparse_enabled():
        return get_engine().match_many(pattern, list(graphs))
    return [_reference_has_matching(pattern, graph) for graph in graphs]
