"""Cached CSR-style sparse views of :class:`~repro.graphs.graph.Graph`.

The dict/set adjacency structure of :class:`Graph` is the source of truth for
mutation (``StreamGVEX`` grows graphs incrementally, the generators build them
node by node), but the hot paths of GVEX — influence propagation, ``EVerify``
probes, coverage matching, neighbourhood extraction — are all bulk array
operations.  :class:`SparseGraphView` snapshots a graph into flat ``numpy``
arrays once and caches every derived matrix (dense adjacency, GCN propagation
operator, feature matrix) so repeated queries against the same graph cost a
dictionary lookup instead of a Python loop over nodes and edges.

Views are immutable snapshots: :meth:`Graph.sparse_view` compares the view's
``version`` against the graph's mutation counter and rebuilds lazily after any
``add_node`` / ``add_edge`` / ``remove_*`` call, so incremental algorithms keep
working unchanged.

The per-node references for these kernels are in :mod:`repro.core.oracles`;
the identity tests and the efficiency benchmarks compare the two on
identical inputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import GraphError

try:  # scipy is optional; dense fallbacks exist everywhere it is used.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graphs.graph import Graph

__all__ = ["BatchedGraphView", "SparseGraphView"]


class SparseGraphView:
    """An immutable CSR snapshot of one graph plus cached derived matrices.

    Attributes
    ----------
    version:
        The graph's mutation counter at snapshot time; a mismatch tells
        :meth:`Graph.sparse_view` to rebuild.
    node_ids:
        Node identifiers in insertion order (row ``i`` of every matrix is
        ``node_ids[i]``).
    indptr / indices:
        CSR adjacency over row indices; the neighbours of row ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending.
    edge_u / edge_v:
        Row-index endpoints of the canonical undirected edge list, aligned
        with ``Graph.edges`` (sorted by node-id pair).
    node_type_codes / edge_type_codes:
        Integer type codes into ``node_type_vocab`` / ``edge_type_vocab``.
    """

    __slots__ = (
        "version",
        "node_ids",
        "index",
        "num_nodes",
        "num_edges",
        "indptr",
        "indices",
        "edge_u",
        "edge_v",
        "node_type_codes",
        "node_type_vocab",
        "edge_type_codes",
        "edge_type_vocab",
        "_dense_adjacency",
        "_dense_adjacency_self_loops",
        "_scipy_adjacency",
        "_propagation",
        "_feature_rows",
        "_feature_block",
        "_feature_dims",
        "_feature_cache",
        "_rows_by_type",
        "_type_counts",
        "_degrees",
        "_neighbour_type_counts",
        "_row_neighbour_sets",
        "_edge_code_map",
    )

    def __init__(self, graph: "Graph") -> None:
        adj = graph._adj
        order = graph._node_order
        self.version = graph.version
        self.node_ids = list(order)
        self.index = {node: row for row, node in enumerate(order)}
        self.num_nodes = len(order)
        self.num_edges = graph.num_edges()

        degrees = np.fromiter(
            (len(adj[node]) for node in order), dtype=np.int64, count=self.num_nodes
        )
        self.indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.indptr[1:])
        self.indices = np.empty(int(self.indptr[-1]), dtype=np.int64)
        index = self.index
        for row, node in enumerate(order):
            neighbours = adj[node]
            if neighbours:
                start, stop = self.indptr[row], self.indptr[row + 1]
                self.indices[start:stop] = np.sort(
                    np.fromiter((index[n] for n in neighbours), dtype=np.int64, count=len(neighbours))
                )

        # Canonical edge list aligned with ``Graph.edges`` (sorted id pairs).
        edges = graph.edges
        edge_types = graph._edge_types
        self.edge_u = np.fromiter((index[u] for u, _ in edges), dtype=np.int64, count=len(edges))
        self.edge_v = np.fromiter((index[v] for _, v in edges), dtype=np.int64, count=len(edges))
        edge_vocab: dict[str, int] = {}
        edge_codes = np.empty(len(edges), dtype=np.int64)
        for position, key in enumerate(edges):
            edge_codes[position] = edge_vocab.setdefault(edge_types[key], len(edge_vocab))
        self.edge_type_codes = edge_codes
        self.edge_type_vocab = list(edge_vocab)

        node_types = graph._node_types
        node_vocab: dict[str, int] = {}
        node_codes = np.empty(self.num_nodes, dtype=np.int64)
        for row, node in enumerate(order):
            node_codes[row] = node_vocab.setdefault(node_types[node], len(node_vocab))
        self.node_type_codes = node_codes
        self.node_type_vocab = list(node_vocab)

        features = graph._node_features
        self._feature_rows = np.fromiter(
            (row for row, node in enumerate(order) if node in features), dtype=np.int64
        )
        self._feature_dims = sorted({int(vec.shape[0]) for vec in features.values()})
        if len(self._feature_dims) == 1:
            self._feature_block = np.stack([features[order[row]] for row in self._feature_rows])
        else:
            self._feature_block = None  # empty or inconsistent; resolved on demand

        self._dense_adjacency: np.ndarray | None = None
        self._dense_adjacency_self_loops: np.ndarray | None = None
        self._scipy_adjacency = None
        self._propagation: dict[str, np.ndarray] = {}
        self._feature_cache: dict[int, np.ndarray] = {}
        self._rows_by_type: dict[int, np.ndarray] | None = None
        self._type_counts: dict[str, int] | None = None
        self._degrees: np.ndarray | None = None
        self._neighbour_type_counts: np.ndarray | None = None
        self._row_neighbour_sets: list[set[int]] | None = None
        self._edge_code_map: dict[int, int] | None = None

    @classmethod
    def from_parts(
        cls,
        *,
        version: int,
        node_ids: list[int],
        num_edges: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        node_type_codes: np.ndarray,
        node_type_vocab: list[str],
        edge_type_codes: np.ndarray,
        edge_type_vocab: list[str],
        feature_rows: np.ndarray,
        feature_dims: list[int],
        feature_block: np.ndarray | None,
    ) -> "SparseGraphView":
        """Assemble a view around prebuilt arrays (shared-memory attachment).

        The arrays are installed as-is — typically zero-copy ``numpy`` views
        over a ``multiprocessing.shared_memory`` buffer, so N shard workers
        serve the same read-mostly CSR snapshot without paying N× memory.
        The caller owns keeping the backing buffer alive for the view's
        lifetime; the per-view lazy caches (dense adjacency, propagation
        operator, …) stay process-local, exactly as after ``__init__``.
        """
        view = object.__new__(cls)
        view.version = int(version)
        view.node_ids = list(node_ids)
        view.index = {node: row for row, node in enumerate(view.node_ids)}
        view.num_nodes = len(view.node_ids)
        view.num_edges = int(num_edges)
        view.indptr = indptr
        view.indices = indices
        view.edge_u = edge_u
        view.edge_v = edge_v
        view.node_type_codes = node_type_codes
        view.node_type_vocab = list(node_type_vocab)
        view.edge_type_codes = edge_type_codes
        view.edge_type_vocab = list(edge_type_vocab)
        view._feature_rows = feature_rows
        view._feature_dims = [int(dim) for dim in feature_dims]
        view._feature_block = feature_block
        view._dense_adjacency = None
        view._dense_adjacency_self_loops = None
        view._scipy_adjacency = None
        view._propagation = {}
        view._feature_cache = {}
        view._rows_by_type = None
        view._type_counts = None
        view._degrees = None
        view._neighbour_type_counts = None
        view._row_neighbour_sets = None
        view._edge_code_map = None
        return view

    # ------------------------------------------------------------------
    # row lookups
    # ------------------------------------------------------------------
    def rows_for(self, nodes: Iterable[int]) -> np.ndarray:
        """Sorted row indices of a node-id subset (insertion order preserved)."""
        index = self.index
        rows = np.fromiter((index[node] for node in nodes), dtype=np.int64)
        rows.sort()
        return rows

    def neighbours_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Union of neighbour rows of ``rows`` (one CSR gather, deduplicated)."""
        if len(rows) == 0:
            return rows
        chunks = [self.indices[self.indptr[row] : self.indptr[row + 1]] for row in rows]
        return np.unique(np.concatenate(chunks)) if chunks else rows

    def khop_rows(self, start_row: int, hops: int) -> np.ndarray:
        """Rows within ``hops`` of ``start_row`` — one array pass per hop."""
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[start_row] = True
        frontier = np.array([start_row], dtype=np.int64)
        for _ in range(hops):
            candidates = self.neighbours_of_rows(frontier)
            frontier = candidates[~seen[candidates]]
            if len(frontier) == 0:
                break
            seen[frontier] = True
        return np.flatnonzero(seen)

    def type_counts(self) -> dict[str, int]:
        """Histogram of node types (one ``bincount`` pass, cached per view)."""
        if self._type_counts is None:
            counts = np.bincount(self.node_type_codes, minlength=len(self.node_type_vocab))
            self._type_counts = {
                name: int(counts[code]) for code, name in enumerate(self.node_type_vocab)
            }
        return self._type_counts

    def rows_of_type(self, type_code: int) -> np.ndarray:
        """Rows whose node type has the given code (cached per view)."""
        if self._rows_by_type is None:
            self._rows_by_type = {
                code: np.flatnonzero(self.node_type_codes == code)
                for code in range(len(self.node_type_vocab))
            }
        return self._rows_by_type.get(type_code, np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # match-engine indices (see repro.matching.engine)
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Per-row node degrees (cached; treat as read-only)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    def neighbour_type_counts(self) -> np.ndarray:
        """``(num_nodes, num_types)`` counts of each row's neighbour types.

        Row ``i``, column ``c`` holds how many neighbours of node ``i`` carry
        the node type with code ``c`` — the neighbourhood signature the match
        engine prunes candidates with: a graph node can only host a pattern
        node if it has at least as many neighbours of every type as the
        pattern node does.  Built with two scatter-adds over the flat edge
        arrays, cached per view.
        """
        if self._neighbour_type_counts is None:
            counts = np.zeros(
                (self.num_nodes, max(len(self.node_type_vocab), 1)), dtype=np.int64
            )
            if len(self.edge_u):
                np.add.at(counts, (self.edge_u, self.node_type_codes[self.edge_v]), 1)
                np.add.at(counts, (self.edge_v, self.node_type_codes[self.edge_u]), 1)
            self._neighbour_type_counts = counts
        return self._neighbour_type_counts

    def row_neighbour_sets(self) -> list[set[int]]:
        """Per-row neighbour sets over row indices (cached; treat as read-only).

        The match engine's inner loop is millions of adjacency membership
        tests on small graphs, where Python ``in set`` beats a numpy binary
        search by an order of magnitude; one CSR pass builds all sets.
        """
        if self._row_neighbour_sets is None:
            flat = self.indices.tolist()
            bounds = self.indptr.tolist()
            self._row_neighbour_sets = [
                set(flat[bounds[row] : bounds[row + 1]]) for row in range(self.num_nodes)
            ]
        return self._row_neighbour_sets

    def edge_code_map(self) -> dict[int, int]:
        """``{row_lo * num_nodes + row_hi: edge type code}`` (cached).

        O(1) edge-type lookups for the match engine's edge consistency
        checks; built vectorized from the flat edge arrays.
        """
        if self._edge_code_map is None:
            lo = np.minimum(self.edge_u, self.edge_v)
            hi = np.maximum(self.edge_u, self.edge_v)
            keys = (lo * np.int64(self.num_nodes) + hi).tolist()
            self._edge_code_map = dict(zip(keys, self.edge_type_codes.tolist()))
        return self._edge_code_map

    def node_type_code(self, type_name: str) -> int | None:
        """Code of a node-type name, or ``None`` when absent from this graph."""
        try:
            return self.node_type_vocab.index(type_name)
        except ValueError:
            return None

    def edge_type_code(self, type_name: str) -> int | None:
        """Code of an edge-type name, or ``None`` when absent from this graph."""
        try:
            return self.edge_type_vocab.index(type_name)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # cached dense matrices
    # ------------------------------------------------------------------
    def dense_adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency (cached; treat as read-only)."""
        if self._dense_adjacency is None:
            matrix = np.zeros((self.num_nodes, self.num_nodes), dtype=float)
            if len(self.edge_u):
                matrix[self.edge_u, self.edge_v] = 1.0
                matrix[self.edge_v, self.edge_u] = 1.0
            self._dense_adjacency = matrix
        return self._dense_adjacency

    def sub_adjacency(self, rows: np.ndarray) -> np.ndarray:
        """Dense adjacency of the node-induced submatrix (a fresh array)."""
        return self.dense_adjacency()[np.ix_(rows, rows)]

    def scipy_adjacency(self):
        """The adjacency as a ``scipy.sparse`` CSR matrix (cached; read-only).

        Shares this view's ``indptr``/``indices`` buffers (zero copy).
        Returns ``None`` when scipy is unavailable.
        """
        if _scipy_sparse is None:
            return None
        if self._scipy_adjacency is None:
            data = np.ones(len(self.indices), dtype=float)
            self._scipy_adjacency = _scipy_sparse.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.num_nodes, self.num_nodes)
            )
        return self._scipy_adjacency

    def dense_adjacency_self_loops(self) -> np.ndarray:
        """``A + I`` (cached; treat as read-only).

        Any node-induced submatrix of ``A + I`` equals the submatrix of ``A``
        plus its own identity, so subset extraction for GCN normalisation is
        a single slice of this cache.
        """
        if self._dense_adjacency_self_loops is None:
            matrix = self.dense_adjacency().copy()
            matrix.flat[:: self.num_nodes + 1] += 1.0
            self._dense_adjacency_self_loops = matrix
        return self._dense_adjacency_self_loops

    def propagation(self, conv: str) -> np.ndarray:
        """The message-passing operator for a convolution type (cached).

        ``gcn`` gets the symmetric normalisation ``D^-1/2 (A+I) D^-1/2``;
        every other convolution uses the raw adjacency.
        """
        cached = self._propagation.get(conv)
        if cached is None:
            if conv == "gcn":
                from repro.gnn.tensor_ops import normalize_adjacency

                cached = normalize_adjacency(self.dense_adjacency())
            else:
                cached = self.dense_adjacency()
            self._propagation[conv] = cached
        return cached

    def resolve_feature_dim(self, feature_dim: int | None) -> int:
        """Validate a requested feature dimensionality against stored features."""
        dims = self._feature_dims
        if len(dims) > 1:
            raise GraphError(f"inconsistent feature dimensions: {dims}")
        if feature_dim is None:
            return dims[0] if dims else 1
        if dims and dims != [feature_dim]:
            raise GraphError(
                f"requested feature_dim={feature_dim} but stored features have dim {dims[0]}"
            )
        return feature_dim

    def feature_matrix(self, feature_dim: int | None = None) -> np.ndarray:
        """Dense feature matrix with the ``1.0`` default fill (cached; read-only).

        Semantics match :meth:`Graph.feature_matrix`, including the errors for
        inconsistent or mismatching dimensionalities.
        """
        dim = self.resolve_feature_dim(feature_dim)
        cached = self._feature_cache.get(dim)
        if cached is None:
            cached = np.ones((self.num_nodes, dim), dtype=float)
            if self._feature_block is not None and len(self._feature_rows):
                cached[self._feature_rows] = self._feature_block
            self._feature_cache[dim] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SparseGraphView |V|={self.num_nodes} |E|={self.num_edges} v{self.version}>"


class BatchedGraphView:
    """A block-diagonal CSR batch over node subsets of one or more graphs.

    Message passing never crosses graph boundaries, so a whole label group —
    or many candidate subsets of one source graph — can run through a single
    forward pass when their adjacencies are stacked block-diagonally and
    their feature rows concatenated.  Block ``b`` holds batch rows
    ``offsets[b]:offsets[b + 1]``.  The batch's rows are the stacked
    ``(view, rows)`` pairs of ``gathers``: one per graph for a whole-graph
    batch, one over all blocks for a subset batch of ``EVerify`` probes.

    The batch caches the stacked feature matrix per dimensionality and one
    message-passing operator per convolution type (``gcn`` symmetric
    normalisation, ``gin`` raw adjacency, ``sage`` row-normalised mean
    adjacency) — normalisation is safe to apply globally because node degrees
    never span blocks.  All operators require scipy; :meth:`operator` returns
    ``None`` without it and callers fall back to per-graph inference.
    """

    __slots__ = (
        "gathers", "num_blocks", "offsets", "total_rows", "indptr", "indices",
        "_adjacency", "_operators", "_features",
    )

    def __init__(
        self,
        sizes: Sequence[int] | np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        gathers: list[tuple[SparseGraphView, np.ndarray]],
    ) -> None:
        self.gathers = gathers
        self.num_blocks = len(sizes)
        self.offsets = np.zeros(self.num_blocks + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.offsets[1:])
        self.total_rows = int(self.offsets[-1])
        self.indptr = indptr
        self.indices = indices
        self._adjacency = None
        self._operators: dict[str, object] = {}
        self._features: dict[int, np.ndarray] = {}

    @classmethod
    def from_graphs(cls, graphs: Iterable["Graph"]) -> "BatchedGraphView":
        """Whole-graph batch: one block per graph, each graph's CSR shifted."""
        views = [graph.sparse_view() for graph in graphs]
        nnz = np.cumsum([0] + [len(view.indices) for view in views])
        rows = np.cumsum([0] + [view.num_nodes for view in views])
        return cls(
            np.diff(rows),
            np.concatenate([nnz[:1]] + [view.indptr[1:] + base for view, base in zip(views, nnz)]),
            np.concatenate([nnz[:0]] + [view.indices + base for view, base in zip(views, rows)]),
            [(view, np.arange(view.num_nodes, dtype=np.int64)) for view in views],
        )

    @classmethod
    def from_subsets(
        cls, view: SparseGraphView, rows: np.ndarray, sizes: Sequence[int] | np.ndarray
    ) -> "BatchedGraphView":
        """Subset batch: block ``b`` is the next ``sizes[b]`` entries of ``rows``.

        The block-diagonal CSR of every node-induced submatrix comes from one
        flat gather of all selected rows' neighbour lists: a ``(block, source
        row) -> batch row`` lookup maps each neighbour into its own block or
        drops it.  The feature rows are one gather too.
        """
        rows = np.asarray(rows, dtype=np.int64)
        block_base = np.repeat(np.arange(len(sizes), dtype=np.int64) * view.num_nodes, sizes)
        lookup = np.full(len(sizes) * view.num_nodes, -1, dtype=np.int64)
        lookup[block_base + rows] = np.arange(len(rows), dtype=np.int64)
        starts = view.indptr[rows]
        lengths = view.indptr[rows + 1] - starts
        # Flat positions of every neighbour entry of every selected row.
        flat = np.arange(int(lengths.sum()), dtype=np.int64)
        flat += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        cols = lookup[np.repeat(block_base, lengths) + view.indices[flat]]
        keep = cols >= 0
        kept_rows = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)[keep]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(kept_rows, minlength=len(rows)), out=indptr[1:])
        return cls(sizes, indptr, cols[keep], [(view, rows)])

    # ------------------------------------------------------------------
    # stacked matrices
    # ------------------------------------------------------------------
    def feature_matrix(self, feature_dim: int | None = None) -> np.ndarray:
        """Concatenated feature rows of every block (cached; read-only)."""
        key = -1 if feature_dim is None else feature_dim
        cached = self._features.get(key)
        if cached is None:
            parts = [view.feature_matrix(feature_dim)[rows] for view, rows in self.gathers]
            if len(parts) == 1:
                cached = parts[0]
            else:
                cached = np.concatenate(parts, axis=0) if parts else np.zeros((0, feature_dim or 1))
            self._features[key] = cached
        return cached

    def _block_adjacency(self):
        """Block-diagonal scipy CSR adjacency (cached; ``None`` sans scipy)."""
        if _scipy_sparse is None:
            return None
        if self._adjacency is None:
            data = np.ones(len(self.indices), dtype=float)
            self._adjacency = _scipy_sparse.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.total_rows, self.total_rows)
            )
        return self._adjacency

    def _degree_scale(self, conv: str) -> np.ndarray:
        """Cached per-row normalisation vector for a convolution type."""
        cached = self._operators.get(conv)
        if cached is None:
            adjacency = self._block_adjacency()
            degrees = np.asarray(adjacency.sum(axis=1)).ravel()
            if conv == "gcn":
                cached = (degrees + 1.0) ** -0.5  # self loops: every degree >= 1
            else:  # sage mean aggregation
                degrees[degrees == 0] = 1.0
                cached = 1.0 / degrees
            self._operators[conv] = cached
        return cached

    def propagate(self, conv: str, hidden: np.ndarray) -> np.ndarray | None:
        """One message-passing aggregation over the whole batch.

        Returns the conv-specific aggregation of ``hidden`` (``None`` when
        scipy is unavailable): the GCN symmetric normalisation
        ``D^-1/2 (A+I) D^-1/2 H`` is applied as two row scalings around one
        sparse matvec — the self loops and diagonal scalings never need a
        materialised ``A+I`` — ``sage`` yields the mean-aggregated
        neighbours, and anything else the raw ``A @ H``.
        """
        adjacency = self._block_adjacency()
        if adjacency is None:
            return None
        if conv == "gcn":
            inv_sqrt = self._degree_scale(conv)[:, None]
            scaled = inv_sqrt * hidden
            return inv_sqrt * (adjacency @ scaled + scaled)
        if conv == "sage":
            return self._degree_scale(conv)[:, None] * (adjacency @ hidden)
        return adjacency @ hidden

    # ------------------------------------------------------------------
    # per-block readout
    # ------------------------------------------------------------------
    def segment_pool(self, hidden: np.ndarray, mode: str) -> np.ndarray:
        """Pool node rows into one row per block (max/mean/sum).

        Empty blocks pool to zero rows, matching the empty-graph
        short-circuit of the per-graph forward pass.
        """
        pooled = np.zeros((self.num_blocks, hidden.shape[1]))
        sizes = np.diff(self.offsets)
        nonempty = sizes > 0
        if not nonempty.any():
            return pooled
        # Empty segments occupy no rows, so the spans between consecutive
        # non-empty starts align exactly with block contents.
        starts = self.offsets[:-1][nonempty]
        if mode == "max":
            pooled[nonempty] = np.maximum.reduceat(hidden, starts, axis=0)
        elif mode == "mean":
            pooled[nonempty] = np.add.reduceat(hidden, starts, axis=0) / sizes[nonempty][:, None]
        else:
            pooled[nonempty] = np.add.reduceat(hidden, starts, axis=0)
        return pooled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BatchedGraphView blocks={self.num_blocks} rows={self.total_rows}>"
