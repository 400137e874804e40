"""Attributed graph data structure used throughout the library.

The paper (section 2.1) works with connected attributed graphs
``G = (V, E, T, L)`` where every node carries a feature vector ``T(v)`` and a
type ``L(v)``, and every edge carries a type ``L(e)``.  :class:`Graph` is a
lightweight adjacency-set implementation of exactly that object.  It is the
common currency between the GNN substrate, the matching/mining substrates and
the GVEX core.

Node identifiers are arbitrary hashable integers.  Features are stored as a
dense ``numpy`` matrix aligned with the *insertion order* of nodes; the
mapping between node ids and matrix rows is exposed through
:meth:`Graph.node_index`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Any

import numpy as np

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs.sparse import SparseGraphView

__all__ = ["Graph"]


def _edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical undirected edge key (smaller endpoint first)."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """An undirected attributed graph.

    Parameters
    ----------
    directed:
        Kept for API completeness.  The paper's datasets are treated as
        undirected graphs (directed call graphs are symmetrised before GNN
        training, as is standard for message passing), so only the undirected
        mode is implemented.
    graph_id:
        Optional identifier used when the graph lives inside a
        :class:`~repro.graphs.database.GraphDatabase`.
    """

    def __init__(self, graph_id: int | None = None, directed: bool = False) -> None:
        if directed:
            raise GraphError("directed graphs are not supported; symmetrise edges first")
        self.graph_id = graph_id
        self._adj: dict[int, set[int]] = {}
        self._node_types: dict[int, str] = {}
        self._node_features: dict[int, np.ndarray] = {}
        self._edge_types: dict[tuple[int, int], str] = {}
        self._node_order: list[int] = []
        # Mutation counter + cached CSR snapshot (see repro.graphs.sparse).
        self._version = 0
        self._sparse_view: SparseGraphView | None = None
        # Version-keyed memo for type_counts(): the matcher's candidate
        # ordering and the mining batch prefilter read the histogram on
        # every query, while the graph mutates rarely in those loops.
        self._type_counts_cache: dict[str, int] | None = None
        self._type_counts_version = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: int,
        node_type: str = "node",
        features: Iterable[float] | np.ndarray | None = None,
    ) -> None:
        """Add a node with a type and an optional feature vector.

        Adding an existing node updates its type/features in place.
        """
        if node_id not in self._adj:
            self._adj[node_id] = set()
            self._node_order.append(node_id)
        self._node_types[node_id] = str(node_type)
        if features is not None:
            self._node_features[node_id] = np.asarray(features, dtype=float)
        self._version += 1

    def add_edge(self, u: int, v: int, edge_type: str = "edge") -> None:
        """Add an undirected edge between two existing nodes."""
        if u == v:
            raise GraphError(f"self loops are not allowed (node {u})")
        for node in (u, v):
            if node not in self._adj:
                raise NodeNotFoundError(node)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._edge_types[_edge_key(u, v)] = str(edge_type)
        self._version += 1

    def remove_node(self, node_id: int) -> None:
        """Remove a node and all incident edges."""
        if node_id not in self._adj:
            raise NodeNotFoundError(node_id)
        for neighbour in list(self._adj[node_id]):
            self.remove_edge(node_id, neighbour)
        del self._adj[node_id]
        self._node_types.pop(node_id, None)
        self._node_features.pop(node_id, None)
        self._node_order.remove(node_id)
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove an undirected edge."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_types.pop(_edge_key(u, v), None)
        self._version += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        """Node identifiers in insertion order."""
        return list(self._node_order)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Canonical undirected edges (u <= v)."""
        return sorted(self._edge_types.keys())

    def num_nodes(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return len(self._edge_types)

    def has_node(self, node_id: int) -> bool:
        return node_id in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self._edge_types

    def neighbors(self, node_id: int) -> set[int]:
        if node_id not in self._adj:
            raise NodeNotFoundError(node_id)
        return set(self._adj[node_id])

    def degree(self, node_id: int) -> int:
        if node_id not in self._adj:
            raise NodeNotFoundError(node_id)
        return len(self._adj[node_id])

    def node_type(self, node_id: int) -> str:
        if node_id not in self._node_types:
            raise NodeNotFoundError(node_id)
        return self._node_types[node_id]

    def edge_type(self, u: int, v: int) -> str:
        key = _edge_key(u, v)
        if key not in self._edge_types:
            raise EdgeNotFoundError(u, v)
        return self._edge_types[key]

    def node_features(self, node_id: int) -> np.ndarray | None:
        """Feature vector of a node, or ``None`` if the node has no features."""
        if node_id not in self._adj:
            raise NodeNotFoundError(node_id)
        return self._node_features.get(node_id)

    def node_types(self) -> dict[int, str]:
        """Mapping of node id to node type for all nodes."""
        return dict(self._node_types)

    def type_counts(self) -> dict[str, int]:
        """Histogram of node types (memoised per mutation; returns a copy)."""
        if self._type_counts_cache is None or self._type_counts_version != self._version:
            counts: dict[str, int] = {}
            for node_type in self._node_types.values():
                counts[node_type] = counts.get(node_type, 0) + 1
            self._type_counts_cache = counts
            self._type_counts_version = self._version
        return dict(self._type_counts_cache)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[int]:
        return iter(self._node_order)

    def __repr__(self) -> str:
        gid = f" id={self.graph_id}" if self.graph_id is not None else ""
        return f"<Graph{gid} |V|={self.num_nodes()} |E|={self.num_edges()}>"

    # ------------------------------------------------------------------
    # matrix views used by the GNN substrate
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural or attribute change."""
        return self._version

    def sparse_view(self) -> "SparseGraphView":
        """The cached CSR snapshot of this graph, rebuilt after mutations."""
        view = self._sparse_view
        if view is None or view.version != self._version:
            view = SparseGraphView(self)
            self._sparse_view = view
        return view

    def sparse_view_if_cached(self) -> "SparseGraphView | None":
        """The CSR snapshot only when already built and current, else ``None``.

        Matrix accessors use this so a one-shot prediction on a throwaway
        graph (the perturbation-based baselines build thousands) does not pay
        for a snapshot it would use once; the hot paths that amortise the
        snapshot (influence analysis, ``EVerify``, coverage, extraction) call
        :meth:`sparse_view` and build it eagerly.
        """
        view = self._sparse_view
        if view is not None and view.version == self._version:
            return view
        return None

    @classmethod
    def build(
        cls,
        nodes: Iterable[tuple[int, str, np.ndarray | None]],
        edges: Iterable[tuple[int, int, str]],
        graph_id: int | None = None,
    ) -> "Graph":
        """Bulk-construct a graph from trusted, pre-validated node/edge data.

        The fast extraction paths (induced subgraphs, k-hop neighbourhoods)
        derive their inputs from an existing graph, so the per-call validation
        of :meth:`add_node` / :meth:`add_edge` would only re-check invariants
        that already hold.  Feature arrays are shared, matching the aliasing
        behaviour of ``add_node`` with an ``ndarray`` argument.
        """
        graph = cls(graph_id=graph_id)
        adj = graph._adj
        for node_id, node_type, features in nodes:
            adj[node_id] = set()
            graph._node_order.append(node_id)
            graph._node_types[node_id] = node_type
            if features is not None:
                graph._node_features[node_id] = features
        for u, v, edge_type in edges:
            adj[u].add(v)
            adj[v].add(u)
            graph._edge_types[_edge_key(u, v)] = edge_type
        graph._version += 1
        return graph

    def node_index(self) -> dict[int, int]:
        """Mapping from node id to row index in matrix representations."""
        return {node: idx for idx, node in enumerate(self._node_order)}

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric adjacency matrix aligned with :meth:`node_index`."""
        view = self.sparse_view_if_cached()
        if view is not None:
            return view.dense_adjacency().copy()
        n = self.num_nodes()
        index = self.node_index()
        matrix = np.zeros((n, n), dtype=float)
        for u, v in self.edges:
            matrix[index[u], index[v]] = 1.0
            matrix[index[v], index[u]] = 1.0
        return matrix

    def feature_matrix(self, feature_dim: int | None = None) -> np.ndarray:
        """Dense node feature matrix aligned with :meth:`node_index`.

        Nodes without an explicit feature vector receive the constant feature
        ``[1.0] * feature_dim`` (the paper assigns a default feature to
        datasets without node features).  All feature vectors must share one
        dimensionality.
        """
        view = self.sparse_view_if_cached()
        if view is not None:
            return view.feature_matrix(feature_dim).copy()
        dims = {vec.shape[0] for vec in self._node_features.values()}
        if len(dims) > 1:
            raise GraphError(f"inconsistent feature dimensions: {sorted(dims)}")
        if feature_dim is None:
            feature_dim = dims.pop() if dims else 1
        elif dims and dims != {feature_dim}:
            raise GraphError(
                f"requested feature_dim={feature_dim} but stored features have dim {dims.pop()}"
            )
        n = self.num_nodes()
        matrix = np.ones((n, feature_dim), dtype=float)
        for row, node in enumerate(self._node_order):
            vector = self._node_features.get(node)
            if vector is not None:
                matrix[row] = vector
        return matrix

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[int]]:
        """Connected components as sets of node ids, largest first."""
        remaining = set(self._adj)
        components: list[set[int]] = []
        while remaining:
            seed = next(iter(remaining))
            seen = {seed}
            frontier = [seed]
            while frontier:
                node = frontier.pop()
                for neighbour in self._adj[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            components.append(seen)
            remaining -= seen
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        """True for non-empty graphs with a single connected component."""
        if not self._adj:
            return False
        return len(self.connected_components()) == 1

    def copy(self, graph_id: int | None = None) -> "Graph":
        """Deep copy of the graph (features are copied)."""
        clone = Graph(graph_id=self.graph_id if graph_id is None else graph_id)
        for node in self._node_order:
            clone.add_node(node, self._node_types[node], self._node_features.get(node))
        for u, v in self.edges:
            clone.add_edge(u, v, self._edge_types[_edge_key(u, v)])
        return clone

    def relabel(self, mapping: Mapping[int, int] | None = None) -> "Graph":
        """Return a copy with node ids remapped (default: 0..n-1 by order)."""
        if mapping is None:
            mapping = {node: idx for idx, node in enumerate(self._node_order)}
        if len(set(mapping.values())) != len(mapping):
            raise GraphError("relabel mapping must be injective")
        clone = Graph(graph_id=self.graph_id)
        for node in self._node_order:
            clone.add_node(mapping[node], self._node_types[node], self._node_features.get(node))
        for u, v in self.edges:
            clone.add_edge(mapping[u], mapping[v], self._edge_types[_edge_key(u, v)])
        return clone

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation of the graph."""
        return {
            "graph_id": self.graph_id,
            "nodes": [
                {
                    "id": node,
                    "type": self._node_types[node],
                    "features": (
                        self._node_features[node].tolist()
                        if node in self._node_features
                        else None
                    ),
                }
                for node in self._node_order
            ],
            "edges": [
                {"u": u, "v": v, "type": self._edge_types[(u, v)]} for u, v in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Graph":
        """Inverse of :meth:`to_dict`."""
        graph = cls(graph_id=payload.get("graph_id"))
        for node in payload.get("nodes", []):
            graph.add_node(node["id"], node.get("type", "node"), node.get("features"))
        for edge in payload.get("edges", []):
            graph.add_edge(edge["u"], edge["v"], edge.get("type", "edge"))
        return graph

    def structural_signature(self) -> tuple:
        """A cheap isomorphism-invariant fingerprint used for deduplication.

        Two isomorphic graphs always share a signature; two graphs with the
        same signature are *usually* isomorphic (the signature combines the
        degree/type multiset and the edge-type multiset).
        """
        node_part = tuple(
            sorted((self._node_types[n], len(self._adj[n])) for n in self._adj)
        )
        edge_part = tuple(
            sorted(
                (
                    self._edge_types[(u, v)],
                    tuple(sorted((self._node_types[u], self._node_types[v]))),
                )
                for u, v in self.edges
            )
        )
        return (node_part, edge_part)
