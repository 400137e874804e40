"""Subgraph construction helpers.

The GVEX algorithms manipulate three kinds of derived graphs:

* node-induced subgraphs ``G[Vs]`` (the lower-tier explanation subgraphs),
* the *residual* graph ``G \\ Gs`` obtained by removing an explanation
  subgraph from its source graph (used for the counterfactual check
  ``M(G \\ Gs) != l``),
* r-hop neighbourhood subgraphs (used by the incremental pattern generator).

Extraction runs against the graph's cached CSR view: edge selection is a
vectorized mask over the flat edge arrays and BFS advances one whole frontier
per hop.  The per-node/per-edge references,
:func:`repro.core.oracles.reference_induced_subgraph` /
:func:`~repro.core.oracles.reference_khop_subgraph`, produce identical
graphs (same node order, types, shared feature arrays).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.graphs.graph import Graph

__all__ = [
    "induced_subgraph",
    "remove_subgraph",
    "khop_subgraph",
    "connected_component_subgraphs",
]


def _induced_from_view(graph: Graph, node_set: set[int], graph_id: int | None) -> Graph:
    """Vectorized induced-subgraph extraction via the cached CSR view."""
    view = graph.sparse_view()
    rows = view.rows_for(node_set)
    in_set = np.zeros(view.num_nodes, dtype=bool)
    in_set[rows] = True
    edge_mask = in_set[view.edge_u] & in_set[view.edge_v]

    node_ids = view.node_ids
    node_vocab = view.node_type_vocab
    node_codes = view.node_type_codes
    features = graph._node_features
    nodes = (
        (node_ids[row], node_vocab[node_codes[row]], features.get(node_ids[row]))
        for row in rows
    )
    edge_vocab = view.edge_type_vocab
    edges = (
        (node_ids[u], node_ids[v], edge_vocab[code])
        for u, v, code in zip(
            view.edge_u[edge_mask], view.edge_v[edge_mask], view.edge_type_codes[edge_mask]
        )
    )
    return Graph.build(nodes, edges, graph_id=graph.graph_id if graph_id is None else graph_id)


def induced_subgraph(graph: Graph, nodes: Iterable[int], graph_id: int | None = None) -> Graph:
    """Return the subgraph of ``graph`` induced by ``nodes``.

    The induced subgraph keeps every edge of ``graph`` whose two endpoints are in
    ``nodes`` along with node/edge types and features.
    """
    node_set = set(nodes)
    for node in node_set:
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
    return _induced_from_view(graph, node_set, graph_id)


def remove_subgraph(graph: Graph, subgraph_nodes: Iterable[int]) -> Graph:
    """Return ``G \\ Gs``: the subgraph induced by the complement node set."""
    removed = set(subgraph_nodes)
    remaining = [node for node in graph.nodes if node not in removed]
    return induced_subgraph(graph, remaining)


def khop_subgraph(graph: Graph, center: int, hops: int) -> Graph:
    """Return the subgraph induced by nodes within ``hops`` of ``center``."""
    if not graph.has_node(center):
        raise NodeNotFoundError(center)
    if hops < 0:
        raise ValueError("hops must be non-negative")
    view = graph.sparse_view()
    rows = view.khop_rows(view.index[center], hops)
    return _induced_from_view(graph, {view.node_ids[row] for row in rows}, None)


def connected_component_subgraphs(graph: Graph) -> list[Graph]:
    """Split a (possibly disconnected) graph into its connected components.

    The paper allows an explanation subgraph to be disconnected; in that case
    each connected component is treated as an explanation subgraph of the same
    source graph.
    """
    return [induced_subgraph(graph, component) for component in graph.connected_components()]
