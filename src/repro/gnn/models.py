"""GNN-based graph classifier ``M``.

This is the "fixed GNN" of the paper: a message-passing network (GCN by
default, matching the experimental setup of three convolution layers, an
embedding dimension of 128 — configurable — a max-pooling readout and a fully
connected head).  The explainers only interact with it through
``predict`` / ``predict_proba`` / ``node_embeddings``, which keeps GVEX
model-agnostic exactly as the paper requires.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Any

import numpy as np

from repro.exceptions import ModelError, NotFittedError
from repro.gnn.layers import DenseLayer, GCNLayer, GINLayer, SAGELayer
from repro.gnn.pooling import make_pooling
from repro.gnn.tensor_ops import normalize_adjacency, softmax
from repro.graphs.graph import Graph
from repro.graphs.sparse import BatchedGraphView

__all__ = ["GNNClassifier"]

_CONV_TYPES = ("gcn", "gin", "sage")

# Node-subset inference switches from dense submatrix aggregation to
# scipy-CSR aggregation above this subset size: message passing then costs
# O(|E| * d) per layer instead of O(k^2 * d), which is what keeps large
# residual-graph (counterfactual) probes cheap.
_SPARSE_FORWARD_MIN_NODES = 64

# Block-diagonal batched inference pays a constant assembly cost (stacked
# features + batched CSR); below this many total node rows the sequential
# per-graph/per-subset forwards win, so batching only engages above it.
_BATCH_MIN_ROWS = 128


class GNNClassifier:
    """A k-layer message-passing graph classifier.

    Parameters
    ----------
    feature_dim:
        Dimensionality of the input node features.
    num_classes:
        Number of class labels |L|.
    hidden_dim:
        Embedding dimension of every convolution layer.
    num_layers:
        Number of message-passing layers ``k``.
    conv:
        One of ``gcn``, ``gin`` or ``sage``.
    pooling:
        One of ``max`` (paper default), ``mean`` or ``sum``.
    seed:
        Seed for weight initialisation, making training deterministic.
    """

    def __init__(
        self,
        feature_dim: int,
        num_classes: int,
        hidden_dim: int = 32,
        num_layers: int = 3,
        conv: str = "gcn",
        pooling: str = "max",
        seed: int = 0,
    ) -> None:
        if feature_dim <= 0:
            raise ModelError("feature_dim must be positive")
        if num_classes < 2:
            raise ModelError("a classifier needs at least two classes")
        if num_layers < 1:
            raise ModelError("num_layers must be at least 1")
        if conv not in _CONV_TYPES:
            raise ModelError(f"unknown conv '{conv}'; choose from {_CONV_TYPES}")
        self.feature_dim = feature_dim
        self.num_classes = num_classes
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.conv = conv
        self.pooling_name = pooling
        self.seed = seed
        self.is_trained = False

        rng = np.random.default_rng(seed)
        self.conv_layers: list[Any] = []
        in_dim = feature_dim
        for _ in range(num_layers):
            if conv == "gcn":
                layer: Any = GCNLayer(in_dim, hidden_dim, rng)
            elif conv == "gin":
                layer = GINLayer(in_dim, hidden_dim, rng)
            else:
                layer = SAGELayer(in_dim, hidden_dim, rng)
            self.conv_layers.append(layer)
            in_dim = hidden_dim
        self.pooling = make_pooling(pooling)
        self.head = DenseLayer(hidden_dim, num_classes, rng)

    # ------------------------------------------------------------------
    # forward passes
    # ------------------------------------------------------------------
    def all_layers(self) -> list[Any]:
        """All trainable layers (used by the optimisers)."""
        return [*self.conv_layers, self.head]

    def zero_grads(self) -> None:
        for layer in self.all_layers():
            layer.zero_grads()

    def _propagation_matrix(self, graph: Graph) -> np.ndarray:
        # Reuse the view's cached operator when a snapshot exists — repeated
        # forward passes over the same graph then skip the normalisation —
        # but do not build a snapshot just for one forward (perturbation
        # baselines predict on throwaway graphs).
        view = graph.sparse_view_if_cached()
        if view is not None:
            return view.propagation(self.conv)
        adjacency = graph.adjacency_matrix()
        if self.conv == "gcn":
            return normalize_adjacency(adjacency)
        return adjacency

    def forward(self, graph: Graph) -> tuple[np.ndarray, dict]:
        """Full forward pass returning class logits and a backprop cache."""
        if graph.num_nodes() == 0:
            pooled = np.zeros(self.hidden_dim)
            logits, head_cache = self.head.forward(pooled)
            return logits, {"empty": True, "head_cache": head_cache}
        view = graph.sparse_view_if_cached()
        if view is not None:
            # Read-only borrow of the cached matrix; the layers never write
            # to their inputs, so the per-forward copy can be skipped.
            features = view.feature_matrix(self.feature_dim)
        else:
            features = graph.feature_matrix(self.feature_dim)
        propagation = self._propagation_matrix(graph)
        hidden = features
        conv_caches = []
        layer_outputs = []
        for layer in self.conv_layers:
            hidden, cache = layer.forward(hidden, propagation)
            conv_caches.append(cache)
            layer_outputs.append(hidden)
        pooled, pool_cache = self.pooling.forward(hidden)
        logits, head_cache = self.head.forward(pooled)
        cache = {
            "empty": False,
            "conv_caches": conv_caches,
            "pool_cache": pool_cache,
            "head_cache": head_cache,
            "layer_outputs": layer_outputs,
            "features": features,
        }
        return logits, cache

    def backward(self, grad_logits: np.ndarray, cache: dict) -> np.ndarray | None:
        """Backpropagate a gradient on the logits through the whole network.

        Returns the gradient with respect to the input node features (used by
        gradient-based explainers such as GNNExplainer), or ``None`` for the
        empty-graph short-circuit.
        """
        grad = self.head.backward(grad_logits, cache["head_cache"])
        if cache.get("empty"):
            return None
        grad = self.pooling.backward(grad, cache["pool_cache"])
        for layer, layer_cache in zip(reversed(self.conv_layers), reversed(cache["conv_caches"])):
            grad = layer.backward(grad, layer_cache)
        return grad

    def forward_matrices(self, features: np.ndarray, adjacency: np.ndarray) -> tuple[np.ndarray, dict]:
        """Forward pass on raw (features, adjacency) matrices.

        Used by mask-learning explainers that perturb the input matrices
        directly instead of materialising a new :class:`Graph`.
        """
        if features.shape[0] == 0:
            pooled = np.zeros(self.hidden_dim)
            logits, head_cache = self.head.forward(pooled)
            return logits, {"empty": True, "head_cache": head_cache}
        if self.conv == "gcn":
            propagation = normalize_adjacency(adjacency)
        else:
            propagation = adjacency
        hidden = features
        conv_caches = []
        layer_outputs = []
        for layer in self.conv_layers:
            hidden, layer_cache = layer.forward(hidden, propagation)
            conv_caches.append(layer_cache)
            layer_outputs.append(hidden)
        pooled, pool_cache = self.pooling.forward(hidden)
        logits, head_cache = self.head.forward(pooled)
        cache = {
            "empty": False,
            "conv_caches": conv_caches,
            "pool_cache": pool_cache,
            "head_cache": head_cache,
            "layer_outputs": layer_outputs,
            "features": features,
        }
        return logits, cache

    # ------------------------------------------------------------------
    # inference API used by the explainers
    # ------------------------------------------------------------------
    def predict_logits(self, graph: Graph) -> np.ndarray:
        """Class logits for a graph (no gradient bookkeeping)."""
        logits, _ = self.forward(graph)
        return logits

    def predict_proba(self, graph: Graph) -> np.ndarray:
        """Class probabilities ``softmax(logits)``."""
        return softmax(self.predict_logits(graph))

    def predict(self, graph: Graph) -> int:
        """The class label ``M(G)`` assigned to a graph."""
        return int(np.argmax(self.predict_logits(graph)))

    def predict_many(self, graphs: Sequence[Graph]) -> list[int]:
        """Labels for a sequence of graphs.

        One batched pass (:meth:`predict_batch`) when there is more than one
        graph; one forward otherwise.
        """
        if len(graphs) > 1:
            return self.predict_batch(graphs)
        return [self.predict(graph) for graph in graphs]

    # ------------------------------------------------------------------
    # database-level batched inference
    # ------------------------------------------------------------------
    def _batched_logits(self, batch: BatchedGraphView) -> np.ndarray | None:
        """One message-passing pass over a block-diagonal batch.

        Returns one logits row per block, or ``None`` when the batched
        operator is unavailable (no scipy) so callers can fall back to
        per-graph inference.
        """
        if batch.total_rows == 0:
            pooled = np.zeros((batch.num_blocks, self.hidden_dim))
            return pooled @ self.head.params["weight"] + self.head.params["bias"]
        hidden = batch.feature_matrix(self.feature_dim)
        for layer in self.conv_layers:
            if isinstance(layer, GCNLayer):
                aggregated = batch.propagate("gcn", hidden)
                if aggregated is None:
                    return None
                pre = aggregated @ layer.params["weight"]
            elif isinstance(layer, GINLayer):
                aggregated = batch.propagate("gin", hidden)
                if aggregated is None:
                    return None
                pre = ((1.0 + layer.epsilon) * hidden + aggregated) @ layer.params["weight"]
            else:  # SAGELayer
                neighbours = batch.propagate("sage", hidden)
                if neighbours is None:
                    return None
                pre = (
                    hidden @ layer.params["weight_self"]
                    + neighbours @ layer.params["weight_neigh"]
                )
            hidden = np.maximum(pre, 0.0) if layer.activation else pre
        pooled = batch.segment_pool(hidden, self.pooling_name)
        return pooled @ self.head.params["weight"] + self.head.params["bias"]

    def _batch_of(self, graphs: Sequence[Graph]) -> BatchedGraphView:
        batched_view = getattr(graphs, "batched_view", None)
        if batched_view is not None:  # GraphDatabase: reuse its memoised batch
            return batched_view()
        return BatchedGraphView.from_graphs(graphs)

    def batch_logits(self, graphs: Sequence[Graph]) -> np.ndarray:
        """Class logits for a whole graph list from one batched forward pass.

        Stacks every graph into one block-diagonal CSR operator
        (``GraphDatabase.batched_view`` / ``BatchedGraphView``) so the label
        group pays one pass over the layers instead of one forward per graph.
        Falls back to sequential inference for small batches or when scipy is
        unavailable.
        """
        graph_list = list(graphs)
        if len(graph_list) > 1 and sum(graph.num_nodes() for graph in graph_list) >= _BATCH_MIN_ROWS:
            logits = self._batched_logits(self._batch_of(graphs))
            if logits is not None:
                return logits
        if not graph_list:
            return np.zeros((0, self.num_classes))
        return np.stack([self.predict_logits(graph) for graph in graph_list])

    def predict_batch(self, graphs: Sequence[Graph]) -> list[int]:
        """Labels ``M(G)`` for a whole graph list (one batched pass)."""
        logits = self.batch_logits(graphs)
        return [int(label) for label in logits.argmax(axis=1)]

    def predict_proba_batch(self, graphs: Sequence[Graph]) -> np.ndarray:
        """Class probabilities for a whole graph list (one batched pass)."""
        return softmax(self.batch_logits(graphs), axis=-1)

    def _subset_logits(self, graph: Graph, nodes: Iterable[int]) -> np.ndarray:
        """Logits of ``G[nodes]`` straight from the cached view.

        A lean inference-only pass: no backprop caches, minimal temporaries,
        in-place GCN normalisation.  Every operation mirrors the reference
        ``forward_matrices`` pipeline in the same order, so the logits are
        bit-identical to predicting on a materialised induced subgraph.
        """
        view = graph.sparse_view()
        index = view.index
        # The set comprehension deduplicates, matching induced_subgraph's
        # set-of-nodes semantics when callers pass an id twice.
        rows = np.array(sorted({index[node] for node in nodes}), dtype=np.intp)
        if rows.size == 0:
            logits, _ = self.head.forward(np.zeros(self.hidden_dim))
            return logits
        hidden = view.feature_matrix(self.feature_dim)[rows]
        if rows.size > _SPARSE_FORWARD_MIN_NODES and self.conv in ("gcn", "gin"):
            sparse_logits = self._subset_logits_scipy(view, rows, hidden)
            if sparse_logits is not None:
                return sparse_logits
        if self.conv == "gcn":
            # D^-1/2 (A+I) D^-1/2 on the fresh submatrix, in place; the
            # self loops guarantee every degree is at least one.
            propagation = view.dense_adjacency_self_loops()[rows[:, None], rows]
            inv_sqrt = propagation.sum(axis=1) ** -0.5
            propagation *= inv_sqrt[:, None]
            propagation *= inv_sqrt
        else:
            propagation = view.sub_adjacency(rows)
        for layer in self.conv_layers:
            if isinstance(layer, GCNLayer):
                pre = (propagation @ hidden) @ layer.params["weight"]
            elif isinstance(layer, GINLayer):
                aggregated = (1.0 + layer.epsilon) * hidden + propagation @ hidden
                pre = aggregated @ layer.params["weight"]
            else:
                hidden, _ = layer.forward(hidden, propagation)
                continue
            hidden = np.maximum(pre, 0.0) if layer.activation else pre
        if self.pooling_name == "max":
            pooled = hidden.max(axis=0)
        elif self.pooling_name == "mean":
            pooled = hidden.mean(axis=0)
        else:
            pooled, _ = self.pooling.forward(hidden)
        return pooled @ self.head.params["weight"] + self.head.params["bias"]

    def _subset_logits_scipy(self, view, rows: np.ndarray, hidden: np.ndarray) -> np.ndarray | None:
        """CSR message passing for large node subsets (or ``None`` sans scipy)."""
        adjacency = view.scipy_adjacency()
        if adjacency is None:
            return None
        from scipy import sparse as scipy_sparse

        operator = adjacency[rows][:, rows]
        if self.conv == "gcn":
            operator = operator + scipy_sparse.identity(rows.size, format="csr")
            inv_sqrt = np.asarray(operator.sum(axis=1)).ravel() ** -0.5
            scaling = scipy_sparse.diags(inv_sqrt)
            operator = scaling @ operator @ scaling
        for layer in self.conv_layers:
            if isinstance(layer, GCNLayer):
                pre = (operator @ hidden) @ layer.params["weight"]
            else:  # GINLayer (guarded by the caller)
                aggregated = (1.0 + layer.epsilon) * hidden + operator @ hidden
                pre = aggregated @ layer.params["weight"]
            hidden = np.maximum(pre, 0.0) if layer.activation else pre
        if self.pooling_name == "max":
            pooled = hidden.max(axis=0)
        elif self.pooling_name == "mean":
            pooled = hidden.mean(axis=0)
        else:
            pooled, _ = self.pooling.forward(hidden)
        return pooled @ self.head.params["weight"] + self.head.params["bias"]

    def predict_node_subset(self, graph: Graph, nodes: Iterable[int]) -> int:
        """Label of the node-induced subgraph ``G[nodes]`` without building it.

        Equivalent to ``predict(induced_subgraph(graph, nodes))`` but sliced
        directly out of the graph's cached feature/adjacency matrices — the
        vectorized ``EVerify`` hot path.
        """
        return int(self._subset_logits(graph, nodes).argmax())

    def predict_proba_nodes(self, graph: Graph, nodes: Iterable[int]) -> np.ndarray:
        """Class probabilities of ``G[nodes]``, sliced from the cached view."""
        return softmax(self._subset_logits(graph, nodes))

    def subsets_logits(self, graph: Graph, node_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Logits of many node-induced subgraphs of *one* graph, batched.

        All subsets are sliced out of the graph's cached CSR view, stacked
        into one block-diagonal operator, and classified in a single
        message-passing pass — the ``EVerify`` batch-probe hot path.  Falls
        back to sequential subset inference for small batches or when scipy
        is unavailable.
        """
        if len(node_sets) > 1 and sum(len(nodes) for nodes in node_sets) >= _BATCH_MIN_ROWS:
            view = graph.sparse_view()
            # One id -> row lookup over every set, then one segmented sort
            # and dedupe of the keys ``set * n + row``.
            ids = list(chain.from_iterable(node_sets))
            rows = np.fromiter(map(view.index.__getitem__, ids), dtype=np.int64, count=len(ids))
            bases = np.arange(len(node_sets), dtype=np.int64) * view.num_nodes
            keys = np.sort(np.repeat(bases, [len(nodes) for nodes in node_sets]) + rows)
            segments, rows = np.divmod(keys[np.diff(keys, prepend=-1) != 0], view.num_nodes)
            sizes = np.bincount(segments, minlength=len(node_sets))
            logits = self._batched_logits(BatchedGraphView.from_subsets(view, rows, sizes))
            if logits is not None:
                return logits
        if not node_sets:
            return np.zeros((0, self.num_classes))
        return np.stack([self._subset_logits(graph, nodes) for nodes in node_sets])

    def predict_subsets(self, graph: Graph, node_sets: Sequence[Iterable[int]]) -> list[int]:
        """Labels of many node-induced subgraphs of one graph (one pass)."""
        logits = self.subsets_logits(graph, node_sets)
        return [int(label) for label in logits.argmax(axis=1)]

    def predict_proba_subsets(self, graph: Graph, node_sets: Sequence[Iterable[int]]) -> np.ndarray:
        """Class probabilities of many node-induced subgraphs (one pass)."""
        return softmax(self.subsets_logits(graph, node_sets), axis=-1)

    def node_embeddings(self, graph: Graph) -> np.ndarray:
        """Last-layer node representations ``X^k`` (rows follow node order).

        These are the only model internals GVEX reads, and they come from the
        output of the final message-passing layer — i.e. the same values a
        black-box deployment would expose for downstream pooling.
        """
        if graph.num_nodes() == 0:
            return np.zeros((0, self.hidden_dim))
        _, cache = self.forward(graph)
        return cache["layer_outputs"][-1]

    def propagation_matrix(self, graph: Graph) -> np.ndarray:
        """The message-passing operator used for this graph (public for analysis)."""
        return self._propagation_matrix(graph)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def get_weights(self) -> list[dict[str, np.ndarray]]:
        """Copy of all parameters, layer by layer."""
        return [{name: value.copy() for name, value in layer.params.items()} for layer in self.all_layers()]

    def set_weights(self, weights: list[dict[str, np.ndarray]]) -> None:
        """Restore parameters previously captured by :meth:`get_weights`."""
        layers = self.all_layers()
        if len(weights) != len(layers):
            raise ModelError(
                f"expected weights for {len(layers)} layers, got {len(weights)}"
            )
        for layer, layer_weights in zip(layers, weights):
            for name, value in layer_weights.items():
                if name not in layer.params:
                    raise ModelError(f"unexpected parameter '{name}'")
                if layer.params[name].shape != value.shape:
                    raise ModelError(
                        f"shape mismatch for '{name}': "
                        f"{layer.params[name].shape} vs {value.shape}"
                    )
                layer.params[name] = value.copy()

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        return sum(layer.parameter_count() for layer in self.all_layers())

    def require_trained(self) -> None:
        """Raise :class:`NotFittedError` unless the model was trained."""
        if not self.is_trained:
            raise NotFittedError("the classifier has not been trained yet")
