"""Feature influence analysis (paper Eqs. 3-4).

The influence of node ``u`` on node ``v`` after ``k`` layers of message
passing is the L1 norm of the expected Jacobian ``E[dX^k_v / dX^0_u]``.  Two
estimators are provided:

``propagation`` (default)
    Following Xu et al. (2018), for ReLU message-passing networks the
    expected Jacobian is proportional to the ``k``-step propagation weight
    ``(S^k)_{vu}`` where ``S`` is the model's message-passing operator.  This
    is what the paper's "random walk-based message passing process" refers to
    and costs one dense matrix power.

``exact``
    Computes the true Jacobian of the trained network with the ReLU gates
    fixed by a forward pass (a local linearisation), by pushing all
    ``n*d0`` input perturbations through the layers at once.  Cubic in
    graph size — intended for small graphs and for validating the fast
    estimator in tests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.gnn.models import GNNClassifier
from repro.gnn.tensor_ops import relu_grad
from repro.graphs.graph import Graph

__all__ = [
    "influence_matrix",
    "normalized_influence_matrix",
    "jacobian_l1_matrix",
    "AUTO_EXACT_NODE_LIMIT",
]

# ``auto`` influence switches from the exact Jacobian to the propagation
# estimator above this node count (the exact computation is cubic in |V|).
AUTO_EXACT_NODE_LIMIT = 120


def _propagation_influence(model: GNNClassifier, graph: Graph) -> np.ndarray:
    """Fast estimator: I1[v, u] proportional to (S^k)_{vu}."""
    propagation = model.propagation_matrix(graph)
    power = np.linalg.matrix_power(propagation, model.num_layers)
    # Scale by the product of layer weight norms so the magnitude tracks the
    # trained model rather than only the topology.
    scale = 1.0
    for layer in model.conv_layers:
        weight = layer.params.get("weight")
        if weight is None:
            weight = layer.params.get("weight_neigh")
        scale *= max(np.abs(weight).sum(axis=0).max(), 1e-12)
    return np.abs(power) * scale


def _layer_operator(layer, cache: dict, num_nodes: int) -> np.ndarray:
    if "propagation" in cache:
        return cache["propagation"]
    return cache["adjacency"] + (1.0 + getattr(layer, "epsilon", 0.0)) * np.eye(num_nodes)


def jacobian_l1_matrix(model: GNNClassifier, graph: Graph) -> np.ndarray:
    """Exact (gate-linearised) pairwise L1 Jacobian norms ``I1[v, u]``.

    Batched-GEMM form of the layer recurrence.  The Jacobian tensor is kept
    flattened as ``jac[v, u*d0 + j, i] = d hidden[v, i] / d features[u, j]``.
    The channel axis is *last*, so each layer after the first costs two
    large GEMMs over contiguous memory: one contraction over the input
    channels and one propagation pass over the neighbours.  The first layer
    needs no GEMM at all: the input Jacobian is the identity, so layer one
    is the outer product ``operator[v, u] * weight[j, i]``.  That is
    bit-identical to pushing the identity through both products, which only
    adds exact zeros.  Tests check it against the einsum form,
    :func:`repro.core.oracles.reference_jacobian_l1`.
    """
    if graph.num_nodes() == 0:
        return np.zeros((0, 0))
    view = graph.sparse_view()
    features = view.feature_matrix(model.feature_dim)
    propagation = model.propagation_matrix(graph)
    num_nodes, feature_dim = features.shape
    flat = num_nodes * feature_dim

    jac = None
    hidden = features
    for layer in model.conv_layers:
        hidden, cache = layer.forward(hidden, propagation)
        weight = layer.params.get("weight")
        if weight is None:
            raise ModelError("exact influence is only implemented for GCN/GIN layers")
        operator = _layer_operator(layer, cache, num_nodes)
        in_dim, out_dim = weight.shape
        if jac is None:
            jac = np.multiply.outer(operator, weight).reshape(num_nodes, flat, out_dim)
        else:
            # contracted[w, uj, i] = sum_m jac[w, uj, m] weight[m, i]
            contracted = jac.reshape(num_nodes * flat, in_dim) @ weight
            # jac'[v, uj, i] = sum_w operator[v, w] contracted[w, uj, i]
            jac = (operator @ contracted.reshape(num_nodes, flat * out_dim)).reshape(
                num_nodes, flat, out_dim
            )
        if layer.activation:
            jac *= relu_grad(cache["pre_activation"])[:, None, :]

    np.abs(jac, out=jac)
    return jac.reshape(num_nodes, num_nodes, feature_dim * jac.shape[2]).sum(axis=2)


def influence_matrix(model: GNNClassifier, graph: Graph, method: str = "auto") -> np.ndarray:
    """Pairwise influence ``I1[v, u]`` (Eq. 3) using the chosen estimator.

    ``auto`` uses the exact (gate-linearised) Jacobian for graphs up to
    :data:`AUTO_EXACT_NODE_LIMIT` nodes and falls back to the fast
    propagation estimator above that.
    """
    if method == "auto":
        method = "exact" if graph.num_nodes() <= AUTO_EXACT_NODE_LIMIT else "propagation"
    if method == "propagation":
        return _propagation_influence(model, graph)
    if method == "exact":
        return jacobian_l1_matrix(model, graph)
    raise ModelError(f"unknown influence method '{method}'")


def normalized_influence_matrix(
    model: GNNClassifier, graph: Graph, method: str = "auto"
) -> np.ndarray:
    """Normalised influence ``I2[u, v]`` (Eq. 4).

    ``I2[u, v] = I1(v, u) / sum_w I1(v, w)``: the share of node v's
    sensitivity that is attributable to node u.  Rows index the *source* node
    ``u`` and columns the *target* node ``v`` to match the paper's notation
    ``I2(u, v)``.
    """
    raw = influence_matrix(model, graph, method=method)
    if raw.size == 0:
        return raw
    column_totals = raw.sum(axis=1, keepdims=True)
    column_totals[column_totals == 0] = 1.0
    normalised_by_target = raw / column_totals
    return normalised_by_target.T
