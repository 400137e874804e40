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

    Layer ``l`` has operator ``op_l``, weight ``W_l`` and 0/1 ReLU gates
    ``g_l`` fixed by a forward pass (all ones without activation), so
    ``J_l[v, i, u, j] = g_l[v, i] sum_w op_l[v, w] sum_m J_{l-1}[w, m, u, j]
    W_l[m, i]``.  The kernel is memory-bound on the ``n x n*d0 x c`` tensor,
    kept flattened as ``P[v, u*d0 + j, i]`` with the gate of its own layer
    not yet applied, and spends no full-size pass on a gate:

    * Layer one stays factored, ``J_1[w, m, u, j] = g_1[w, m] op_1[w, u]
      W_1[j, m]``, so layer two's contraction is the per-node ``d0 x c``
      matrix ``G[w] = (W_1 * g_1[w]) @ W_2`` and the tensor is
      materialised once, as ``op_1[w, u] G[w]``.
    * Every later gate folds into the next contraction: one batched matmul
      with the per-target weight ``g_{l-1}[w][:, None] * W_l``.
    * The last gate folds into the L1 reduction.  Gates are 0/1, so
      ``|g P| = g |P|``: an in-place ``abs``, a batched mat-vec with
      ``g_L`` and a sum over ``j``.

    Two preallocated buffers ping-pong through ``np.matmul(..., out=)``;
    no other full-size temporary is allocated.  A one-layer model needs no
    tensor at all: ``I1[v, u] = |op_1[v, u]| sum_i g_1[v, i] |W_1[:, i]|_1``.
    The sums run in a different order from the paper-literal einsum,
    :func:`repro.core.oracles.reference_jacobian_l1`, which tests check it
    against to float rounding.
    """
    if graph.num_nodes() == 0:
        return np.zeros((0, 0))
    view = graph.sparse_view()
    features = view.feature_matrix(model.feature_dim)
    propagation = model.propagation_matrix(graph)
    num_nodes, feature_dim = features.shape

    operators, weights, gates = [], [], []
    hidden = features
    for layer in model.conv_layers:
        hidden, cache = layer.forward(hidden, propagation)
        weight = layer.params.get("weight")
        if weight is None:
            raise ModelError("exact influence is only implemented for GCN/GIN layers")
        operators.append(_layer_operator(layer, cache, num_nodes))
        weights.append(weight)
        pre_activation = cache["pre_activation"]
        gates.append(relu_grad(pre_activation) if layer.activation else np.ones_like(pre_activation))

    if len(weights) == 1:
        channel_norms = gates[0] @ np.abs(weights[0]).sum(axis=0)
        return np.abs(operators[0]) * channel_norms[:, None]

    rows = num_nodes * feature_dim
    size = num_nodes * rows * max(weight.shape[1] for weight in weights[1:])
    staged, propagated = np.empty(size), np.empty(size)

    def block(buffer: np.ndarray, width: int) -> np.ndarray:
        return buffer[: num_nodes * rows * width].reshape(num_nodes, rows, width)

    # Layers one and two: P[v] = sum_w op_2[v, w] op_1[w, u] G[w].
    width = weights[1].shape[1]
    folded = weights[0] @ (gates[0][:, :, None] * weights[1])
    tensor = block(staged, width)
    np.multiply(
        operators[0][:, :, None, None],
        folded[:, None, :, :],
        out=tensor.reshape(num_nodes, num_nodes, feature_dim, width),
    )
    jac = block(propagated, width)
    np.matmul(operators[1], tensor.reshape(num_nodes, -1), out=jac.reshape(num_nodes, -1))

    for operator, weight, gate in zip(operators[2:], weights[2:], gates[1:]):
        width = weight.shape[1]
        tensor = block(staged, width)
        np.matmul(jac, gate[:, :, None] * weight, out=tensor)
        jac = block(propagated, width)
        np.matmul(operator, tensor.reshape(num_nodes, -1), out=jac.reshape(num_nodes, -1))

    np.abs(jac, out=jac)
    l1 = np.matmul(jac, gates[-1][:, :, None])
    return l1.reshape(num_nodes, num_nodes, feature_dim).sum(axis=2)


def resolve_influence_method(method: str, graph: Graph) -> str:
    """The estimator ``method`` names for ``graph``.

    ``auto`` is the exact (gate-linearised) Jacobian for graphs up to
    :data:`AUTO_EXACT_NODE_LIMIT` nodes and the fast propagation estimator
    above that.
    """
    if method == "auto":
        return "exact" if graph.num_nodes() <= AUTO_EXACT_NODE_LIMIT else "propagation"
    return method


def influence_matrix(model: GNNClassifier, graph: Graph, method: str = "auto") -> np.ndarray:
    """Pairwise influence ``I1[v, u]`` (Eq. 3) using the chosen estimator
    (see :func:`resolve_influence_method` for ``auto``)."""
    method = resolve_influence_method(method, graph)
    if method == "propagation":
        return _propagation_influence(model, graph)
    if method == "exact":
        return jacobian_l1_matrix(model, graph)
    raise ModelError(f"unknown influence method '{method}'")


def normalize_influence(raw: np.ndarray) -> np.ndarray:
    """Normalised influence ``I2[u, v]`` (Eq. 4) from ``I1[v, u]``.

    ``I2[u, v] = I1(v, u) / sum_w I1(v, w)``: the share of node v's
    sensitivity that is attributable to node u.  Rows index the *source* node
    ``u`` and columns the *target* node ``v`` to match the paper's notation
    ``I2(u, v)``.
    """
    if raw.size == 0:
        return raw
    column_totals = raw.sum(axis=1, keepdims=True)
    column_totals[column_totals == 0] = 1.0
    normalised_by_target = raw / column_totals
    return normalised_by_target.T


def normalized_influence_matrix(
    model: GNNClassifier, graph: Graph, method: str = "auto"
) -> np.ndarray:
    """Normalised influence ``I2[u, v]`` (Eq. 4) using the chosen estimator."""
    return normalize_influence(influence_matrix(model, graph, method=method))
