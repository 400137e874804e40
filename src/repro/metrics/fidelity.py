"""Explanation faithfulness metrics: Fidelity+ and Fidelity- (Eqs. 8-9).

Fidelity+ measures the drop in the original prediction's probability when the
explanation is *removed* from the input (higher is better — the explanation
was necessary).  Fidelity- measures the drop when the input is *replaced by*
the explanation (lower, ideally <= 0, is better — the explanation is
sufficient).

Over several explanations the model queries run through
``GNNClassifier.predict_proba_batch`` — one block-diagonal message-passing
pass over all source graphs and one over all residual/kept subgraphs —
instead of one forward per probe; a single explanation takes the per-graph
path, and the two agree to float rounding.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.explanation import ExplanationSubgraph
from repro.gnn.models import GNNClassifier
from repro.graphs.graph import Graph

__all__ = ["fidelity_plus", "fidelity_minus", "fidelity_report"]


def _original_probability(model: GNNClassifier, explanation: ExplanationSubgraph) -> tuple[int, float]:
    label = explanation.label
    probability = model.predict_proba(explanation.source_graph)[label]
    return label, float(probability)


def _batched_probabilities(
    model: GNNClassifier, graphs: Sequence[Graph], labels: Sequence[int]
) -> list[float] | None:
    """Per-graph probability of each graph's paired label, one batched pass.

    Returns ``None`` for a trivial batch so callers fall back to per-graph
    forwards.
    """
    if len(graphs) < 2:
        return None
    probabilities = model.predict_proba_batch(graphs)
    return [float(probabilities[row, label]) for row, label in enumerate(labels)]


def fidelity_plus(model: GNNClassifier, explanations: Sequence[ExplanationSubgraph]) -> float:
    """Average probability drop after masking the explanation out (Eq. 8)."""
    if not explanations:
        return 0.0
    labels = [explanation.label for explanation in explanations]
    residuals = [explanation.residual() for explanation in explanations]
    originals = _batched_probabilities(
        model, [explanation.source_graph for explanation in explanations], labels
    )
    nonempty = [slot for slot, residual in enumerate(residuals) if residual.num_nodes() > 0]
    masked_rows = (
        _batched_probabilities(
            model, [residuals[slot] for slot in nonempty], [labels[slot] for slot in nonempty]
        )
        if len(nonempty) >= 2
        else None
    )
    row_of = {slot: row for row, slot in enumerate(nonempty)}
    drops = []
    for slot, explanation in enumerate(explanations):
        if originals is not None:
            original = originals[slot]
        else:
            _, original = _original_probability(model, explanation)
        residual = residuals[slot]
        if residual.num_nodes() == 0:
            masked = 1.0 / model.num_classes
        elif masked_rows is not None:
            masked = masked_rows[row_of[slot]]
        else:
            masked = float(model.predict_proba(residual)[labels[slot]])
        drops.append(original - masked)
    return float(np.mean(drops))


def fidelity_minus(model: GNNClassifier, explanations: Sequence[ExplanationSubgraph]) -> float:
    """Average probability drop when keeping only the explanation (Eq. 9)."""
    if not explanations:
        return 0.0
    labels = [explanation.label for explanation in explanations]
    originals = _batched_probabilities(
        model, [explanation.source_graph for explanation in explanations], labels
    )
    kept_rows = _batched_probabilities(
        model, [explanation.subgraph() for explanation in explanations], labels
    )
    drops = []
    for slot, explanation in enumerate(explanations):
        if originals is not None:
            original = originals[slot]
        else:
            _, original = _original_probability(model, explanation)
        if kept_rows is not None:
            kept = kept_rows[slot]
        else:
            kept = float(model.predict_proba(explanation.subgraph())[labels[slot]])
        drops.append(original - kept)
    return float(np.mean(drops))


def fidelity_report(model: GNNClassifier, explanations: Sequence[ExplanationSubgraph]) -> dict[str, float]:
    """Both fidelity metrics plus the fractions of consistent/counterfactual
    explanations (the paper's C2 properties, evaluated exactly)."""
    if not explanations:
        return {
            "fidelity_plus": 0.0,
            "fidelity_minus": 0.0,
            "consistent_fraction": 0.0,
            "counterfactual_fraction": 0.0,
        }
    kept_graphs = [explanation.subgraph() for explanation in explanations]
    residual_graphs = [explanation.residual() for explanation in explanations]
    kept_labels = model.predict_many(kept_graphs)
    residual_labels = model.predict_many(residual_graphs)
    consistent = 0
    counterfactual = 0
    for slot, explanation in enumerate(explanations):
        label = explanation.label
        if kept_labels[slot] == label:
            consistent += 1
        if residual_graphs[slot].num_nodes() == 0 or residual_labels[slot] != label:
            counterfactual += 1
    return {
        "fidelity_plus": fidelity_plus(model, explanations),
        "fidelity_minus": fidelity_minus(model, explanations),
        "consistent_fraction": consistent / len(explanations),
        "counterfactual_fraction": counterfactual / len(explanations),
    }
