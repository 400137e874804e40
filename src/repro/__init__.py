"""GVEX reproduction: view-based explanations for graph neural networks.

The package is organised as

* :mod:`repro.graphs` — attributed graphs, patterns, databases, generators;
* :mod:`repro.gnn` — a from-scratch NumPy GNN substrate (the classifier ``M``);
* :mod:`repro.datasets` — synthetic stand-ins for the paper's benchmarks;
* :mod:`repro.matching` / :mod:`repro.mining` — PMatch / PGen primitive operators;
* :mod:`repro.core` — the GVEX explainers (ApproxGVEX, StreamGVEX) and view API;
* :mod:`repro.baselines` — GNNExplainer, SubgraphX, GStarX, GCFExplainer;
* :mod:`repro.metrics` — fidelity, sparsity, compression, edge loss;
* :mod:`repro.api` — **the public service layer**: explainer registry,
  serializable views, result cache, query facade, HTTP endpoint;
* :mod:`repro.experiments` — runners that regenerate the paper's tables and figures.

Quick start (service API)::

    from repro import ExplanationService

    service = ExplanationService("MUT", epochs=30)
    result = service.explain(algorithm="approx", label=1, max_nodes=8)
    service.query().witness(result.view.subgraphs[0].source_graph.graph_id)

The direct algorithm constructors are no longer re-exported from here (the
deprecation window closed in this release) — the registry is the supported
route, and code that genuinely needs the raw classes imports them from
their concrete modules::

    from repro.api import create_explainer          # supported
    from repro.core.approx import ApproxGVEX        # raw class, if needed
    from repro.core.streaming import StreamGVEX
    from repro.core.views import ViewQueryEngine
"""

from repro.api import (
    ExplainRequest,
    ExplanationResult,
    ExplanationService,
    available_explainers as available_explainer_names,
    create_explainer,
    load_artifact,
    save_artifact,
)
from repro.core import (
    Configuration,
    CoverageBound,
    ExplanationSubgraph,
    ExplanationView,
    ExplanationViewSet,
    GraphAnalysis,
    ViewMaintainer,
    verify_view,
)
from repro.datasets import available_datasets, load_dataset
from repro.gnn import GNNClassifier, Trainer
from repro.graphs import DatabaseDelta, Graph, GraphDatabase, GraphPattern

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Graph",
    "GraphPattern",
    "GraphDatabase",
    "GNNClassifier",
    "Trainer",
    "load_dataset",
    "available_datasets",
    "Configuration",
    "CoverageBound",
    "GraphAnalysis",
    "ExplanationSubgraph",
    "ExplanationView",
    "ExplanationViewSet",
    "ViewMaintainer",
    "DatabaseDelta",
    "verify_view",
    "ExplanationService",
    "ExplainRequest",
    "ExplanationResult",
    "create_explainer",
    "available_explainer_names",
    "save_artifact",
    "load_artifact",
]
