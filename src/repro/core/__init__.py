"""GVEX core: configuration, quality measures, view generation algorithms.

The algorithm classes (``ApproxGVEX``, ``StreamGVEX``) and the standalone
``ViewQueryEngine`` are no longer re-exported from here — the deprecation
window closed in this release.  New code goes through :mod:`repro.api`
(``create_explainer`` / ``ExplanationService.query()``); code that
genuinely needs the classes imports them from their concrete modules
(:mod:`repro.core.approx`, :mod:`repro.core.streaming`,
:mod:`repro.core.views`).
"""

from repro.core.caching import LRUCache
from repro.core.config import Configuration, CoverageBound
from repro.core.explanation import ExplanationSubgraph, ExplanationView, ExplanationViewSet
from repro.core.maintenance import MaintainedExplanation, NodeStreamProcessor, ViewMaintainer
from repro.core.quality import CoverageState, GraphAnalysis, view_explainability
from repro.core.selection import lazy_greedy_select
from repro.core.summarize import SummarizeResult, pattern_weight, summarize_subgraphs
from repro.core.verification import EVerify, VerificationReport, verify_view

__all__ = [
    "Configuration",
    "CoverageBound",
    "CoverageState",
    "GraphAnalysis",
    "LRUCache",
    "lazy_greedy_select",
    "view_explainability",
    "ExplanationSubgraph",
    "ExplanationView",
    "ExplanationViewSet",
    "EVerify",
    "VerificationReport",
    "verify_view",
    "SummarizeResult",
    "summarize_subgraphs",
    "pattern_weight",
    "MaintainedExplanation",
    "NodeStreamProcessor",
    "ViewMaintainer",
]
