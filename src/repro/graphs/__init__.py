"""Attributed graph substrate: graphs, patterns, databases, and generators."""

from repro.graphs.database import DatabaseDelta, GraphDatabase
from repro.graphs.graph import Graph
from repro.graphs.pattern import GraphPattern
from repro.graphs.sparse import BatchedGraphView, SparseGraphView
from repro.graphs.subgraph import (
    connected_component_subgraphs,
    induced_subgraph,
    khop_subgraph,
    remove_subgraph,
)

__all__ = [
    "Graph",
    "GraphPattern",
    "GraphDatabase",
    "DatabaseDelta",
    "BatchedGraphView",
    "SparseGraphView",
    "induced_subgraph",
    "remove_subgraph",
    "khop_subgraph",
    "connected_component_subgraphs",
]
