"""The reference implementations stay out of the production import graph
and off the production batch probe, and the retired backend toggle stays
out of the package."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.approx import ApproxGVEX
from repro.core.config import Configuration
from repro.core.oracles import ReferenceApproxGVEX, ReferenceGraphAnalysis, ReferenceStreamGVEX
from repro.core.quality import GraphAnalysis
from repro.core.sampling import SampledGraphAnalysis, build_analysis
from repro.gnn.models import GNNClassifier
from repro.graphs.sparse import SparseGraphView

ORACLES = "repro.core.oracles"
PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(source: str, package: str) -> set[str]:
    """Every module an ``import`` statement in ``source`` can bind.

    ``package`` is the package the source lives in, which anchors relative
    imports.
    """
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_only_the_oracle_module_imports_the_oracles():
    offenders = []
    for path in PACKAGE_ROOT.rglob("*.py"):
        module = _module_name(path)
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        if module != ORACLES and ORACLES in _imported_modules(
            path.read_text(encoding="utf-8"), package
        ):
            offenders.append(module)
    assert offenders == []


@pytest.mark.parametrize(
    "source",
    [
        "import repro.core.oracles",
        "from repro.core.oracles import ReferenceApproxGVEX",
        "from repro.core import oracles",
        "from . import oracles",
        "from .oracles import ReferenceStreamGVEX",
        "from ..core.oracles import ReferenceStreamProcessor",
    ],
)
def test_the_scan_sees_each_import_form(source):
    assert ORACLES in _imported_modules(source, "repro.core")


RETIRED_TOGGLE = ("sparse_enabled", "sparse_backend", "REPRO_SPARSE_BACKEND")


def test_the_retired_backend_toggle_stays_gone():
    """One production path: nothing in the package names the old switch."""
    offenders = [
        f"{_module_name(path)}: {name}"
        for path in PACKAGE_ROOT.rglob("*.py")
        for name in RETIRED_TOGGLE
        if name in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_the_graphs_package_exports_no_toggle():
    import repro.graphs

    exported = set(repro.graphs.__all__) | set(vars(repro.graphs))
    assert not exported & {"sparse_enabled", "set_sparse_backend", "sparse_backend"}


def test_oracle_explainers_never_reach_the_batch_probe(trained_mut_model, mut_database, monkeypatch):
    """The oracles probe one subset at a time.  With the production batch
    probe patched to raise they still explain a label group; were they to
    fall through to it, the identity tests would compare production with
    itself.  The production explainer does reach the patched probe."""
    def refuse(*args, **kwargs):
        raise AssertionError("batch probe reached")

    config = Configuration(theta=0.08).with_default_bound(0, 8)
    graphs = mut_database.graphs
    label = 1
    monkeypatch.setattr(GNNClassifier, "subsets_logits", refuse)
    for oracle in (ReferenceApproxGVEX, ReferenceStreamGVEX):
        view = oracle(trained_mut_model, config).explain_label(graphs, label)
        assert view.subgraphs
    with pytest.raises(AssertionError, match="batch probe reached"):
        ApproxGVEX(trained_mut_model, config).explain_label(graphs, label)


def test_oracles_and_direct_analyses_never_read_the_analysis_cache(
    trained_mut_model, mut_database, monkeypatch
):
    """The oracles and the ratio benchmarks time computation: a direct
    ``GraphAnalysis(...)``, ``ReferenceGraphAnalysis``,
    ``SampledGraphAnalysis`` and the oracle explainers compute every core
    even on a graph whose view holds one.  ``build_analysis`` does read it."""
    config = Configuration(theta=0.08).with_default_bound(0, 8)
    graphs = [graph.copy() for graph in mut_database.graphs[:6]]
    for graph in graphs:
        build_analysis(trained_mut_model, graph, config)  # a cached core each

    def refuse(*args, **kwargs):
        raise AssertionError("analysis cache read")

    monkeypatch.setattr(SparseGraphView, "analysis_core", refuse)
    graph = graphs[0]
    for analysis_class in (GraphAnalysis, ReferenceGraphAnalysis):
        analysis = analysis_class(trained_mut_model, graph, config)
        cached = graph.sparse_view()._analysis_cores
        assert all(analysis.core is not core for core in cached.values())
    sampled = SampledGraphAnalysis(trained_mut_model, graph, config, sample_size=4)
    assert sampled.explainability(graph.nodes[:2]) >= 0.0
    for oracle in (ReferenceApproxGVEX, ReferenceStreamGVEX):
        assert oracle(trained_mut_model, config).explain_label(graphs, 1).subgraphs
    with pytest.raises(AssertionError, match="analysis cache read"):
        build_analysis(trained_mut_model, graph, config)
