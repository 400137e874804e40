"""The reference implementations stay out of the production import graph,
and the retired backend toggle stays out of the package."""

import ast
from pathlib import Path

import pytest

import repro

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
