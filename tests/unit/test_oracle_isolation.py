"""The reference implementations stay out of the production import graph."""

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
