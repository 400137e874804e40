"""The legacy entrypoints are gone; the supported paths never warn.

PR 3 declared the direct algorithm constructors (``repro.ApproxGVEX``,
``repro.core.StreamGVEX``), the ``repro.baselines`` class re-exports, the
standalone ``ViewQueryEngine`` re-export and the legacy experiment-runner
CLI commands (``table1``, ``table3``, ``compare``) deprecated; the warning
window has now closed and the shims are removed outright.  Access must fail
*cleanly* — a plain :class:`AttributeError`/:class:`ImportError` (or
argparse's usage error for the CLI), never a warning, never a shim — while
the concrete modules and the registry/service surface keep working
silently.

The process-pool runner ``parallel_explain`` and its per-shard view union
``merge_views`` are removed the same way: fanning explanations out is the
shard router's job, and it assembles one view from per-graph rows.
``PatternOccurrence`` went with ``ViewQueryEngine.occurrences``, the only
query that returned it.
"""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.baselines
import repro.core

REMOVED_TOP_LEVEL = [
    "ApproxGVEX",
    "StreamGVEX",
    "ViewQueryEngine",
    "parallel_explain",
    "merge_views",
    "PatternOccurrence",
]
REMOVED_BASELINES = [
    "BaseExplainer",
    "GNNExplainerBaseline",
    "SubgraphXBaseline",
    "GStarXBaseline",
    "GCFExplainerBaseline",
    "GlobalCounterfactualSummary",
    "RandomExplainer",
    "ApproxGVEXAdapter",
    "StreamGVEXAdapter",
]


@pytest.mark.parametrize("name", REMOVED_TOP_LEVEL)
def test_top_level_access_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=rf"no attribute {name!r}"):
        getattr(repro, name)


@pytest.mark.parametrize("name", REMOVED_TOP_LEVEL)
def test_core_package_access_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=rf"no attribute {name!r}"):
        getattr(repro.core, name)


@pytest.mark.parametrize("name", REMOVED_BASELINES)
def test_baselines_access_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=rf"no attribute {name!r}"):
        getattr(repro.baselines, name)


@pytest.mark.parametrize("name", REMOVED_TOP_LEVEL)
def test_from_import_raises_import_error(name):
    with pytest.raises(ImportError):
        exec(f"from repro import {name}")
    with pytest.raises(ImportError):
        exec(f"from repro.core import {name}")


def test_removal_raises_without_emitting_a_warning():
    # A stale shim that warned *and* raised would still fail this test:
    # removal must be silent apart from the exception itself.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in REMOVED_TOP_LEVEL:
            with pytest.raises(AttributeError):
                getattr(repro, name)
        for name in REMOVED_BASELINES:
            with pytest.raises(AttributeError):
                getattr(repro.baselines, name)


def test_removed_names_absent_from_all():
    for name in REMOVED_TOP_LEVEL:
        assert name not in repro.__all__
        assert name not in repro.core.__all__
    for name in REMOVED_BASELINES:
        assert name not in repro.baselines.__all__


def test_star_import_no_longer_exposes_the_removed_names():
    namespace: dict[str, object] = {}
    exec("from repro import *", namespace)
    assert "ApproxGVEX" not in namespace
    assert "StreamGVEX" not in namespace
    assert "ViewQueryEngine" not in namespace
    # The supported surface is still all there.
    assert "ExplanationService" in namespace and "Configuration" in namespace


def test_concrete_modules_and_registry_stay_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.api import create_explainer  # noqa: F401
        from repro.baselines.gnnexplainer import GNNExplainerBaseline  # noqa: F401
        from repro.core.approx import ApproxGVEX  # noqa: F401
        from repro.core.streaming import StreamGVEX  # noqa: F401
        from repro.core.views import ViewQueryEngine  # noqa: F401

        assert "gnnexplainer" in repro.api.available_explainers()


def test_baselines_package_still_registers_every_explainer():
    # The class re-exports are gone but importing the package must keep
    # its side effect: every baseline registered with the default registry.
    for name in ("gnnexplainer", "subgraphx", "gstarx", "gcfexplainer", "random"):
        assert name in repro.api.available_explainers()


class TestRemovedCliCommands:
    """The legacy table/compare commands now fail argparse's choice check."""

    @pytest.mark.parametrize("command", ["table1", "table3", "compare"])
    def test_legacy_command_exits_with_usage_error(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_legacy_command_registry_is_gone(self):
        import repro.cli

        assert not hasattr(repro.cli, "_DEPRECATED_COMMANDS")

    def test_supported_commands_stay_silent(self, capsys):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["datasets"]) == 0
        capsys.readouterr()
