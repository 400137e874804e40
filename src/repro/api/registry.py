"""String-keyed explainer registry: ``create_explainer("approx" | ...)``.

One factory table unifies the two GVEX view algorithms (``repro.core``) and
the instance-level competitors (``repro.baselines``) behind the
:class:`~repro.api.types.Explainer` protocol:

* ``"approx"`` / ``"stream"`` build :class:`~repro.core.approx.ApproxGVEX`
  and :class:`~repro.core.streaming.StreamGVEX` directly — they already
  speak ``explain_label`` / ``explain_instance``;
* every :class:`~repro.baselines.base.BaseExplainer` subclass registers
  itself automatically (via ``__init_subclass__``) and is wrapped in
  :class:`InstanceViewExplainer`, which lifts ``explain_instance`` into a
  full two-tier view (per-graph subgraphs + ``Psum`` pattern summaries) so
  baselines become cacheable, serialisable, and queryable exactly like GVEX.

The registry is deliberately import-light: factories import their algorithm
lazily, and baseline registration happens on first use, so ``repro.api``
never drags the whole baseline zoo into processes that only deserialise
views.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.api.types import Explainer
from repro.core.config import Configuration
from repro.core.explanation import ExplanationRow, ExplanationSubgraph, ExplanationView
from repro.exceptions import ExplanationError
from repro.graphs.graph import Graph

__all__ = [
    "ExplainerRegistry",
    "InstanceViewExplainer",
    "available_explainers",
    "create_explainer",
    "register_explainer",
]

# factory(model, config, max_nodes, **kwargs) -> Explainer
ExplainerFactory = Callable[..., Explainer]


class InstanceViewExplainer:
    """Adapter lifting an instance-level baseline to the view-level protocol.

    ``explain_label`` runs the wrapped explainer on every graph the model
    assigns the requested label, then summarises the resulting subgraphs
    into higher-tier patterns with the same ``Psum`` operator GVEX uses —
    so a baseline's output is a genuine two-tier
    :class:`~repro.core.explanation.ExplanationView` that the query engine,
    the serialiser, and the service cache treat uniformly.
    """

    def __init__(self, base: Any, config: Configuration | None = None) -> None:
        from repro.mining.candidates import PatternGenerator

        self.base = base
        self.model = base.model
        self.config = config or Configuration()
        self.name = getattr(base, "name", type(base).__name__)
        self.pattern_generator = PatternGenerator(
            max_pattern_size=self.config.max_pattern_size,
            max_candidates=self.config.max_pattern_candidates,
        )

    def explain_instance(self, graph: Graph) -> ExplanationSubgraph:
        return self.base.explain_instance(graph)

    def explain_many(self, graphs: Sequence[Graph]) -> list[ExplanationSubgraph]:
        """Instance-level batch (the comparison experiments' contract)."""
        return self.base.explain_many(graphs)

    def __getattr__(self, attr: str):
        # Full drop-in compatibility with the wrapped BaseExplainer surface
        # (select_nodes, max_nodes, everify, ...) for legacy callers.
        if attr.startswith("__") or attr == "base":
            raise AttributeError(attr)
        return getattr(self.base, attr)

    def explain_rows(self, graphs: Sequence[Graph], label: int) -> list[ExplanationRow]:
        """One instance explanation per non-empty graph the model assigns ``label``."""
        graphs = [graph for graph in graphs if graph.num_nodes() > 0]
        predicted = self.model.predict_many(graphs)
        return [
            ExplanationRow(graph.graph_id, label, self.base.explain_instance(graph))
            for graph, assigned in zip(graphs, predicted)
            if assigned == label
        ]

    def assemble(self, rows: Iterable[ExplanationRow], label: int, start: float) -> ExplanationView:
        from repro.core.approx import assemble_view

        return assemble_view(rows, label, self.pattern_generator, self.name, start)

    def explain_label(self, graphs: Sequence[Graph], label: int) -> ExplanationView:
        start = time.perf_counter()
        return self.assemble(self.explain_rows(graphs, label), label, start)


class ExplainerRegistry:
    """A string-keyed table of explainer factories."""

    def __init__(self) -> None:
        self._factories: dict[str, ExplainerFactory] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: ExplainerFactory | None = None,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ):
        """Register a factory under ``name`` (usable as a decorator)."""

        def apply(fn: ExplainerFactory) -> ExplainerFactory:
            key = self._normalise(name)
            if not overwrite and key in self._factories:
                raise ExplanationError(
                    f"explainer '{key}' is already registered; pass overwrite=True "
                    "to replace it"
                )
            self._factories[key] = fn
            for alias in aliases:
                self._aliases[self._normalise(alias)] = key
            return fn

        return apply if factory is None else apply(factory)

    def register_instance_class(self, cls: type, *, aliases: Sequence[str] = ()) -> None:
        """Register a ``BaseExplainer`` subclass behind the view adapter.

        Called automatically from ``BaseExplainer.__init_subclass__``; the
        key is the class's ``name`` attribute (lower-cased).  Re-definition
        of a class with the same name simply rebinds the key (latest wins),
        which keeps interactive sessions and test reloads painless.
        """
        import inspect

        accepts_config = "config" in inspect.signature(cls.__init__).parameters

        def factory(
            model: Any,
            config: Configuration | None = None,
            max_nodes: int | None = None,
            **kwargs: Any,
        ) -> Explainer:
            if accepts_config and config is not None:
                kwargs = {"config": config, **kwargs}
            base = cls(model, max_nodes=max_nodes if max_nodes is not None else 10, **kwargs)
            return InstanceViewExplainer(base, config)

        key = self._normalise(getattr(cls, "name", cls.__name__))
        self._factories[key] = factory
        for alias in aliases:
            self._aliases[self._normalise(alias)] = key

    # ------------------------------------------------------------------
    # lookup / creation
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        model: Any,
        config: Configuration | None = None,
        max_nodes: int | None = None,
        **kwargs: Any,
    ) -> Explainer:
        """Build a protocol-conforming explainer by registry name.

        ``max_nodes`` folds into the configuration's default coverage bound
        (the shared size budget of the comparison experiments) *and* is
        forwarded to instance-level baselines as their node cap, so one knob
        size-matches every algorithm.
        """
        key = self.resolve(name)
        config = config or Configuration()
        if max_nodes is not None:
            config = config.with_max_nodes(max_nodes)
        return self._factories[key](model, config=config, max_nodes=max_nodes, **kwargs)

    def resolve(self, name: str) -> str:
        """Canonical registry key for ``name`` (raises with suggestions)."""
        self._ensure_builtin_algorithms()
        key = self._normalise(name)
        key = self._aliases.get(key, key)
        if key not in self._factories:
            raise ExplanationError(
                f"unknown explainer '{name}'; available: {', '.join(self.names())}"
            )
        return key

    def names(self) -> list[str]:
        """Sorted canonical names of every registered explainer."""
        self._ensure_builtin_algorithms()
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        try:
            self.resolve(name)
        except ExplanationError:
            return False
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _normalise(name: str) -> str:
        return name.strip().lower().replace("-", "").replace("_", "")

    def _ensure_builtin_algorithms(self) -> None:
        """Import the baseline zoo once so its subclasses self-register."""
        import repro.baselines  # noqa: F401  (import triggers registration)


# The default (module-level) registry every public helper routes through.
DEFAULT_REGISTRY = ExplainerRegistry()


@DEFAULT_REGISTRY.register("approx", aliases=("gvex", "approxgvexview"))
def _build_approx(
    model: Any,
    config: Configuration | None = None,
    max_nodes: int | None = None,
    **kwargs: Any,
) -> Explainer:
    from repro.core.approx import ApproxGVEX

    return ApproxGVEX(model, config, **kwargs)


@DEFAULT_REGISTRY.register("stream", aliases=("streaming", "streamgvexview"))
def _build_stream(
    model: Any,
    config: Configuration | None = None,
    max_nodes: int | None = None,
    **kwargs: Any,
) -> Explainer:
    from repro.core.streaming import StreamGVEX

    return StreamGVEX(model, config, **kwargs)


def register_explainer(
    name: str,
    factory: ExplainerFactory | None = None,
    *,
    aliases: Sequence[str] = (),
    overwrite: bool = False,
):
    """Register a factory in the default registry (usable as a decorator)."""
    return DEFAULT_REGISTRY.register(name, factory, aliases=aliases, overwrite=overwrite)


def create_explainer(
    name: str,
    model: Any,
    config: Configuration | None = None,
    max_nodes: int | None = None,
    **kwargs: Any,
) -> Explainer:
    """Build any registered explainer by name (the public entry point)."""
    return DEFAULT_REGISTRY.create(name, model, config=config, max_nodes=max_nodes, **kwargs)


def available_explainers() -> list[str]:
    """Sorted names accepted by :func:`create_explainer`."""
    return DEFAULT_REGISTRY.names()
