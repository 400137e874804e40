"""Span recorder for the traced benchmark run.

The wrappers live here, in the benchmark, around calls into each layer's
public functions; the program itself is not instrumented.  Each wrapper is
installed where callers look the function up: a method on its class, or a
module-level name in every module that imported it with ``from ... import``
(the import binds the name at import time, so patching the defining module
alone would miss those callers).

Each thread keeps a stack of open spans.  A span's self time is its
duration minus the durations of the spans directly inside it, so the self
times of all layers inside one request add up to at most its wall time.
A call into a layer from inside the same layer (``predict_subsets`` reached
from another probe entry point, say) stays inside the outer span.  Spans
are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    parent: int
    layer: str
    op: int
    start: float
    end: float
    self_s: float
    items: int


class _Frame:
    __slots__ = ("id", "layer", "start", "child_s")

    def __init__(self, span_id: int, layer: str, start: float) -> None:
        self.id = span_id
        self.layer = layer
        self.start = start
        self.child_s = 0.0


def _positional(index: int, keyword: str) -> Callable[..., Any]:
    def pick(args: tuple, kwargs: dict) -> Any:
        return args[index] if len(args) > index else kwargs[keyword]

    return pick


_node_sets = _positional(2, "node_sets")
_analysed_graph = _positional(1, "graph")


def _count_rows(args: tuple, kwargs: dict) -> int:
    return len(_node_sets(args, kwargs))


def _count_nodes(args: tuple, kwargs: dict) -> int:
    return _analysed_graph(args, kwargs).num_nodes()


def layer_targets() -> list[tuple[Any, str, str, Callable[[tuple, dict], int] | None]]:
    """(owner, attribute, layer, item counter) for every wrapped call."""
    import repro.api.sharding.router as router_module
    import repro.core.approx as approx_module
    import repro.core.maintenance as maintenance_module
    import repro.core.streaming as streaming_module
    from repro.api.sharding.router import ShardRouter
    from repro.core.approx import ApproxGVEX
    from repro.core.maintenance import NodeStreamProcessor
    from repro.core.wal import WriteAheadLog
    from repro.gnn.models import GNNClassifier

    return [
        (GNNClassifier, "predict_proba_subsets", "gnn.probe", _count_rows),
        (GNNClassifier, "predict_subsets", "gnn.probe", _count_rows),
        (GNNClassifier, "predict_proba_nodes", "gnn.probe", None),
        (GNNClassifier, "predict_node_subset", "gnn.probe", None),
        (GNNClassifier, "predict", "gnn.predict", None),
        (GNNClassifier, "predict_batch", "gnn.predict", None),
        (approx_module, "build_analysis", "analysis", _count_nodes),
        (maintenance_module, "build_analysis", "analysis", _count_nodes),
        (streaming_module, "build_analysis", "analysis", _count_nodes),
        (NodeStreamProcessor, "explain_graph", "maintenance", None),
        (approx_module, "lazy_greedy_select", "selection", None),
        (maintenance_module, "lazy_greedy_select", "selection", None),
        (ApproxGVEX, "explain_graph", "approx", None),
        (approx_module, "summarize_subgraphs", "summarize", None),
        (WriteAheadLog, "append", "wal", None),
        (ShardRouter, "explain", "router.explain", None),
        (router_module, "view_from_dict", "router.decode", None),
        (router_module, "assemble_view_from_rows", "router.assemble", None),
    ]


class Tracer:
    """Wraps layer entry points and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []
        self.current_op = -1

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> _Frame:
        stack = self._stack()
        frame = _Frame(next(self._ids), layer, time.perf_counter())
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame, items: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        self.spans.append(
            Span(
                id=frame.id,
                parent=parent.id if parent is not None else -1,
                layer=frame.layer,
                op=self.current_op,
                start=frame.start,
                end=end,
                self_s=duration - frame.child_s,
                items=items,
            )
        )

    @contextmanager
    def span(self, layer: str):
        frame = self._open(layer)
        try:
            yield
        finally:
            self._close(frame, 1)

    def _wrap(self, function: Callable, layer: str, counter) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].layer == layer:
                return function(*args, **kwargs)
            items = counter(args, kwargs) if counter is not None else 1
            frame = tracer._open(layer)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(frame, items)

        return traced

    def install(self) -> None:
        for owner, name, layer, counter in layer_targets():
            original = owner.__dict__[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, counter))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], primary_layer: str) -> dict[str, float]:
    """Per-layer counts and times over the traced phase.

    Times are self times (``router.*`` excepted: ``router.explain_s`` is
    the inclusive time of ``ShardRouter.explain`` and ``router.hop_s`` is
    that minus decode and assembly).  ``trace.primary_coverage`` is the
    share of primary-op wall time spent inside any named layer.
    """
    by_id = {span.id: span for span in spans}

    def inside(span: Span, layer: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.layer == layer:
                return True
            parent = by_id.get(parent.parent)
        return False

    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    builds_in_maintenance = 0
    for span in spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
        items[span.layer] = items.get(span.layer, 0) + span.items
        self_s[span.layer] = self_s.get(span.layer, 0.0) + span.self_s
        total_s[span.layer] = total_s.get(span.layer, 0.0) + (span.end - span.start)
        if span.layer == "analysis" and inside(span, "maintenance"):
            builds_in_maintenance += 1

    primary_wall = total_s.get(primary_layer, 0.0)
    primary_uncovered = self_s.get(primary_layer, 0.0)
    streamed = calls.get("maintenance", 0)
    router_explain = total_s.get("router.explain", 0.0)
    router_decode = total_s.get("router.decode", 0.0)
    router_assemble = total_s.get("router.assemble", 0.0)
    return {
        "gnn.probe_calls": calls.get("gnn.probe", 0),
        "gnn.probe_rows": items.get("gnn.probe", 0),
        "gnn.probe_s": self_s.get("gnn.probe", 0.0),
        "gnn.predict_calls": calls.get("gnn.predict", 0),
        "gnn.predict_s": self_s.get("gnn.predict", 0.0),
        "analysis.builds": calls.get("analysis", 0),
        "analysis.nodes": items.get("analysis", 0),
        "analysis.s": self_s.get("analysis", 0.0),
        "maintenance.graphs_streamed": streamed,
        "maintenance.builds_per_graph": builds_in_maintenance / streamed if streamed else 0.0,
        "maintenance.self_s": self_s.get("maintenance", 0.0),
        "selection.celf_calls": calls.get("selection", 0),
        "selection.self_s": self_s.get("selection", 0.0),
        "approx.graphs_explained": calls.get("approx", 0),
        "approx.self_s": self_s.get("approx", 0.0),
        "summarize.calls": calls.get("summarize", 0),
        "summarize.s": self_s.get("summarize", 0.0),
        "wal.appends": calls.get("wal", 0),
        "wal.append_s": self_s.get("wal", 0.0),
        "router.explain_s": router_explain,
        "router.decode_s": router_decode,
        "router.assemble_s": router_assemble,
        "router.hop_s": router_explain - router_decode - router_assemble,
        "trace.primary_coverage": (
            1.0 - primary_uncovered / primary_wall if primary_wall else 0.0
        ),
    }
