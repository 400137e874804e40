"""Zero-copy sharing of :class:`SparseGraphView` CSR arrays across workers.

The sharded tier's memory story: the read-mostly seed database dominates a
worker's footprint through its per-graph CSR snapshots (adjacency, edge
lists, type codes, and — the big one — the stacked feature block).  With N
workers those snapshots would be paid N times.  Instead the router packs
every graph's arrays into **one** ``multiprocessing.shared_memory`` block
and ships a JSON manifest of offsets/shapes; each worker attaches the block
and installs :meth:`SparseGraphView.from_parts` views — numpy views over
the shared buffer, zero bytes copied — onto its shard's graphs.

Attached arrays are marked read-only: views are immutable snapshots by
contract, and a worker scribbling into the shared buffer would silently
corrupt its siblings.  Graphs mutated *after* attachment (live ingest)
simply fall off the shared snapshot: ``Graph.sparse_view`` compares the
view's version against the graph's mutation counter and rebuilds a private
copy, so correctness never depends on the arena staying fresh.

Degradation is graceful and explicit: platforms without usable shared
memory (``create_arena`` raising ``OSError``/``PermissionError``, e.g.
sandboxes without ``/dev/shm``) make the router fall back to per-worker
private views — same results, N× memory.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.faults import fault_point
from repro.exceptions import ExplanationError
from repro.graphs.graph import Graph
from repro.graphs.sparse import SparseGraphView

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds only
    _shared_memory = None

__all__ = ["SharedViewArena", "create_arena", "attach_arena"]

#: Arrays packed per graph, in manifest order.  ``feature_block`` is float64
#: (model features); everything else is the view's int64.
_INT_ARRAYS = (
    "indptr",
    "indices",
    "edge_u",
    "edge_v",
    "node_type_codes",
    "edge_type_codes",
    "feature_rows",
)


class SharedViewArena:
    """One shared-memory block holding every graph's CSR arrays + manifest.

    Created once by the router (:func:`create_arena`), attached by each
    worker (:func:`attach_arena`).  The creator unlinks the block on
    :meth:`close`; workers merely detach.  Whoever holds views built from
    the arena must keep the arena object alive — the views' arrays are
    windows into its buffer.
    """

    def __init__(self, shm: Any, manifest: dict[str, Any], *, owner: bool) -> None:
        self._shm = shm
        self.manifest = manifest
        self._owner = owner
        self._closed = False

    @property
    def name(self) -> str:
        """OS-level block name workers attach by."""
        return self._shm.name

    @property
    def num_graphs(self) -> int:
        return len(self.manifest["graphs"])

    @property
    def nbytes(self) -> int:
        return int(self.manifest["nbytes"])

    def _array(self, entry: dict[str, Any], spec: dict[str, Any]) -> np.ndarray:
        array: np.ndarray = np.ndarray(
            tuple(spec["shape"]),
            dtype=np.dtype(spec["dtype"]),
            buffer=self._shm.buf,
            offset=int(spec["offset"]),
        )
        array.flags.writeable = False
        return array

    def view_for(self, entry: dict[str, Any]) -> SparseGraphView:
        """Materialise one manifest entry as a zero-copy view."""
        arrays = {name: self._array(entry, entry["arrays"][name]) for name in entry["arrays"]}
        feature_block = arrays.get("feature_block")
        return SparseGraphView.from_parts(
            version=entry["version"],
            node_ids=entry["node_ids"],
            num_edges=entry["num_edges"],
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            edge_u=arrays["edge_u"],
            edge_v=arrays["edge_v"],
            node_type_codes=arrays["node_type_codes"],
            node_type_vocab=entry["node_type_vocab"],
            edge_type_codes=arrays["edge_type_codes"],
            edge_type_vocab=entry["edge_type_vocab"],
            feature_rows=arrays["feature_rows"],
            feature_dims=entry["feature_dims"],
            feature_block=feature_block,
        )

    def install(self, graphs: list[Graph]) -> int:
        """Attach shared views onto matching graphs; returns how many took.

        Matching is by stable graph id **and** content checksum of the node
        ids: a graph rebuilt from a shard payload has a different mutation
        counter than the router's original, so the installed view adopts
        the *local* graph's version (content is identical — database
        serialisation preserves node and edge order — only the counter
        differs).  Graphs absent from the manifest (live-ingested arrivals)
        are skipped and build private views on demand.
        """
        entries = {entry["graph_id"]: entry for entry in self.manifest["graphs"]}
        installed = 0
        for graph in graphs:
            entry = entries.get(graph.graph_id)
            if entry is None or entry["node_ids"] != list(graph.nodes):
                continue
            view = self.view_for(entry)
            view.version = graph.version
            graph._sparse_view = view
            installed += 1
        return installed

    def close(self) -> None:
        """Detach (and, for the creator, unlink) the shared block."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


def _pack_specs(view: SparseGraphView, offset: int) -> tuple[dict[str, Any], int, list[tuple[str, np.ndarray]]]:
    """Per-array (offset, shape, dtype) specs for one view, 8-byte aligned."""
    arrays: list[tuple[str, np.ndarray]] = [
        (name, np.ascontiguousarray(getattr(view, name if not name.startswith("feature") else f"_{name}")))
        for name in _INT_ARRAYS
    ]
    if view._feature_block is not None:
        arrays.append(("feature_block", np.ascontiguousarray(view._feature_block)))
    specs: dict[str, Any] = {}
    for name, array in arrays:
        offset = (offset + 7) & ~7
        specs[name] = {
            "offset": offset,
            "shape": list(array.shape),
            "dtype": str(array.dtype),
        }
        offset += array.nbytes
    return specs, offset, arrays


def create_arena(graphs: list[Graph], *, name_hint: str = "repro-views") -> SharedViewArena:
    """Pack every graph's CSR view into one fresh shared-memory block.

    Builds (or reuses) each graph's :meth:`Graph.sparse_view` on the way,
    then copies the arrays into the block once.  Raises ``ExplanationError`` when the
    platform has no shared-memory support; raises ``OSError`` /
    ``PermissionError`` straight through when the OS refuses the block, so
    the router can fall back to private views.
    """
    if _shared_memory is None:  # pragma: no cover - exotic builds only
        raise ExplanationError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    entries: list[dict[str, Any]] = []
    packed: list[list[tuple[str, np.ndarray]]] = []
    offset = 0
    for graph in graphs:
        view = graph.sparse_view()
        specs, offset, arrays = _pack_specs(view, offset)
        entries.append(
            {
                "graph_id": graph.graph_id,
                "version": view.version,
                "node_ids": list(view.node_ids),
                "num_edges": view.num_edges,
                "node_type_vocab": list(view.node_type_vocab),
                "edge_type_vocab": list(view.edge_type_vocab),
                "feature_dims": list(view._feature_dims),
                "arrays": specs,
            }
        )
        packed.append(arrays)
    nbytes = max(offset, 8)  # zero-size blocks are rejected by the OS
    shm = _shared_memory.SharedMemory(create=True, size=nbytes)
    for entry, arrays in zip(entries, packed):
        for name, array in arrays:
            spec = entry["arrays"][name]
            window: np.ndarray = np.ndarray(
                array.shape, dtype=array.dtype, buffer=shm.buf, offset=spec["offset"]
            )
            window[...] = array
    manifest = {"nbytes": nbytes, "graphs": entries, "tracker_pid": _tracker_pid()}
    return SharedViewArena(shm, manifest, owner=True)


def _tracker_pid() -> int | None:
    """PID of this process's resource-tracker daemon (None if unknowable)."""
    try:  # pragma: no cover - tracker internals vary across 3.10-3.13
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        return resource_tracker._resource_tracker._pid  # type: ignore[attr-defined]
    except Exception:
        return None


def attach_arena(name: str, manifest: dict[str, Any]) -> SharedViewArena:
    """Attach to a block created by :func:`create_arena` (worker side)."""
    if _shared_memory is None:  # pragma: no cover - exotic builds only
        raise ExplanationError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    fault_point("shm.attach", context=name)
    shm = _shared_memory.SharedMemory(name=name, create=False)
    # Attaching re-registers the block with a resource tracker; a worker
    # with its *own* tracker (spawn start method) would then unlink the
    # segment when it exits — yanking the mapping out from under every
    # sibling.  The creator owns the lifecycle, so deregister such
    # attachments.  When the attacher shares the creator's tracker daemon
    # (fork children, in-process attach), the registration was a set no-op
    # and unregistering would strip the *creator's* entry instead — skip.
    if _tracker_pid() != manifest.get("tracker_pid"):
        try:  # pragma: no cover - tracker internals vary across 3.10-3.13
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    return SharedViewArena(shm, manifest, owner=False)
