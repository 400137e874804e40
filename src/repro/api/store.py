"""Result cache of the explanation service: LRU memory tier + disk spill.

Views are expensive to produce (minutes at paper scale) and cheap to store
(KBs of JSON), so the service keeps every result it has ever computed:

* a bounded in-memory LRU holds the hot working set as live objects;
* entries evicted from memory (and, optionally, every entry as it is
  written) spill to ``<spill_dir>/<key>.json`` via the versioned
  serialisation layer, from which they are transparently reloaded — a
  restart with the same ``spill_dir`` starts warm.

Keys are built by the service as ``<dataset>-<context>-<request>``: the
context fingerprint hashes the model weights and database/split identity,
and the request fingerprint embeds the configuration fingerprint — so a
cache (including a spill directory shared across restarts) can never serve
a view computed under different parameters *or by a different model*.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.api.serialize import load_artifact, save_artifact
from repro.api.types import ExplanationResult
from repro.core.faults import fault_point
from repro.exceptions import ExplanationError
from repro.graphs.graph import Graph
from repro.graphs.io import fsync_directory

__all__ = ["ViewStore"]


class ViewStore:
    """A two-tier (memory LRU + JSON spill directory) result store."""

    def __init__(self, capacity: int = 64, spill_dir: str | Path | None = None) -> None:
        if capacity < 1:
            raise ExplanationError(
                f"ViewStore capacity must be at least 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        # Graph index the owner's planner installs, so reloaded subgraphs
        # reuse its live graph objects instead of embedded copies.
        self.graphs_by_id: dict[int | None, Graph] = {}
        self._memory: OrderedDict[str, ExplanationResult] = OrderedDict()
        # Auxiliary snapshot tier (e.g. ViewMaintainer state for warm
        # restarts): opaque JSON payloads, one per key, kept out of the LRU
        # (there is one live snapshot per service, not a working set).
        self._snapshots: dict[str, dict[str, Any]] = {}
        # The HTTP server drives the store from request threads; all state
        # transitions happen under this lock.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.spills = 0
        self.disk_loads = 0

    # ------------------------------------------------------------------
    # the mapping surface
    # ------------------------------------------------------------------
    def get(self, key: str) -> ExplanationResult | None:
        """Fetch a result by fingerprint (memory first, then spill files)."""
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return result
            path = self._spill_path(key)
            if path is not None and path.is_file():
                loaded = load_artifact(path, graphs_by_id=self.graphs_by_id)
                if not isinstance(loaded, ExplanationResult):
                    raise ExplanationError(
                        f"spill file {path} does not hold an explanation result"
                    )
                self.disk_loads += 1
                self.hits += 1
                self._admit(key, loaded)
                return loaded
            self.misses += 1
            return None

    def put(self, key: str, result: ExplanationResult) -> None:
        """Store a result under its fingerprint (write-through to disk)."""
        with self._lock:
            self._admit(key, result)
            # Write-through: the spill directory is the durable tier, so a
            # crash after explain() never loses a computed view.
            self._spill(key, result)

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, str):
            return False
        with self._lock:
            if key in self._memory:
                return True
            path = self._spill_path(key)
            return path is not None and path.is_file()

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> list[str]:
        """Every stored result fingerprint (memory and disk, deduplicated)."""
        with self._lock:
            keys = set(self._memory)
        if self.spill_dir is not None:
            keys.update(
                path.stem
                for path in self.spill_dir.glob("*.json")
                if not path.name.endswith(".snapshot.json")
            )
        return sorted(keys)

    # ------------------------------------------------------------------
    # auxiliary snapshots (maintainer state for warm restarts)
    # ------------------------------------------------------------------
    def put_snapshot(self, key: str, payload: dict[str, Any]) -> None:
        """Store an opaque JSON snapshot under a key (write-through to disk)."""
        with self._lock:
            self._snapshots[key] = payload
            path = self._snapshot_path(key)
            if path is not None:
                # Atomic + durable replace: a crash mid-write must never
                # leave a truncated snapshot that poisons every later
                # restart, and a published snapshot must survive power loss
                # (WAL recovery replays on top of whatever snapshot the
                # directory durably holds).  The tmp name is unique per
                # writer: shard workers share spill directories across
                # processes, and two writers interleaving into one tmp file
                # would publish a torn snapshot through the rename.
                tmp = self._tmp_path(path)
                with tmp.open("w", encoding="utf-8") as handle:
                    handle.write(json.dumps(payload))
                    handle.flush()
                    os.fsync(handle.fileno())
                tmp.replace(path)
                fsync_directory(path.parent)

    def get_snapshot(self, key: str) -> dict[str, Any] | None:
        """Fetch a snapshot by key (memory first, then the spill directory)."""
        with self._lock:
            payload = self._snapshots.get(key)
            if payload is not None:
                return payload
            path = self._snapshot_path(key)
            if path is not None and path.is_file():
                payload = json.loads(path.read_text())
                self._snapshots[key] = payload
                return payload
            return None

    def _snapshot_path(self, key: str) -> Path | None:
        if self.spill_dir is None:
            return None
        safe = "".join(ch for ch in key if ch.isalnum() or ch in "-_")
        if not safe:
            raise ExplanationError(f"cannot derive a snapshot filename from key {key!r}")
        return self.spill_dir / f"{safe}.snapshot.json"

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "memory_entries": len(self._memory),
                "total_entries": len(self),
                "hits": self.hits,
                "misses": self.misses,
                "spills": self.spills,
                "disk_loads": self.disk_loads,
            }

    def discard(self, key: str) -> None:
        """Drop a result from both tiers (no-op when absent).

        Used by the service when a database mutation makes a cached result
        permanently unreachable (its key embeds the old database version):
        without eager removal the write-through spill directory grows by
        one dead artifact per label per mutation, forever.
        """
        with self._lock:
            self._memory.pop(key, None)
            path = self._spill_path(key)
            if path is not None and path.is_file():
                path.unlink()

    def discard_prefix(self, prefix: str) -> int:
        """Drop every result whose key starts with ``prefix`` (both tiers).

        The service calls this per mutation with the outgoing context
        fingerprint: *every* result variant computed for the pre-mutation
        database (any algorithm/limit/graph selection) becomes unreachable
        at once, not just the latest one per label.  Returns the number of
        keys removed.
        """
        with self._lock:
            victims = [key for key in self._memory if key.startswith(prefix)]
            for key in victims:
                del self._memory[key]
            removed = set(victims)
            if self.spill_dir is not None:
                safe = "".join(ch for ch in prefix if ch.isalnum() or ch in "-_")
                for path in self.spill_dir.glob(f"{safe}*.json"):
                    if path.name.endswith(".snapshot.json"):
                        continue
                    removed.add(path.stem)
                    path.unlink()
            return len(removed)

    def clear_memory(self) -> None:
        """Drop the hot tier (spill files remain — a cold restart)."""
        with self._lock:
            self._memory.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, key: str, result: ExplanationResult) -> None:
        if key in self._memory:
            self._memory.move_to_end(key)
        self._memory[key] = result
        while len(self._memory) > self.capacity:
            victim_key, victim = self._memory.popitem(last=False)
            # Eviction spill keeps the entry reachable when write-through is
            # disabled (no spill_dir configured → the entry is simply lost,
            # which the capacity contract allows).
            self._spill(victim_key, victim)

    def _spill_path(self, key: str) -> Path | None:
        if self.spill_dir is None:
            return None
        safe = "".join(ch for ch in key if ch.isalnum() or ch in "-_")
        if not safe:
            raise ExplanationError(f"cannot derive a spill filename from key {key!r}")
        return self.spill_dir / f"{safe}.json"

    @staticmethod
    def _tmp_path(path: Path) -> Path:
        """A writer-unique sibling for tmp→rename publication.

        pid + thread id make the name unique across the processes *and*
        request threads that may share one spill directory; a fixed
        ``.tmp`` suffix would let two concurrent writers interleave into
        the same file and atomically publish garbage.
        """
        return path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )

    def _spill(self, key: str, result: ExplanationResult) -> None:
        path = self._spill_path(key)
        if path is None:
            return
        if not path.is_file():
            # Atomic publication (write the envelope aside, rename into
            # place): concurrent writers — shard workers spilling into a
            # shared directory, or a reader racing a writer — only ever see
            # a complete file or none.  The existence check is advisory
            # (first writer usually wins); a concurrent double-write is
            # harmless because both sides publish identical content for the
            # same fingerprint key.  No fsync: the spill tier is a cache,
            # durability lives in the WAL and the snapshot tier.
            tmp = self._tmp_path(path)
            try:
                fault_point("store.spill", context=key)
                save_artifact(result, tmp)
                tmp.replace(path)
            finally:
                tmp.unlink(missing_ok=True)
            self.spills += 1
