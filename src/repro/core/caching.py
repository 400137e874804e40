"""Bounded memoisation helpers.

:class:`LRUCache` backs the long-lived memos — the process-wide
pattern-match memo of :mod:`repro.matching.engine` and the database's
batched views — so memory stays flat however many keys a workload touches;
:func:`with_hit_rate` formats any cache's counters for the health endpoints.
The explainers' subset probes keep no memo: the greedy tie-breakers and the
counterfactual swap loop send each step's probes as one
:class:`~repro.graphs.sparse.SubsetFamily` and score it in one batched pass,
and ``VpExtend`` (:meth:`~repro.core.verification.EVerify.vp_extend`) sends
each frontier's extensions as one batched probe.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Generic, TypeVar

__all__ = ["LRUCache", "with_hit_rate"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class LRUCache(Generic[K, V]):
    """A minimal least-recently-used mapping.

    ``capacity <= 0`` disables storage entirely (every lookup misses), which
    is the behaviour ``match_cache_size=0`` requests.
    """

    __slots__ = ("capacity", "_data", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._data: OrderedDict[K, V] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K, default: V | None = None) -> V | None:
        """Look up ``key``, refreshing its recency on a hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        """Insert ``key``, evicting the least recently used entry when full."""
        if self.capacity <= 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def resize(self, capacity: int) -> None:
        """Change the capacity in place, evicting LRU entries when shrinking.

        Existing entries survive a grow (or an unchanged capacity), so warm
        caches are not thrown away when a new explainer re-applies the same
        configuration knob.
        """
        self.capacity = int(capacity)
        if self.capacity <= 0:
            self._data.clear()
            return
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    def stats(self) -> dict[str, int]:
        return {"size": len(self._data), "hits": self.hits, "misses": self.misses}


def with_hit_rate(stats: dict) -> dict[str, object]:
    """Copy of a ``{hits, misses, ...}`` dict plus a ``hit_rate`` field.

    ``hit_rate`` is ``None`` when the cache has never been consulted —
    reporting 0.0 there would read as "everything missed".
    """
    result: dict[str, object] = dict(stats)
    total = int(stats.get("hits", 0)) + int(stats.get("misses", 0))
    result["hit_rate"] = round(int(stats.get("hits", 0)) / total, 4) if total else None
    return result
