"""The sharded tier's front-end: route, fan out, reassemble, recover.

:class:`ShardRouter` duck-types the :class:`ExplanationService` surface the
HTTP server binds to, so ``repro serve --shards N`` swaps it in without the
handler changing — but underneath, every request is decomposed against a
deterministic :class:`ShardPlan`:

* **mutations** (``ingest``/``remove``/``relabel``) route to the single
  owning shard, whose worker appends to its own contiguous WAL stream;
* **whole-database stream explanations** fan ``stream_rows`` out and the
  router reassembles the per-graph rows in global database order — each
  row's node stream is seeded per graph, so the assembled view is identical
  to a single-process StreamGVEX run at any shard count;
* **everything else** fans per-shard explanations out and merges them with
  the same :func:`merge_views` discipline the parallel runner uses (a
  single-shard deployment skips the merge and is byte-identical to the
  single-process service for every request type).  At any shard count an
  approx view holds, for every graph, the same explanation node set as the
  single-process service (each graph is explained on its own); only the
  pattern set differs, because each shard summarises its own subgraphs and
  the merge unions the per-shard patterns.

Failure semantics: one outstanding request per worker (a per-shard mutex),
a request timeout, and on timeout or a broken pipe the worker is respawned
from its frozen bootstrap payload — the rebuilt service replays the shard's
WAL tail natively — and the request retried exactly once.  Mutation ops
are idempotent on the worker side, which is what makes that retry safe
when the first attempt died after applying but before acknowledging.

On top of that per-request recovery sits supervision (:class:`ShardSupervisor`):

* a background heartbeat thread pings idle workers and respawns dead or
  hung ones *before* a request has to pay for the recovery;
* a per-shard **crash-loop breaker** — several rapid worker deaths open the
  breaker and requests fail fast with :class:`ShardDownError` (503 +
  ``Retry-After`` at the HTTP layer) while respawns back off exponentially
  with seeded jitter, instead of burning CPU re-booting a doomed shard;
* **poison quarantine** — a request that kills its worker twice is
  remembered by fingerprint and answered with
  :class:`PoisonRequestError` from then on, so one bad request cannot
  crash-loop a shard;
* optional **graceful degradation** (``Configuration(degraded_reads=True)``)
  — reads that fan past a down shard return partial results flagged
  ``degraded``/``missing_shards`` (and are never cached); mutations always
  fail loudly with the structured 503.  The default stays fail-loud.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import signal
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

import numpy as np

from repro.api.registry import DEFAULT_REGISTRY, create_explainer
from repro.api.replication import model_to_payload
from repro.api.serialize import delta_from_dict, view_from_dict
from repro.api.service import ServiceQuery
from repro.api.sharding.plan import ShardPlan
from repro.api.sharding.shm import create_arena
from repro.api.sharding.worker import ShardHost, shard_worker_main
from repro.api.store import ViewStore
from repro.api.types import ExplainRequest, ExplanationResult, Provenance
from repro.core.config import Configuration
from repro.core.explanation import ExplanationViewSet
from repro.core.faults import activate_from_config, fault_point
from repro.core.maintenance import assemble_view_from_rows
from repro.core.parallel import merge_views
from repro.core.sampling import estimator_summary
from repro.exceptions import ExplanationError, PoisonRequestError, ShardDownError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph

__all__ = ["ShardRouter", "ShardSupervisor"]

#: Environment override for the worker start method ("fork" / "spawn" /
#: "forkserver").  Fork is the default where available: workers inherit the
#: imported modules and page-share the interpreter, so a shard boots in
#: milliseconds instead of re-importing numpy.
_START_METHOD_ENV = "REPRO_SHARD_START_METHOD"


class _WorkerDown(Exception):
    """A worker stopped answering (timeout, dead process, broken pipe)."""


#: Sentinel distinguishing "shard was down" from any real response value
#: in degraded fan-outs.
_SHARD_MISSING = object()


class _InlineWorker:
    """A shard host driven in-process.

    The fallback backend for sandboxes that forbid ``fork``/``spawn`` (the
    same degradation :func:`repro.core.parallel.parallel_explain` ships),
    and the oracle the unit tests drive: identical op surface, identical
    bootstrap/respawn lifecycle, no process boundary.  ``kill`` simulates a
    crash by refusing further requests until the router respawns the host
    from its bootstrap payload.
    """

    def __init__(self, bootstrap: dict[str, Any]) -> None:
        self.bootstrap = bootstrap
        self.host = ShardHost.from_bootstrap(bootstrap)
        self.pid = os.getpid()
        self._killed = False

    def request(self, op: str, payload: dict[str, Any], timeout: float | None = None) -> Any:
        if self._killed:
            raise _WorkerDown(f"inline worker {self.bootstrap['shard_index']} was killed")
        return self.host.handle(op, payload)

    def kill(self) -> None:
        self._killed = True

    def close(self, timeout: float | None = None) -> None:
        # A killed inline host still holds its WAL handle (nothing actually
        # died); release it so a respawn can reopen the same directory.
        self.host.close()


class _ProcessWorker:
    """A shard host in its own long-lived process, driven over a pipe."""

    def __init__(self, bootstrap: dict[str, Any], *, ctx: Any, boot_timeout: float) -> None:
        self.bootstrap = bootstrap
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, bootstrap),
            name=f"repro-shard-{bootstrap['shard_index']:02d}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the parent keeps only its end
        self.conn = parent_conn
        status, info = self._recv(boot_timeout)
        if status == "fatal":
            self.process.join(timeout=5)
            raise ExplanationError(
                f"shard {bootstrap['shard_index']} failed to bootstrap: "
                f"{info.get('type')}: {info.get('message')}"
            )
        if status != "ready":
            raise _WorkerDown(f"unexpected boot message {status!r}")
        self.pid = info["pid"]

    def _recv(self, timeout: float | None) -> tuple[str, Any]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if self.conn.poll(0.1):
                    return self.conn.recv()
            except (EOFError, OSError) as error:
                raise _WorkerDown(f"worker pipe closed: {error}") from error
            if not self.process.is_alive():
                # Drain a response the worker flushed right before dying.
                try:
                    if self.conn.poll(0):
                        return self.conn.recv()
                except (EOFError, OSError):
                    pass
                raise _WorkerDown(f"worker process {self.pid} died")
            if deadline is not None and time.monotonic() > deadline:
                raise _WorkerDown(f"worker {self.pid} timed out after {timeout:.1f}s")

    def request(self, op: str, payload: dict[str, Any], timeout: float | None = None) -> Any:
        try:
            self.conn.send((op, payload))
        except (OSError, BrokenPipeError) as error:
            raise _WorkerDown(f"cannot reach worker {self.pid}: {error}") from error
        status, result = self._recv(timeout)
        if status == "ok":
            return result
        if status == "error":
            raise ExplanationError(result["message"])
        raise _WorkerDown(f"unexpected worker message {status!r}")

    def kill(self) -> None:
        """SIGKILL the worker — the crash the recovery tests inject."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):  # already gone
            pass
        self.process.join(timeout=5)

    def close(self, timeout: float | None = None) -> None:
        """Graceful drain: ask the worker to persist and exit, then reap."""
        wedged = False
        try:
            self.request("shutdown", {}, timeout=timeout)
        except (_WorkerDown, ExplanationError):
            wedged = True  # already dead or hung — escalate below
        if wedged and self.process.is_alive():
            # A worker that ignored (or never received) the shutdown op is
            # hung; don't wait a graceful join out on it — a supervisor
            # respawning a stuck shard needs this path to be fast.
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.kill()
            self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardRouter:
    """Front-end over ``num_shards`` worker-hosted explanation services.

    Duck-types the service surface (``explain``, ``ingest``/``remove``/
    ``relabel``, ``view_set``, ``results``, ``query``, ``stats``,
    ``live_views``, ``close``), so :func:`repro.api.server.create_server`
    binds to it unchanged.  Replication endpoints are not served in sharded
    mode (``delta_feed``/``replication_snapshot`` raise — per-shard WAL
    streams are the durable story here).

    Parameters mirror the service's adopt path; ``backend`` selects
    ``"process"`` (long-lived worker processes over pipes), ``"inline"``
    (same hosts in-process), or ``"auto"`` (process with inline fallback
    where the sandbox forbids spawning).
    """

    def __init__(
        self,
        dataset: str | None = None,
        *,
        database: GraphDatabase,
        model: Any,
        num_shards: int,
        config: Configuration | None = None,
        cache_dir: str | Path | None = None,
        wal_dir: str | Path | None = None,
        wal_sync: bool = True,
        backend: str = "auto",
        test_ids: Sequence[int | None] | None = None,
        cache_size: int = 64,
        request_timeout: float = 120.0,
        boot_timeout: float = 600.0,
        shared_memory: bool = True,
        supervise: bool = True,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: float = 10.0,
        breaker_threshold: int = 3,
        breaker_base_backoff: float = 0.5,
        breaker_max_backoff: float = 30.0,
        crash_loop_window: float = 5.0,
    ) -> None:
        if backend not in ("auto", "process", "inline"):
            raise ExplanationError(
                f"unknown shard backend {backend!r}; expected 'auto', 'process' or 'inline'"
            )
        self.dataset = dataset
        self.database = database
        self.model = model
        self.config = config or Configuration()
        activate_from_config(self.config)
        self.degraded_reads = bool(getattr(self.config, "degraded_reads", False))
        self.plan = ShardPlan(num_shards)
        self.num_shards = self.plan.num_shards
        self.train_accuracy: float | None = None
        self.test_accuracy: float | None = None
        self._test_ids: list[int | None] = list(test_ids or [])
        self.request_timeout = request_timeout
        self._boot_timeout = boot_timeout
        self._lock = threading.RLock()
        self._latest: dict[int, str] = {}
        self._predicted: dict[int | None, int] | None = None
        self._live_cache: tuple[int, ExplanationViewSet] | None = None
        self._positions_cache: tuple[int, dict[int | None, int]] | None = None
        self._respawns = 0
        self._closed = False

        # Supervision state: crash-loop breaker + poison quarantine.  The
        # health lock guards only these counters (never held across a worker
        # request); per-shard worker locks still serialize worker access.
        self._health_lock = threading.Lock()
        self._breaker_threshold = max(1, int(breaker_threshold))
        self._breaker_base_backoff = float(breaker_base_backoff)
        self._breaker_max_backoff = float(breaker_max_backoff)
        self._crash_loop_window = float(crash_loop_window)
        self._breaker_rng = random.Random(self.config.seed ^ 0x5AFE)
        self._boot_times = [0.0] * self.num_shards
        self._fast_deaths = [0] * self.num_shards
        # One death is counted per worker *incarnation*: once a corpse's
        # death is noted, later probes of the same corpse (supervisor pings,
        # requests arriving after the breaker cools) must not re-count it —
        # re-counting would re-open the breaker before every respawn attempt
        # and the shard could never recover.
        self._death_noted = [False] * self.num_shards
        self._breaker_open_until = [0.0] * self.num_shards
        self._breaker_trips = 0
        self._poison_counts: dict[str, int] = {}
        self._poisoned: dict[str, str] = {}
        self._supervisor: ShardSupervisor | None = None

        cache_root = Path(cache_dir) if cache_dir is not None else None
        wal_root = Path(wal_dir) if wal_dir is not None else None
        # The router's own result cache answers repeated requests without
        # any fan-out; its spill directory is separate from the shards' so
        # router-assembled results never shadow worker-computed ones.
        self.store = ViewStore(
            capacity=cache_size,
            spill_dir=(cache_root / "router") if cache_root is not None else None,
            graphs_by_id={graph.graph_id: graph for graph in database.graphs},
        )

        # One shared-memory arena over the seed graphs' CSR views; workers
        # attach zero-copy.  Strictly an optimisation — any failure (no
        # /dev/shm, sandbox policy) degrades to per-worker private views.
        self._arena = None
        if shared_memory:
            try:
                self._arena = create_arena(database.graphs)
            except Exception:
                self._arena = None

        shard_databases = self.plan.split(database)
        self._bootstraps: list[dict[str, Any]] = []
        model_payload = model_to_payload(model)
        config_payload = self.config.canonical_dict()
        for shard_index, shard_database in enumerate(shard_databases):
            shard_cache = (
                str(cache_root / f"shard-{shard_index:02d}")
                if cache_root is not None
                else None
            )
            shard_wal = (
                str(wal_root / f"shard-{shard_index:02d}")
                if wal_root is not None
                else None
            )
            self._bootstraps.append(
                {
                    "dataset": dataset,
                    "shard_index": shard_index,
                    "database": shard_database.to_dict(),
                    "model": model_payload,
                    "config": config_payload,
                    "cache_dir": shard_cache,
                    "wal_dir": shard_wal,
                    "wal_sync": wal_sync,
                    "live_views": True,
                    # The canonical config deliberately excludes the fault
                    # plan (it must not split caches/fingerprints), so it is
                    # forwarded explicitly for workers to arm.
                    "fault_plan": self.config.fault_plan,
                    "shm": (
                        {"name": self._arena.name, "manifest": self._arena.manifest}
                        if self._arena is not None
                        else None
                    ),
                }
            )

        self._worker_locks = [threading.RLock() for _ in range(self.num_shards)]
        self._mp_context = None
        if backend in ("auto", "process"):
            method = os.environ.get(_START_METHOD_ENV) or (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
            self._mp_context = multiprocessing.get_context(method)
        self.backend = backend
        self._workers: list[Any] = []
        try:
            for shard_index, bootstrap in enumerate(self._bootstraps):
                self._workers.append(self._make_worker(bootstrap))
                self._boot_times[shard_index] = time.monotonic()
        except Exception:
            for worker in self._workers:
                try:
                    worker.close(timeout=5)
                except Exception:
                    pass
            if self._arena is not None:
                self._arena.close()
            raise

        # Crash/restart recovery, router half: each worker's service just
        # replayed its shard WAL tail while bootstrapping; pull those
        # replayed mutations up into the router's global database so
        # placement, ordering, and graphs_by_id agree with the shards again.
        self._reconcile_replayed()
        self._graphs_by_id: dict[int | None, Graph] = {
            graph.graph_id: graph for graph in self.database.graphs
        }
        self.store._graphs_by_id = self._graphs_by_id
        self._weights_digest = self._fingerprint_weights()
        self._context_fingerprint = self._fingerprint_context()

        if supervise:
            self._supervisor = ShardSupervisor(
                self,
                interval=heartbeat_interval,
                ping_timeout=heartbeat_timeout,
            )
            self._supervisor.start()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _make_worker(self, bootstrap: dict[str, Any]) -> Any:
        if self.backend == "inline" or self._mp_context is None:
            worker = _InlineWorker(bootstrap)
            self.backend = "inline"
            return worker
        try:
            return _ProcessWorker(
                bootstrap, ctx=self._mp_context, boot_timeout=self._boot_timeout
            )
        except (OSError, PermissionError):
            if self.backend == "process":
                raise
            # auto: the sandbox forbids new processes — run every shard
            # inline from here on (mixing backends would complicate kill
            # semantics for no benefit).
            self.backend = "inline"
            self._mp_context = None
            return _InlineWorker(bootstrap)

    def _respawn_locked(self, shard: int) -> None:
        """Replace a dead worker (caller holds the shard's lock).

        The new worker boots from the *original* bootstrap payload: the
        shard database rebuilds at its deterministic seed version, the
        service replays the shard's WAL tail on top, and the maintainer
        warm-restores from its last snapshot in the shard's cache
        directory.  Nothing router-side needs rewinding — acknowledged
        mutations are in the WAL, unacknowledged ones are retried by the
        caller against the idempotent mutate op.
        """
        old = self._workers[shard]
        try:
            old.close(timeout=1)
        except Exception:
            pass
        # The incarnation being replaced is history; whatever happens to the
        # new worker (including dying while booting) is a fresh death.
        with self._health_lock:
            self._death_noted[shard] = False
        self._workers[shard] = self._make_worker(self._bootstraps[shard])
        self._boot_times[shard] = time.monotonic()
        self._respawns += 1

    # ------------------------------------------------------------------
    # crash-loop breaker + poison quarantine
    # ------------------------------------------------------------------
    def _breaker_remaining(self, shard: int) -> float | None:
        """Seconds until the shard's breaker closes, or None when closed."""
        with self._health_lock:
            remaining = self._breaker_open_until[shard] - time.monotonic()
        return remaining if remaining > 0 else None

    def _note_death(self, shard: int) -> None:
        """Record one worker death; open the breaker on a rapid streak.

        Deaths within ``crash_loop_window`` of the worker's boot count as a
        crash loop; at ``breaker_threshold`` the breaker opens for a capped
        exponential backoff with seeded jitter (so a respawn stampede across
        shards never synchronises).
        """
        with self._health_lock:
            if self._death_noted[shard]:
                return  # same corpse, already counted
            self._death_noted[shard] = True
            now = time.monotonic()
            if now - self._boot_times[shard] <= self._crash_loop_window:
                self._fast_deaths[shard] += 1
            else:
                self._fast_deaths[shard] = 1
            if self._fast_deaths[shard] >= self._breaker_threshold:
                exponent = self._fast_deaths[shard] - self._breaker_threshold
                backoff = min(
                    self._breaker_max_backoff,
                    self._breaker_base_backoff * (2.0 ** exponent),
                )
                backoff *= 1.0 + 0.25 * self._breaker_rng.random()
                self._breaker_open_until[shard] = now + backoff
                self._breaker_trips += 1

    def _note_stable(self, shard: int) -> None:
        """Clear the crash streak once a worker outlives the loop window."""
        if not self._fast_deaths[shard]:
            return
        with self._health_lock:
            if time.monotonic() - self._boot_times[shard] > self._crash_loop_window:
                self._fast_deaths[shard] = 0
                self._breaker_open_until[shard] = 0.0

    def _try_respawn_locked(self, shard: int) -> bool:
        """Respawn unless the breaker is open; False when it stays down.

        A worker that dies *while booting* counts as another death (the
        breaker keeps escalating) instead of propagating, so a crash-looping
        shard converges to fast structured failures rather than an
        exception storm.  A clean bootstrap error (bad payload) still
        propagates — that is a configuration problem, not a crash.
        """
        if self._breaker_remaining(shard) is not None:
            return False
        try:
            self._respawn_locked(shard)
            return True
        except _WorkerDown:
            self._note_death(shard)
            return False

    def _request_fingerprint(self, op: str, payload: dict[str, Any]) -> str:
        canonical = json.dumps(
            {"op": op, "payload": payload}, sort_keys=True, default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def _shard_down(self, shard: int, detail: str) -> ShardDownError:
        retry_after = self._breaker_remaining(shard) or self._breaker_base_backoff
        return ShardDownError(
            f"shard {shard} is unavailable ({detail}); retry in "
            f"{retry_after:.1f}s",
            shard=shard,
            retry_after=retry_after,
        )

    def _call(self, shard: int, op: str, payload: dict[str, Any]) -> Any:
        """One op against one shard: breaker check → quarantine check →
        request, and on a worker death respawn + retry exactly once."""
        fault_point("router.request", context=lambda: f"{shard}:{op}")
        fingerprint: str | None = None
        with self._worker_locks[shard]:
            remaining = self._breaker_remaining(shard)
            if remaining is not None:
                raise ShardDownError(
                    f"shard {shard} is quarantined by its crash-loop breaker "
                    f"({self._fast_deaths[shard]} rapid worker deaths); retry "
                    f"in {remaining:.1f}s",
                    shard=shard,
                    retry_after=remaining,
                )
            if self._poisoned:
                fingerprint = self._request_fingerprint(op, payload)
                quarantined = self._poisoned.get(fingerprint)
                if quarantined is not None:
                    raise PoisonRequestError(
                        f"request {fingerprint} is quarantined as poison "
                        f"({quarantined}); it is answered with this structured "
                        "error instead of being retried against the shard",
                        fingerprint=fingerprint,
                    )
            try:
                result = self._workers[shard].request(
                    op, payload, timeout=self.request_timeout
                )
            except _WorkerDown:
                self._note_death(shard)
                fingerprint = fingerprint or self._request_fingerprint(op, payload)
                with self._health_lock:
                    self._poison_counts[fingerprint] = (
                        self._poison_counts.get(fingerprint, 0) + 1
                    )
                if not self._try_respawn_locked(shard):
                    raise self._shard_down(
                        shard, "its worker died and could not be respawned"
                    )
                try:
                    result = self._workers[shard].request(
                        op, payload, timeout=self.request_timeout
                    )
                except _WorkerDown as error:
                    self._note_death(shard)
                    with self._health_lock:
                        self._poison_counts[fingerprint] = (
                            self._poison_counts.get(fingerprint, 0) + 1
                        )
                        poisoned = self._poison_counts[fingerprint] >= 2
                        if poisoned:
                            self._poisoned[fingerprint] = (
                                f"killed shard {shard}'s worker twice "
                                f"(op {op!r})"
                            )
                    self._try_respawn_locked(shard)
                    if poisoned:
                        raise PoisonRequestError(
                            f"request {fingerprint} quarantined as poison: it "
                            f"killed shard {shard}'s worker twice (op {op!r})",
                            fingerprint=fingerprint,
                        ) from error
                    raise ShardDownError(
                        f"shard {shard} failed twice (original worker died, "
                        f"respawned worker also failed: {error})",
                        shard=shard,
                        retry_after=self._breaker_remaining(shard)
                        or self._breaker_base_backoff,
                    ) from error
            # Success: forgive this request's death count (it survived a
            # retry, so it was collateral of a crash, not the cause) and
            # clear the shard's crash streak once the worker proves stable.
            if fingerprint is not None:
                with self._health_lock:
                    self._poison_counts.pop(fingerprint, None)
            self._note_stable(shard)
            return result

    def _fan(self, calls: list[tuple[int, str, dict[str, Any]]]) -> list[Any]:
        """Run several shard ops concurrently, results in call order."""
        if len(calls) <= 1:
            return [self._call(shard, op, payload) for shard, op, payload in calls]
        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            futures = [
                pool.submit(self._call, shard, op, payload)
                for shard, op, payload in calls
            ]
            return [future.result() for future in futures]

    def _fan_partial(
        self, calls: list[tuple[int, str, dict[str, Any]]]
    ) -> tuple[list[Any], list[int]]:
        """Degraded-read fan-out: swallow :class:`ShardDownError` per call.

        Returns the successful responses (in call order) and the sorted
        shard indices that were down.  Any *other* failure — a poison
        quarantine, a validation error — still propagates: degradation
        covers unavailable shards, never wrong answers.
        """
        responses: list[Any] = []
        missing: list[int] = []

        def _one(shard: int, op: str, payload: dict[str, Any]) -> Any:
            try:
                return self._call(shard, op, payload)
            except ShardDownError:
                return _SHARD_MISSING

        if len(calls) <= 1:
            raw = [_one(shard, op, payload) for shard, op, payload in calls]
        else:
            with ThreadPoolExecutor(max_workers=len(calls)) as pool:
                futures = [
                    pool.submit(_one, shard, op, payload)
                    for shard, op, payload in calls
                ]
                raw = [future.result() for future in futures]
        for (shard, _op, _payload), result in zip(calls, raw):
            if result is _SHARD_MISSING:
                missing.append(shard)
            else:
                responses.append(result)
        return responses, sorted(missing)

    def kill_worker(self, shard: int) -> None:
        """Hard-kill one shard's worker (test/chaos hook; no cleanup runs).

        The next request routed to the shard observes the corpse, respawns
        from the bootstrap payload + WAL tail, and retries.
        """
        self._workers[shard].kill()

    def worker_pids(self) -> list[int]:
        return [worker.pid for worker in self._workers]

    # ------------------------------------------------------------------
    # restart reconciliation
    # ------------------------------------------------------------------
    def _reconcile_replayed(self) -> None:
        """Fold each shard's WAL-replayed mutations into the global database.

        A fresh router over existing shard WAL directories starts from the
        seed database; the workers, however, replay their logs while
        bootstrapping and come up *ahead* of it.  Each shard's post-seed
        deltas (served from the worker's delta feed) are re-applied to the
        router's database — adds keep their logged stable ids, so placement
        re-derives identically.
        """
        for shard, bootstrap in enumerate(self._bootstraps):
            seed_version = len(bootstrap["database"]["graphs"])
            feed = self._call(shard, "deltas", {"since": seed_version})
            for envelope in feed.get("deltas", []):
                delta = delta_from_dict(envelope)
                if delta.kind == "add":
                    self.database.add_graph(delta.graph, delta.label)
                elif delta.kind == "remove":
                    self.database.remove_graph(delta.graph_id)
                else:
                    self.database.relabel_graph(delta.graph_id, delta.label)

    # ------------------------------------------------------------------
    # the explain surface
    # ------------------------------------------------------------------
    def explain(
        self,
        request: ExplainRequest | None = None,
        *,
        algorithm: str = "approx",
        label: int | None = None,
        max_nodes: int | None = None,
        config: Configuration | None = None,
        graph_ids: Sequence[int] | None = None,
        limit: int | None = None,
    ) -> ExplanationResult:
        """Produce (or fetch from cache) one label's explanation view."""
        self._ensure_open()
        if request is None:
            request = ExplainRequest(
                algorithm=algorithm,
                label=label,
                config=config or self.config,
                max_nodes=max_nodes,
                graph_ids=tuple(graph_ids) if graph_ids is not None else None,
                limit=limit,
            )
        request = self._resolve_label(request)
        key = self._cache_key(request)
        with self._lock:
            cached = self.store.get(key)
            if cached is not None:
                self._latest[cached.provenance.label] = key
                return cached.marked_cached()

        start = time.perf_counter()
        if self._is_maintained_stream(request):
            view, missing_shards = self._stream_view(request)
            num_graphs = len(self.database)
        else:
            view, num_graphs, missing_shards = self._fanout_view(request)
        runtime = time.perf_counter() - start
        result = ExplanationResult(
            view=view,
            provenance=Provenance(
                algorithm=request.algorithm,
                label=request.label,
                config_fingerprint=request.effective_config().fingerprint(),
                request_fingerprint=request.fingerprint(),
                runtime_seconds=runtime,
                backend="sparse",
                num_graphs=num_graphs,
                dataset=self.dataset,
                estimator=estimator_summary(
                    request.effective_config(), self.database.graphs
                ),
            ),
            degraded=bool(missing_shards),
            missing_shards=tuple(missing_shards),
        )
        if missing_shards:
            # A partial answer must never be served from (or poison) the
            # cache: the next request re-fans and heals as shards return.
            return result
        with self._lock:
            self.store.put(key, result)
            self._latest[request.label] = key
        return result

    def _is_maintained_stream(self, request: ExplainRequest) -> bool:
        """Whole-database stream requests under the workers' maintained
        configuration reassemble from rows (identical at any shard count);
        anything else takes the fan-out/merge path."""
        if request.graph_ids is not None or request.limit is not None:
            return False
        try:
            if DEFAULT_REGISTRY.resolve(request.algorithm) != "stream":
                return False
        except ExplanationError:
            return False
        return (
            request.effective_config().fingerprint() == self.config.fingerprint()
        )

    def _stream_view(self, request: ExplainRequest):
        calls = [
            (shard, "stream_rows", {"label": request.label})
            for shard in range(self.num_shards)
        ]
        if self.degraded_reads:
            responses, missing_shards = self._fan_partial(calls)
        else:
            responses, missing_shards = self._fan(calls), []
        rows = [row for response in responses for row in response["rows"]]
        positions = self._positions()
        missing = [row["graph_id"] for row in rows if row["graph_id"] not in positions]
        if missing:
            raise ExplanationError(
                f"shard rows reference graphs {missing[:5]!r} unknown to the "
                "router; the shards and the router database have diverged"
            )
        rows.sort(key=lambda row: positions[row["graph_id"]])
        return (
            assemble_view_from_rows(rows, request.label, self._graphs_by_id),
            missing_shards,
        )

    def _fanout_view(self, request: ExplainRequest):
        base = {
            "algorithm": request.algorithm,
            "label": request.label,
            "max_nodes": request.max_nodes,
            "config": request.config.canonical_dict(),
        }
        if request.graph_ids is not None or request.limit is not None:
            # The selection (id filter, test-split ranking, limit) is a
            # *global* decision made here; each shard explains exactly its
            # members of the ordered result, so a 1-shard tier reproduces
            # the single-process service's list verbatim.
            selection = self._select_graphs(request)
            groups: dict[int, list[int]] = {}
            for graph in selection:
                shard = self.plan.shard_of(graph.graph_id)
                groups.setdefault(shard, []).append(graph.graph_id)
            if not groups:
                explainer = create_explainer(
                    request.algorithm, self.model, config=request.effective_config()
                )
                return explainer.explain_label([], request.label), 0, []
            calls = [
                (shard, "explain_ordered", base | {"graph_ids": ids})
                for shard, ids in sorted(groups.items())
            ]
            num_graphs = len(selection)
        else:
            sizes = self.plan.shard_sizes(self.database)
            involved = [shard for shard, size in enumerate(sizes) if size > 0] or [0]
            calls = [(shard, "explain", dict(base)) for shard in involved]
            num_graphs = len(self.database)
        if self.degraded_reads:
            responses, missing_shards = self._fan_partial(calls)
        else:
            responses, missing_shards = self._fan(calls), []
        views = [
            view_from_dict(response["view"], graphs_by_id=self._graphs_by_id)
            for response in responses
        ]
        if not views:
            # Every involved shard was down: a degraded answer degenerates
            # to an empty (but well-formed, correctly flagged) view.
            explainer = create_explainer(
                request.algorithm, self.model, config=request.effective_config()
            )
            return explainer.explain_label([], request.label), num_graphs, missing_shards
        if len(views) == 1:
            return views[0], num_graphs, missing_shards
        return merge_views(views, request.label), num_graphs, missing_shards

    # ------------------------------------------------------------------
    # mutations (routed to the owning shard, then mirrored globally)
    # ------------------------------------------------------------------
    def ingest(
        self, graph: Graph, label: int | None = None, *, graph_id: int | None = None
    ) -> dict[str, Any]:
        """Add a graph: assign its stable id, route to the owning shard.

        The id is assigned *before* placement (placement is a pure function
        of the id) with the same never-reused counter semantics as the
        single-process database.  The owning worker applies + WAL-logs the
        mutation first; only on its acknowledgement does the router mirror
        the add into the global database — so a half-applied mutation can
        only ever be shard-ahead-of-router, which the idempotent retry and
        restart reconciliation both repair.
        """
        with self._lock:
            self._ensure_open()
            wanted = graph_id if graph_id is not None else graph.graph_id
            if wanted is None:
                wanted = self.database._next_auto_id
            if wanted in self._graphs_by_id:
                raise ExplanationError(
                    f"graph id {wanted} is already in the database; remove it "
                    "first or ingest without an id to auto-assign one"
                )
            if graph.num_nodes() > 0:
                try:
                    graph.feature_matrix(getattr(self.model, "feature_dim", None))
                except Exception as error:
                    raise ExplanationError(
                        f"cannot ingest graph {wanted!r}: the tier's model "
                        f"cannot classify it ({error})"
                    ) from error
            shard = self.plan.shard_of(wanted)
            summary = self._call(
                shard,
                "mutate",
                {
                    "kind": "ingest",
                    "graph": graph.to_dict(),
                    "graph_id": wanted,
                    "label": label,
                },
            )
            graph.graph_id = wanted
            self.database.add_graph(graph, label)
            self._after_mutation("add", graph)
            return self._globalise(summary, shard)

    def remove(self, graph_id: int) -> dict[str, Any]:
        """Remove a graph by stable id (routed to its owning shard)."""
        with self._lock:
            self._ensure_open()
            if graph_id not in self._graphs_by_id:
                raise ExplanationError(
                    f"no graph with id {graph_id!r} in the sharded database"
                )
            shard = self.plan.shard_of(graph_id)
            summary = self._call(
                shard, "mutate", {"kind": "remove", "graph_id": graph_id}
            )
            self.database.remove_graph(graph_id)
            self._after_mutation("remove", None, graph_id=graph_id)
            return self._globalise(summary, shard)

    def relabel(self, graph_id: int, label: int) -> dict[str, Any]:
        """Change a graph's stored label (routed to its owning shard)."""
        with self._lock:
            self._ensure_open()
            if graph_id not in self._graphs_by_id:
                raise ExplanationError(
                    f"no graph with id {graph_id!r} in the sharded database"
                )
            shard = self.plan.shard_of(graph_id)
            summary = self._call(
                shard, "mutate", {"kind": "relabel", "graph_id": graph_id, "label": label}
            )
            self.database.relabel_graph(graph_id, label)
            self._after_mutation("relabel", None, graph_id=graph_id)
            return self._globalise(summary, shard)

    def _globalise(self, summary: dict[str, Any], shard: int) -> dict[str, Any]:
        """Rewrite a shard-local mutation summary into global terms."""
        summary = dict(summary)
        summary["shard"] = shard
        summary["database_version"] = self.database.version
        summary["num_graphs"] = len(self.database)
        return summary

    def _after_mutation(
        self, kind: str, graph: Graph | None, *, graph_id: int | None = None
    ) -> None:
        """Router-side bookkeeping mirroring the service's delta hook."""
        old_context = self._context_fingerprint
        self._context_fingerprint = self._fingerprint_context()
        self.store.discard_prefix(
            f"{(self.dataset or 'custom').lower()}-{old_context}-"
        )
        self._latest.clear()
        self._live_cache = None
        self._positions_cache = None
        if kind == "add" and graph is not None:
            self._graphs_by_id[graph.graph_id] = graph
            if self._predicted is not None and graph.num_nodes() > 0:
                try:
                    self._predicted[graph.graph_id] = self.model.predict(graph)
                except Exception:
                    self._predicted = None
        elif kind == "remove":
            self._graphs_by_id.pop(graph_id, None)
            if self._predicted is not None:
                self._predicted.pop(graph_id, None)

    # ------------------------------------------------------------------
    # stored-view access / queries (the service-compatible read surface)
    # ------------------------------------------------------------------
    def enable_live_views(self) -> None:
        """No-op for server compatibility: every worker boots with a live
        maintainer attached (the bootstrap sets ``live_views=True``)."""
        return None

    def live_views(self) -> ExplanationViewSet:
        """Every maintained label's view, assembled from shard rows."""
        self._ensure_open()
        version = self.database.version
        with self._lock:
            if self._live_cache is not None and self._live_cache[0] == version:
                return self._live_cache[1]
        calls = [
            (shard, "stream_rows", {"label": None}) for shard in range(self.num_shards)
        ]
        if self.degraded_reads:
            responses, missing_shards = self._fan_partial(calls)
        else:
            responses, missing_shards = self._fan(calls), []
        rows = [row for response in responses for row in response["rows"]]
        positions = self._positions()
        rows.sort(key=lambda row: positions.get(row["graph_id"], len(positions)))
        labels = sorted({row["label"] for row in rows if row["label"] is not None})
        views = ExplanationViewSet()
        for label in labels:
            views.add(assemble_view_from_rows(rows, label, self._graphs_by_id))
        if missing_shards:
            return views  # partial: never cached, heals on the next call
        with self._lock:
            self._live_cache = (version, views)
        return views

    def view_set(self) -> ExplanationViewSet:
        """The latest stored view per label, as one queryable set."""
        with self._lock:
            latest = dict(self._latest)
        views = ExplanationViewSet()
        for key in latest.values():
            result = self.store.get(key)
            if result is not None:
                views.add(result.view)
        return views

    def results(self) -> list[ExplanationResult]:
        """The latest stored result per label (sorted by label)."""
        with self._lock:
            latest = dict(self._latest)
        collected = []
        for label in sorted(latest):
            result = self.store.get(latest[label])
            if result is not None:
                collected.append(result)
        return collected

    def query(self) -> ServiceQuery:
        """The standard query facade (duck-typed over this router)."""
        return ServiceQuery(self)  # type: ignore[arg-type]

    # -- replication endpoints are a single-process feature ------------
    def delta_feed(self, since: int) -> dict[str, Any]:
        raise ExplanationError(
            "the sharded tier does not serve a global replication stream; "
            "each shard keeps its own WAL — run replication against a "
            "single-process primary"
        )

    def replication_snapshot(self) -> dict[str, Any]:
        raise ExplanationError(
            "the sharded tier does not serve replica bootstraps; "
            "run replication against a single-process primary"
        )

    # ------------------------------------------------------------------
    # health / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Tier health: global counters plus every shard's worker stats."""
        from repro.core.caching import with_hit_rate

        shard_stats: list[dict[str, Any]] = []
        for shard in range(self.num_shards):
            try:
                shard_stats.append(self._call(shard, "stats", {}) | {"alive": True})
            except ExplanationError as error:
                shard_stats.append(
                    {"shard_index": shard, "alive": False, "error": str(error)}
                )
        # Cross-shard cache aggregate: one rolled-up hit-rate view of every
        # worker's result store next to the per-shard breakdown.
        aggregate = {"hits": 0, "misses": 0, "spills": 0, "disk_loads": 0}
        for entry in shard_stats:
            cache = entry.get("cache") or {}
            for field in aggregate:
                aggregate[field] += int(cache.get(field, 0))
        # Cross-shard estimator aggregate (sampled-objective counters roll up
        # the same way the cache counters do).
        sampling_aggregate: dict[str, Any] = {
            "objective": self.config.objective,
            "sampled_analyses": 0,
            "exact_fallbacks": 0,
            "max_achieved_epsilon": 0.0,
        }
        for entry in shard_stats:
            sampling = entry.get("sampling") or {}
            sampling_aggregate["sampled_analyses"] += int(
                sampling.get("sampled_analyses", 0)
            )
            sampling_aggregate["exact_fallbacks"] += int(
                sampling.get("exact_fallbacks", 0)
            )
            sampling_aggregate["max_achieved_epsilon"] = max(
                sampling_aggregate["max_achieved_epsilon"],
                float(sampling.get("max_achieved_epsilon", 0.0)),
            )
        with self._lock:
            labels_explained = sorted(self._latest)
        return {
            "role": "shard-router",
            "dataset": self.dataset,
            "num_graphs": len(self.database),
            "database_version": self.database.version,
            "labels_explained": labels_explained,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "backend": "sparse",
            "shard_backend": self.backend,
            "num_shards": self.num_shards,
            "shard_sizes": self.plan.shard_sizes(self.database),
            "respawns": self._respawns,
            "degraded_reads": self.degraded_reads,
            "supervisor": (
                self._supervisor.stats() if self._supervisor is not None else None
            ),
            "breakers": [
                {
                    "shard": shard,
                    "rapid_deaths": self._fast_deaths[shard],
                    "open_for": round(self._breaker_remaining(shard) or 0.0, 3),
                }
                for shard in range(self.num_shards)
            ],
            "breaker_trips": self._breaker_trips,
            "poisoned_requests": len(self._poisoned),
            "shared_memory": (
                {"nbytes": self._arena.nbytes, "num_graphs": self._arena.num_graphs}
                if self._arena is not None
                else None
            ),
            "cache": with_hit_rate(self.store.stats()),
            "shard_cache_aggregate": with_hit_rate(aggregate),
            "sampling": sampling_aggregate,
            "shards": shard_stats,
        }

    def close(self) -> None:
        """Graceful drain: finish in-flight ops, persist every shard, stop.

        Acquiring each worker's mutex before its shutdown op means requests
        already executing complete normally; the shutdown op itself makes
        the worker persist its maintainer snapshot and close its WAL before
        exiting.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
        for shard in range(self.num_shards):
            with self._worker_locks[shard]:
                try:
                    self._workers[shard].close(timeout=self.request_timeout)
                except Exception:  # pragma: no cover - teardown best-effort
                    pass
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExplanationError(
                "this ShardRouter is closed; its workers have shut down — "
                "build a fresh router instead"
            )

    # ------------------------------------------------------------------
    # internals mirrored from the single-process service
    # ------------------------------------------------------------------
    def _positions(self) -> dict[int | None, int]:
        with self._lock:
            version = self.database.version
            if self._positions_cache is not None and self._positions_cache[0] == version:
                return self._positions_cache[1]
            positions = {
                graph.graph_id: index
                for index, graph in enumerate(self.database.graphs)
            }
            self._positions_cache = (version, positions)
            return positions

    def _predicted_labels(self) -> dict[int | None, int]:
        with self._lock:
            if self._predicted is None:
                graphs = [
                    graph for graph in self.database.graphs if graph.num_nodes() > 0
                ]
                assigned = self.model.predict_many(graphs)
                self._predicted = {
                    graph.graph_id: label for graph, label in zip(graphs, assigned)
                }
            return self._predicted

    def _resolve_label(self, request: ExplainRequest) -> ExplainRequest:
        if request.label is not None:
            return request
        predicted = self._predicted_labels()
        pool = (
            [
                predicted[graph_id]
                for graph_id in request.graph_ids
                if graph_id in predicted
            ]
            if request.graph_ids is not None
            else list(predicted.values())
        )
        if not pool:
            raise ExplanationError(
                "cannot infer a label to explain: the request selects no "
                "non-empty graphs"
            )
        return request.with_label(min(pool))

    def _select_graphs(self, request: ExplainRequest) -> list[Graph]:
        # Verbatim the single-process selection semantics: id filter in
        # database order, then test-split-ranked label filter under a limit.
        if request.graph_ids is not None:
            wanted = set(request.graph_ids)
            graphs = [
                graph for graph in self.database.graphs if graph.graph_id in wanted
            ]
        else:
            graphs = list(self.database.graphs)
        if request.limit is not None:
            test_rank = {
                graph_id: rank for rank, graph_id in enumerate(self._test_ids)
            }
            graphs = sorted(
                graphs,
                key=lambda graph: test_rank.get(graph.graph_id, len(test_rank)),
            )
            predicted = self._predicted_labels()
            graphs = [
                graph
                for graph in graphs
                if predicted.get(graph.graph_id) == request.label
            ][: request.limit]
        return graphs

    def _fingerprint_weights(self) -> str:
        digest = hashlib.sha256()
        for layer in self.model.get_weights():
            for name in sorted(layer):
                array = np.ascontiguousarray(layer[name])
                digest.update(name.encode("utf-8"))
                digest.update(str(array.shape).encode("utf-8"))
                digest.update(array.tobytes())
        return digest.hexdigest()

    def _fingerprint_context(self) -> str:
        digest = hashlib.sha256()
        digest.update(self._weights_digest.encode("utf-8"))
        digest.update(str(len(self.database)).encode("utf-8"))
        digest.update(str(self.database.version).encode("utf-8"))
        digest.update(str(self._test_ids).encode("utf-8"))
        return digest.hexdigest()[:12]

    def _cache_key(self, request: ExplainRequest) -> str:
        prefix = (self.dataset or "custom").lower()
        return f"{prefix}-{self._context_fingerprint}-{request.fingerprint()}"


class ShardSupervisor:
    """Background heartbeats: detect dead/hung workers before requests do.

    Every ``interval`` seconds each shard whose worker mutex is free gets a
    short-deadline ping; a worker that is dead (SIGKILLed, crashed) or hung
    (not answering within ``ping_timeout``) is respawned immediately — so
    by the time the next request routes to the shard, a healthy worker is
    already up.  Shards whose breaker is open are skipped until the
    cooldown elapses, at which point the supervisor performs the half-open
    probe (respawn + ping) itself instead of making a user request pay for
    it.  Busy shards are never touched: a held worker mutex means a request
    is in flight, and the router's own death handling covers that path.
    """

    def __init__(
        self, router: ShardRouter, *, interval: float = 2.0, ping_timeout: float = 10.0
    ) -> None:
        self._router = router
        self.interval = float(interval)
        self.ping_timeout = float(ping_timeout)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-shard-supervisor", daemon=True
        )
        self.sweeps = 0
        self.recoveries = 0

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=self.ping_timeout + 5)

    def stats(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "sweeps": self.sweeps,
            "recoveries": self.recoveries,
        }

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self._sweep()
            except Exception:  # pragma: no cover - supervision is best-effort
                pass

    def _sweep(self) -> None:
        router = self._router
        self.sweeps += 1
        for shard in range(router.num_shards):
            if self._stop.is_set() or router._closed:
                return
            lock = router._worker_locks[shard]
            if not lock.acquire(blocking=False):
                continue  # a request is in flight; its own recovery applies
            try:
                if router._breaker_remaining(shard) is not None:
                    continue  # cooling down — honour the backoff
                try:
                    router._workers[shard].request(
                        "ping", {}, timeout=self.ping_timeout
                    )
                    router._note_stable(shard)
                except _WorkerDown:
                    router._note_death(shard)
                    if router._try_respawn_locked(shard):
                        self.recoveries += 1
                except Exception:  # pragma: no cover - op errors are not deaths
                    pass
            finally:
                lock.release()
