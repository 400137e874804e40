"""Concurrent load harness for the sharded serving tier.

Drives a mixed read / explain / ingest workload — the request mix a live
`repro serve` deployment actually sees — against a :class:`ShardRouter`
at several shard counts, and reports per-op latency percentiles
(p50/p95/p99) plus sustained QPS for each arm.

The headline metric is ``load_scaling_min``: the sustained QPS of the
largest shard count divided by the 1-shard arm's, both measured on the
same machine in the same process.  The explain side of the mix cycles
through unique (label, graph_ids, max_nodes) combinations so requests
reach the workers instead of the router's result cache — the ratio
measures the sharded data plane, not cache hits.

On a multi-core runner the explain-heavy mix scales with shard count
(>=2.5x at 4 shards on a 4-core machine: each worker is an independent
process pinned to its own partition).  On a single-core machine the
processes merely interleave, so the committed baseline floor is the
honest single-core expectation: sharding must never *cost* throughput
beyond scheduler noise.

``sharded_identical`` asserts the tier's correctness contract alongside
the throughput numbers: whole-database stream explains and approx
explains are signature-identical to the single-process service at every
shard count.

``--chaos`` adds a failure-injection arm: a supervised router serves live
load while worker 0 is SIGKILLed; the report gains recovery time, the
failure-window success-side p99, and ``chaos_recovery_ok`` — true iff the
tier respawned the worker within the deadline and post-recovery stream
views are signature-identical to the pre-kill ones.  The latencies are
informational; only the flag gates CI (via ``regression_guard.py
--metrics chaos_recovery``).

Usage::

    PYTHONPATH=src python benchmarks/bench_load.py --output load.json
    PYTHONPATH=src python benchmarks/bench_load.py --smoke --chaos
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExplanationService
from repro.api.replication import view_signature
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.datasets import make_mutagenicity
from repro.gnn.models import GNNClassifier
from repro.gnn.training import Trainer
from repro.graphs import Graph, GraphDatabase


def build_context(num_graphs: int, epochs: int, seed: int = 7):
    database = make_mutagenicity(num_graphs=num_graphs, seed=seed)
    stats = database.statistics()
    model = GNNClassifier(
        feature_dim=max(1, int(stats["feature_dim"])),
        num_classes=max(2, len(database.class_labels())),
        hidden_dim=16,
        num_layers=3,
        seed=0,
    )
    Trainer(model, epochs=epochs, seed=seed).fit(database)
    return database, model


def percentile(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def make_requests(database: GraphDatabase, total: int, ingest_every: int):
    """A deterministic mixed schedule: ~70% explain, reads, periodic ingest.

    Explain requests cycle unique (label, graph_ids, max_nodes) combos so
    each one misses the router cache and exercises the worker data plane.
    """
    graph_ids = [graph.graph_id for graph in database.graphs]
    labels = sorted(set(database.labels))
    combos = itertools.cycle(
        (label, (graph_ids[i % len(graph_ids)], graph_ids[(i * 7 + 3) % len(graph_ids)]),
         4 + (i % 4))
        for i, label in zip(range(10_000), itertools.cycle(labels))
    )
    donor = itertools.cycle(graph.to_dict() for graph in database.graphs)
    schedule = []
    for index in range(total):
        if ingest_every and index and index % ingest_every == 0:
            payload = dict(next(donor))
            payload["graph_id"] = None
            schedule.append(("ingest", (payload, labels[index % len(labels)])))
        elif index % 10 in (3, 7):
            schedule.append(("read", None))
        else:
            label, ids, max_nodes = next(combos)
            schedule.append(
                ("explain", {"algorithm": "approx", "label": label,
                             "graph_ids": sorted(set(ids)), "max_nodes": max_nodes})
            )
    return schedule


def run_arm(router: ShardRouter, schedule, num_threads: int) -> dict:
    """Drive the schedule through ``num_threads`` concurrent clients."""
    cursor = itertools.count()
    latencies: dict[str, list[float]] = {"explain": [], "read": [], "ingest": []}
    lock = threading.Lock()
    errors: list[str] = []

    def client():
        while True:
            index = next(cursor)
            if index >= len(schedule):
                return
            kind, payload = schedule[index]
            started = time.perf_counter()
            try:
                if kind == "explain":
                    router.explain(**payload)
                elif kind == "read":
                    router.stats()
                else:
                    graph_payload, label = payload
                    summary = router.ingest(Graph.from_dict(graph_payload), label)
                    router.remove(summary["graph_id"])  # keep the db stable
            except Exception as error:  # noqa: BLE001 - reported, fails the arm
                with lock:
                    errors.append(f"{kind}: {error}")
                return
            elapsed = time.perf_counter() - started
            with lock:
                latencies[kind].append(elapsed)

    threads = [threading.Thread(target=client) for _ in range(num_threads)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise RuntimeError(f"load arm had failed requests: {errors[:3]}")

    completed = sum(len(values) for values in latencies.values())
    report = {
        "requests": completed,
        "wall_seconds": round(wall, 4),
        "qps": round(completed / wall, 3) if wall else 0.0,
        "threads": num_threads,
    }
    for kind, values in latencies.items():
        if not values:
            continue
        report[kind] = {
            "count": len(values),
            "p50_ms": round(percentile(values, 0.50) * 1e3, 3),
            "p95_ms": round(percentile(values, 0.95) * 1e3, 3),
            "p99_ms": round(percentile(values, 0.99) * 1e3, 3),
        }
    return report


def run_chaos(database, model, config, num_shards: int, num_threads: int) -> dict:
    """Kill a shard worker under live load; measure the recovery.

    A supervised router serves a continuous stream of cache-missing
    explain requests from ``num_threads`` clients while worker 0 is
    SIGKILLed mid-run.  Reported: ``recovery_seconds`` (kill until a full
    fan-out explain succeeds again), the request counts and success-side
    p99 inside the failure window, and ``recovery_ok`` — the identity-style
    verdict the regression guard keys on: the tier recovered within the
    deadline, at least one respawn happened, and post-recovery stream
    views are signature-identical to the pre-kill ones.  Latencies are
    informational; only the verdict gates CI.
    """
    router = ShardRouter(
        "MUT",
        database=GraphDatabase.from_dict(database.to_dict()),
        model=model,
        num_shards=num_shards,
        config=config,
        cache_size=1,  # alternating request keys below keep every fan-out real
        supervise=True,
        heartbeat_interval=0.25,
    )
    try:
        labels = sorted(set(database.labels))
        expected = {
            label: view_signature(router.explain(algorithm="stream", label=label).view)
            for label in labels
        }
        stop = threading.Event()
        lock = threading.Lock()
        samples: list[tuple[float, float, bool]] = []  # (finished_at, latency, ok)
        keys = itertools.cycle(
            (label, 4 + offset) for offset in range(8) for label in labels
        )

        def hammer():
            while not stop.is_set():
                label, max_nodes = next(keys)
                started = time.perf_counter()
                try:
                    router.explain(algorithm="stream", label=label, max_nodes=max_nodes)
                    ok = True
                except Exception:  # noqa: BLE001 - structured errors expected mid-kill
                    ok = False
                finished = time.perf_counter()
                with lock:
                    samples.append((finished, finished - started, ok))

        threads = [threading.Thread(target=hammer) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        time.sleep(0.5)  # reach steady state before the fault

        victim_pid = router.worker_pids()[0]
        killed_at = time.perf_counter()
        router.kill_worker(0)

        # Recovery probe: the tier has recovered when a full fan-out
        # explain (every shard answering) succeeds again.
        recovery_seconds = None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                router.explain(
                    algorithm="stream", label=labels[-1], max_nodes=12
                )
            except Exception:  # noqa: BLE001 - shard still down, keep polling
                time.sleep(0.05)
                continue
            recovery_seconds = time.perf_counter() - killed_at
            break
        stop.set()
        for thread in threads:
            thread.join()

        recovered_at = killed_at + (recovery_seconds or float("inf"))
        window = [s for s in samples if killed_at <= s[0] <= recovered_at]
        ok_latencies = [latency for _, latency, ok in window if ok]
        failed = sum(1 for _, _, ok in window if not ok)
        stats = router.stats()
        post_identical = recovery_seconds is not None and all(
            view_signature(router.explain(algorithm="stream", label=label).view)
            == expected[label]
            for label in labels
        )
        recovery_ok = (
            recovery_seconds is not None
            and stats["respawns"] >= 1
            and post_identical
        )
        return {
            "num_shards": num_shards,
            "victim_pid": victim_pid,
            "recovery_seconds": (
                round(recovery_seconds, 3) if recovery_seconds is not None else None
            ),
            "requests_failed_during_window": failed,
            "requests_ok_during_window": len(ok_latencies),
            "p99_during_failure_ms": round(percentile(ok_latencies, 0.99) * 1e3, 3),
            "respawns": stats["respawns"],
            "supervisor_recoveries": (stats.get("supervisor") or {}).get(
                "recoveries", 0
            ),
            "post_recovery_identical": post_identical,
            "recovery_ok": recovery_ok,
        }
    finally:
        router.close()


def check_identity(database, model, config, shard_counts) -> bool:
    """The tier's correctness contract, asserted before any timing."""
    reference = ExplanationService(
        "MUT",
        database=GraphDatabase.from_dict(database.to_dict()),
        model=model,
        config=config,
        live_views=True,
    )
    try:
        labels = sorted(set(database.labels))
        stream_expected = {
            label: view_signature(reference.explain(algorithm="stream", label=label).view)
            for label in labels
        }
        approx_expected = view_signature(
            reference.explain(algorithm="approx", label=labels[-1], max_nodes=6).view
        )
        for num_shards in sorted(set(shard_counts) | {1}):
            router = ShardRouter(
                "MUT",
                database=GraphDatabase.from_dict(database.to_dict()),
                model=model,
                num_shards=num_shards,
                config=config,
            )
            try:
                for label in labels:
                    got = view_signature(router.explain(algorithm="stream", label=label).view)
                    if got != stream_expected[label]:
                        return False
                got = view_signature(
                    router.explain(algorithm="approx", label=labels[-1], max_nodes=6).view
                )
                if got != approx_expected:
                    return False
            finally:
                router.close()
        return True
    finally:
        reference.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-graphs", type=int, default=24)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 4])
    parser.add_argument("--ingest-every", type=int, default=25)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast pass for CI: fewer graphs, requests and threads",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="after the load arms, kill a shard worker under live load and "
        "report recovery time, failure-window p99 and chaos_recovery_ok",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.num_graphs = min(args.num_graphs, 12)
        args.epochs = min(args.epochs, 12)
        args.requests = min(args.requests, 40)
        args.threads = min(args.threads, 4)

    config = Configuration(theta=0.08).with_default_bound(0, 8)
    print(
        f"training context: {args.num_graphs} graphs, {args.epochs} epochs ...",
        flush=True,
    )
    database, model = build_context(args.num_graphs, args.epochs)

    identical = check_identity(database, model, config, args.shards)
    print(f"sharded_identical: {identical}", flush=True)

    arms: dict[str, dict] = {}
    for num_shards in sorted(set(args.shards) | {1}):
        schedule = make_requests(database, args.requests, args.ingest_every)
        router = ShardRouter(
            "MUT",
            database=GraphDatabase.from_dict(database.to_dict()),
            model=model,
            num_shards=num_shards,
            config=config,
            cache_size=1,  # keep the router LRU out of the measurement
        )
        try:
            # One warm pass per shard primes worker-side code paths.
            router.stats()
            arms[str(num_shards)] = run_arm(router, schedule, args.threads)
        finally:
            router.close()
        arm = arms[str(num_shards)]
        print(
            f"shards={num_shards}: {arm['qps']} qps over {arm['requests']} requests "
            f"(explain p95 {arm.get('explain', {}).get('p95_ms', '-')} ms)",
            flush=True,
        )

    base_qps = arms["1"]["qps"]
    top = str(max(int(key) for key in arms))
    scaling = round(arms[top]["qps"] / base_qps, 3) if base_qps else 0.0
    report = {
        "_comment": (
            "bench_load.py: mixed read/explain/ingest load against ShardRouter. "
            "load_scaling_min = sustained QPS at the largest shard count over the "
            "1-shard arm, same machine, same schedule. Scales with physical "
            "cores; see baseline.json for the committed floor rationale."
        ),
        "cores": os.cpu_count(),
        "num_graphs": args.num_graphs,
        "requests": args.requests,
        "threads": args.threads,
        "arms": arms,
        "load_scaling_min": scaling,
        "sharded_identical": identical,
    }

    if args.chaos:
        chaos_shards = max(2, *args.shards)
        print(f"chaos: killing worker 0 of {chaos_shards} under load ...", flush=True)
        chaos = run_chaos(
            database, model, config, chaos_shards, min(args.threads, 4)
        )
        report["chaos"] = chaos
        report["chaos_recovery_ok"] = chaos["recovery_ok"]
        print(
            f"chaos: recovered in {chaos['recovery_seconds']}s "
            f"({chaos['requests_failed_during_window']} failed / "
            f"{chaos['requests_ok_during_window']} ok during the window, "
            f"p99 {chaos['p99_during_failure_ms']} ms) "
            f"recovery_ok={chaos['recovery_ok']}",
            flush=True,
        )

    payload = json.dumps(report, indent=2, sort_keys=True)
    print(payload)
    if args.output is not None:
        args.output.write_text(payload + "\n")
    return 0 if identical and report.get("chaos_recovery_ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
