"""Walkthrough of the sharded serving tier: partition, serve, crash, scale.

One process eventually has to do everything — maintain live views, answer
explains, apply mutations. The sharded tier splits the database across
worker *processes* (each a full service + live maintainer over its own
partition, sharing graph CSR arrays through one shared-memory arena) behind
a router that keeps the single-process service's exact API. The example
drives the whole tier in one file:

1. build a trained context and a 4-shard :class:`repro.api.sharding.ShardRouter`
   (fork workers, per-shard WALs, shared-memory snapshots),
2. show answer identity — stream and approx explains are
   signature-identical to a single-process :class:`ExplanationService`
   (shards return per-graph rows; the router assembles once),
3. route mutations to owning shards and watch the per-shard WALs grow,
4. SIGKILL a worker and let the router respawn it from bootstrap + WAL
   replay — the next request just works,
5. serve the router over HTTP (``create_server`` neither knows nor cares
   that it is sharded) and hit ``/v1/health`` for per-shard stats.

Run with::

    PYTHONPATH=src python examples/sharded_serving.py
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.api import ExplanationService, create_server
from repro.api.replication import view_signature
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.datasets import load_dataset
from repro.gnn import GNNClassifier, Trainer
from repro.graphs import Graph, GraphDatabase


def build_context(num_graphs: int = 20, epochs: int = 25, seed: int = 7):
    database = load_dataset("MUT", num_graphs=num_graphs, seed=seed)
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


def main() -> None:
    database, model = build_context()
    config = Configuration(theta=0.08).with_default_bound(0, 8)
    root = Path(tempfile.mkdtemp(prefix="repro-sharded-"))

    # A single-process control service: the oracle every sharded answer
    # is held against.
    oracle = ExplanationService(
        "MUT",
        database=GraphDatabase.from_dict(database.to_dict()),
        model=model,
        config=config,
        live_views=True,
    )

    # ------------------------------------------------------------------
    # 1. the sharded tier: 4 fork workers behind one router
    # ------------------------------------------------------------------
    router = ShardRouter(
        "MUT",
        database=GraphDatabase.from_dict(database.to_dict()),
        model=model,
        num_shards=4,
        config=config,
        cache_dir=root / "cache",
        wal_dir=root / "wal",
    )
    print("worker pids:", router.worker_pids())
    print("shard sizes:", router.plan.shard_sizes(router.database))
    arena = router.stats()["shared_memory"]
    print(f"shared arena: {arena['num_graphs']} graphs, {arena['nbytes']} bytes")

    # ------------------------------------------------------------------
    # 2. answer identity
    # ------------------------------------------------------------------
    label = sorted(set(database.labels))[-1]
    sharded = router.explain(algorithm="stream", label=label)
    control = oracle.explain(algorithm="stream", label=label)
    assert view_signature(sharded.view) == view_signature(control.view)
    print(f"stream explain at 4 shards: signature-identical "
          f"({len(sharded.view.subgraphs)} witnesses)")

    sharded = router.explain(algorithm="approx", label=label, max_nodes=6)
    control = oracle.explain(algorithm="approx", label=label, max_nodes=6)
    assert view_signature(sharded.view) == view_signature(control.view)
    print(f"approx explain at 4 shards: signature-identical "
          f"({len(sharded.view.patterns)} patterns)")

    # ------------------------------------------------------------------
    # 3. mutations route to the owning shard's WAL
    # ------------------------------------------------------------------
    donor = database.graphs[0].to_dict()
    donor["graph_id"] = None
    summary = router.ingest(Graph.from_dict(donor), label)
    print(f"ingested graph {summary['graph_id']} -> shard {summary['shard']}")
    for wal in sorted((root / "wal").rglob("wal-*.jsonl")):
        print("  ", wal.relative_to(root), f"({len(wal.read_bytes())} bytes)")

    # ------------------------------------------------------------------
    # 4. crash a worker; the router respawns it transparently
    # ------------------------------------------------------------------
    victim = summary["shard"]
    router.kill_worker(victim)  # SIGKILL, no warning
    after = router.explain(algorithm="stream", label=label)
    assert after.provenance.num_graphs == len(router.database)
    print(f"worker {victim} SIGKILLed and respawned "
          f"(respawns: {router.stats()['respawns']}); request still answered")

    # ------------------------------------------------------------------
    # 5. the same HTTP surface, now sharded
    # ------------------------------------------------------------------
    server = create_server(router, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with urllib.request.urlopen(f"http://{host}:{port}/v1/health") as response:
        health = json.loads(response.read())
    print("/v1/health:", health["role"], "| shards alive:",
          [entry["alive"] for entry in health["shards"]])
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)

    router.close()
    oracle.close()
    print("done; scratch dir:", root)


if __name__ == "__main__":
    main()
