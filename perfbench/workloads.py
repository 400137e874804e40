"""The benchmark's three workloads, each driven through the public API.

A workload makes its inputs from the seed (graphs, a trained model,
donor graphs), builds the system (timed as set-up), names a cyclic
schedule of operations, runs one operation at a time for a single
closed-loop client, and checks the outputs.

* ``approx-explain`` — ApproxGVEX explain-and-summarize through an
  ``ExplanationService`` with a one-entry result cache, so every request
  recomputes while the process-wide memos stay warm.
* ``stream-ingest`` — a durable live-view service (WAL with fsync):
  ingest, maintained-view explain, pattern query, remove.  Every cycle
  ends in the database state it started from.
* ``sharded-fanout`` — a two-worker ``ShardRouter`` serving whole-database
  stream explains that fan out to both shards, routed approx explains,
  stats reads and an occasional ingest/remove pair.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.api import ExplanationService, create_explainer
from repro.api.replication import view_signature
from repro.api.serialize import views_equal
from repro.api.sharding import ShardRouter
from repro.core import Configuration
from repro.datasets import make_mutagenicity
from repro.datasets.synthetic import make_ba_motif_synthetic
from repro.gnn.models import GNNClassifier
from repro.gnn.training import Trainer
from repro.graphs import Graph, GraphDatabase
from repro.matching.engine import get_engine

# Offset between the seed of the base graphs and that of the donor graphs,
# so donors are never copies of graphs already in the database.
DONOR_SEED_OFFSET = 10_007
#: The classifier is trained on graphs from this fixed seed, whatever the
#: run's seed.  A model trained per seed changes how much probing each
#: explanation needs (seen as 30% fewer probe rows per request on some
#: seeds); a fixed model keeps the work per request within a few percent
#: across seeds, so the seed varies only the graphs being served.
MODEL_SEED = 0

Op = tuple[str, dict[str, Any]]


def train_model(database: GraphDatabase, epochs: int) -> GNNClassifier:
    stats = database.statistics()
    model = GNNClassifier(
        feature_dim=max(1, int(stats["feature_dim"])),
        num_classes=max(2, len(database.class_labels())),
        hidden_dim=16,
        num_layers=3,
        seed=0,
    )
    Trainer(model, epochs=epochs, seed=MODEL_SEED).fit(database)
    return model


def copy_database(database: GraphDatabase) -> GraphDatabase:
    return GraphDatabase.from_dict(database.to_dict())


def same_label_pairs(graph_ids: list[int], predicted: dict[int, int]) -> list[tuple[int, list[int]]]:
    """(label, two graph ids) for consecutive graphs of each predicted label."""
    pairs = []
    for label in sorted(set(predicted.values())):
        members = [graph_id for graph_id in graph_ids if predicted[graph_id] == label]
        if len(members) < 2:
            continue
        for index in range(0, len(members) - 1, 2):
            pairs.append((label, [members[index], members[index + 1]]))
    return pairs


def donor_payloads(database: GraphDatabase) -> list[tuple[dict[str, Any], int]]:
    """(graph payload without an id, label) per graph, ready to ingest."""
    donors = []
    for graph, label in zip(database.graphs, database.labels):
        payload = graph.to_dict()
        payload["graph_id"] = None
        donors.append((payload, label))
    return donors


def _without_runtime(view):
    metadata = {key: value for key, value in view.metadata.items() if key != "runtime_seconds"}
    return replace(view, metadata=metadata)


class Workload:
    """Interface every workload implements (see the module docstring)."""

    name = ""
    primary = ""
    #: Percentile reported as ``primary_tail_s``; fixed so that at least ten
    #: primary-op samples lie beyond it in a 30 s run, even a slow one.
    tail_percentile = 90

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir
        self.system: Any = None
        self.signatures: list[str] = []

    # -- lifecycle -------------------------------------------------------
    def prepare(self) -> None:
        """Generate the inputs and train the model (not part of set-up)."""

    def build(self) -> Any:
        """One fresh construction of the system, warmed; timed as set-up."""
        raise NotImplementedError

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
            self.system = None

    # -- the timed loop ----------------------------------------------------
    def schedule(self) -> list[Op]:
        """One period of the cyclic operation schedule."""
        raise NotImplementedError

    def start(self) -> None:
        """Record what the checks compare against (after set-up, untimed)."""

    def execute(self, index: int, op: Op) -> Any:
        raise NotImplementedError

    def check(self, index: int, op: Op, response: Any) -> bool:
        """Inline output check for one op (its time is not counted)."""
        return True

    def at_rest(self, op: Op) -> bool:
        """Whether the database is in its starting state after ``op``."""
        return op[0] != "ingest"

    def final_check(self) -> int:
        """Checks run once after the timed phase; returns how many failed."""
        return 0

    # -- accounting --------------------------------------------------------
    def worker_pids(self) -> list[int]:
        return []

    def cache_counts(self) -> tuple[int, int]:
        stats = self.system.store.stats()
        return int(stats["hits"]), int(stats["misses"])

    def memo_counts(self) -> tuple[int, int]:
        stats = get_engine().stats()
        return int(stats.get("hits", 0)), int(stats.get("misses", 0))

    def output_signature(self) -> str:
        return hashlib.sha256("".join(self.signatures).encode("utf-8")).hexdigest()


class ApproxExplain(Workload):
    name = "approx-explain"
    primary = "explain"
    tail_percentile = 85
    #: Requests whose responses are recomputed directly and compared.
    CHECK_EVERY = 8

    def prepare(self) -> None:
        num_graphs, base_size = (4, 30) if self.tiny else (16, 96)
        self.database = make_ba_motif_synthetic(
            num_graphs=num_graphs, seed=self.seed, base_size=base_size
        )
        self.model = train_model(
            make_ba_motif_synthetic(num_graphs=num_graphs, seed=MODEL_SEED, base_size=base_size),
            epochs=60,
        )
        self.config = Configuration()
        graph_ids = [graph.graph_id for graph in self.database.graphs]
        labels = self.model.predict_batch(self.database.graphs)
        self.predicted = dict(zip(graph_ids, labels))
        self.pairs = same_label_pairs(graph_ids, self.predicted)
        self.expected: dict[int, Any] = {}

    def build(self) -> ExplanationService:
        service = ExplanationService(
            "SYN", database=copy_database(self.database), model=self.model,
            config=self.config, cache_size=1,
        )
        for graph in service.database.graphs:
            service.explain(
                algorithm="approx", label=self.predicted[graph.graph_id],
                graph_ids=[graph.graph_id], max_nodes=8,
            )
        return service

    def schedule(self) -> list[Op]:
        # Every pair once at each max_nodes in 5..8.  Within a sweep over the
        # pairs, max_nodes cycles through all four values, so a run cut
        # mid-period has nearly the same mix of cheap and costly requests.
        ops = []
        for sweep in range(4):
            for position, (label, graph_ids) in enumerate(self.pairs):
                max_nodes = 5 + (position + sweep) % 4
                ops.append(
                    ("explain", {"label": label, "graph_ids": graph_ids, "max_nodes": max_nodes})
                )
        return ops

    def execute(self, index: int, op: Op) -> Any:
        return self.system.explain(algorithm="approx", **op[1]).view

    def start(self) -> None:
        self.period = len(self.schedule())

    def check(self, index: int, op: Op, response: Any) -> bool:
        if index % self.CHECK_EVERY == 0 and index < self.period:
            self.expected[index] = (op, response)
        return True

    def final_check(self) -> int:
        if not self.expected:
            return 1
        failures = 0
        graphs_by_id = {graph.graph_id: graph for graph in self.system.database.graphs}
        for index in sorted(self.expected):
            op, response = self.expected[index]
            args = op[1]
            explainer = create_explainer(
                "approx", self.model, config=self.config.with_max_nodes(args["max_nodes"])
            )
            direct = explainer.explain_label(
                [graphs_by_id[graph_id] for graph_id in args["graph_ids"]], args["label"]
            )
            failures += not views_equal(_without_runtime(response), _without_runtime(direct))
            self.signatures.append(view_signature(response))
        return failures


class StreamIngest(Workload):
    name = "stream-ingest"
    primary = "ingest"
    tail_percentile = 85

    def prepare(self) -> None:
        num_graphs, base_size, donors = (4, 30, 2) if self.tiny else (16, 96, 16)
        self.database = make_ba_motif_synthetic(
            num_graphs=num_graphs, seed=self.seed, base_size=base_size
        )
        self.model = train_model(
            make_ba_motif_synthetic(num_graphs=num_graphs, seed=MODEL_SEED, base_size=base_size),
            epochs=60,
        )
        self.config = Configuration()
        self.donors = donor_payloads(
            make_ba_motif_synthetic(
                num_graphs=donors, seed=self.seed + DONOR_SEED_OFFSET, base_size=base_size
            )
        )

    def build(self) -> ExplanationService:
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.work_dir)
        service = ExplanationService(
            "SYN", database=copy_database(self.database), model=self.model,
            config=self.config, live_views=True, wal_dir=wal_dir,
        )
        for label in service.maintainer.maintained_labels():
            service.explain(algorithm="stream", label=label)
            service.query().patterns(label)
        return service

    def _live_signatures(self) -> dict[int, str]:
        views = self.system.live_views()
        return {label: view_signature(views.view_for(label)) for label in views.labels()}

    def start(self) -> None:
        self.baseline = self._live_signatures()

    def schedule(self) -> list[Op]:
        labels = self.system.maintainer.maintained_labels()
        ops = []
        for cycle, (payload, label) in enumerate(self.donors):
            read_label = labels[cycle % len(labels)]
            ops += [
                ("ingest", {"payload": payload, "label": label}),
                ("stream", {"label": read_label}),
                ("patterns", {"label": read_label}),
                ("remove", {}),
            ]
        return ops

    def execute(self, index: int, op: Op) -> Any:
        kind, args = op
        if kind == "ingest":
            summary = self.system.ingest(Graph.from_dict(args["payload"]), args["label"])
            self._ingested = summary["graph_id"]
            return summary
        if kind == "stream":
            return self.system.explain(algorithm="stream", label=args["label"]).view
        if kind == "patterns":
            return self.system.query().patterns(args["label"])
        return self.system.remove(self._ingested)

    def check(self, index: int, op: Op, response: Any) -> bool:
        if op[0] != "remove":
            return True
        return self._live_signatures() == self.baseline

    def at_rest(self, op: Op) -> bool:
        return op[0] == "remove"

    def final_check(self) -> int:
        live = self._live_signatures()
        explainer = create_explainer("stream", self.model, config=self.config)
        graphs = list(self.system.database.graphs)
        fresh = {
            label: view_signature(explainer.explain_label(graphs, label)) for label in live
        }
        self.signatures += [live[label] for label in sorted(live)]
        return int(not live or fresh != live or live != self.baseline)


class ShardedFanout(Workload):
    name = "sharded-fanout"
    primary = "stream"
    tail_percentile = 99
    NUM_SHARDS = 2
    #: Stream responses at these positions of the schedule are compared
    #: with the single-process oracle.
    CHECK_EVERY = 5

    def prepare(self) -> None:
        num_graphs, donors = (12, 2) if self.tiny else (48, 8)
        self.database = make_mutagenicity(num_graphs=num_graphs, seed=self.seed)
        self.model = train_model(
            make_mutagenicity(num_graphs=num_graphs, seed=MODEL_SEED), epochs=20
        )
        self.config = Configuration(theta=0.08).with_default_bound(0, 8)
        graph_ids = [graph.graph_id for graph in self.database.graphs]
        labels = self.model.predict_batch(self.database.graphs)
        self.predicted = dict(zip(graph_ids, labels))
        self.labels = sorted(set(labels))
        self.pairs = same_label_pairs(graph_ids, self.predicted)
        self.donors = donor_payloads(
            make_mutagenicity(num_graphs=donors, seed=self.seed + DONOR_SEED_OFFSET)
        )
        self.sampled: list[tuple[int, str]] = []

    def build(self) -> ShardRouter:
        router = ShardRouter(
            "MUT", database=copy_database(self.database), model=self.model,
            num_shards=self.NUM_SHARDS, config=self.config, cache_size=1,
            backend="process",
        )
        for label in self.labels:
            router.explain(algorithm="stream", label=label)
        for graph in router.database.graphs:
            router.explain(
                algorithm="approx", label=self.predicted[graph.graph_id],
                graph_ids=[graph.graph_id], max_nodes=6,
            )
        router.stats()
        return router

    def schedule(self) -> list[Op]:
        # Per ten ops: six stream explains, three approx explains, one stats
        # read; an ingest/remove pair closes every twenty.
        pattern = "SASSASTSAS"
        ops: list[Op] = []
        streams = approxes = 0
        for payload, label in self.donors:
            for slot in pattern * 2:
                if slot == "S":
                    ops.append(("stream", {"label": self.labels[streams % len(self.labels)]}))
                    streams += 1
                elif slot == "A":
                    pair_label, graph_ids = self.pairs[approxes % len(self.pairs)]
                    ops.append(
                        ("approx", {"label": pair_label, "graph_ids": graph_ids,
                                    "max_nodes": 4 + (approxes // len(self.pairs)) % 4})
                    )
                    approxes += 1
                else:
                    ops.append(("stats", {}))
            ops += [("ingest", {"payload": payload, "label": label}), ("remove", {})]
        return ops

    def execute(self, index: int, op: Op) -> Any:
        kind, args = op
        if kind == "stream":
            return self.system.explain(algorithm="stream", label=args["label"]).view
        if kind == "approx":
            return self.system.explain(algorithm="approx", **args).view
        if kind == "stats":
            return self.system.stats()
        if kind == "ingest":
            summary = self.system.ingest(Graph.from_dict(args["payload"]), args["label"])
            self._ingested = summary["graph_id"]
            return summary
        return self.system.remove(self._ingested)

    def check(self, index: int, op: Op, response: Any) -> bool:
        if op[0] == "stream" and index % self.CHECK_EVERY == 0:
            self.sampled.append((op[1]["label"], view_signature(response)))
        return True

    def final_check(self) -> int:
        assembled = {
            label: view_signature(self.system.explain(algorithm="stream", label=label).view)
            for label in self.labels
        }
        self.signatures += [assembled[label] for label in self.labels]
        # The single-process oracle is built only now, so its memory stays
        # out of the timed phase.
        oracle_service = ExplanationService(
            "MUT", database=copy_database(self.database), model=self.model,
            config=self.config, live_views=True,
        )
        try:
            oracle = {
                label: view_signature(oracle_service.explain(algorithm="stream", label=label).view)
                for label in self.labels
            }
        finally:
            oracle_service.close()
        checked = [*self.sampled, *assembled.items()]
        return sum(signature != oracle[label] for label, signature in checked)

    def worker_pids(self) -> list[int]:
        return list(self.system.worker_pids())

    def memo_counts(self) -> tuple[int, int]:
        hits = misses = 0
        for shard in self.system.stats()["shards"]:
            memo = shard.get("match_engine_cache") or {}
            hits += int(memo.get("hits", 0))
            misses += int(memo.get("misses", 0))
        return hits, misses


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (ApproxExplain, StreamIngest, ShardedFanout)
}
