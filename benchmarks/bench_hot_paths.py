"""Micro- and end-to-end benchmarks: production paths vs their oracles.

Every measurement times a production path and its reference from
:mod:`repro.core.oracles` on the same inputs, asserts identical results,
and reports ``reference_seconds / fast_seconds``:

* ``influence`` — ``GraphAnalysis`` construction (Eqs. 3-6) plus a greedy
  gain loop, vs :class:`~repro.core.oracles.ReferenceGraphAnalysis`
  (boolean masks, one marginal gain per candidate);
* ``everify`` — ``EVerify`` consistency/counterfactual probes, vs
  :class:`~repro.core.oracles.ReferenceEVerify` (one materialised induced
  subgraph per probe);
* ``pattern_matching`` — the matcher call mix of the coverage/query paths
  (existence, capped covered-node sets, capped matching counts) through the
  indexed engine, vs the reference backtracking search and
  :func:`~repro.core.oracles.reference_covered_nodes`;
* ``mining`` — ``frequent_patterns`` (incremental canonical keys + batched
  support counting), vs
  :func:`~repro.core.oracles.reference_frequent_patterns`;
* ``explain_label`` / ``stream_explain_label`` — ``ApproxGVEX`` and
  ``StreamGVEX`` per label group, end to end (the Figure 9a-c path), vs
  :class:`~repro.core.oracles.ReferenceApproxGVEX` /
  :class:`~repro.core.oracles.ReferenceStreamGVEX` (eager loops, the
  per-node stream pass, per-graph inference, the reference EVerify and
  analysis), with node-set identity asserted.

Production arms warm their CSR snapshots outside the timers; reference arms
run on cold copies, like the per-node code they replay.

Dynamic databases get their own benchmark (``bench_incremental``, runnable
alone via ``--suite incremental``): ingesting a 10% delta into a *warm*
``ViewMaintainer`` (per-graph streaming + delta-driven view repair) versus a
full StreamGVEX recompute on the resulting database, plus a removal
(retraction-only) measurement — with the maintained views asserted
*identical* to the recompute.

Durability gets one too (``bench_wal``, runnable alone via ``--suite wal``):
service-level ingest with the write-ahead log fsync'ing every mutation vs
the same ingest kept purely in memory, reported as the ratio
``memory_seconds / durable_seconds`` — plus a crash-recovery replay over the
produced WAL whose views must be signature-identical to both live runs.

The datasets are the repo's synthetic stand-ins (SYNTHETIC and PRODUCTS)
built at sizes representative of the paper's Table 3 (~100-node graphs); the
scaled-down sizes used by the figure benchmarks are too small for matrix
work to dominate either arm.

Run it directly to produce the JSON consumed by the CI regression guard::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py --output hot_paths.json

Both arms of every ratio run on one machine in one process, which is why the
regression guard compares ratios rather than wall-clock.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

if __name__ == "__main__":  # allow running from a clean checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.api import ExplanationService, create_explainer
from repro.core.approx import ApproxGVEX
from repro.core.oracles import (
    ReferenceApproxGVEX,
    ReferenceEVerify,
    ReferenceGraphAnalysis,
    ReferenceStreamGVEX,
    reference_covered_nodes,
    reference_frequent_patterns,
)
from repro.core.config import Configuration
from repro.core.maintenance import ViewMaintainer
from repro.core.quality import GraphAnalysis
from repro.core.sampling import SampledGraphAnalysis, build_analysis
from repro.core.selection import lazy_greedy_select
from repro.core.streaming import StreamGVEX
from repro.core.verification import EVerify
from repro.datasets import load_dataset
from repro.gnn.models import GNNClassifier
from repro.gnn.training import Trainer
from repro.graphs.database import GraphDatabase
from repro.graphs.subgraph import khop_subgraph
from repro.matching import count_matchings, covered_nodes, get_engine, has_matching, isomorphism
from repro.matching.engine import warm_match_indices
from repro.mining.frequent import enumerate_connected_patterns, frequent_patterns

DEFAULT_DATASETS = ("SYN", "PRO")

#: The benchmark suites ``run_benchmark`` accepts; anything else raises
#: ``ValueError`` immediately (and the CLI rejects it at parse time).
SUITES = ("full", "incremental", "wal", "stream", "sampled")

# Keyword argument each builder uses for its base graph size.
_SIZE_KNOBS = {
    "SYN": "base_size",
    "MAL": "tree_size",
    "RED": "base_size",
    "PRO": "ego_size",
    "SCALE": "base_size",
}


@dataclass
class BenchContext:
    """A synthetic dataset plus a small trained classifier."""

    dataset: str
    database: GraphDatabase
    model: GNNClassifier


def build_context(
    name: str, num_graphs: int = 10, graph_size: int = 96, epochs: int = 12, seed: int = 7
) -> BenchContext:
    kwargs = {_SIZE_KNOBS[name]: graph_size} if name in _SIZE_KNOBS else {}
    database = load_dataset(name, num_graphs=num_graphs, seed=seed, **kwargs)
    stats = database.statistics()
    model = GNNClassifier(
        feature_dim=max(1, int(stats["feature_dim"])),
        num_classes=max(2, len(database.class_labels())),
        hidden_dim=16,
        num_layers=3,
        seed=0,
    )
    Trainer(model, epochs=epochs, seed=seed).fit(database)
    return BenchContext(dataset=name, database=database, model=model)


def _warm_caches(batches) -> None:
    """Prebuild CSR views (the one-time per-graph cost) outside the timers.

    Mirrors ``GraphDatabase.warm_sparse_cache``: in the real pipeline the
    snapshot is built once per graph and amortised across influence analysis,
    every ``EVerify`` probe and coverage matching, so the micro-benchmarks
    measure steady-state probe throughput.  Only production arms warm: the
    reference arms replay per-node code that never read the views.
    """
    for batch in batches:
        for graph in batch:
            graph.sparse_view()
        warm_match_indices(batch)


def _probe_sets(graph, max_sets: int = 256) -> list[frozenset[int]]:
    """Candidate node sets mimicking ``VpExtend``'s greedy growth probes.

    The dominant ``EVerify`` call pattern in Algorithm 1 is a consistency
    check on a *small, growing* candidate (``|Vs| <= u_l``), probed once per
    unselected node per greedy round — ``O(|V| * u_l)`` probes per graph.
    The benchmark reproduces that volume with sliding chains of sizes 3..12.
    """
    nodes = graph.nodes
    sets: list[frozenset[int]] = []
    for size in (3, 4, 6, 8, 10, 12):
        if size >= len(nodes):
            break
        for start in range(0, min(len(nodes) - size + 1, 48)):
            sets.append(frozenset(nodes[start : start + size]))
            if len(sets) >= max_sets:
                return sets
    return sets


def _mining_subgraphs(context: BenchContext, num_graphs: int = 6, hops: int = 2) -> list:
    """Explanation-subgraph stand-ins: r-hop neighbourhoods of the sources."""
    subgraphs = []
    for graph in context.database.graphs[:num_graphs]:
        subgraphs.append(khop_subgraph(graph, graph.nodes[0], hops))
    return subgraphs


def _matching_workload(context: BenchContext, max_patterns: int = 16) -> list:
    """A representative pattern mix for the matcher benchmark.

    Patterns are mined from the first graphs' neighbourhoods (sizes 1-4,
    mixed node/edge types), then matched against *every* database graph —
    patterns mined from one graph frequently miss another, so the mix
    exercises both the backtracking search and the emptiness certificates.
    Mined once with the production enumeration, which :func:`bench_mining`
    asserts identical to the reference one.
    """
    patterns: dict[tuple, object] = {}
    for graph in context.database.graphs[:3]:
        local = khop_subgraph(graph, graph.nodes[0], 1)
        for pattern in enumerate_connected_patterns(local, 4, max_patterns_per_graph=32):
            patterns.setdefault(pattern.canonical_key(), pattern)
            if len(patterns) >= max_patterns:
                return list(patterns.values())
    return list(patterns.values())


def bench_pattern_matching(
    context: BenchContext, patterns: list, reps: int, reference: bool = False
) -> tuple[float, list]:
    """Seconds for the matcher call mix of the coverage/query hot paths.

    Mirrors where the matcher is actually hammered in the pipeline:

    * existence checks against *whole database graphs* — the shape of
      explanation queries (``patterns_matching``, ``ViewQueryEngine``) and
      mining support counts — plus a capped matching count per pair;
    * capped covered-node/edge queries against *explanation-subgraph-scale*
      graphs — the ``Psum`` greedy cover, MDL scoring and C1-verification
      shape, each of which queries the same (pattern, subgraph) pair several
      times per run (scoring, weighting, final bookkeeping), reproduced here
      with repeated calls.

    The production arm routes everything through the indexed match engine
    (memo cleared first, so the first rep pays the misses and later reps
    measure the steady state the explainers see); the ``reference`` arm
    re-runs the reference search of :mod:`repro.matching.isomorphism` on
    every call.  Returns the wall-clock plus a result signature that must be
    identical across the arms (capped queries whose cap binds replay the
    reference enumeration order).
    """
    graphs = context.database.graphs
    subgraphs = _mining_subgraphs(context, num_graphs=4, hops=1)
    if reference:
        exists, count, covered_by = (
            isomorphism.has_matching, isomorphism.count_matchings, reference_covered_nodes
        )
    else:
        exists, count, covered_by = has_matching, count_matchings, covered_nodes
        get_engine().clear()
        warm_match_indices(graphs)
        warm_match_indices(subgraphs)
    signature: list = []
    start = time.perf_counter()
    for _ in range(reps):
        signature = []
        for pattern in patterns:
            for graph in graphs:
                signature.append((exists(pattern, graph), count(pattern, graph, limit=8)))
            for subgraph in subgraphs:
                # Psum scores, weights and then re-reads coverage of every
                # candidate: three capped queries per (pattern, subgraph).
                covered = covered_by(pattern, subgraph, max_matchings=64)
                covered_by(pattern, subgraph, max_matchings=64)
                covered_again = covered_by(pattern, subgraph, max_matchings=64)
                signature.append((tuple(sorted(covered)), tuple(sorted(covered_again))))
    return time.perf_counter() - start, signature


def bench_mining(context: BenchContext, reps: int, reference: bool = False) -> tuple[float, list]:
    """Seconds for the PGen front-end: bounded enumeration + support counting.

    Runs ``frequent_patterns`` over an explanation-subgraph collection.  The
    production arm grows canonical keys incrementally and batch-prefilters
    support counting via ``match_many``; the ``reference`` arm
    (:func:`~repro.core.oracles.reference_frequent_patterns`) re-induces and
    re-canonicalises every node set and re-matches per graph.  Returns the
    wall-clock plus a signature (pattern keys and supports) that must be
    identical across the arms.
    """
    subgraphs = _mining_subgraphs(context)
    if reference:
        mine = reference_frequent_patterns
    else:
        mine = frequent_patterns
        get_engine().clear()
        warm_match_indices(subgraphs)
    signature: list = []
    start = time.perf_counter()
    for _ in range(reps):
        frequent = mine(subgraphs, min_support=2, max_pattern_size=4, max_patterns_per_graph=96)
        signature = [
            (fp.pattern.canonical_key(), fp.support, tuple(fp.supporting_graphs)) for fp in frequent
        ]
    return time.perf_counter() - start, signature


def bench_influence(
    context: BenchContext, config, reps: int, budget: int = 8, reference: bool = False
) -> float:
    """Seconds for the influence hot path of Algorithm 1.

    Per graph: build the influence/diversity structures (Eqs. 3-6) once,
    then run the greedy influence-maximisation loop — every remaining node's
    marginal explainability gain, ``budget`` rounds.  This is ApproxGVEX's
    selection loop with the model-verification probes factored out (those are
    timed by :func:`bench_everify`).  The ``reference`` arm builds
    :class:`~repro.core.oracles.ReferenceGraphAnalysis` instead.
    """
    analysis_class = ReferenceGraphAnalysis if reference else GraphAnalysis
    batches = [[graph.copy() for graph in context.database.graphs] for _ in range(reps)]
    if not reference:
        _warm_caches(batches)
    start = time.perf_counter()
    for batch in batches:
        for graph in batch:
            analysis = analysis_class(context.model, graph, config)
            selected: set[int] = set()
            for _ in range(min(budget, len(graph.nodes))):
                remaining = [node for node in graph.nodes if node not in selected]
                gains = analysis.marginal_gains(selected, remaining)
                best = max(
                    range(len(remaining)),
                    key=lambda slot: (float(gains[slot]), -remaining[slot]),
                )
                selected.add(remaining[best])
    return time.perf_counter() - start


def bench_everify(context: BenchContext, reps: int, reference: bool = False) -> float:
    """Seconds for ``EVerify`` probes with Algorithm 1's call mix.

    Many consistency probes on small growing candidates (the ``VpExtend``
    pattern) plus one counterfactual probe per graph (the final C2 check
    under the default ``consistent`` verification mode).  The ``reference``
    arm runs :class:`~repro.core.oracles.ReferenceEVerify`.
    """
    everify_class = ReferenceEVerify if reference else EVerify
    batches = [[graph.copy() for graph in context.database.graphs] for _ in range(reps)]
    if not reference:
        _warm_caches(batches)
    start = time.perf_counter()
    for batch in batches:
        everify = everify_class(context.model)
        for graph in batch:
            probes = _probe_sets(graph)
            if not probes:  # graphs of <= 3 nodes yield no candidate chains
                continue
            label = everify.predict(graph)
            for nodes in probes:
                everify.is_consistent(graph, nodes, label)
            everify.is_counterfactual(graph, probes[-1], label)
    return time.perf_counter() - start


def check_identical_views(context: BenchContext, config) -> dict:
    """Explain one label group with ApproxGVEX and ReferenceApproxGVEX.

    Node sets and explainability must match exactly.
    """
    graphs = context.database.graphs[:4]
    label = context.model.predict(graphs[0])
    results = {}
    for key, explainer_class in (("production", ApproxGVEX), ("reference", ReferenceApproxGVEX)):
        view = explainer_class(context.model, config).explain_label(graphs, label)
        results[key] = {
            "node_sets": [sorted(subgraph.nodes) for subgraph in view.subgraphs],
            "explainability": round(view.explainability, 12),
        }
    return {"identical": results["production"] == results["reference"], **results}


def bench_explain_label(
    context: BenchContext,
    config,
    algorithm: str = "approx",
    reps: int = 1,
    num_graphs: int | None = None,
    reference: bool = False,
) -> tuple[float, list[list[int]]]:
    """End-to-end per-label wall clock of an explainer (Figure 9a-c path).

    ``reference`` times the oracle class of :mod:`repro.core.oracles`
    instead of the production explainer.  Returns total seconds over
    ``reps`` runs plus the last run's sorted explanation node sets (for the
    identity cross-check).  The production arm's CSR snapshots are warmed
    outside the timer, mirroring the steady state of a long-running
    explanation service.
    """
    source = context.database.graphs
    if num_graphs is not None:
        source = source[:num_graphs]
    label = context.model.predict(source[0])
    total = 0.0
    node_sets: list[list[int]] = []
    for _ in range(reps):
        graphs = [graph.copy() for graph in source]
        if not reference:
            _warm_caches([graphs])
        if algorithm == "stream":
            stream_class = ReferenceStreamGVEX if reference else StreamGVEX
            explainer: ApproxGVEX | StreamGVEX = stream_class(
                context.model, config, batch_size=32
            )
        else:
            explainer = (ReferenceApproxGVEX if reference else ApproxGVEX)(context.model, config)
        start = time.perf_counter()
        view = explainer.explain_label(graphs, label)
        total += time.perf_counter() - start
        node_sets = [sorted(subgraph.nodes) for subgraph in view.subgraphs]
    return total, node_sets


def bench_service(context: BenchContext, config, num_graphs: int) -> dict:
    """Service-level throughput: ``explain_many`` vs direct calls, warm vs cold.

    Three measurements over the same label fan-out on the same database:

    * ``direct_seconds``  — one ``create_explainer("approx").explain_label``
      per label, the pre-service call shape;
    * ``cold_seconds``    — ``ExplanationService.explain_many`` with an empty
      result cache (pays provenance + fingerprint + store bookkeeping);
    * ``warm_seconds``    — the identical fan-out again, now served entirely
      from the fingerprint-keyed view cache.

    The guard watches ``direct/cold`` (the service layer must stay a thin
    wrapper) and ``cold/warm`` (cache hits must stay near-free), plus
    node-set identity between the direct and service views.
    """
    subset = context.database.subset(list(range(min(num_graphs, len(context.database)))))
    subset.warm_sparse_cache()
    labels = sorted({context.model.predict(graph) for graph in subset.graphs})

    start = time.perf_counter()
    direct_views = {
        label: create_explainer("approx", context.model, config=config).explain_label(
            subset.graphs, label
        )
        for label in labels
    }
    direct_seconds = time.perf_counter() - start

    service = ExplanationService(
        context.dataset, database=subset, model=context.model, config=config
    )
    start = time.perf_counter()
    cold_results = service.explain_many(labels=labels, algorithm="approx")
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm_results = service.explain_many(labels=labels, algorithm="approx")
    warm_seconds = time.perf_counter() - start

    identical = all(
        [sorted(s.nodes) for s in direct_views[result.provenance.label].subgraphs]
        == [sorted(s.nodes) for s in result.view.subgraphs]
        for result in cold_results
    ) and all(result.provenance.cache_hit for result in warm_results)
    return {
        "labels": labels,
        "direct_seconds": direct_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "direct_ratio": direct_seconds / max(cold_seconds, 1e-9),
        "warm_speedup": cold_seconds / max(warm_seconds, 1e-9),
        "identical": identical,
    }


def _view_signature(view) -> tuple:
    """Node sets + pattern keys + objective: recompute-identity oracle."""
    return (
        [sorted(subgraph.nodes) for subgraph in view.subgraphs],
        sorted(pattern.canonical_key() for pattern in view.patterns),
        round(view.explainability, 12),
    )


def bench_incremental(
    context: BenchContext, config, batch_size: int = 32, delta_fraction: float = 0.10
) -> dict:
    """Incremental view maintenance vs full StreamGVEX recompute.

    Builds a mutable database over ~90% of the dataset, attaches a warm
    :class:`ViewMaintainer` (untimed — that is the steady state of a
    long-running service), then measures

    * ``incremental_seconds`` — ingesting the remaining ~10% delta through
      the maintainer (per-graph streaming passes + view reassembly);
    * ``recompute_seconds``   — a full ``StreamGVEX.explain_label`` over the
      resulting database for the same labels (what a snapshot-style system
      pays per mutation batch);
    * ``removal_seconds``     — retracting one graph and reassembling (no
      streaming at all), against a second full recompute on the remainder.

    Both paths must produce *identical* views (node sets, pattern keys,
    explainability) — the maintained state inherits the anytime bound with
    zero slack; the signature comparison is returned for the guard.
    """
    graphs = context.database.graphs
    labels_all = context.database.labels
    delta_count = max(1, int(round(len(graphs) * delta_fraction)))
    split = len(graphs) - delta_count
    database = GraphDatabase(f"{context.dataset}-live")
    for graph, label in zip(graphs[:split], labels_all[:split]):
        database.add_graph(graph, label)
    # Warm everything (CSR snapshots + the maintainer's replay of the
    # base) outside the timers; the delta graphs' snapshots are warmed
    # too so both arms see steady-state probe throughput.
    database.warm_sparse_cache()
    for graph in graphs[split:]:
        graph.sparse_view()
    maintainer = ViewMaintainer(context.model, config, batch_size=batch_size).attach(
        database
    )

    start = time.perf_counter()
    for graph, label in zip(graphs[split:], labels_all[split:]):
        database.add_graph(graph, label)
    labels = maintainer.maintained_labels()
    ingest_signatures = {
        label: _view_signature(maintainer.view_for(label)) for label in labels
    }
    incremental_seconds = time.perf_counter() - start

    explainer = StreamGVEX(context.model, config, batch_size=batch_size)
    start = time.perf_counter()
    recompute_signatures = {
        label: _view_signature(explainer.explain_label(database.graphs, label))
        for label in labels
    }
    recompute_seconds = time.perf_counter() - start
    ingest_identical = ingest_signatures == recompute_signatures

    victim = database.graphs[0].graph_id
    start = time.perf_counter()
    database.remove_graph(victim)
    removal_signatures = {
        label: _view_signature(maintainer.view_for(label))
        for label in maintainer.maintained_labels()
    }
    removal_seconds = time.perf_counter() - start
    removal_recompute = {
        label: _view_signature(explainer.explain_label(database.graphs, label))
        for label in maintainer.maintained_labels()
    }
    removal_identical = removal_signatures == removal_recompute

    return {
        "num_graphs": len(graphs),
        "delta_graphs": delta_count,
        "labels": labels,
        "incremental_seconds": incremental_seconds,
        "recompute_seconds": recompute_seconds,
        "ingest_speedup": recompute_seconds / max(incremental_seconds, 1e-9),
        "removal_seconds": removal_seconds,
        "removal_speedup": recompute_seconds / max(removal_seconds, 1e-9),
        "identical": ingest_identical and removal_identical,
        "maintainer": maintainer.stats(),
    }


def bench_wal(context: BenchContext, config, delta_fraction: float = 0.25) -> dict:
    """Durability tax: WAL-backed vs in-memory service ingest, identity-checked.

    Two :class:`ExplanationService` instances over the same ~75% base
    database — one plain, one with ``wal_dir`` (every mutation canonicalised,
    CRC'd and fsync'd before acknowledgement) — ingest the remaining graphs
    through the full service path (predict + live view maintenance + delta
    log).  The reported ratio is ``memory_seconds / durable_seconds``
    (≤ ~1.0; higher means cheaper durability).  A third service then opens a
    fresh base copy over the same ``wal_dir``: its *replayed* views must be
    signature-identical to both live runs' — the flag the regression guard
    asserts.
    """
    import shutil
    import tempfile

    from repro.api.replication import view_signature

    graphs = context.database.graphs
    labels_all = context.database.labels
    delta_count = max(2, int(round(len(graphs) * delta_fraction)))
    split = len(graphs) - delta_count

    def build_base(name: str) -> GraphDatabase:
        database = GraphDatabase(name)
        for graph, label in zip(graphs[:split], labels_all[:split]):
            database.add_graph(graph, label)
        database.warm_sparse_cache()
        return database

    def signatures(service) -> dict:
        return {view.label: view_signature(view) for view in service.live_views()}

    wal_dir = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
    timings: dict[str, float] = {}
    state: dict[str, dict] = {}
    try:
        for graph in graphs[split:]:
            graph.sparse_view()
        for mode in ("memory", "durable"):
            service = ExplanationService(
                context.dataset,
                database=build_base(f"{context.dataset}-wal-{mode}"),
                model=context.model,
                config=config,
                live_views=True,
                wal_dir=wal_dir if mode == "durable" else None,
            )
            start = time.perf_counter()
            for graph, label in zip(graphs[split:], labels_all[split:]):
                service.ingest(graph, label=label)
            timings[mode] = time.perf_counter() - start
            state[mode] = signatures(service)
            service.close()

        recovered = ExplanationService(
            context.dataset,
            database=build_base(f"{context.dataset}-wal-recovered"),
            model=context.model,
            config=config,
            live_views=True,
            wal_dir=wal_dir,
        )
        replayed = recovered.stats()["wal"]["replayed_on_open"]
        state["recovered"] = signatures(recovered)
        recovered.close()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)

    identical = (
        state["memory"] == state["durable"] == state["recovered"]
        and replayed == delta_count
    )
    return {
        "delta_graphs": delta_count,
        "memory_seconds": timings["memory"],
        "durable_seconds": timings["durable"],
        "wal_ingest_ratio": timings["memory"] / max(timings["durable"], 1e-9),
        "overhead_per_mutation_seconds": (
            max(timings["durable"] - timings["memory"], 0.0) / delta_count
        ),
        "replayed_on_open": replayed,
        "identical": identical,
    }


# The sampled suite runs at its own fixed scale-stress sizes: the regime the
# sampled objective exists for (1k+-node graphs) is far past what the generic
# ``--graph-size`` default drives, and the guard floors in baseline.json are
# calibrated against exactly this workload.
SAMPLED_SEEDS = (7, 11, 23)
SAMPLED_NUM_GRAPHS = 4
SAMPLED_GRAPH_SIZE = 1800
SAMPLED_EPOCHS = 2
SAMPLED_BUDGET = 10
SAMPLED_SUBTHRESHOLD_SIZE = 100


def _greedy_nodes(analysis, budget: int) -> frozenset:
    """One deterministic CELF run: trivial verifier, lowest-id tie-breaks."""
    return frozenset(
        lazy_greedy_select(
            analysis,
            list(analysis.node_list),
            set(),
            budget,
            vp_extend_many=lambda nodes, selected: [True] * len(nodes),
            choose_tied=lambda nodes, selected: min(nodes),
        )
    )


def bench_sampled(
    seeds=SAMPLED_SEEDS,
    num_graphs: int = SAMPLED_NUM_GRAPHS,
    graph_size: int = SAMPLED_GRAPH_SIZE,
    epochs: int = SAMPLED_EPOCHS,
    budget: int = SAMPLED_BUDGET,
) -> dict:
    """A/B the sampled objective against exact on the scale-stress regime.

    Per seed, per ~1200-node SCALE-STRESS graph, both arms run the same
    deterministic CELF selection; the exact arm pays the dense ``O(n^3)``
    propagation power plus the ``O(n^2 d)`` distance tensor, the sampled
    arm the estimator kernels.  Reported per graph:

    * ``speedup`` — exact wall-clock (analysis + selection) over sampled;
    * ``quality_ratio`` — ``f_exact(S_sampled) / f_exact(S_exact)``, i.e.
      the sampled selection re-scored under the *exact* objective;
    * ``influence_error`` / ``diversity_error`` — estimate-vs-estimand
      gaps, each of which must stay within the analysis's *achieved*
      epsilon for ``sampled_bounds_ok`` to hold (at delta = 0.05 union-
      bounded over the population, a violation anywhere is ~1-in-10^5
      unlucky — i.e. a real regression, not noise).

    A sub-threshold SCALE-STRESS database (~100-node graphs) additionally
    checks the scope rule: with ``objective="sampled"`` those graphs must
    route to the plain exact analysis and select node-for-node identically.
    """
    speedups: list[float] = []
    quality_ratios: list[float] = []
    bounds_ok = True
    subthreshold_identical = True
    report: dict = {"seeds": {}}
    for seed in seeds:
        context = build_context(
            "SCALE", num_graphs=num_graphs, graph_size=graph_size, epochs=epochs, seed=seed
        )
        exact_config = Configuration()
        sampled_config = replace(exact_config, objective="sampled")
        rows = []
        for graph in context.database.graphs:
            graph.sparse_view()
            # Best-of-two per arm: the exact arm allocates O(n^2 d)
            # tensors, whose wall-clock swings with allocator state —
            # min-of-reps is the steady-state number the guard floors
            # are calibrated against.
            exact_seconds = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                exact_analysis = GraphAnalysis(context.model, graph, exact_config)
                exact_set = _greedy_nodes(exact_analysis, budget)
                exact_seconds = min(exact_seconds, time.perf_counter() - start)

            sampled_seconds = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                sampled_analysis = build_analysis(context.model, graph, sampled_config)
                sampled_set = _greedy_nodes(sampled_analysis, budget)
                sampled_seconds = min(sampled_seconds, time.perf_counter() - start)

            if not isinstance(sampled_analysis, SampledGraphAnalysis):
                # The stress sizes must actually exercise the estimator;
                # an exact fallback here silently benchmarks nothing.
                raise RuntimeError(
                    f"graph {graph.graph_id} ({graph.num_nodes()} nodes) fell "
                    "back to the exact analysis in the sampled suite"
                )
            speedup = exact_seconds / max(sampled_seconds, 1e-9)
            exact_value = exact_analysis.explainability(exact_set)
            quality_ratio = exact_analysis.explainability(sampled_set) / max(
                exact_value, 1e-12
            )
            epsilon = sampled_analysis.achieved_epsilon
            population = graph.num_nodes()
            influence_error = abs(
                sampled_analysis.influence_fraction(sampled_set)
                - exact_analysis.influence_score(sampled_set) / population
            )
            diversity_error = abs(
                sampled_analysis.diversity_fraction(sampled_set)
                - sampled_analysis.conditional_diversity_fraction(sampled_set)
            )
            graph_bounds_ok = influence_error <= epsilon and diversity_error <= epsilon
            bounds_ok = bounds_ok and graph_bounds_ok
            speedups.append(speedup)
            quality_ratios.append(quality_ratio)
            rows.append(
                {
                    "graph_id": graph.graph_id,
                    "population": population,
                    "sample_size": int(sampled_analysis.sample_size),
                    "achieved_epsilon": round(epsilon, 6),
                    "exact_seconds": exact_seconds,
                    "sampled_seconds": sampled_seconds,
                    "speedup": speedup,
                    "quality_ratio": quality_ratio,
                    "influence_error": influence_error,
                    "diversity_error": diversity_error,
                    "bounds_ok": graph_bounds_ok,
                }
            )

        # Scope rule: sub-threshold graphs must be served exactly and
        # select identically no matter what the objective knob says.
        small = load_dataset(
            "SCALE", num_graphs=2, seed=seed, base_size=SAMPLED_SUBTHRESHOLD_SIZE
        )
        for graph in small.graphs:
            routed = build_analysis(context.model, graph, sampled_config)
            exact_small = GraphAnalysis(context.model, graph, exact_config)
            identical = type(routed) is GraphAnalysis and _greedy_nodes(
                routed, budget
            ) == _greedy_nodes(exact_small, budget)
            subthreshold_identical = subthreshold_identical and identical
        report["seeds"][str(seed)] = {"graphs": rows}
    report["sampled_speedup_min"] = min(speedups)
    report["sampled_quality_min"] = min(quality_ratios)
    report["sampled_bounds_ok"] = bounds_ok
    report["sampled_subthreshold_identical"] = subthreshold_identical
    return report


def run_benchmark(
    datasets=DEFAULT_DATASETS,
    reps: int = 3,
    num_graphs: int = 8,
    graph_size: int = 256,
    epochs: int = 10,
    e2e_reps: int = 1,
    e2e_num_graphs: int = 6,
    suite: str = "full",
) -> dict:
    """Produce the full benchmark payload (see module docstring).

    ``suite="incremental"`` runs only the incremental-maintenance benchmark
    (the CI ``incremental`` job's fast path); ``suite="wal"`` runs only the
    durability benchmark (the CI ``replication`` job's fast path);
    ``suite="stream"`` runs only the StreamGVEX end-to-end A/B (the CI
    ``perf-kernels`` job's fast path);
    ``suite="sampled"`` runs only the sampled-objective A/B on the
    scale-stress regime (fixed stress sizes — the generic size knobs apply
    to the exact-regime suites); ``"full"`` runs everything *except* the
    sampled suite, which has its own CI job.  Unknown suite names raise
    ``ValueError`` before any work is done.
    """
    if suite not in SUITES:
        raise ValueError(
            f"unknown benchmark suite {suite!r}; available: {', '.join(SUITES)}"
        )
    report: dict = {"datasets": {}, "reps": reps, "graph_size": graph_size}
    if suite == "sampled":
        report = {"reps": reps}
        report.update(bench_sampled())
        return report
    incremental_speedups: list[float] = []
    incremental_identical = True
    wal_ratios: list[float] = []
    wal_identical = True
    if suite == "wal":
        for name in datasets:
            context = build_context(
                name, num_graphs=num_graphs, graph_size=graph_size, epochs=epochs
            )
            config = Configuration().with_default_bound(0, 8)
            wal = bench_wal(context, config)
            wal_ratios.append(wal["wal_ingest_ratio"])
            wal_identical = wal_identical and wal["identical"]
            report["datasets"][name] = {"wal": wal}
        report["wal_ingest_ratio_min"] = min(wal_ratios)
        report["wal_identical"] = wal_identical
        return report
    if suite == "incremental":
        for name in datasets:
            context = build_context(
                name, num_graphs=num_graphs, graph_size=graph_size, epochs=epochs
            )
            config = Configuration().with_default_bound(0, 8)
            incremental = bench_incremental(context, config)
            incremental_speedups.append(incremental["ingest_speedup"])
            incremental_identical = incremental_identical and incremental["identical"]
            report["datasets"][name] = {"incremental": incremental}
        report["incremental_speedup_min"] = min(incremental_speedups)
        report["incremental_identical"] = incremental_identical
        return report
    if suite == "stream":
        stream_speedups: list[float] = []
        stream_identical = True
        for name in datasets:
            context = build_context(
                name, num_graphs=num_graphs, graph_size=graph_size, epochs=epochs
            )
            config = Configuration().with_default_bound(0, 8)
            # Same two arms as the full suite's stream measurement.
            fast_seconds, fast_sets = bench_explain_label(
                context, config, "stream", e2e_reps, e2e_num_graphs
            )
            reference_seconds, reference_sets = bench_explain_label(
                context, config, "stream", e2e_reps, e2e_num_graphs, reference=True
            )
            speedup = reference_seconds / max(fast_seconds, 1e-9)
            stream_speedups.append(speedup)
            stream_identical = stream_identical and fast_sets == reference_sets
            report["datasets"][name] = {
                "stream_explain_label": {
                    "reference_seconds": reference_seconds,
                    "fast_seconds": fast_seconds,
                    "speedup": speedup,
                },
                "stream_identical": fast_sets == reference_sets,
            }
        report["stream_explain_label_speedup_min"] = min(stream_speedups)
        report["stream_identical"] = stream_identical
        return report
    influence_speedups: list[float] = []
    everify_speedups: list[float] = []
    matching_speedups: list[float] = []
    mining_speedups: list[float] = []
    explain_label_speedups: list[float] = []
    stream_explain_label_speedups: list[float] = []
    service_warm_speedups: list[float] = []
    service_direct_ratios: list[float] = []
    views_identical = True
    lazy_eager_identical = True
    stream_identical = True
    matching_identical = True
    mining_identical = True
    service_identical = True
    for name in datasets:
        context = build_context(name, num_graphs=num_graphs, graph_size=graph_size, epochs=epochs)
        config = Configuration().with_default_bound(0, 8)
        matching_patterns = _matching_workload(context)
        reference_influence = bench_influence(context, config, reps, reference=True)
        reference_everify = bench_everify(context, reps, reference=True)
        reference_matching, reference_matching_sig = bench_pattern_matching(
            context, matching_patterns, reps, reference=True
        )
        reference_mining, reference_mining_sig = bench_mining(context, reps, reference=True)
        fast_influence = bench_influence(context, config, reps)
        fast_everify = bench_everify(context, reps)
        fast_matching, fast_matching_sig = bench_pattern_matching(
            context, matching_patterns, reps
        )
        fast_mining, fast_mining_sig = bench_mining(context, reps)
        views = check_identical_views(context, config)
        views_identical = views_identical and views["identical"]
        influence_speedup = reference_influence / max(fast_influence, 1e-9)
        everify_speedup = reference_everify / max(fast_everify, 1e-9)
        matching_speedup = reference_matching / max(fast_matching, 1e-9)
        mining_speedup = reference_mining / max(fast_mining, 1e-9)
        influence_speedups.append(influence_speedup)
        everify_speedups.append(everify_speedup)
        matching_speedups.append(matching_speedup)
        mining_speedups.append(mining_speedup)
        matching_identical = matching_identical and (
            reference_matching_sig == fast_matching_sig
        )
        mining_identical = mining_identical and (reference_mining_sig == fast_mining_sig)

        # End-to-end explainer runtime (Figure 9a-c path): each production
        # explainer vs its oracle class — eager loops, per-node stream pass,
        # per-graph inference, ReferenceEVerify and ReferenceGraphAnalysis —
        # on the same inputs, with identical outputs.
        eager_seconds, eager_sets = bench_explain_label(
            context, config, "approx", e2e_reps, e2e_num_graphs, reference=True
        )
        lazy_seconds, lazy_sets = bench_explain_label(
            context, config, "approx", e2e_reps, e2e_num_graphs
        )
        stream_fast_seconds, stream_fast_sets = bench_explain_label(
            context, config, "stream", e2e_reps, e2e_num_graphs
        )
        stream_reference_seconds, stream_reference_sets = bench_explain_label(
            context, config, "stream", e2e_reps, e2e_num_graphs, reference=True
        )
        explain_label_speedup = eager_seconds / max(lazy_seconds, 1e-9)
        stream_speedup = stream_reference_seconds / max(stream_fast_seconds, 1e-9)
        explain_label_speedups.append(explain_label_speedup)
        stream_explain_label_speedups.append(stream_speedup)
        lazy_eager_identical = lazy_eager_identical and lazy_sets == eager_sets
        stream_identical = stream_identical and stream_fast_sets == stream_reference_sets

        # Service-level throughput (explain_many via the service vs direct
        # per-label calls, warm vs cold view cache).
        service = bench_service(context, config, e2e_num_graphs)
        service_warm_speedups.append(service["warm_speedup"])
        service_direct_ratios.append(service["direct_ratio"])
        service_identical = service_identical and service["identical"]

        # Incremental view maintenance (10% delta into a warm maintainer vs
        # full StreamGVEX recompute, identity-checked).
        incremental = bench_incremental(context, config)
        incremental_speedups.append(incremental["ingest_speedup"])
        incremental_identical = incremental_identical and incremental["identical"]

        # Durability tax (WAL-fsync'd vs in-memory ingest, replay-identical).
        wal = bench_wal(context, config)
        wal_ratios.append(wal["wal_ingest_ratio"])
        wal_identical = wal_identical and wal["identical"]

        report["datasets"][name] = {
            "incremental": incremental,
            "wal": wal,
            "service": service,
            "influence": {
                "reference_seconds": reference_influence,
                "fast_seconds": fast_influence,
                "speedup": influence_speedup,
            },
            "everify": {
                "reference_seconds": reference_everify,
                "fast_seconds": fast_everify,
                "speedup": everify_speedup,
            },
            "pattern_matching": {
                "reference_seconds": reference_matching,
                "fast_seconds": fast_matching,
                "speedup": matching_speedup,
                "num_patterns": len(matching_patterns),
            },
            "mining": {
                "reference_seconds": reference_mining,
                "fast_seconds": fast_mining,
                "speedup": mining_speedup,
            },
            "explain_label": {
                "eager_seconds": eager_seconds,
                "lazy_seconds": lazy_seconds,
                "speedup": explain_label_speedup,
            },
            "stream_explain_label": {
                "reference_seconds": stream_reference_seconds,
                "fast_seconds": stream_fast_seconds,
                "speedup": stream_speedup,
            },
            "views_identical": views["identical"],
            "lazy_eager_identical": lazy_sets == eager_sets,
            "stream_identical": stream_fast_sets == stream_reference_sets,
            "matching_identical": reference_matching_sig == fast_matching_sig,
            "mining_identical": reference_mining_sig == fast_mining_sig,
        }
    report["influence_speedup_min"] = min(influence_speedups)
    report["everify_speedup_min"] = min(everify_speedups)
    report["matching_speedup_min"] = min(matching_speedups)
    report["mining_speedup_min"] = min(mining_speedups)
    report["explain_label_speedup_min"] = min(explain_label_speedups)
    report["stream_explain_label_speedup_min"] = min(stream_explain_label_speedups)
    report["service_warm_speedup_min"] = min(service_warm_speedups)
    report["service_direct_ratio_min"] = min(service_direct_ratios)
    report["incremental_speedup_min"] = min(incremental_speedups)
    report["incremental_identical"] = incremental_identical
    report["wal_ingest_ratio_min"] = min(wal_ratios)
    report["wal_identical"] = wal_identical
    report["views_identical"] = views_identical
    report["lazy_eager_identical"] = lazy_eager_identical
    report["stream_identical"] = stream_identical
    report["matching_identical"] = matching_identical
    report["mining_identical"] = mining_identical
    report["service_identical"] = service_identical
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", nargs="+", default=list(DEFAULT_DATASETS))
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--num-graphs", type=int, default=8)
    parser.add_argument("--graph-size", type=int, default=256)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--e2e-reps", type=int, default=1)
    parser.add_argument("--e2e-num-graphs", type=int, default=6)
    parser.add_argument(
        "--suite",
        choices=SUITES,
        default="full",
        help=(
            "'incremental' runs only the delta-maintenance benchmark, 'wal' only "
            "the durability benchmark, 'stream' only the StreamGVEX end-to-end "
            "A/B, 'sampled' only the sampled-objective A/B on the scale-stress "
            "regime (the CI fast paths)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the selected suite under cProfile and dump a cumulative-time "
            "table to stderr (timings in the JSON report include profiler "
            "overhead — do not feed a profiled run to the regression guard)"
        ),
    )
    parser.add_argument("--output", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    report = run_benchmark(
        datasets=args.datasets,
        reps=args.reps,
        num_graphs=args.num_graphs,
        graph_size=args.graph_size,
        epochs=args.epochs,
        e2e_reps=args.e2e_reps,
        e2e_num_graphs=args.e2e_num_graphs,
        suite=args.suite,
    )
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        table = io.StringIO()
        stats = pstats.Stats(profiler, stream=table)
        stats.sort_stats("cumulative").print_stats(40)
        print(f"--- cProfile ({args.suite} suite, top 40 by cumulative) ---", file=sys.stderr)
        print(table.getvalue(), file=sys.stderr)
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(payload + "\n")
    print(payload)
    if args.suite == "sampled":
        print(
            f"\nsampled objective speedup (min):       {report['sampled_speedup_min']:.2f}x\n"
            f"sampled quality ratio (min):           {report['sampled_quality_min']:.3f}\n"
            f"sampled estimates within bounds: {report['sampled_bounds_ok']}\n"
            f"sub-threshold selections identical: {report['sampled_subthreshold_identical']}",
            file=sys.stderr,
        )
        return 0
    if args.suite in ("wal", "full"):
        print(
            f"\nwal in-memory/durable ingest ratio:    {report['wal_ingest_ratio_min']:.2f}x\n"
            f"wal replayed views identical: {report['wal_identical']}",
            file=sys.stderr,
        )
    if args.suite == "wal":
        return 0
    if args.suite == "stream":
        print(
            f"\nstream explain_label (fast vs reference): "
            f"{report['stream_explain_label_speedup_min']:.2f}x\n"
            f"stream node sets identical: {report['stream_identical']}",
            file=sys.stderr,
        )
        return 0
    print(
        f"\nincremental ingest vs recompute:       {report['incremental_speedup_min']:.2f}x\n"
        f"incremental views identical: {report['incremental_identical']}",
        file=sys.stderr,
    )
    if args.suite == "incremental":
        return 0
    print(
        f"\ninfluence speedup (min over datasets): {report['influence_speedup_min']:.2f}x\n"
        f"everify   speedup (min over datasets): {report['everify_speedup_min']:.2f}x\n"
        f"pattern matching (engine vs reference): {report['matching_speedup_min']:.2f}x\n"
        f"mining (incremental vs reference):      {report['mining_speedup_min']:.2f}x\n"
        f"explain_label (CELF+batched vs eager): {report['explain_label_speedup_min']:.2f}x\n"
        f"stream explain_label (fast vs reference): {report['stream_explain_label_speedup_min']:.2f}x\n"
        f"service warm-cache speedup:            {report['service_warm_speedup_min']:.2f}x\n"
        f"service direct/cold ratio:             {report['service_direct_ratio_min']:.2f}x\n"
        f"ApproxGVEX and its oracle identical: {report['views_identical']}\n"
        f"lazy and eager node sets identical: {report['lazy_eager_identical']}\n"
        f"stream node sets identical: {report['stream_identical']}\n"
        f"matching results identical to reference: {report['matching_identical']}\n"
        f"mining results identical to reference: {report['mining_identical']}\n"
        f"service and direct node sets identical: {report['service_identical']}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
