"""Approximate mode: sampled objectives for graphs past the exact regime.

The exact Eq.-2 objective materialises an ``N x N`` influence matrix and an
``N x N`` embedding-distance mask per graph — fine for the paper's
benchmarks, prohibitive for web-scale inputs.  This walkthrough runs the
sampled objective layer on the SCALE-STRESS regime (large BA graphs with
planted motifs) and shows:

1. the scope rules — small graphs ignore ``objective="sampled"`` and stay
   bit-identical to exact,
2. the estimator A/B — the sampled analysis is several times faster to
   build and query while keeping nearly all of the exact objective value,
3. the declared Hoeffding bound, checked against the exact influence
   fraction,
4. estimator provenance on service results.

Run with:  PYTHONPATH=src python examples/sampled_explain.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import Configuration, GNNClassifier, Trainer, load_dataset
from repro.core.quality import GraphAnalysis
from repro.core.sampling import SampledGraphAnalysis, build_analysis
from repro.core.selection import lazy_greedy_select

BUDGET = 10


def greedy(analysis, budget: int = BUDGET) -> frozenset:
    """The same deterministic CELF selection for both arms."""
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


def main() -> None:
    # SCALE-STRESS: deterministic large BA graphs with planted house/cycle
    # motifs (graph i is a pure function of (seed, i), so databases of any
    # size can be generated lazily and in shards).
    database = load_dataset("SCALE", num_graphs=3, seed=7, base_size=1000)
    print(f"dataset: {database.name}  sizes: {[g.num_nodes() for g in database.graphs]}")

    model = GNNClassifier(feature_dim=8, num_classes=2, hidden_dim=16, num_layers=2, seed=7)
    Trainer(model, epochs=2, seed=7).fit(database)

    exact_config = Configuration()
    sampled_config = replace(
        exact_config, objective="sampled", sample_budget=1024, epsilon=0.1, delta=0.05
    )

    # 1. Scope rules ---------------------------------------------------
    small = load_dataset("SCALE", num_graphs=2, seed=7, base_size=100).graphs[0]
    routed = build_analysis(model, small, sampled_config)
    print(f"\nscope rule: {small.num_nodes()}-node graph under objective='sampled' "
          f"routes to {type(routed).__name__} (sub-threshold stays exact)")

    # 2. Estimator A/B -------------------------------------------------
    print(f"\nexact vs sampled (budget={BUDGET} greedy selection per graph):")
    for graph in database.graphs:
        graph.sparse_view()  # warm the cached operator for both arms

        start = time.perf_counter()
        exact = GraphAnalysis(model, graph, exact_config)
        exact_set = greedy(exact)
        exact_seconds = time.perf_counter() - start

        start = time.perf_counter()
        sampled = build_analysis(model, graph, sampled_config)
        sampled_set = greedy(sampled)
        sampled_seconds = time.perf_counter() - start

        assert isinstance(sampled, SampledGraphAnalysis)
        quality = exact.explainability(sampled_set) / exact.explainability(exact_set)
        info = sampled.estimator_info()

        # 3. The declared bound, checked against ground truth ------
        estimate = sampled.influence_fraction(sampled_set)
        truth = exact.influence_score(sampled_set) / graph.num_nodes()
        assert abs(estimate - truth) <= sampled.achieved_epsilon

        print(f"  graph {graph.graph_id} (n={graph.num_nodes()}): "
              f"speedup {exact_seconds / sampled_seconds:4.1f}x  "
              f"quality {quality:.3f}  "
              f"sample {info['sample_size']}/{info['population']}  "
              f"achieved_eps {info['achieved_epsilon']:.3f}  "
              f"|influence err| {abs(estimate - truth):.3f}")

    # 4. Estimator provenance on service results -----------------------
    from repro.api import ExplanationService

    service = ExplanationService(
        "SCALE",
        database=database,
        model=model,
        config=sampled_config.with_default_bound(0, BUDGET),
    )
    # The service groups graphs by the *predicted* label; ask for one the
    # briefly trained model actually assigns.
    label = model.predict(database.graphs[0])
    result = service.explain(algorithm="approx", label=label, limit=1)
    estimator = result.provenance.estimator
    print("\nservice provenance (objective='sampled'):")
    print(f"  config fingerprint : {result.provenance.config_fingerprint} "
          f"(distinct from exact: "
          f"{result.provenance.config_fingerprint != exact_config.fingerprint()})")
    print(f"  estimator          : budget={estimator['sample_budget']} "
          f"achieved_eps={estimator['achieved_epsilon']} "
          f"sampled={estimator['sampled_graphs']} exact={estimator['exact_graphs']}")


if __name__ == "__main__":
    main()
