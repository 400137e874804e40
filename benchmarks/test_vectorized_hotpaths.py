"""Efficiency guard: the production paths vs their oracles.

Runs a scaled-down configuration of :mod:`benchmarks.bench_hot_paths` (the
full configuration runs in the CI benchmark-smoke job and is what the
committed ``baseline.json`` records) and asserts

* ApproxGVEX and its oracle produce *identical* explanation views — node
  sets and explainability;
* the lazy (CELF) and eager selection strategies produce *identical*
  explanation node sets end to end;
* the indexed match engine and the incremental mining front-end produce
  results *identical* to the reference matcher / reference enumeration,
  and both are substantially faster;
* the influence hot path (Eqs. 3-6 + the greedy gain loop) and the
  ``EVerify`` probes are substantially faster vectorized;
* the end-to-end ``ApproxGVEX.explain_label`` path (CELF + batched
  inference) is substantially faster than the eager reference strategy.

The full-scale benchmark demonstrates >= 3x on the micro hot paths and
>= 2x end-to-end (see the committed ``baseline.json``, which the CI
regression guard enforces with a 25% tolerance); the looser bounds asserted
here keep the tier-1 suite robust to contention when the whole test session
shares a noisy machine.
"""

import json

from benchmarks.bench_hot_paths import run_benchmark
from benchmarks.conftest import RESULTS_DIR, run_once


# Perf-ratio keys asserted below, with the shared-runner bound for each.
# Identity flags are strict (no retry); the ratios get ONE retry when the
# first run misses a bound — a whole-suite session sharing a noisy VM can
# deschedule the production arm of the smallest micro-benchmarks (observed
# matching ratios from 0.5x to 2.4x on the same tree), and the committed
# full-scale baseline + CI guard already police real regressions.
_RATIO_BOUNDS = {
    "matching_speedup_min": 1.5,
    "mining_speedup_min": 1.5,
    "influence_speedup_min": 2.5,
    "everify_speedup_min": 1.5,
    "explain_label_speedup_min": 1.5,
    "stream_explain_label_speedup_min": 2.0,
    "service_warm_speedup_min": 10.0,
    "service_direct_ratio_min": 0.5,
    "incremental_speedup_min": 2.0,
    "wal_ingest_ratio_min": 0.35,
}

_BENCH_KWARGS = dict(
    datasets=["SYN"],
    reps=2,
    num_graphs=6,
    graph_size=192,
    epochs=8,
    e2e_reps=1,
    e2e_num_graphs=4,
)


def test_vectorized_hot_paths(benchmark):
    report = run_once(benchmark, run_benchmark, **_BENCH_KWARGS)
    if any(report[key] < bound for key, bound in _RATIO_BOUNDS.items()):
        # One retry for the perf ratios only: keep each run's best ratio.
        # Identity flags are re-checked on the retry too — a correctness
        # break must fail regardless of which run it shows up in.
        second = run_benchmark(**_BENCH_KWARGS)
        for key in _RATIO_BOUNDS:
            report[key] = max(report[key], second[key])
        for flag in (
            "views_identical",
            "vp_extend_identical",
            "lazy_eager_identical",
            "stream_identical",
            "matching_identical",
            "mining_identical",
            "service_identical",
            "incremental_identical",
            "wal_identical",
        ):
            report[flag] = report[flag] and second[flag]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "vectorized_hot_paths.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    assert report["views_identical"], "ApproxGVEX and its oracle must produce identical views"
    assert report["vp_extend_identical"], (
        "EVerify.vp_extend must give ReferenceEVerify's per-node verdicts"
    )
    assert report["lazy_eager_identical"], (
        "lazy (CELF) and eager selection must produce identical node sets"
    )
    assert report["stream_identical"], (
        "StreamGVEX's fast path (packed coverage + batched swaps) must "
        "reproduce the reference path's node sets"
    )
    assert report["matching_identical"], (
        "the indexed match engine must reproduce the reference matcher's results"
    )
    assert report["mining_identical"], (
        "incremental enumeration / batched support counting must reproduce "
        "the reference mining results"
    )
    assert report["service_identical"], (
        "service explain_many must match direct explain_label node sets and "
        "serve warm requests from the view cache"
    )
    assert report["incremental_identical"], (
        "incrementally maintained views must be identical to a full "
        "StreamGVEX recompute after database mutations"
    )
    assert report["wal_identical"], (
        "views replayed from the write-ahead log must be identical to the "
        "views the durable service maintained while appending it"
    )
    for key, bound in _RATIO_BOUNDS.items():
        assert report[key] >= bound, (
            f"{key}: {report[key]:.2f}x below the in-suite floor {bound}x "
            "(after one retry; see the committed full-scale baseline for "
            "the real regression guard)"
        )
