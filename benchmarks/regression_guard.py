"""CI regression guard for the influence / EVerify / matching / mining /
end-to-end hot paths.

Compares a fresh ``bench_hot_paths.py`` JSON report against the committed
``benchmarks/baseline.json`` and exits non-zero when any guarded path's
*speedup over the reference implementation* regressed by more than the
tolerance (default 25%).  Guarded paths: the influence and ``EVerify``
micro-benchmarks (vectorized vs the reference kernels), the pattern-matching and
mining front-end micro-benchmarks (indexed match engine / incremental
canonical keys vs the reference matcher and per-set re-canonicalisation),
and the end-to-end ``explain_label`` runtimes (ApproxGVEX: lazy CELF +
batched inference vs the eager strategy; StreamGVEX: the full fast path vs
the full reference path), plus the incremental view-maintenance path
(ingesting a 10% delta through a warm ``ViewMaintainer`` vs a full
StreamGVEX recompute, with view identity asserted) and the durability path
(WAL-fsync'd service ingest vs in-memory ingest, with the crash-recovery
replay asserted signature-identical to the durable run).  The sharded
serving tier is guarded through ``load_scaling_min`` — a ratio produced by
``bench_load.py`` (largest-shard-count QPS over the 1-shard arm, same
machine, same request schedule) rather than ``bench_hot_paths.py``; pass
that report with ``--metrics load_scaling_min``.  Its chaos arm
(``bench_load.py --chaos``) is guarded through the flag-only
``chaos_recovery`` metric: the report's ``chaos_recovery_ok`` verdict must
be true (worker respawned under load within the deadline, post-recovery
views signature-identical), while the recovery latencies themselves stay
informational.  The sampled-objective A/B (``bench_hot_paths.py --suite
sampled``) is guarded the same scoped way through ``sampled_speedup_min``
(estimator arm vs exact arm on the scale-stress regime, with
``sampled_bounds_ok`` asserting every estimate landed inside its declared
Hoeffding bound) and ``sampled_quality_min`` (the sampled selection
re-scored under the exact objective, with
``sampled_subthreshold_identical`` asserting small graphs still route to
the exact path); pass ``--metrics sampled_speedup_min sampled_quality_min``
with that report.

Speedup ratios — not wall-clock seconds — are compared, because both the
vectorized and the reference implementation run on the same machine in the
same process: the ratio cancels machine speed, leaving only changes to the
code paths themselves.  A >25% drop in the ratio means someone slowed the
vectorized path (or sped up only the reference), which is exactly the
regression the ISSUE's CI pipeline must catch.

Usage::

    python benchmarks/regression_guard.py current.json [baseline.json] [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baseline.json"

GUARDED_METRICS = (
    "influence_speedup_min",
    "everify_speedup_min",
    "matching_speedup_min",
    "mining_speedup_min",
    "explain_label_speedup_min",
    "stream_explain_label_speedup_min",
    "service_warm_speedup_min",
    "service_direct_ratio_min",
    "incremental_speedup_min",
    "wal_ingest_ratio_min",
    "load_scaling_min",
    "chaos_recovery",
    "sampled_speedup_min",
    "sampled_quality_min",
)

# Metrics a full-suite ``bench_hot_paths.py`` report can actually emit.
# ``load_scaling_min`` and ``chaos_recovery`` are produced by
# ``bench_load.py`` (the latter only under ``--chaos``), and the sampled-
# objective pair only by ``bench_hot_paths.py --suite sampled``; each is
# guarded by its own scoped invocation (``--metrics ...``).  Including them
# in the default selection would fail every unscoped run on a full-suite
# report for metrics that report can never contain.
HOT_PATH_METRICS = tuple(
    m
    for m in GUARDED_METRICS
    if m
    not in (
        "load_scaling_min",
        "chaos_recovery",
        "sampled_speedup_min",
        "sampled_quality_min",
    )
)

# Identity flag required alongside each guarded metric, with the failure
# message emitted when the flag is false.  Tying flags to the metric
# selection keeps the full-suite invocation as strict as ever (a report
# that silently stops emitting a flag FAILS) while letting partial-suite
# reports (`--suite incremental` + `--metrics incremental_speedup_min`)
# guard only their own flags.
IDENTITY_FLAGS = {
    "influence_speedup_min": (
        "views_identical",
        "ApproxGVEX and ReferenceApproxGVEX no longer produce identical views",
    ),
    "everify_speedup_min": (
        "vp_extend_identical",
        "EVerify.vp_extend's batched frontier verdicts no longer match "
        "ReferenceEVerify's per-node loop",
    ),
    "explain_label_speedup_min": (
        "lazy_eager_identical",
        "lazy (CELF) and eager selection no longer produce identical node sets",
    ),
    "stream_explain_label_speedup_min": (
        "stream_identical",
        "StreamGVEX's fast path (packed coverage + batched swaps) no longer "
        "produces the reference path's node sets",
    ),
    "matching_speedup_min": (
        "matching_identical",
        "indexed match engine and reference matcher no longer produce "
        "identical match results",
    ),
    "mining_speedup_min": (
        "mining_identical",
        "incremental pattern enumeration / batched support counting no "
        "longer matches the reference mining path",
    ),
    "service_warm_speedup_min": (
        "service_identical",
        "service-layer explain_many no longer matches direct explain_label "
        "node sets (or warm requests stopped hitting the view cache)",
    ),
    "incremental_speedup_min": (
        "incremental_identical",
        "incrementally maintained views no longer match a full StreamGVEX "
        "recompute after database mutations",
    ),
    "wal_ingest_ratio_min": (
        "wal_identical",
        "views replayed from the write-ahead log no longer match the views "
        "the durable service maintained while appending it",
    ),
    "load_scaling_min": (
        "sharded_identical",
        "sharded serving no longer answers identically to the single-process "
        "service (stream at every shard count / everything at 1 shard)",
    ),
    # ``chaos_recovery`` is flag-only: bench_load.py --chaos emits no numeric
    # ratio for it (recovery latency is informational, machine-dependent),
    # so the guard enforces only the identity-style verdict.
    "chaos_recovery": (
        "chaos_recovery_ok",
        "the sharded tier no longer recovers from a killed worker under load "
        "(no respawn within the deadline, or post-recovery views diverged "
        "from the pre-kill signatures)",
    ),
    "sampled_speedup_min": (
        "sampled_bounds_ok",
        "a sampled estimate landed outside its declared (epsilon, delta) "
        "Hoeffding bound — at the union-bounded sample sizes this is a "
        "~1-in-10^5 event, i.e. an estimator bug, not noise",
    ),
    "sampled_quality_min": (
        "sampled_subthreshold_identical",
        "sub-threshold graphs no longer route to the exact analysis under "
        "objective='sampled' (small-graph selections must stay bit-identical "
        "to the reference)",
    ),
}


def check(
    current: dict,
    baseline: dict,
    tolerance: float = 0.25,
    metrics: tuple[str, ...] = GUARDED_METRICS,
) -> list[str]:
    """Return a list of failure messages (empty when the guard passes)."""
    failures: list[str] = []
    for metric in metrics:
        if metric not in IDENTITY_FLAGS:
            continue
        flag, message = IDENTITY_FLAGS[metric]
        if flag not in current:
            failures.append(
                f"current report is missing the identity flag '{flag}' "
                f"(required with '{metric}')"
            )
        elif not current[flag]:
            failures.append(message)
    for metric in metrics:
        reference = baseline.get(metric)
        measured = current.get(metric)
        if reference is None:
            continue
        if measured is None:
            failures.append(f"current report is missing '{metric}'")
            continue
        floor = reference * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{metric}: {measured:.2f}x is below {floor:.2f}x "
                f"(baseline {reference:.2f}x minus {tolerance:.0%} tolerance)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="JSON report from bench_hot_paths.py")
    parser.add_argument("baseline", type=Path, nargs="?", default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument(
        "--metrics",
        nargs="+",
        default=list(HOT_PATH_METRICS),
        choices=list(GUARDED_METRICS),
        help="restrict the guarded metrics (partial-suite reports, e.g. "
        "`--metrics incremental_speedup_min` for the CI incremental job, or "
        "`--metrics load_scaling_min` for a bench_load.py report; the default "
        "covers every metric bench_hot_paths.py emits)",
    )
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    baseline = json.loads(args.baseline.read_text())
    failures = check(
        current, baseline, tolerance=args.tolerance, metrics=tuple(args.metrics)
    )

    for metric in GUARDED_METRICS:
        if metric in current:
            note = f" (baseline {baseline[metric]:.2f}x)" if metric in baseline else ""
            print(f"{metric}: {current[metric]:.2f}x{note}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("hot-path performance within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
