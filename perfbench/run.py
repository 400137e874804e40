"""End-to-end benchmark of the GVEX service, with a traced per-layer mode.

Usage (from the repository root)::

    python3 perfbench/run.py --workload approx-explain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One closed-loop client thread sends each operation after the previous one
returned.  A run prepares its inputs from ``--seed`` (not timed), builds
the system ``SETUP_REPEATS`` times and reports the median as ``setup_s``,
runs the workload's cyclic schedule for ``--seconds``, then checks the
outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (environment, host-speed probe, sample counts, output
signature).  The exit code is 1 when an op or an output check fails.

``--trace 1`` instead runs a fixed number of operations twice, untraced
and then with the layer wrappers of ``tracing.py`` installed, and reports
the per-layer metrics; the fixed count makes every per-layer count repeat
exactly for one seed.  Spans and the report are written under
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostenv
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
WORK_ROOT = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("approx-explain", "stream-ingest", "sharded-fanout")

#: Fresh constructions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Wall seconds between two samples of the workers' memory in a timed phase.
MEMORY_SAMPLE_S = 0.5
#: Schedule periods the traced mode runs in each of its two phases.
TRACE_PERIODS = {"approx-explain": 1, "stream-ingest": 2, "sharded-fanout": 4}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "primary_p50_s": "s",
    "primary_tail_s": "s",
    "cpu_s_per_op": "s",
    "rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_coverage") or name.endswith("_per_graph"):
        return "ratio"
    return "count"


def nearest_rank(samples: list[float], percentile: float) -> float:
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Loop:
    """Runs ops one after another and accounts time, CPU and failures."""

    def __init__(self, workload, ops) -> None:
        self.workload = workload
        self.ops = ops
        self.next_index = 0
        self.errors: list[str] = []

    def _cpu_now(self) -> float:
        return time.process_time() + sum(
            hostenv.process_cpu_s(pid) for pid in self.workload.worker_pids()
        )

    def _worker_mb(self) -> float:
        return sum(hostenv.private_mb(pid) for pid in self.workload.worker_pids())

    def run(self, *, seconds: float | None = None, count: int | None = None, tracer=None) -> dict:
        workload = self.workload
        latencies: dict[str, list[float]] = {}
        attempted = failed = 0
        paused_s = paused_cpu = 0.0
        # Memory is taken over the first schedule period only: the live
        # state grows a little with every op, so a peak over the whole
        # phase would grow with the host's speed.
        worker_mb = self._worker_mb()
        memory_mb = None
        next_sample = 0.0
        cpu_start = self._cpu_now()
        started = time.perf_counter()
        deadline = started + seconds if seconds is not None else math.inf
        while True:
            index = self.next_index
            op = self.ops[index % len(self.ops)]
            kind = op[0]
            op_start = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.current_op = index
                    with tracer.span(f"op.{kind}"):
                        response = workload.execute(index, op)
                else:
                    response = workload.execute(index, op)
                ok = True
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                self.errors.append(f"op {index} ({kind}): {traceback.format_exc(limit=3)}")
                ok = False
            op_end = time.perf_counter()
            attempted += 1
            cpu_before = time.process_time()
            if ok:
                ok = workload.check(index, op, response)
                if not ok:
                    self.errors.append(f"op {index} ({kind}): output check failed")
            if memory_mb is None:
                first_period_done = attempted == len(self.ops)
                if first_period_done or op_end >= next_sample:
                    worker_mb = max(worker_mb, self._worker_mb())
                    next_sample = op_end + MEMORY_SAMPLE_S
                if first_period_done:
                    memory_mb = hostenv.peak_rss_mb() + worker_mb
            paused_cpu += time.process_time() - cpu_before
            paused_s += time.perf_counter() - op_end
            if ok:
                latencies.setdefault(kind, []).append(op_end - op_start)
            else:
                failed += 1
            self.next_index += 1
            # Stop only where the database is back in its starting state.
            if workload.at_rest(op):
                if count is not None and attempted >= count:
                    break
                if time.perf_counter() >= deadline:
                    break
        wall = time.perf_counter() - started - paused_s
        cpu = self._cpu_now() - cpu_start - paused_cpu
        if memory_mb is None:
            memory_mb = hostenv.peak_rss_mb() + max(worker_mb, self._worker_mb())
        return {
            "attempted": attempted,
            "failed": failed,
            "wall_s": wall,
            "cpu_s": cpu,
            "latencies": latencies,
            "memory_mb": memory_mb,
        }


def end_to_end(workload, phase: dict, setup_samples: list[float], peak_rss: float) -> dict:
    completed = phase["attempted"] - phase["failed"]
    primary = phase["latencies"].get(workload.primary, [])
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": completed / phase["wall_s"] if phase["wall_s"] > 0 else 0.0,
        "primary_p50_s": statistics.median(primary) if primary else 0.0,
        "primary_tail_s": nearest_rank(primary, workload.tail_percentile) if primary else 0.0,
        "cpu_s_per_op": phase["cpu_s"] / completed if completed else 0.0,
        "rss_mb": peak_rss,
    }


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def run_workload(args) -> int:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"the program under test is missing: no {source / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    env = hostenv.environment(args.seed, ROOT)
    probe_before = hostenv.host_probe()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    workload = WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
    try:
        workload.prepare()
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            # Free the previous construction before timing the next one.
            workload.close()
            gc.collect()
            started = time.perf_counter()
            workload.system = workload.build()
            setup_samples.append(time.perf_counter() - started)
        workload.start()
        ops = workload.schedule()
        loop = Loop(workload, ops)
        report: dict = {"setup_samples_s": setup_samples}

        if not args.trace:
            # rss_mb covers the timed phase only: the client's peak since
            # here plus the workers' largest private memory.
            gc.collect()
            report["rss_peak_reset"] = hostenv.reset_peak_rss()
            phase = loop.run(seconds=args.seconds)
            metrics = end_to_end(workload, phase, setup_samples, phase["memory_mb"])
            units = END_TO_END_UNITS
        else:
            count = TRACE_PERIODS[args.workload] * len(ops)
            untraced = loop.run(count=count)
            loop.next_index = 0
            memo_before = workload.memo_counts()
            cache_before = workload.cache_counts()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                phase = loop.run(count=count, tracer=tracer)
            finally:
                tracer.uninstall()
            memo_after = workload.memo_counts()
            cache_after = workload.cache_counts()
            metrics = tracing.layer_metrics(tracer.spans, f"op.{workload.primary}")
            metrics["matching.memo_hit_ratio"] = ratio(
                memo_after[0] - memo_before[0], memo_after[1] - memo_before[1]
            )
            metrics["store.hit_ratio"] = ratio(
                cache_after[0] - cache_before[0], cache_after[1] - cache_before[1]
            )
            metrics["trace.overhead_ratio"] = untraced["wall_s"] / phase["wall_s"]
            units = {name: per_layer_unit(name) for name in metrics}
            phase["attempted"] += untraced["attempted"]
            phase["failed"] += untraced["failed"]
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            report["traced_ops"] = count

        final_failures = workload.final_check()
        if final_failures:
            loop.errors.append(f"{final_failures} final output checks failed")
            phase["failed"] += final_failures
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = phase["failed"] == 0
    for error in loop.errors[:5]:
        print(error, file=sys.stderr)
    report.update(
        {
            "workload": args.workload,
            "primary_op": workload.primary,
            "tail_percentile": workload.tail_percentile,
            "samples": {kind: len(values) for kind, values in phase["latencies"].items()},
            "output_signature": workload.output_signature(),
            "environment": env,
            "host_probe_before": probe_before,
            "host_probe_after": hostenv.host_probe(),
        }
    )
    result = {
        "correct": correct,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(report | {"result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print every metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.tiny:
            command.append("--tiny")
        completed = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink the inputs (graph counts and sizes) for quick tests",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    finally:
        hostenv.stop_children()


if __name__ == "__main__":
    raise SystemExit(main())
