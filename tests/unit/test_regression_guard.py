"""Unit tests for the benchmark regression guard's checking logic and the
benchmark harness's suite selection."""

import pytest

from benchmarks.regression_guard import GUARDED_METRICS, HOT_PATH_METRICS, check

BASELINE = {
    "influence_speedup_min": 3.0,
    "incremental_speedup_min": 5.0,
    "wal_ingest_ratio_min": 0.5,
    "views_identical": True,
    "incremental_identical": True,
    "wal_identical": True,
}


def full_report(**overrides):
    report = {
        "influence_speedup_min": 3.5,
        "incremental_speedup_min": 6.0,
        "wal_ingest_ratio_min": 1.0,
        "views_identical": True,
        "vp_extend_identical": True,
        "lazy_eager_identical": True,
        "stream_identical": True,
        "matching_identical": True,
        "mining_identical": True,
        "service_identical": True,
        "incremental_identical": True,
        "wal_identical": True,
        "sharded_identical": True,
        "chaos_recovery_ok": True,
        "sampled_bounds_ok": True,
        "sampled_subthreshold_identical": True,
    }
    report.update(overrides)
    return report


class TestCheck:
    def test_clean_report_passes(self):
        assert check(full_report(), BASELINE) == []

    def test_speedup_below_floor_fails(self):
        failures = check(full_report(influence_speedup_min=2.0), BASELINE)
        assert any("influence_speedup_min" in f for f in failures)

    def test_false_identity_flag_fails(self):
        failures = check(full_report(incremental_identical=False), BASELINE)
        assert any("recompute" in f for f in failures)

    def test_broken_frontier_identity_fails(self):
        failures = check(full_report(vp_extend_identical=False), BASELINE)
        assert any("vp_extend" in f for f in failures)

    def test_broken_stream_identity_fails(self):
        failures = check(full_report(stream_identical=False), BASELINE)
        assert any("StreamGVEX" in f for f in failures)

    def test_stream_suite_report_guards_its_own_flag(self):
        """`--suite stream` + `--metrics stream_explain_label_speedup_min`
        must validate stream_identical and nothing else."""
        baseline = {**BASELINE, "stream_explain_label_speedup_min": 3.0}
        partial = {
            "stream_explain_label_speedup_min": 3.4,
            "stream_identical": True,
        }
        metrics = ("stream_explain_label_speedup_min",)
        assert check(partial, baseline, metrics=metrics) == []
        del partial["stream_identical"]
        failures = check(partial, baseline, metrics=metrics)
        assert any("stream_identical" in f for f in failures)

    def test_broken_wal_replay_identity_fails(self):
        failures = check(full_report(wal_identical=False), BASELINE)
        assert any("write-ahead log" in f for f in failures)

    def test_wal_ratio_below_floor_fails(self):
        failures = check(full_report(wal_ingest_ratio_min=0.2), BASELINE)
        assert any("wal_ingest_ratio_min" in f for f in failures)

    def test_missing_identity_flag_fails_for_selected_metric(self):
        """A report that silently stops emitting a required flag must FAIL,
        not pass — the guard's whole point."""
        report = full_report()
        del report["views_identical"]
        failures = check(report, BASELINE)
        assert any("views_identical" in f for f in failures)

    def test_partial_suite_guards_only_its_metrics(self):
        partial = {
            "incremental_speedup_min": 6.0,
            "incremental_identical": True,
        }
        assert check(partial, BASELINE, metrics=("incremental_speedup_min",)) == []
        # ... but the full selection still notices everything missing.
        failures = check(partial, BASELINE, metrics=GUARDED_METRICS)
        assert any("views_identical" in f for f in failures)
        assert any("influence_speedup_min" in f for f in failures)

    def test_missing_metric_with_baseline_fails(self):
        report = full_report()
        del report["incremental_speedup_min"]
        failures = check(report, BASELINE)
        assert any("incremental_speedup_min" in f for f in failures)

    def test_hot_paths_report_passes_default_cli_selection(self):
        """The CLI default (HOT_PATH_METRICS) must not demand bench_load.py's
        metric/flag from a bench_hot_paths.py report, even though the
        committed baseline records load_scaling_min for the load job."""
        baseline = {**BASELINE, "load_scaling_min": 0.6}
        report = full_report()  # bench_hot_paths.py never emits these two:
        del report["sharded_identical"]
        assert check(report, baseline, metrics=HOT_PATH_METRICS) == []
        # ... while the full selection still insists on them.
        failures = check(report, baseline, metrics=GUARDED_METRICS)
        assert any("sharded_identical" in f for f in failures)
        assert any("load_scaling_min" in f for f in failures)

    def test_hot_path_metrics_is_guarded_minus_scoped_suites(self):
        """The default selection covers exactly what an unscoped full-suite
        bench_hot_paths.py report emits: not bench_load.py's metrics and not
        the `--suite sampled` pair."""
        assert set(HOT_PATH_METRICS) == set(GUARDED_METRICS) - {
            "load_scaling_min",
            "chaos_recovery",
            "sampled_speedup_min",
            "sampled_quality_min",
        }

    def test_chaos_recovery_is_flag_only(self):
        """chaos_recovery has no numeric side: a report with the flag true
        passes even though neither side carries a 'chaos_recovery' number."""
        baseline = {"chaos_recovery_ok": True}
        report = {"chaos_recovery_ok": True}
        assert check(report, baseline, metrics=("chaos_recovery",)) == []

    def test_failed_chaos_recovery_fails(self):
        failures = check(
            {"chaos_recovery_ok": False}, {}, metrics=("chaos_recovery",)
        )
        assert any("no longer recovers" in f for f in failures)

    def test_missing_chaos_flag_fails_when_selected(self):
        failures = check({}, {}, metrics=("chaos_recovery",))
        assert any("chaos_recovery_ok" in f for f in failures)

    def test_hot_paths_selection_ignores_chaos(self):
        """A bench_hot_paths.py report never emits chaos_recovery_ok; the
        default CLI selection must not demand it."""
        report = full_report()
        del report["chaos_recovery_ok"]
        assert check(report, BASELINE, metrics=HOT_PATH_METRICS) == []


class TestSampledSuiteGuard:
    SAMPLED_BASELINE = {
        "sampled_speedup_min": 5.0,
        "sampled_quality_min": 0.97,
    }
    SAMPLED_METRICS = ("sampled_speedup_min", "sampled_quality_min")

    def sampled_report(self, **overrides):
        report = {
            "sampled_speedup_min": 6.3,
            "sampled_quality_min": 0.98,
            "sampled_bounds_ok": True,
            "sampled_subthreshold_identical": True,
        }
        report.update(overrides)
        return report

    def test_clean_sampled_report_passes(self):
        assert (
            check(self.sampled_report(), self.SAMPLED_BASELINE, metrics=self.SAMPLED_METRICS)
            == []
        )

    def test_speedup_below_floor_fails(self):
        failures = check(
            self.sampled_report(sampled_speedup_min=2.0),
            self.SAMPLED_BASELINE,
            metrics=self.SAMPLED_METRICS,
        )
        assert any("sampled_speedup_min" in f for f in failures)

    def test_quality_below_floor_fails(self):
        failures = check(
            self.sampled_report(sampled_quality_min=0.5),
            self.SAMPLED_BASELINE,
            metrics=self.SAMPLED_METRICS,
        )
        assert any("sampled_quality_min" in f for f in failures)

    def test_bound_violation_fails(self):
        failures = check(
            self.sampled_report(sampled_bounds_ok=False),
            self.SAMPLED_BASELINE,
            metrics=self.SAMPLED_METRICS,
        )
        assert any("Hoeffding bound" in f for f in failures)

    def test_lost_subthreshold_identity_fails(self):
        failures = check(
            self.sampled_report(sampled_subthreshold_identical=False),
            self.SAMPLED_BASELINE,
            metrics=self.SAMPLED_METRICS,
        )
        assert any("route to the exact analysis" in f for f in failures)

    def test_full_suite_report_is_not_asked_for_sampled_metrics(self):
        assert check(full_report(), BASELINE, metrics=HOT_PATH_METRICS) == []


class TestSuiteSelection:
    def test_unknown_suite_raises_before_any_work(self):
        from benchmarks.bench_hot_paths import run_benchmark

        with pytest.raises(ValueError, match="unknown benchmark suite 'bogus'"):
            run_benchmark(suite="bogus")

    def test_unknown_suite_cli_exits_with_usage_error(self, capsys):
        from benchmarks.bench_hot_paths import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--suite", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_suite_names_are_published(self):
        from benchmarks.bench_hot_paths import SUITES

        assert set(SUITES) == {"full", "incremental", "wal", "stream", "sampled"}
