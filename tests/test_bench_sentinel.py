"""Tests for the bench regression sentinel (append-only history, robust
baselines, pass/warn/fail/no-baseline verdicts, host-fingerprint keying)
and for the old payloads that must keep loading."""

import json
import math

import pytest

from repro.telemetry import (
    BENCH_HISTORY_SCHEMA,
    RunReport,
    append_history,
    check_regression,
    read_history,
    robust_baseline,
    sentinel_report,
)
from repro.telemetry.bench import BenchEntry, host_fingerprint


class TestHistoryFile:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, "doctor", {"wall_seconds": 1.5}, timestamp=10.0)
        append_history(
            path, "doctor", {"wall_seconds": 1.6},
            context={"cycles": 5}, timestamp=20.0,
        )
        entries = read_history(path)
        assert [e.values["wall_seconds"] for e in entries] == [1.5, 1.6]
        assert entries[0].schema == BENCH_HISTORY_SCHEMA
        assert entries[1].context == {"cycles": 5}
        assert entries[1].timestamp == 20.0

    def test_bench_filter(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, "a", {"x": 1.0})
        append_history(path, "b", {"x": 2.0})
        assert [e.bench for e in read_history(path, bench="b")] == ["b"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_non_finite_values_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            append_history(tmp_path / "h.jsonl", "x", {"bad": math.nan})
        with pytest.raises(ValueError, match="at least one"):
            append_history(tmp_path / "h.jsonl", "x", {})
        with pytest.raises(ValueError, match="non-empty"):
            append_history(tmp_path / "h.jsonl", "", {"x": 1.0})

    def test_reader_skips_garbage_and_foreign_schemas(self, tmp_path):
        """An accreted log must survive junk lines and schema bumps."""
        path = tmp_path / "history.jsonl"
        append_history(path, "doctor", {"x": 1.0})
        with path.open("a") as handle:
            handle.write("this is not json\n")
            handle.write(json.dumps({"schema": "senkf-bench-history/99",
                                     "bench": "doctor",
                                     "values": {"x": 9.0}}) + "\n")
            handle.write(json.dumps({"no": "bench"}) + "\n")
            handle.write("\n")
        append_history(path, "doctor", {"x": 2.0})
        entries = read_history(path)
        assert [e.values["x"] for e in entries] == [1.0, 2.0]


class TestRobustBaseline:
    def test_median_and_mad(self):
        median, mad = robust_baseline([1.0, 2.0, 3.0, 4.0, 100.0])
        assert median == 3.0
        assert mad == 1.0  # the outlier does not poison the spread

    def test_even_count_interpolates(self):
        median, _ = robust_baseline([1.0, 3.0])
        assert median == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            robust_baseline([])


def entries(bench, samples, key="wall_seconds"):
    return [
        BenchEntry(bench=bench, values={key: s}, timestamp=float(k))
        for k, s in enumerate(samples)
    ]


class TestCheckRegression:
    def test_stable_value_passes(self):
        history = entries("b", [1.0, 1.01, 0.99, 1.02])
        (v,) = check_regression(history, "b", {"wall_seconds": 1.0})
        assert v.status == "pass" and v.ok
        assert v.median == pytest.approx(1.005)

    def test_large_regression_fails(self):
        history = entries("b", [1.0, 1.01, 0.99, 1.02])
        (v,) = check_regression(history, "b", {"wall_seconds": 3.0})
        assert v.status == "fail" and not v.ok

    def test_moderate_regression_warns(self):
        # band = max(MAD, 0.10·|median|) ≈ 0.1; 3·band < +0.45 < 6·band
        history = entries("b", [1.0, 1.0, 1.0, 1.0])
        (v,) = check_regression(history, "b", {"wall_seconds": 1.45})
        assert v.status == "warn" and v.ok

    def test_improvement_never_fails(self):
        history = entries("b", [1.0, 1.01, 0.99, 1.02])
        (v,) = check_regression(history, "b", {"wall_seconds": 0.01})
        assert v.status == "pass"

    def test_flat_history_tolerates_jitter(self):
        """MAD = 0 must not make the sentinel a zero-tolerance tripwire."""
        history = entries("b", [1.0, 1.0, 1.0, 1.0])
        (v,) = check_regression(history, "b", {"wall_seconds": 1.05})
        assert v.status == "pass"

    def test_insufficient_history_reports_no_baseline(self):
        history = entries("b", [1.0, 1.0])
        (v,) = check_regression(history, "b", {"wall_seconds": 99.0})
        assert v.status == "no-baseline" and v.ok
        assert v.label == "NO BASELINE"
        assert "insufficient history" in v.reason
        assert v.median is None

    def test_empty_history_is_no_baseline_not_pass(self):
        (v,) = check_regression([], "b", {"wall_seconds": 1.0})
        assert v.status == "no-baseline"
        assert v.n_history == 0

    def test_baseline_only_pools_matching_host_fingerprint(self):
        """Samples from another core count or the other smoke mode never
        feed the baseline."""
        fast_host = [
            BenchEntry(bench="b", values={"wall_seconds": 0.1},
                       context={"cpu_count": 16, "smoke": False})
            for _ in range(5)
        ]
        smoke_runs = [
            BenchEntry(bench="b", values={"wall_seconds": 0.1},
                       context={"cpu_count": 2, "smoke": True})
            for _ in range(5)
        ]
        here = {"cpu_count": 2, "smoke": False}
        (v,) = check_regression(
            fast_host + smoke_runs, "b", {"wall_seconds": 1.0}, context=here
        )
        assert v.status == "no-baseline"
        same_host = [
            BenchEntry(bench="b", values={"wall_seconds": s}, context=here)
            for s in (1.0, 1.01, 0.99)
        ]
        (v,) = check_regression(
            fast_host + same_host + smoke_runs, "b", {"wall_seconds": 1.0},
            context=here,
        )
        assert v.status == "pass" and v.n_history == 3
        assert v.median == pytest.approx(1.0)

    def test_fingerprint_ignores_other_context(self):
        assert host_fingerprint({"cpu_count": 2, "cycles": 5}) == (2, False)
        assert host_fingerprint(None) == (None, False)
        assert host_fingerprint({"smoke": True}) == (None, True)

    def test_window_drops_stale_samples(self):
        """Only the trailing window feeds the baseline: an old fast era
        must not condemn today's (stable) slower era."""
        history = entries("b", [0.1] * 5 + [1.0] * 8)
        (v,) = check_regression(history, "b", {"wall_seconds": 1.02}, window=8)
        assert v.status == "pass"
        assert v.median == pytest.approx(1.0)

    def test_other_benches_ignored(self):
        history = entries("other", [9.0, 9.0, 9.0, 9.0])
        (v,) = check_regression(history, "b", {"wall_seconds": 1.0})
        assert "insufficient history" in v.reason

    def test_bad_thresholds_rejected(self):
        with pytest.raises(ValueError):
            check_regression([], "b", {"x": 1.0}, warn_mads=6.0, fail_mads=3.0)


class TestSentinelReport:
    def test_judges_latest_against_prior(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for value in (1.0, 1.01, 0.99, 1.02):
            append_history(path, "doctor", {"wall_seconds": value})
        append_history(path, "doctor", {"wall_seconds": 5.0})
        text, verdicts = sentinel_report(path)
        assert "overall: FAIL" in text
        (v,) = [v for v in verdicts if v.status == "fail"]
        assert v.bench == "doctor" and v.key == "wall_seconds"

    def test_multiple_benches_roll_up(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for value in (1.0, 1.0, 1.0, 1.0):
            append_history(path, "a", {"x": value})
            append_history(path, "b", {"x": value})
        text, verdicts = sentinel_report(path)
        assert "overall: PASS" in text
        assert {v.bench for v in verdicts} == {"a", "b"}

    def test_single_entry_renders_no_baseline(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, "doctor", {"wall_seconds": 1.0})
        text, (v,) = sentinel_report(path)
        assert v.status == "no-baseline"
        assert "NO BASELINE" in text
        assert "overall: NO BASELINE" in text
        assert "PASS" not in text

    def test_report_keys_baseline_on_latest_fingerprint(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for value in (1.0, 1.0, 1.0):
            append_history(path, "p", {"x": value},
                           context={"cpu_count": 1, "smoke": True})
        append_history(path, "p", {"x": 9.0},
                       context={"cpu_count": 8, "smoke": True})
        text, (v,) = sentinel_report(path)
        assert v.status == "no-baseline"  # not a FAIL against 1-core runs

    def test_empty_history_renders_placeholder(self, tmp_path):
        text, verdicts = sentinel_report(tmp_path / "none.jsonl")
        assert "no entries" in text
        assert verdicts == []

    def test_memory_column_shows_latest_peak_rss(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for _ in range(3):
            append_history(
                path, "mem",
                {"wall_seconds": 1.0, "peak_rss_bytes": 128e6},
            )
        append_history(path, "old", {"wall_seconds": 1.0})
        text, _ = sentinel_report(path)
        assert "peak RSS" in text
        assert "128 MB" in text
        # A bench that never recorded memory renders the placeholder.
        old_rows = [ln for ln in text.splitlines() if ln.lstrip().startswith("old")]
        assert old_rows and " - " in old_rows[0] + " "


class TestPayloadCompat:
    """Files written by older engines — which recorded an executor
    strategy, an array backend, a vectorized cost constant or a feeder
    watchdog counter — still load; the stale values are ignored."""

    def test_bench_history_roundtrips_strategy_context(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(
            path, "parallel",
            {"vectorized_warm_seconds": 0.1, "serial_warm_seconds": 0.3},
            context={
                "backend": "numpy", "strategy": "vectorized",
                "speedup_asserted": True, "cpu_count": 1,
            },
        )
        (entry,) = read_history(path)
        assert entry.context["backend"] == "numpy"
        assert entry.context["speedup_asserted"] is True
        assert entry.values["vectorized_warm_seconds"] == 0.1

    def test_bench_history_reader_tolerates_old_and_odd_lines(self, tmp_path):
        """Old entries without the new fields and newer entries carrying
        extra top-level keys must both read back without KeyError."""
        path = tmp_path / "hist.jsonl"
        old_line = {
            "schema": "senkf-bench-history/1", "bench": "parallel",
            "timestamp": 1.0,
            "values": {"serial_warm_seconds": 0.5},
            "context": {},
        }
        new_line = {
            "schema": "senkf-bench-history/1", "bench": "parallel",
            "timestamp": 2.0,
            "values": {
                "serial_warm_seconds": 0.4,
                "backend": "numpy",  # non-numeric: dropped, not fatal
            },
            "context": {"strategy": "vectorized"},
            "strategy": "vectorized",  # unknown top-level key: ignored
        }
        path.write_text(
            json.dumps(old_line) + "\n" + json.dumps(new_line) + "\n"
        )
        entries = read_history(path, bench="parallel")
        assert len(entries) == 2
        assert entries[0].context == {}
        assert entries[1].values == {"serial_warm_seconds": 0.4}
        assert entries[1].context["strategy"] == "vectorized"

    def test_run_report_with_old_engine_fields_loads(self):
        payload = RunReport(
            kind="doctor",
            config={"strategy": "vectorized",
                    "backend": {"backend": "numpy", "device": "cpu"}},
            supervision={"restarts": 0, "feeder_stuck": 1},
        ).to_dict()
        payload = json.loads(json.dumps(payload))
        report = RunReport.from_dict(payload)
        assert report.config["strategy"] == "vectorized"
        assert report.supervision["feeder_stuck"] == 1

    def test_calibration_with_c_vectorized_loads(self):
        """An attribution (calibration) payload whose fitted constants
        carry ``c_vectorized`` still validates; the cost model no longer
        has the field."""
        from dataclasses import fields

        from repro.costmodel import CostParams
        from repro.telemetry import (
            AttributionReport,
            validate_attribution_report,
        )

        constants = {"a": 1e-6, "b": 1e-9, "c": 2e-6, "theta": 1e-9,
                     "c_vectorized": 5e-7}
        payload = json.loads(AttributionReport(
            cycles=[], constants=dict(constants),
            fit={"n_observations": 1, "constants": dict(constants),
                 "residuals": {}},
        ).to_json())
        assert validate_attribution_report(payload) is payload
        assert payload["fit"]["constants"]["c_vectorized"] == 5e-7
        assert "c_vectorized" not in {f.name for f in fields(CostParams)}
