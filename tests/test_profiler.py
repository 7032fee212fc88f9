"""The resource observatory: sampling profiler + memory attribution.

Covers the profiler's edge cases (start/stop idempotence, disabled-path
zero overhead, worker-sample merge round-trips through both export
formats), tracemalloc-unavailable degradation, the shared-segment
registry's leak accounting, the footprint join's drift conventions and
the ``senkf-profile/1`` validator.
"""

import gc
import json
import threading
import time

import numpy as np
import pytest

from repro.telemetry import memprof
from repro.telemetry.memprof import (
    PROFILE_SCHEMA,
    MemoryProfiler,
    SharedSegmentRegistry,
    build_profile_report,
    current_rss_bytes,
    default_memory_rules,
    footprint_attribution,
    peak_rss_bytes,
    publish_memory_gauges,
    shared_segment_registry,
    validate_profile_report,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import (
    NULL_PROFILER,
    NullProfiler,
    SamplingProfiler,
    UNTRACED_PHASE,
    WorkerSampler,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.telemetry.schema import write_report
from repro.telemetry.tracer import Tracer, use_tracer


def spin(seconds):
    """Busy-loop long enough for the sampler to catch us."""
    deadline = time.perf_counter() + seconds
    x = 0.0
    while time.perf_counter() < deadline:
        x += np.dot(np.ones(64), np.ones(64))
    return x


class TestSamplingProfiler:
    def test_collects_attributed_samples(self):
        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001)
        with use_tracer(tracer), profiler:
            with tracer.span("work", category="compute"):
                spin(0.15)
        report = profiler.report()
        assert report["n_samples"] > 0
        assert report["phase_samples"].get("compute", 0) > 0
        assert report["attributed_fraction"] > 0.5
        assert "main" in report["tracks"]

    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        profiler.start()  # second start is a no-op, not a second thread
        assert threading.active_count() == threading.active_count()
        spin(0.02)
        profiler.stop()
        n = profiler.report()["n_samples"]
        profiler.stop()  # idempotent; sample counts unchanged
        assert profiler.report()["n_samples"] == n
        assert not profiler.running

    def test_restart_accumulates(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.05)
        first = profiler.report()["n_samples"]
        with profiler:
            spin(0.05)
        assert profiler.report()["n_samples"] >= first

    def test_untraced_samples_flagged(self):
        # No ambient tracer: every sample lands in the untraced bucket
        # and the attributed fraction is honest about it.
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.1)
        report = profiler.report()
        assert report["n_samples"] > 0
        assert report["phase_samples"] == {
            UNTRACED_PHASE: report["n_samples"]
        }
        assert report["attributed_fraction"] == 0.0

    def test_default_is_null_and_disabled(self):
        assert get_profiler() is NULL_PROFILER
        assert not get_profiler().enabled
        assert NULL_PROFILER.interval == 0.0
        # The null object swallows the whole surface without effect.
        NULL_PROFILER.start()
        NULL_PROFILER.merge_samples("w", "p", [(("f",), 1)])
        NULL_PROFILER.stop()
        assert NULL_PROFILER.report() == {}

    def test_use_profiler_scopes_ambient(self):
        profiler = SamplingProfiler(interval=0.01)
        with use_profiler(profiler):
            assert get_profiler() is profiler
            assert get_profiler().enabled
        assert get_profiler() is NULL_PROFILER

    def test_set_profiler_returns_previous(self):
        profiler = SamplingProfiler(interval=0.01)
        prev = set_profiler(profiler)
        try:
            assert get_profiler() is profiler
        finally:
            set_profiler(prev)
        assert get_profiler() is prev


class TestExports:
    def _merged_profiler(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.merge_samples(
            "worker-42", "parallel",
            [(("worker:main", "kernels:solve"), 3),
             (("worker:main", "kernels:stage"), 2)],
        )
        return profiler

    def test_worker_merge_rounds_trip_collapsed(self):
        profiler = self._merged_profiler()
        lines = dict(
            line.rsplit(" ", 1) for line in profiler.collapsed().splitlines()
        )
        assert lines["worker-42;parallel;worker:main;kernels:solve"] == "3"
        assert lines["worker-42;parallel;worker:main;kernels:stage"] == "2"
        assert profiler.phase_samples() == {"parallel": 5}
        assert profiler.attributed_fraction() == 1.0

    def test_worker_merge_rounds_trip_speedscope(self, tmp_path):
        profiler = self._merged_profiler()
        path = profiler.write_speedscope(tmp_path / "p.speedscope.json")
        doc = json.loads(path.read_text())
        assert doc["$schema"].endswith("file-format-schema.json")
        prof = {p["name"]: p for p in doc["profiles"]}["worker-42"]
        assert prof["type"] == "sampled"
        # 5 samples, each stack rooted at the phase frame.
        assert sum(prof["weights"]) == 5
        frames = [f["name"] for f in doc["shared"]["frames"]]
        for sample in prof["samples"]:
            assert frames[sample[0]] == "parallel"

    def test_collapsed_file_export(self, tmp_path):
        profiler = self._merged_profiler()
        path = profiler.write_collapsed(tmp_path / "p.collapsed")
        assert path.read_text() == profiler.collapsed() + "\n"

    def test_report_top_limits_stacks(self):
        profiler = self._merged_profiler()
        report = profiler.report(top=1)
        assert len(report["top_stacks"]) == 1
        assert report["top_stacks"][0]["count"] == 3


class TestWorkerSampler:
    def test_samples_only_between_begin_end(self):
        sampler = WorkerSampler(interval=0.001)
        try:
            spin(0.03)  # not armed: nothing may be captured
            assert sampler.drain() == []
            sampler.begin()
            spin(0.1)
            sampler.end()
            samples = sampler.drain()
            assert sum(count for _, count in samples) > 0
            # drain clears
            assert sampler.drain() == []
        finally:
            sampler.close()


class TestMemoryProfiler:
    def test_phase_deltas_and_report_shape(self):
        mem = MemoryProfiler()
        mem.start()
        with mem.phase("alloc"):
            block = np.ones(2_000_000)  # ~16 MB
        del block
        mem.stop()
        report = mem.report()
        assert report["baseline_rss_bytes"] > 0
        assert report["peak_rss_bytes"] >= report["baseline_rss_bytes"]
        phase = report["phases"]["alloc"]
        assert phase["count"] == 1
        if report["tracemalloc"]["available"]:
            assert phase["tracemalloc_delta_bytes"] > 10_000_000

    def test_tracemalloc_unavailable_degrades(self, monkeypatch):
        monkeypatch.setattr(memprof, "tracemalloc", None)
        mem = MemoryProfiler()
        mem.start()
        with mem.phase("alloc"):
            pass
        mem.stop()
        report = mem.report()
        assert report["tracemalloc"]["available"] is False
        assert report["tracemalloc"]["peak_bytes"] is None
        assert any("tracemalloc" in note for note in report["notes"])
        # The payload the degraded profiler feeds still validates.
        validate_profile_report(build_profile_report(memory=report))

    def test_observe_cycle_growth(self):
        mem = MemoryProfiler()
        mem.start()
        first = mem.observe_cycle()
        second = mem.observe_cycle()
        for stats in (first, second):
            assert set(stats) == {
                "rss_bytes", "rss_growth_bytes", "shm_live_bytes"
            }
        assert first["rss_bytes"] > 0

    def test_default_memory_rules_fire_on_sustained_growth(self):
        from repro.telemetry import AlertEngine

        engine = AlertEngine(default_memory_rules(
            growth_bytes=1000, sustained=2
        ))
        assert engine.evaluate(0, {"rss_growth_bytes": 5000}) == []
        fired = engine.evaluate(1, {"rss_growth_bytes": 5000})
        assert [a.rule for a in fired] == ["memory_runaway"]
        assert fired[0].severity == "critical"

    def test_rss_probes_positive(self):
        assert current_rss_bytes() > 0
        assert peak_rss_bytes() >= current_rss_bytes() * 0.5

    def test_publish_memory_gauges(self):
        metrics = MetricsRegistry()
        publish_memory_gauges(
            metrics, geometry_cache_bytes=123.0, tracemalloc_peak=456.0
        )
        snap = metrics.snapshot()["gauges"]
        assert snap["process.rss_bytes"] > 0
        assert snap["geometry.cache_bytes"] == 123.0
        assert snap["tracemalloc.peak_bytes"] == 456.0
        assert "shm.live_bytes" in snap


class TestSharedSegmentRegistry:
    def test_create_dispose_accounting(self):
        reg = SharedSegmentRegistry()
        reg.record_create("a", 100)
        reg.record_create("b", 200)
        assert reg.live_count() == 2
        assert reg.live_bytes() == 300
        reg.record_dispose("a")
        reg.record_dispose("b", via_gc=True)
        snap = reg.snapshot()
        assert snap["live_count"] == 0
        # Explicit and gc-driven disposal are disjoint books.
        assert snap["disposed_count"] == 1
        assert snap["disposed_bytes"] == 100
        assert snap["gc_reclaimed_count"] == 1
        assert snap["gc_reclaimed_bytes"] == 200

    def test_unknown_dispose_ignored(self):
        reg = SharedSegmentRegistry()
        reg.record_dispose("never-created")
        assert reg.snapshot()["disposed_count"] == 0

    def test_checkpoint_marks_progress(self):
        reg = SharedSegmentRegistry()
        created0, gc0 = reg.checkpoint()
        reg.record_create("a", 10)
        reg.record_dispose("a", via_gc=True)
        created1, gc1 = reg.checkpoint()
        assert (created1 - created0, gc1 - gc0) == (1, 1)

    def test_shared_ensemble_registers_and_unregisters(self):
        from repro.parallel.shared import SharedEnsemble

        reg = shared_segment_registry()
        before = set(reg.live_segments())
        shared = SharedEnsemble.from_array(np.ones((3, 8)))
        new = set(reg.live_segments()) - before
        assert len(new) == 1
        shared.dispose()
        assert set(reg.live_segments()) - before == set()

    def test_gc_reclaim_counts_as_leak_survivor(self):
        from repro.parallel.shared import SharedEnsemble

        reg = shared_segment_registry()
        _, gc_before = reg.checkpoint()
        shared = SharedEnsemble.from_array(np.ones((2, 4)))
        del shared
        gc.collect()
        _, gc_after = reg.checkpoint()
        assert gc_after - gc_before == 1
        # ...but nothing is live: the sentinel fixture stays green.


class TestFootprintJoin:
    def test_within_threshold(self):
        join = footprint_attribution(
            predicted_increment_bytes=1000.0,
            baseline_rss_bytes=100_000.0,
            measured_peak_rss_bytes=101_500.0,
        )
        assert join["predicted_peak_rss_bytes"] == 101_000.0
        assert abs(join["rel_error"]) < 0.15
        assert join["drift_flags"] == []

    def test_drift_flag_raised(self):
        join = footprint_attribution(
            predicted_increment_bytes=0.0,
            baseline_rss_bytes=50_000.0,
            measured_peak_rss_bytes=100_000.0,
        )
        assert len(join["drift_flags"]) == 1
        assert "peak_rss" in join["drift_flags"][0]

    def test_nothing_measured(self):
        join = footprint_attribution(
            predicted_increment_bytes=10.0,
            baseline_rss_bytes=10.0,
            measured_peak_rss_bytes=0.0,
        )
        assert join["rel_error"] is None
        assert "nothing measured" in join["drift_flags"][0]

    def test_predicted_footprint_components(self):
        from repro.costmodel import CostParams, predicted_footprint_bytes

        p = CostParams(
            n_x=24, n_y=12, n_members=16, h=8.0, xi=2, eta=1,
            a=0.0, b=0.0, c=0.0, theta=0.0,
        )
        parts = predicted_footprint_bytes(
            p, n_sdx=2, n_sdy=2, n_layers=1, n_cg=1,
            geometry_cache_bytes=512.0,
        )
        assert parts["ensemble_bytes"] == 2 * 24 * 12 * 8.0 * 16
        assert parts["geometry_cache_bytes"] == 512.0
        assert parts["total_bytes"] == pytest.approx(
            parts["ensemble_bytes"] + parts["staging_bytes"] + 512.0
        )


class TestProfileReport:
    def _full_payload(self):
        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001)
        mem = MemoryProfiler()
        mem.start()
        with use_tracer(tracer), profiler:
            with tracer.span("work", category="compute"):
                spin(0.05)
        mem.stop()
        footprint = footprint_attribution(
            1000.0, mem.report()["baseline_rss_bytes"],
            mem.report()["peak_rss_bytes"],
        )
        return build_profile_report(
            sampler=profiler.report(), memory=mem.report(),
            footprint=footprint, notes=["test"],
        )

    def test_round_trip_write(self, tmp_path):
        payload = self._full_payload()
        path = write_report(payload, tmp_path / "profile.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == PROFILE_SCHEMA
        validate_profile_report(loaded)

    def test_validator_rejects_bad_payloads(self):
        wrong_schema = build_profile_report()
        wrong_schema["schema"] = "bogus/9"
        with pytest.raises(ValueError, match="schema"):
            validate_profile_report(wrong_schema)
        with pytest.raises(ValueError, match="missing key"):
            validate_profile_report({"schema": PROFILE_SCHEMA})
        payload = build_profile_report(sampler={"interval": 0.01})
        with pytest.raises(ValueError, match="sampler"):
            validate_profile_report(payload)
        payload = self._full_payload()
        payload["sampler"]["attributed_fraction"] = 1.5
        with pytest.raises(ValueError, match="attributed_fraction"):
            validate_profile_report(payload)

    def test_invalid_payload_never_hits_disk(self, tmp_path):
        target = tmp_path / "profile.json"
        with pytest.raises(ValueError):
            write_report({"schema": PROFILE_SCHEMA}, target)
        assert not target.exists()

    def test_run_report_embeds_profile(self, tmp_path):
        from repro.telemetry import RunReport

        payload = self._full_payload()
        report = RunReport(
            kind="test", config={}, seeds={}, n_cycles=1, profile=payload
        )
        path = report.write(tmp_path / "run_report.json")
        loaded = json.loads(path.read_text())
        assert loaded["profile"]["schema"] == PROFILE_SCHEMA
        bad = RunReport(
            kind="test", config={}, seeds={}, n_cycles=1,
            profile={"schema": "bogus/9"},
        )
        with pytest.raises(ValueError, match="profile"):
            bad.write(tmp_path / "bad.json")


class TestWorkerIntegration:
    def test_process_fanout_merges_worker_tracks(self):
        """End to end: profiled process fan-out is bit-identical and
        produces worker-<pid> tracks in the exports."""
        from repro.core import (
            Decomposition, Grid, ObservationNetwork, radius_to_halo,
        )
        from repro.filters import PEnKF

        rng = np.random.default_rng(5)
        grid = Grid(n_x=16, n_y=8, dx_km=2.5, dy_km=5.0)
        xi, eta = radius_to_halo(6.0, grid.dx_km, grid.dy_km)
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=xi, eta=eta)
        network = ObservationNetwork.random(
            grid, m=24, obs_error_std=0.2, rng=np.random.default_rng(1)
        )
        states = rng.standard_normal((grid.n, 12))
        y = network.observe(states[:, 0], rng=np.random.default_rng(2))

        serial = PEnKF(radius_km=6.0, inflation=1.05, ridge=1e-2)
        reference = serial.assimilate(
            decomp, states, network, y, rng=np.random.default_rng(3)
        )

        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001)
        filt = PEnKF(
            radius_km=6.0, inflation=1.05, ridge=1e-2,
            workers=2, strategy="process",
        )
        try:
            with use_tracer(tracer), use_profiler(profiler), profiler:
                profiled = filt.assimilate(
                    decomp, states, network, y, rng=np.random.default_rng(3)
                )
        finally:
            filt.close()

        assert np.array_equal(reference, profiled)
        report = profiler.report()
        worker_tracks = [
            t for t in report["tracks"] if t.startswith("worker-")
        ]
        if worker_tracks:  # tiny problems may finish between samples
            assert report["phase_samples"].get("parallel", 0) > 0
            assert any(
                line.startswith(f"{worker_tracks[0]};parallel;")
                for line in profiler.collapsed().splitlines()
            )
