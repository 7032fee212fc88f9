"""The report contract: one schema table, validator, writer and loader.

Covers :mod:`repro.telemetry.schema` across the five report schemas —
every violation named even when a top-level key is missing, extra keys of
older artifacts accepted by ``from_dict``, the load/write round trip — and
the one ``doctor --report`` panel that renders any of them.
"""

import json

import pytest

from repro.experiments import cli
from repro.service import ServiceReport, validate_service_report
from repro.telemetry import (
    AlertRule,
    AttributionReport,
    HealthProbe,
    HealthReport,
    RunReport,
    attribute_sim_reports,
    load_report,
    validate_run_report,
    write_report,
)
from repro.telemetry.attribution import SIMULATOR_NOTE
from repro.telemetry.schema import SCHEMAS, validate


def run_report(**extra) -> RunReport:
    return RunReport(
        kind="twin-campaign",
        config={"experiment": "t"},
        seeds={"master_seed": 3},
        n_cycles=4,
        fault_counts={"retries": 2.0},
        phase_totals={"io": 0.5},
        metrics={"counters": {"io.reads": 4.0}},
        diagnostics={"analysis_rmse": [0.2, 0.1]},
        notes=["unit test"],
        **extra,
    )


def service_report(failed: int = 0, health: dict | None = None):
    return ServiceReport(
        total_slots=2,
        wall_seconds=1.5,
        jobs=[{
            "job_id": "job-00000", "tenant": "a", "name": None,
            "state": "done", "priority": 0, "progress": 1, "preemptions": 0,
            "restarts": 0, "queue_wait_seconds": 0.1, "slot_seconds": 1.2,
        }],
        tenants={
            "a": {
                "submitted": 1, "done": 1 - failed, "failed": failed,
                "cancelled": 0, "preemptions": 0, "restarts": 0,
                "predicted_slot_seconds": 1.0,
                "actual_slot_seconds": 1.2,
                "queue_wait_seconds": 0.1,
            }
        },
        health=health,
    )


def health_report(severity: str = "critical") -> HealthReport:
    probe = HealthProbe(rules=[AlertRule("low", "x", "<", 1.0,
                                         severity=severity)])
    probe.observe_stats(0, {"x": 2.0})
    probe.observe_stats(1, {"x": 0.5})
    return probe.report(kind="filter")


@pytest.fixture(scope="module")
def attribution():
    from repro.cluster.params import MachineSpec
    from repro.filters.base import PerfScenario
    from repro.filters.senkf import simulate_senkf

    spec, scenario = MachineSpec.small_cluster(), PerfScenario.small()
    reports = [simulate_senkf(spec, scenario, 4, 4, layers, 4)
               for layers in (3, 5)]
    return attribute_sim_reports(reports, scenario.cost_params(spec))


# -- the one validator ---------------------------------------------------------

class TestEveryViolation:
    def test_missing_key_does_not_hide_nested_run_report_errors(self):
        payload = run_report().to_dict()
        del payload["seeds"]
        payload["phase_totals"]["io"] = -1.0
        with pytest.raises(ValueError) as err:
            validate_run_report(payload)
        message = str(err.value)
        assert message.startswith("invalid run report: ")
        assert "missing key 'seeds'" in message
        assert "phase_totals['io']" in message

    def test_missing_key_does_not_hide_nested_service_report_errors(self):
        payload = service_report().to_dict()
        del payload["kind"]
        payload["tenants"]["a"]["done"] = -5
        payload["jobs"].append({"state": "done"})
        with pytest.raises(ValueError) as err:
            validate_service_report(payload)
        message = str(err.value)
        assert "missing key 'kind'" in message
        assert "tenants['a'].done" in message
        assert "jobs[1] missing key 'job_id'" in message

    def test_wrong_type_does_not_hide_embedded_report_errors(self):
        payload = run_report(health={"schema": "nope"}).to_dict()
        payload["n_cycles"] = "four"
        with pytest.raises(ValueError) as err:
            validate_run_report(payload)
        message = str(err.value)
        assert "n_cycles must be integer, got string" in message
        assert "health: invalid health report: " in message

    def test_every_table_accepts_what_its_writer_produces(self, attribution):
        from repro.telemetry import build_profile_report

        payloads = [
            run_report().to_dict(),
            json.loads(attribution.to_json()),
            health_report().to_dict(),
            build_profile_report(notes=["empty"]),
            service_report().to_dict(),
        ]
        assert sorted(p["schema"] for p in payloads) == sorted(SCHEMAS)
        for payload in payloads:
            assert validate(payload, payload["schema"]) is payload

    def test_unknown_schema_id_is_named(self):
        with pytest.raises(ValueError, match="senkf-nope/1"):
            validate({"schema": "senkf-nope/1"}, "senkf-nope/1")


class TestFromDictIgnoresExtraKeys:
    """A payload the validator accepts must also load: unknown extra keys
    (fields of older artifacts) are dropped, not passed to the class."""

    @pytest.mark.parametrize("cls, build", [
        (HealthReport, lambda: health_report()),
        (RunReport, lambda: run_report()),
        (ServiceReport, lambda: service_report()),
    ])
    def test_extra_key_round_trips(self, cls, build):
        payload = json.loads(build().to_json())
        payload["written_by_a_later_version"] = {"x": 1}
        validate(payload, payload["schema"])
        report = cls.from_dict(payload)
        assert isinstance(report, cls)
        assert not hasattr(report, "written_by_a_later_version")
        del payload["written_by_a_later_version"]
        assert report.to_dict() == payload

    def test_attribution_rebuilds_rows(self, attribution):
        payload = json.loads(attribution.to_json())
        restored = AttributionReport.from_dict(payload)
        assert json.loads(restored.to_json()) == payload


class TestWriteAndLoad:
    def test_round_trip_picks_schema_from_file(self, tmp_path):
        path = write_report(health_report().to_dict(), tmp_path / "h.json")
        assert load_report(path) == health_report().to_dict()

    def test_invalid_payload_never_hits_disk(self, tmp_path):
        target = tmp_path / "bad.json"
        payload = run_report().to_dict()
        payload["n_cycles"] = -1
        with pytest.raises(ValueError, match="n_cycles must be >= 0"):
            write_report(payload, target)
        assert not target.exists()

    def test_unknown_schema_file_rejected_by_name(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "senkf-unknown/7"}))
        with pytest.raises(ValueError, match="senkf-unknown/7"):
            load_report(path)


# -- doctor --report -----------------------------------------------------------

def _doctor(path) -> int:
    return cli.main(["doctor", "--report", str(path)])


class TestDoctorReport:
    @pytest.mark.parametrize("fraction, status", [(0.2, 1), (0.1, 0)])
    def test_supervision_recovery_tripwire(self, tmp_path, capsys,
                                           fraction, status):
        path = run_report(supervision={
            "restarts": 1, "max_restarts": 3, "recovery_fraction": fraction,
            "recovery_seconds": fraction, "wall_seconds": 1.0,
        }).write(tmp_path / "run_report.json")
        assert _doctor(path) == status
        out, err = capsys.readouterr()
        assert "recovery fraction" in out
        assert ("recovery spend above 15%" in err) == bool(status)

    def test_failed_service_job_trips(self, tmp_path, capsys):
        path = service_report(failed=1).write(tmp_path / "service.json")
        assert _doctor(path) == 1
        out, err = capsys.readouterr()
        assert "assimilation service" in out
        assert "1 job(s) failed" in err

    def test_bare_health_payload_with_critical_alert_trips(
        self, tmp_path, capsys
    ):
        path = health_report().write(tmp_path / "health.json")
        assert _doctor(path) == 1
        out, err = capsys.readouterr()
        assert "ALERT critical: low" in out
        assert "1 critical alert(s) fired" in err

    def test_warning_alert_does_not_trip(self, tmp_path):
        path = health_report("warning").write(tmp_path / "health.json")
        assert _doctor(path) == 0

    def test_service_report_embedded_health_trips(self, tmp_path):
        path = service_report(health=health_report().to_dict()).write(
            tmp_path / "service.json"
        )
        assert _doctor(path) == 1

    def test_report_without_panels_says_so(self, tmp_path, capsys):
        path = run_report().write(tmp_path / "run_report.json")
        assert _doctor(path) == 0
        assert "no supervision, service, health or attribution section" in (
            capsys.readouterr().out
        )

    def test_attribution_renders_dashboard(self, tmp_path, capsys,
                                           attribution):
        path = attribution.write(tmp_path / "attribution.json")
        assert _doctor(path) == 0
        assert "model vs simulator" in capsys.readouterr().out

    def test_unknown_schema_raises_naming_it(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps({"schema": "senkf-mystery/1"}))
        with pytest.raises(ValueError, match="senkf-mystery/1"):
            _doctor(path)

    def test_jobs_reads_the_same_flag(self, tmp_path, capsys):
        path = service_report().write(tmp_path / "service.json")
        assert cli.main(["jobs", "--report", str(path)]) == 0
        assert "job-00000" in capsys.readouterr().out


class TestSimulatorLabel:
    def test_dashboard_header_names_the_simulator(self, attribution):
        lines = attribution.ascii_table().splitlines()
        assert lines[0].startswith("attribution — model vs simulator")
        header = next(line for line in lines if "predicted" in line)
        assert header.split()[:3] == ["phase", "predicted", "simulated"]

    def test_attribution_json_carries_the_simulator_note(
        self, attribution, tmp_path
    ):
        payload = load_report(attribution.write(tmp_path / "a.json"))
        assert SIMULATOR_NOTE in payload["notes"]
        assert "simulator" in SIMULATOR_NOTE
