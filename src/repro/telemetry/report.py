"""Versioned run reports: one JSON artifact summarising one run.

A :class:`RunReport` is the durable record of a
:class:`~repro.models.twin.TwinExperiment` or
:class:`~repro.checkpoint.runner.CampaignRunner` drive: configuration and
seeds, fault accounting, per-category phase totals, the metrics snapshot
and the per-cycle diagnostic series.  The schema is versioned
(:data:`RUN_REPORT_SCHEMA`, tabled in :mod:`repro.telemetry.schema`) and
:func:`validate_run_report` checks a parsed payload against it — CI runs
that validation on every traced smoke run so the artifact contract can't
drift silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.telemetry.schema import RUN_REPORT_SCHEMA, JsonReport, validate

__all__ = ["RUN_REPORT_SCHEMA", "RunReport", "validate_run_report"]

validate_run_report = partial(validate, schema_id=RUN_REPORT_SCHEMA)


@dataclass
class RunReport(JsonReport):
    """One run's telemetry rollup (see module docstring)."""

    kind: str
    config: dict[str, Any] = field(default_factory=dict)
    seeds: dict[str, Any] = field(default_factory=dict)
    n_cycles: int = 0
    fault_counts: dict[str, float] = field(default_factory=dict)
    phase_totals: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    diagnostics: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: optional predicted-vs-measured join (an
    #: :class:`~repro.telemetry.attribution.AttributionReport` payload);
    #: validated against the attribution schema when present.
    attribution: dict | None = None
    #: optional recovery accounting (a
    #: :class:`~repro.parallel.supervise.SupervisionReport` payload) from
    #: a supervised campaign; must be an object when present.
    supervision: dict | None = None
    #: optional health rollup (a
    #: :class:`~repro.telemetry.health.HealthReport` payload); validated
    #: against the ``senkf-health/1`` schema when present.
    health: dict | None = None
    #: optional resource-observatory slice (a ``senkf-profile/1``
    #: payload from :func:`~repro.telemetry.memprof.build_profile_report`);
    #: validated against that schema when present.
    profile: dict | None = None
    schema: str = RUN_REPORT_SCHEMA
