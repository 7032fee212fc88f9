"""The report contract: one schema table, one validator, writer and loader.

Every artifact that explains a run is one of five versioned JSON
reports — run (:class:`~repro.telemetry.report.RunReport`), attribution
(:class:`~repro.telemetry.attribution.AttributionReport`), health
(:class:`~repro.telemetry.health.HealthReport`), profile
(:func:`~repro.telemetry.memprof.build_profile_report`) and service
(:class:`~repro.service.report.ServiceReport`).  Their schemas live here
and nowhere else: :data:`SCHEMAS` maps each schema id to a declarative
table of :class:`Field` specs, and :func:`validate` walks any payload
against its table, naming *every* violation by path
(``phase_totals['io']``, ``alerts[0] missing key 'rule'``,
``attribution: …``) in one
``ValueError``.

Unknown extra keys are accepted on purpose: artifacts written by older
code (carrying fields since removed) must keep loading.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "HEALTH_SCHEMA",
    "PROFILE_SCHEMA",
    "RUN_REPORT_SCHEMA",
    "SCHEMAS",
    "SERVICE_REPORT_SCHEMA",
    "Field",
    "JsonReport",
    "load_report",
    "validate",
    "write_report",
]

RUN_REPORT_SCHEMA = "senkf-run-report/1"
ATTRIBUTION_SCHEMA = "senkf-attribution/1"
HEALTH_SCHEMA = "senkf-health/1"
PROFILE_SCHEMA = "senkf-profile/1"
SERVICE_REPORT_SCHEMA = "senkf-service-report/1"

#: the phases the cost model prices (Eqs. 7–9), in display order.
MODEL_PHASES = ("read", "comm", "comp")

NUMBER = (int, float)


@dataclass(frozen=True)
class Field:
    """One value's contract.

    ``type`` is the accepted Python type(s) of the parsed JSON value
    (``None``: anything); ``nullable`` also accepts JSON null and
    ``optional`` lets the key be absent.  ``minimum`` is a lower bound
    (exclusive with ``exclusive``), closed into ``[minimum, maximum]``
    when ``maximum`` is set.  ``each`` applies to every list item or
    object value, ``keys`` names the required keys of an object row (an
    ``optional`` spec there may be absent), and ``schema`` embeds a whole
    report validated against its own table.
    """

    type: type | tuple[type, ...] | None = None
    nullable: bool = False
    optional: bool = False
    minimum: float | None = None
    exclusive: bool = False
    maximum: float | None = None
    choices: tuple | None = None
    each: "Field | None" = None
    keys: "Mapping[str, Field] | None" = None
    schema: str | None = None


ANY = Field()
NON_NEGATIVE = Field(NUMBER, minimum=0)
COUNT = Field(int, minimum=0)
MAYBE_NUMBER = Field(NUMBER, nullable=True)


def _keys(*names: str, spec: Field = ANY, **typed: Field) -> dict[str, Field]:
    """Row keys: each of ``names`` checked against ``spec``, plus ``typed``."""
    return {**dict.fromkeys(names, spec), **typed}


def _rows(*names: str) -> Field:
    """A list of objects that each carry ``names``."""
    return Field(list, each=Field(dict, keys=_keys(*names)))


def _embedded(schema_id: str) -> Field:
    return Field(optional=True, nullable=True, schema=schema_id)


def _report(title: str, **keys: Field) -> tuple[str, dict[str, Field]]:
    return title, {"schema": Field(str), **keys}


_PHASE_ROW = Field(dict, keys=_keys(
    "predicted", "measured", "abs_error", spec=Field(NUMBER),
    phase=Field(str, choices=MODEL_PHASES), rel_error=MAYBE_NUMBER,
))

#: schema id -> (title, top-level keys): the whole report contract.
SCHEMAS: dict[str, tuple[str, dict[str, Field]]] = {
    RUN_REPORT_SCHEMA: _report(
        "run report",
        kind=Field(str), config=Field(dict), seeds=Field(dict),
        n_cycles=COUNT,
        fault_counts=Field(dict, each=Field(NUMBER)),
        phase_totals=Field(dict, each=NON_NEGATIVE),
        metrics=Field(dict, keys=_keys(
            "counters", "gauges", "histograms",
            spec=Field(dict, optional=True),
        )),
        diagnostics=Field(dict, each=Field(list, each=Field(NUMBER))),
        notes=Field(list),
        supervision=Field(dict, optional=True, nullable=True),
        attribution=_embedded(ATTRIBUTION_SCHEMA),
        health=_embedded(HEALTH_SCHEMA), profile=_embedded(PROFILE_SCHEMA),
    ),
    ATTRIBUTION_SCHEMA: _report(
        "attribution report",
        threshold=Field(NUMBER, minimum=0, exclusive=True),
        constants=Field(dict), fit=Field(dict),
        cycles=Field(list, each=Field(dict, keys=_keys(
            "retry_seconds", "makespan", "predicted_total", spec=Field(NUMBER),
            cycle=Field(int), config=Field(dict),
            phases=Field(list, each=_PHASE_ROW),
        ))),
        aggregate=Field(list, each=_PHASE_ROW),
        retry_seconds=Field(NUMBER),
        drift_flags=Field(list, each=Field(str)),
        metrics=Field(dict), notes=Field(list),
    ),
    HEALTH_SCHEMA: _report(
        "health report",
        kind=Field(str), n_evaluations=COUNT,
        series=Field(dict, each=Field(list, each=MAYBE_NUMBER)),
        alerts=_rows("rule", "metric", "cycle", "value", "threshold", "op",
                     "severity"),
        rules=_rows("name", "metric", "op", "threshold", "sustained",
                    "severity"),
        last=Field(dict, each=MAYBE_NUMBER), notes=Field(list),
    ),
    PROFILE_SCHEMA: _report(
        "profile report",
        sampler=Field(dict, nullable=True, keys=_keys(
            "interval", "n_sweeps", "n_samples", "phase_samples", "top_stacks",
            attributed_fraction=Field(NUMBER, minimum=0, maximum=1),
        )),
        memory=Field(dict, nullable=True, keys=_keys(
            "baseline_rss_bytes", "current_rss_bytes", "peak_rss_bytes",
            "tracemalloc", "phases",
            shm=Field(dict, keys=_keys(
                "created_count", "created_bytes", "disposed_count",
                "disposed_bytes", "gc_reclaimed_count", "gc_reclaimed_bytes",
                "live_count", "live_bytes", "live_segments",
            )),
        )),
        footprint=Field(dict, nullable=True, keys=_keys(
            "predicted_peak_rss_bytes", "measured_peak_rss_bytes",
            "threshold", "drift_flags", rel_error=MAYBE_NUMBER,
        )),
        notes=Field(list, each=Field(str)),
    ),
    SERVICE_REPORT_SCHEMA: _report(
        "service report",
        kind=Field(str), total_slots=COUNT, wall_seconds=NON_NEGATIVE,
        jobs=_rows("job_id"),
        tenants=Field(dict, each=Field(dict, keys={
            **_keys("submitted", "done", "failed", "cancelled",
                    "preemptions", "restarts", spec=COUNT),
            **_keys("predicted_slot_seconds", "actual_slot_seconds",
                    "queue_wait_seconds", spec=NON_NEGATIVE),
        })),
        metrics=Field(dict),
        phase_totals=Field(dict, each=NON_NEGATIVE),
        notes=Field(list), health=_embedded(HEALTH_SCHEMA),
    ),
}

_JSON_TYPES = {
    NUMBER: "number", dict: "object", list: "list", str: "string",
    bool: "boolean", int: "integer", float: "number", type(None): "null",
}


def _type_name(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _check(value, spec: Field, path: str, errors: list[str]) -> None:
    """Append every violation of ``value`` against ``spec`` to ``errors``."""
    if value is None and spec.nullable:
        return
    if spec.schema is not None:
        try:
            validate(value, spec.schema)
        except ValueError as exc:
            errors.append(f"{path}: {exc}")
        return
    if spec.type is not None and not isinstance(value, spec.type):
        errors.append(
            f"{path} must be {_JSON_TYPES[spec.type]}"
            f"{' or null' if spec.nullable else ''}, got {_type_name(value)}"
        )
        return
    if spec.maximum is not None and not spec.minimum <= value <= spec.maximum:
        errors.append(
            f"{path} must be in [{spec.minimum:g}, {spec.maximum:g}], "
            f"got {value!r}"
        )
    elif spec.minimum is not None and (
        value <= spec.minimum if spec.exclusive else value < spec.minimum
    ):
        errors.append(
            f"{path} must be {'>' if spec.exclusive else '>='} "
            f"{spec.minimum:g}, got {value!r}"
        )
    if spec.choices is not None and value not in spec.choices:
        errors.append(
            f"{path} must be one of {list(spec.choices)}, got {value!r}"
        )
    if spec.each is not None:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _check(item, spec.each, f"{path}[{key!r}]", errors)
    for key, row_spec in (spec.keys or {}).items():
        if key in value:
            _check(value[key], row_spec, f"{path}.{key}" if path else key,
                   errors)
        elif not row_spec.optional:
            errors.append(f"{path + ' ' if path else ''}missing key {key!r}")


def validate(payload, schema_id: str) -> dict:
    """Check one parsed payload against the ``schema_id`` table.

    Returns the payload on success; raises ``ValueError`` naming every
    violation at once (``"invalid <title>: "`` + ``"; "``-joined).  A
    wrong type or missing key never hides the checks of its siblings or
    of other sections.
    """
    try:
        title, keys = SCHEMAS[schema_id]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown report schema {schema_id!r} "
            f"(known: {', '.join(SCHEMAS)})"
        ) from None
    if not isinstance(payload, dict):
        raise ValueError(
            f"{title} must be a JSON object, got {_type_name(payload)}"
        )
    errors: list[str] = []
    _check(payload, Field(dict, keys=keys), "", errors)
    found = payload.get("schema")
    if isinstance(found, str) and found != schema_id:
        errors.append(f"unknown schema {found!r} (expected {schema_id!r})")
    if errors:
        raise ValueError(f"invalid {title}: " + "; ".join(errors))
    return payload


def _coerce(value):
    """JSON fallback: numpy scalars and arrays become Python values."""
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    return str(value)


def write_report(payload: dict, path: str | Path) -> Path:
    """Validate ``payload`` against the schema it names, then write it.

    The payload is JSON round-tripped first (numpy values coerced), so
    what is validated is exactly what lands on disk; an invalid report
    never hits disk.
    """
    payload = json.loads(json.dumps(payload, default=_coerce))
    validate(payload, payload.get("schema"))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_report(path: str | Path) -> dict:
    """Read a report artifact; its ``schema`` id picks the table.

    Raises ``ValueError`` naming the id when it is not one of
    :data:`SCHEMAS`, or naming every violation when the payload does
    not match its table.
    """
    payload = json.loads(Path(path).read_text())
    schema_id = payload.get("schema") if isinstance(payload, dict) else None
    return validate(payload, schema_id)


class JsonReport:
    """JSON round-trip shared by the dataclass reports.

    The subclass is a dataclass whose ``schema`` field defaults to its
    schema id; :meth:`from_dict` validates against that id and passes
    only the dataclass's own fields, so extra keys of older artifacts
    are dropped rather than rejected.
    """

    schema: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=_coerce)

    def write(self, path: str | Path) -> Path:
        """Validate and write; an invalid report never hits disk."""
        return write_report(self.to_dict(), path)

    @classmethod
    def from_dict(cls, payload: dict):
        validate(payload, cls.schema)
        names = {f.name for f in fields(cls) if f.init}
        return cls(**{k: v for k, v in payload.items() if k in names})
