"""Bench regression sentinel: an append-only history with drift verdicts.

The repo's benches have so far written *write-once* artifacts
(``BENCH_parallel.json``, ``BENCH_telemetry.json``) — each run overwrites
the last, so nobody can tell whether today's numbers drifted.  This
module turns them into a trajectory:

* every bench appends one schema-versioned JSON line to a shared
  ``BENCH_history.jsonl`` (:func:`append_history`);
* :func:`check_regression` compares a fresh sample against a robust
  baseline — the median ± MAD of the last ``k`` samples recorded on the
  same host fingerprint — and emits a pass/warn/fail/no-baseline
  :class:`SentinelVerdict` per metric;
* :func:`sentinel_report` renders the latest entry of every bench next
  to its baseline for the ``senkf-experiments bench-report`` CLI verb,
  and the ``bench-sentinel`` CI job fails the build on a ``fail``.

Median/MAD (not mean/stddev) so one noisy CI run cannot poison the
baseline, with a relative floor so a perfectly flat history doesn't turn
the sentinel into a zero-tolerance tripwire.  Baselines never pool hosts:
only entries whose :func:`host_fingerprint` (cpu count, smoke flag)
matches the fresh sample's feed its baseline, and a metric without
enough of them is reported as ``no-baseline`` — never as a pass.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "BENCH_HISTORY_SCHEMA",
    "BenchEntry",
    "SentinelVerdict",
    "append_history",
    "check_regression",
    "host_fingerprint",
    "read_history",
    "robust_baseline",
    "sentinel_report",
]

BENCH_HISTORY_SCHEMA = "senkf-bench-history/1"

#: default window of trailing samples the baseline is computed over.
DEFAULT_WINDOW = 8
#: MAD multiples at which a higher-is-worse metric warns / fails.
DEFAULT_WARN_MADS = 3.0
DEFAULT_FAIL_MADS = 6.0
#: floor on the tolerance band, as a fraction of the median — a flat
#: history has MAD 0 and would otherwise fail on any jitter at all.
RELATIVE_FLOOR = 0.10
#: minimum history size before the sentinel renders real verdicts.
MIN_HISTORY = 3
#: verdict severities, mildest first (the overall verdict is the worst).
_SEVERITY = ("pass", "no-baseline", "warn", "fail")


def _label(status: str) -> str:
    """Upper-case display form of a status (``PASS``, ``NO BASELINE``)."""
    return status.replace("-", " ").upper()


def host_fingerprint(context: dict | None) -> tuple:
    """The part of an entry's context that makes timings comparable.

    ``cpu_count`` and the ``smoke`` flag: a 2-core smoke run and a
    16-core full run of the same bench are different baselines.
    Entries that never recorded them share the ``(None, False)`` print.
    """
    context = context or {}
    return context.get("cpu_count"), bool(context.get("smoke", False))


@dataclass(frozen=True)
class BenchEntry:
    """One appended history line: a bench's metric values plus context."""

    bench: str
    values: dict[str, float]
    context: dict = field(default_factory=dict)
    timestamp: float = 0.0
    schema: str = BENCH_HISTORY_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "bench": self.bench,
            "timestamp": self.timestamp,
            "values": dict(self.values),
            "context": dict(self.context),
        }


def append_history(
    path: str | Path,
    bench: str,
    values: dict[str, float],
    context: dict | None = None,
    timestamp: float | None = None,
) -> BenchEntry:
    """Append one entry to the shared history file (created on demand).

    ``values`` maps metric keys (e.g. ``wall_seconds``) to numbers —
    lower is worse-proof: the sentinel treats larger values as regressions,
    so record times/counts, not rates.
    """
    if not bench:
        raise ValueError("bench name must be non-empty")
    clean: dict[str, float] = {}
    for key, value in values.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"values[{key!r}] must be finite, got {value}")
        clean[key] = value
    if not clean:
        raise ValueError("values must contain at least one metric")
    entry = BenchEntry(
        bench=bench,
        values=clean,
        context=dict(context or {}),
        timestamp=time.time() if timestamp is None else float(timestamp),
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
    return entry


def read_history(
    path: str | Path, bench: str | None = None
) -> list[BenchEntry]:
    """Parse the history file (missing file → empty list).

    Lines that do not parse or carry an unknown schema are *skipped*, not
    fatal: an append-only log accreted across versions must stay readable
    even when one old line predates a schema bump.
    """
    path = Path(path)
    if not path.exists():
        return []
    entries: list[BenchEntry] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != BENCH_HISTORY_SCHEMA
            or not isinstance(payload.get("values"), dict)
            or not payload.get("bench")
        ):
            continue
        entry = BenchEntry(
            bench=str(payload["bench"]),
            values={
                k: float(v)
                for k, v in payload["values"].items()
                if isinstance(v, (int, float)) and math.isfinite(float(v))
            },
            context=payload.get("context") or {},
            timestamp=float(payload.get("timestamp") or 0.0),
        )
        if bench is None or entry.bench == bench:
            entries.append(entry)
    return entries


def _median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def robust_baseline(samples: Iterable[float]) -> tuple[float, float]:
    """(median, MAD) of a sample set — the sentinel's baseline statistic."""
    samples = list(samples)
    if not samples:
        raise ValueError("robust_baseline needs at least one sample")
    med = _median(samples)
    mad = _median([abs(s - med) for s in samples])
    return med, mad


@dataclass(frozen=True)
class SentinelVerdict:
    """One metric's comparison against its baseline."""

    bench: str
    key: str
    status: str  # "pass" | "warn" | "fail" | "no-baseline"
    current: float
    median: float | None = None
    mad: float | None = None
    n_history: int = 0
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    @property
    def label(self) -> str:
        return _label(self.status)


def check_regression(
    history: Sequence[BenchEntry],
    bench: str,
    values: dict[str, float],
    window: int = DEFAULT_WINDOW,
    warn_mads: float = DEFAULT_WARN_MADS,
    fail_mads: float = DEFAULT_FAIL_MADS,
    min_history: int = MIN_HISTORY,
    context: dict | None = None,
) -> list[SentinelVerdict]:
    """Verdict per metric of ``values`` against the trailing baseline.

    The baseline for each key is median ± MAD over the last ``window``
    history entries of ``bench`` that carry the key and whose
    :func:`host_fingerprint` matches the fresh sample's ``context`` (the
    fresh sample is *not* part of its own baseline).  A value above
    ``median + warn_mads·band`` warns, above ``median + fail_mads·band``
    fails, where ``band = max(MAD, RELATIVE_FLOOR·|median|)``.  Values
    *below* the baseline never fail — faster is not a regression.  With
    fewer than ``min_history`` matching samples the status is
    ``no-baseline`` (with an "insufficient history" note): a new bench or
    host seeds its trajectory without a verdict it has not earned.
    """
    if warn_mads > fail_mads:
        raise ValueError(
            f"warn_mads ({warn_mads}) must be <= fail_mads ({fail_mads})"
        )
    verdicts: list[SentinelVerdict] = []
    host = host_fingerprint(context)
    mine = [
        e for e in history
        if e.bench == bench and host_fingerprint(e.context) == host
    ]
    for key, current in sorted(values.items()):
        current = float(current)
        samples = [e.values[key] for e in mine if key in e.values][-window:]
        if len(samples) < min_history:
            verdicts.append(
                SentinelVerdict(
                    bench=bench, key=key, status="no-baseline",
                    current=current, n_history=len(samples),
                    reason=(
                        f"insufficient history: {len(samples)} of "
                        f"{min_history} samples on this host fingerprint"
                    ),
                )
            )
            continue
        median, mad = robust_baseline(samples)
        band = max(mad, RELATIVE_FLOOR * abs(median))
        excess = (current - median) / band if band > 0 else (
            0.0 if current <= median else math.inf
        )
        if excess > fail_mads:
            status = "fail"
        elif excess > warn_mads:
            status = "warn"
        else:
            status = "pass"
        verdicts.append(
            SentinelVerdict(
                bench=bench, key=key, status=status, current=current,
                median=median, mad=mad, n_history=len(samples),
                reason=(
                    f"{current:.4g} vs median {median:.4g} "
                    f"(+{excess:.1f} bands)" if excess > 0 else
                    f"{current:.4g} vs median {median:.4g}"
                ),
            )
        )
    return verdicts


def sentinel_report(
    path: str | Path,
    window: int = DEFAULT_WINDOW,
    warn_mads: float = DEFAULT_WARN_MADS,
    fail_mads: float = DEFAULT_FAIL_MADS,
) -> tuple[str, list[SentinelVerdict]]:
    """Render the newest entry of every bench against its own baseline.

    Returns ``(text, verdicts)`` where ``verdicts`` covers every metric of
    every bench's most recent entry (judged against the history *before*
    that entry).
    """
    entries = read_history(path)
    if not entries:
        return f"bench history: no entries at {path}", []
    by_bench: dict[str, list[BenchEntry]] = {}
    for entry in entries:
        by_bench.setdefault(entry.bench, []).append(entry)
    lines = [
        f"bench sentinel — {len(entries)} entries, "
        f"{len(by_bench)} bench(es), window={window}"
    ]
    lines.append(
        f"  {'bench':<28} {'metric':<18} {'current':>10} {'median':>10} "
        f"{'n':>3} {'peak RSS':>9}  verdict"
    )
    all_verdicts: list[SentinelVerdict] = []
    for bench in sorted(by_bench):
        *prior, latest = by_bench[bench]
        verdicts = check_regression(
            prior, bench, latest.values,
            window=window, warn_mads=warn_mads, fail_mads=fail_mads,
            context=latest.context,
        )
        all_verdicts.extend(verdicts)
        # Memory column: the bench's latest recorded peak RSS, shown on
        # its first row (benches predating the memory sentinel show -).
        rss = latest.values.get("peak_rss_bytes")
        rss_text = f"{rss / 1e6:.0f} MB" if rss else "-"
        for i, v in enumerate(verdicts):
            median = f"{v.median:.4g}" if v.median is not None else "-"
            lines.append(
                f"  {bench:<28} {v.key:<18} {v.current:>10.4g} {median:>10} "
                f"{v.n_history:>3} {(rss_text if i == 0 else ''):>9}  "
                f"{v.label}"
                + (f" ({v.reason})" if v.status != "pass" else "")
            )
    worst = max(
        (v.status for v in all_verdicts), key=_SEVERITY.index, default="pass"
    )
    lines.append(f"  overall: {_label(worst)}")
    return "\n".join(lines), all_verdicts
