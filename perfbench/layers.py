"""Per-layer tracing installed from the benchmark's own files.

Nothing under ``src/`` is changed: :class:`LayerTrace` replaces public
functions and methods at the names their callers look up (a module global
or a class attribute) with wrappers that time the call and count its work,
and puts the originals back on :meth:`LayerTrace.uninstall`.

Timing follows the usual self-time rule: a wrapper keeps a stack of open
frames, and a layer's self time is its span's duration minus the time of
the wrapped calls made inside it.  A call into a layer that is already the
innermost open frame (``step_ensemble`` calling ``step``,
``mean_phase_times`` calling ``mean_phase_totals``) is folded into that
frame, so nothing is counted twice.  Counts are taken at the same
boundaries and are deterministic for a deterministic pass.
"""

from __future__ import annotations

import functools
import os
from importlib import import_module
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: timed layers: metric name of the self time -> what it wraps
TIMED_LAYERS = {
    "sim.run_s": "sim.core Environment.run (event loop, process bodies, mpisim, io)",
    "des.senkf_s": "filters simulate_senkf (orchestration set-up, report)",
    "des.penkf_s": "filters simulate_penkf (orchestration set-up, report)",
    "trace.query_s": "sim.trace Timeline.intervals",
    "trace.aggregate_s": "sim.trace Timeline.total / mean_phase_totals, "
                         "SimReport.mean_phase_times",
    "tuning.solve_s": "tuning solve_optimization_model (Algorithm 1)",
    "tuning.autotune_s": "tuning autotune (Algorithm 2)",
    "models.forecast_s": "models AdvectionDiffusionModel.step / step_ensemble",
    "models.observe_s": "core ObservationNetwork.observe",
    "filters.assimilate_s": "filters DistributedEnKF.assimilate",
    "parallel.run_s": "parallel AnalysisExecutor.run",
    "geometry.get_s": "parallel.geometry GeometryCache.get",
    "cholesky.s": "core modified_cholesky_inverse",
    "analysis.solve_s": "core analysis_precision_form",
    "checkpoint.save_s": "checkpoint CheckpointStore.save",
    "checkpoint.load_s": "checkpoint CheckpointStore.load_best",
}

COUNTS = (
    "sim.events",
    "mpisim.messages",
    "mpisim.bytes",
    "io.reads",
    "io.read_bytes",
    "trace.records",
    "parallel.pieces",
    "geometry.hits",
    "geometry.misses",
    "cholesky.calls",
    "cholesky.rows",
    "analysis.solve_calls",
    "checkpoint.saves",
    "checkpoint.bytes",
)


def share_name(time_metric: str) -> str:
    """``cholesky.s`` -> ``cholesky.share``, ``des.senkf_s`` -> ``des.senkf_share``."""
    return time_metric[:-1] + "share"


def _dir_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _dirs, files in os.walk(path)
        for name in files
    )


class LayerTrace:
    """Self time and counts per layer while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: geometry caches seen by ``GeometryCache.get``, by identity
        self.caches: dict[int, object] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def cache_bytes(self) -> int:
        """Bytes held by every geometry cache the traced pass used."""
        return sum(cache.nbytes() for cache in self.caches.values())

    # -- wrappers ------------------------------------------------------------
    def _timed(self, layer: str, fn, count=None):
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def time(self, owner, attr: str, layer: str, count=None) -> None:
        """Time ``owner.attr`` as ``layer``; ``count(args, kwargs, result)``
        runs after the call, outside the timed frame."""
        self._patch(owner, attr, self._timed(layer, getattr(owner, attr), count))

    def tally(self, owner, attr: str, count) -> None:
        """Count calls of ``owner.attr`` without timing them (used for the
        per-event and per-message paths and for generator functions,
        whose call only builds the generator)."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(args, kwargs)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def root(self, fn):
        """Run ``fn()`` as the traced body; returns ``(result, seconds)``.

        The body's own frame is not a layer: time outside every wrapped
        call is left unattributed, which is what the coverage figure
        (named layers' self time over traced wall time) measures.
        """
        frame = ["bench", 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - t0
            self._stack.pop()
        return result, elapsed

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the repository's layers ---------------------------------------------
    def install(self, use_sites) -> None:
        """Install every layer wrapper.

        ``use_sites`` is the benchmark's workload module: the DES entry
        points it calls are patched on it, like every other caller's
        binding.
        """
        # import_module: ``repro.tuning.autotune`` is shadowed on its
        # package by the function of the same name.
        analysis_mod = import_module("repro.core.analysis")
        fig12_mod = import_module("repro.experiments.fig12")
        penkf_mod = import_module("repro.filters.penkf")
        senkf_mod = import_module("repro.filters.senkf")
        execute_mod = import_module("repro.io.execute")
        autotune_mod = import_module("repro.tuning.autotune")
        from repro.checkpoint.store import CheckpointStore
        from repro.core.observations import ObservationNetwork
        from repro.filters.base import SimReport
        from repro.filters.distributed import DistributedEnKF
        from repro.models.advection import AdvectionDiffusionModel
        from repro.mpisim.comm import RankContext
        from repro.parallel.executor import AnalysisExecutor
        from repro.parallel.geometry import GeometryCache
        from repro.sim.core import Environment
        from repro.sim.trace import Timeline

        counts = self.counts

        # sim.core: one count per processed event; the loop itself is timed.
        def count_event(args, kwargs):
            counts["sim.events"] += 1

        self.tally(Environment, "step", count_event)
        self.time(Environment, "run", "sim.run_s")

        # mpisim / io: counts at the message and read boundaries.
        def count_message(args, kwargs):
            nbytes = kwargs["nbytes"] if "nbytes" in kwargs else args[2]
            counts["mpisim.messages"] += 1
            counts["mpisim.bytes"] += int(nbytes)

        self.tally(RankContext, "send", count_message)

        def count_read(args, kwargs):
            counts["io.reads"] += 1
            nbytes = kwargs["nbytes"] if "nbytes" in kwargs else args[5]
            counts["io.read_bytes"] += int(nbytes)

        for module in (senkf_mod, penkf_mod, execute_mod):
            self.tally(module, "simulate_op_read", count_read)

        # filters (simulate): self time of the orchestration builders.
        def count_records(args, kwargs, report):
            counts["trace.records"] += len(report.timeline.records)

        self.time(fig12_mod, "simulate_senkf", "des.senkf_s", count_records)
        self.time(senkf_mod, "simulate_senkf", "des.senkf_s", count_records)
        self.time(use_sites, "simulate_penkf", "des.penkf_s", count_records)

        # sim.trace: queries and aggregations over the phase timeline.
        self.time(Timeline, "intervals", "trace.query_s")
        for attr in ("total", "mean_phase_totals"):
            self.time(Timeline, attr, "trace.aggregate_s")
        self.time(SimReport, "mean_phase_times", "trace.aggregate_s")

        # tuning: Algorithm 1 wherever it is called, Algorithm 2 in S-EnKF.
        for module in (use_sites, autotune_mod):
            self.time(module, "solve_optimization_model", "tuning.solve_s")
        self.time(senkf_mod, "autotune", "tuning.autotune_s")

        # models
        for attr in ("step", "step_ensemble"):
            self.time(AdvectionDiffusionModel, attr, "models.forecast_s")
        self.time(ObservationNetwork, "observe", "models.observe_s")

        # filters / parallel.executor / parallel.geometry
        self.time(DistributedEnKF, "assimilate", "filters.assimilate_s")

        def count_pieces(args, kwargs, result):
            counts["parallel.pieces"] += len(args[1].pieces)

        self.time(AnalysisExecutor, "run", "parallel.run_s", count_pieces)

        def count_geometry(args, kwargs, result):
            counts["geometry.hits" if result[1] else "geometry.misses"] += 1
            self.caches[id(args[0])] = args[0]

        self.time(GeometryCache, "get", "geometry.get_s", count_geometry)

        # core.cholesky / core.analysis, patched where local_analysis looks
        # them up.
        def count_cholesky(args, kwargs, result):
            counts["cholesky.calls"] += 1
            counts["cholesky.rows"] += int(args[0].shape[0])

        self.time(analysis_mod, "modified_cholesky_inverse", "cholesky.s",
                  count_cholesky)

        def count_solve(args, kwargs, result):
            counts["analysis.solve_calls"] += 1

        self.time(analysis_mod, "analysis_precision_form", "analysis.solve_s",
                  count_solve)

        # checkpoint / data
        def count_save(args, kwargs, path):
            counts["checkpoint.saves"] += 1
            counts["checkpoint.bytes"] += _dir_bytes(path)

        self.time(CheckpointStore, "save", "checkpoint.save_s", count_save)
        self.time(CheckpointStore, "load_best", "checkpoint.load_s")
