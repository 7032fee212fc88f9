"""The parallel analysis engine: strategy-selected fan-out.

:class:`AnalysisExecutor` runs the per-piece local analyses of an
:class:`AnalysisPlan` under one of two strategies:

``serial``
    The in-process loop — exactly the classic engine, and the reference
    the process strategy must match bit-for-bit.
``process``
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor` over
    shared-memory ensembles (:mod:`repro.parallel.shared`): workers map
    the background/observation/analysis arrays zero-copy, receive only
    piece descriptors + cached geometry, and write disjoint interior
    rows of the shared analysis array.  The parent prepares chunk
    ``k+1``'s geometry while workers compute chunk ``k`` — the paper's
    prepare/compute overlap.
``auto``
    Picks one of the above from the plan's size (see :meth:`resolve`).

Determinism: both strategies call the same
:func:`~repro.parallel.worker.compute_piece` on the same inputs, pieces
own disjoint interior rows, and all randomness (observation
perturbation) is consumed *before* the plan is built — so serial and
process results are bit-identical.

Supervision (``supervision=``): the process strategy can run under a
:class:`~repro.parallel.supervise.SupervisionPolicy`, which arms it
against real worker failures — a crashed worker (``BrokenProcessPool``)
or a wedged one (a round that blows its cost-model-derived deadline)
tears the pool down (hung workers are killed), respawns it within a
bounded budget, and resubmits the unfinished pieces with seeded
exponential backoff; pieces that exhaust their
:class:`~repro.faults.policy.RetryPolicy` — and, once the respawn budget
is spent, the whole remaining plan — fall back to the in-process serial
path.  Because recovery only ever *recomputes the same pieces on the
same inputs*, a supervised analysis completes bit-identically to the
serial reference whenever any single process can run it.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.parallel.geometry import GeometryCache, PieceGeometry
from repro.parallel.shared import SharedEnsemble
from repro.parallel.supervise import SupervisionPolicy, SupervisionStats
from repro.parallel.worker import KIND_ENKF, compute_piece, run_chunk
from repro.telemetry.metrics import get_metrics
from repro.telemetry.profiler import get_profiler
from repro.telemetry.tracer import get_tracer

__all__ = ["AnalysisExecutor", "AnalysisPlan", "serial_executor"]

STRATEGIES = ("auto", "serial", "process")

#: auto-strategy ceiling on the plan's total expansion points: below it
#: the pool's dispatch and shared-memory overhead beats any win (stay
#: serial); above it the local analyses are heavy enough for processes
#: to buy real concurrency.
_THREAD_POINTS_CEILING = 8_192


@dataclass
class AnalysisPlan:
    """One assimilation call's work-list, data and parameters.

    ``obs`` is the full observation payload (perturbed ``Yˢ`` for the
    EnKF kinds, plain ``y`` for the ETKF); ``params`` are the picklable
    scalars :func:`~repro.parallel.worker.compute_piece` needs; ``out``
    is filled in place (each piece owns its interior rows).
    """

    kind: str
    pieces: list
    states: np.ndarray
    obs: np.ndarray
    out: np.ndarray
    network: object
    params: dict
    cache: GeometryCache = field(default_factory=GeometryCache)

    @property
    def cache_radius(self) -> float | None:
        """Radius to key geometry on (the EnKF kinds cache the stencil)."""
        return self.params.get("radius_km") if self.kind == KIND_ENKF else None

    def prepare(self, index: int) -> tuple[int, object, PieceGeometry]:
        """Resolve one piece's geometry (cached)."""
        piece = self.pieces[index]
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "parallel.prepare", category="parallel", piece=index
            ) as span:
                geometry, cached = self.cache.get(
                    self.network, piece, self.cache_radius
                )
                span.set(cached=cached)
        else:
            geometry, _ = self.cache.get(self.network, piece, self.cache_radius)
        return index, piece, geometry


class AnalysisExecutor:
    """Persistent-pool executor for inline local analyses.

    Parameters
    ----------
    strategy:
        ``auto`` (default), ``serial`` or ``process``.
    workers:
        Pool width; ``None`` uses ``os.cpu_count()``.  Capped by the
        plan's piece count at run time.
    chunks_per_worker:
        Process-strategy load-balance knob: pieces are submitted in
        ``workers * chunks_per_worker`` chunks so a straggler chunk
        cannot serialise the tail.
    supervision:
        A :class:`~repro.parallel.supervise.SupervisionPolicy` arming the
        process strategy against worker crashes and hangs (see module
        docstring); ``None`` (default) keeps the unsupervised fast path,
        where a dead worker aborts the analysis.
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` whose
        *worker* knobs (``worker_crash_rate`` / ``worker_hang_rate``)
        are injected into real pool workers — chaos tests exercise the
        actual recovery machinery.  Other fault classes are ignored
        here; the serial fallback path is deliberately injection-free
        (it is the recovery target).
    """

    def __init__(
        self,
        strategy: str = "auto",
        workers: int | None = None,
        chunks_per_worker: int = 2,
        supervision: SupervisionPolicy | None = None,
        faults=None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunks_per_worker < 1:
            raise ValueError(
                f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
            )
        self.strategy = strategy
        self.workers = workers
        self.chunks_per_worker = int(chunks_per_worker)
        self.supervision = supervision
        self.faults = faults
        self.supervision_stats = SupervisionStats()
        self._lock = threading.Lock()
        self._process_pool: ProcessPoolExecutor | None = None
        self._process_pool_size = 0
        self._call_counter = itertools.count()
        self._closed = False

    # -- strategy selection ----------------------------------------------------
    def effective_workers(self, n_pieces: int) -> int:
        requested = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(int(requested), max(n_pieces, 1)))

    def resolve(self, plan: AnalysisPlan) -> str:
        """The concrete strategy this plan will run under."""
        if self.strategy != "auto":
            return self.strategy
        n_pieces = len(plan.pieces)
        if self.effective_workers(n_pieces) <= 1 or n_pieces < 2:
            return "serial"
        if sum(p.exp_size for p in plan.pieces) < _THREAD_POINTS_CEILING:
            return "serial"
        return "process"

    # -- execution -------------------------------------------------------------
    def run(self, plan: AnalysisPlan) -> int:
        """Analyse every piece of ``plan`` into ``plan.out``; returns the
        number of local analyses performed."""
        if self._closed:
            raise ValueError("executor is closed")
        strategy = self.resolve(plan)
        n_pieces = len(plan.pieces)
        workers = self.effective_workers(n_pieces)
        tracer = get_tracer()
        with tracer.span(
            "parallel.run",
            category="parallel",
            strategy=strategy,
            n_pieces=n_pieces,
            workers=workers if strategy != "serial" else 1,
        ):
            if strategy == "serial":
                self._run_serial(plan)
            else:
                self._run_process(plan, workers)
        if tracer.enabled:
            metrics = get_metrics()
            metrics.counter("parallel.runs").inc()
            metrics.counter("parallel.pieces").inc(n_pieces)
            metrics.gauge("parallel.workers").set(
                workers if strategy != "serial" else 1
            )
            if plan.cache is not None:
                metrics.gauge("geometry.cache_bytes").set(
                    float(plan.cache.nbytes())
                )
        return n_pieces

    # -- serial ----------------------------------------------------------------
    @staticmethod
    def _compute_one(plan: AnalysisPlan, prepared, out) -> None:
        """One piece on the in-process path: same inputs, same rows."""
        index, piece, geometry = prepared
        xb = plan.states[geometry.expansion_flat]
        result = compute_piece(
            plan.kind, piece, xb, plan.obs, geometry, plan.params
        )
        out[geometry.interior_flat] = result

    def _run_serial(self, plan: AnalysisPlan) -> None:
        tracer = get_tracer()
        for i in range(len(plan.pieces)):
            prepared = plan.prepare(i)
            if tracer.enabled:
                with tracer.span(
                    "parallel.local_analysis", category="parallel", piece=i,
                ):
                    self._compute_one(plan, prepared, plan.out)
            else:
                self._compute_one(plan, prepared, plan.out)

    # -- process pool ----------------------------------------------------------
    def _ensure_process_pool(self, workers: int) -> ProcessPoolExecutor:
        with self._lock:
            if self._process_pool is None or self._process_pool_size < workers:
                if self._process_pool is not None:
                    self._process_pool.shutdown(wait=True)
                self._process_pool = ProcessPoolExecutor(max_workers=workers)
                self._process_pool_size = workers
            return self._process_pool

    def _worker_faults_dict(self) -> dict | None:
        """The serialized schedule shipped to workers, or None when clean."""
        if self.faults is not None and getattr(
            self.faults, "has_worker_faults", False
        ):
            return self.faults.to_dict()
        return None

    def _ctx_bytes(self, plan: AnalysisPlan, shm_states, shm_obs, shm_out,
                   tracer) -> bytes:
        """One pickled worker context per executor call."""
        return pickle.dumps(
            {
                "kind": plan.kind,
                "params": plan.params,
                "trace": bool(tracer.enabled),
                # sampling interval for the in-worker profiler, or None;
                # workers only sample while profiling is on in the parent.
                "profile": (
                    get_profiler().interval if get_profiler().enabled
                    else None
                ),
                "states": asdict(shm_states.spec),
                "obs": asdict(shm_obs.spec),
                "out": asdict(shm_out.spec),
                "faults": self._worker_faults_dict(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _run_process(self, plan: AnalysisPlan, workers: int) -> None:
        if self.supervision is not None:
            self._run_process_supervised(plan, workers)
            return
        pool = self._ensure_process_pool(workers)
        token = (id(self), next(self._call_counter))
        n = len(plan.pieces)
        chunk_size = max(1, math.ceil(n / (workers * self.chunks_per_worker)))
        tracer = get_tracer()
        shm_states = SharedEnsemble.from_array(plan.states)
        shm_obs = SharedEnsemble.from_array(plan.obs)
        shm_out = SharedEnsemble.create(plan.out.shape)
        futures = []
        try:
            ctx_bytes = self._ctx_bytes(plan, shm_states, shm_obs, shm_out, tracer)
            # Prepare inline on this thread, submitting each chunk as it
            # fills: workers compute chunk k while the parent prepares
            # chunk k+1.
            chunk: list = []
            for i in range(n):
                chunk.append(plan.prepare(i))
                if len(chunk) >= chunk_size:
                    futures.append(pool.submit(run_chunk, token, ctx_bytes, chunk))
                    chunk = []
            if chunk:
                futures.append(pool.submit(run_chunk, token, ctx_bytes, chunk))
            for future in futures:
                pid, spans, samples = future.result()
                self._merge_worker_spans(tracer, pid, spans)
                self._merge_worker_profile(pid, samples)
            np.copyto(plan.out, shm_out.array)
            if tracer.enabled:
                get_metrics().counter("parallel.chunks").inc(len(futures))
        except BaseException:
            for future in futures:
                future.cancel()
            with self._lock:
                if self._process_pool is pool:
                    self._process_pool = None
                    self._process_pool_size = 0
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        finally:
            shm_states.dispose()
            shm_obs.dispose()
            shm_out.dispose()

    # -- supervised process pool ----------------------------------------------
    def _teardown_process_pool(self, kill: bool = False) -> None:
        """Drop the persistent pool; ``kill`` SIGKILLs wedged workers first.

        ``shutdown(wait=True)`` on a pool with a hung worker would block
        forever, so the supervisor kills the worker processes before
        joining — the management thread then observes the deaths, marks
        the pool broken and exits promptly.
        """
        with self._lock:
            pool, self._process_pool = self._process_pool, None
            self._process_pool_size = 0
        if pool is None:
            return
        if kill:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.kill()
                except Exception:  # already dead / not a Process
                    pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _run_process_supervised(self, plan: AnalysisPlan, workers: int) -> None:
        """Process fan-out that survives crashed and wedged workers.

        Round-based: submit every unfinished piece, wait under a
        deadline, harvest completions.  A ``BrokenProcessPool`` or a
        blown deadline fails the round — the pool is torn down (hung
        workers killed) and respawned within ``max_respawns``, unfinished
        pieces are resubmitted with their attempt count bumped (which
        re-keys the fault-injection draws), and pieces that exhaust the
        retry policy — or every piece, once the respawn budget is spent —
        are recovered on the in-process serial path.  All recovery paths
        recompute identical inputs into identical rows, so the result is
        bit-identical to the serial reference.
        """
        policy = self.supervision
        stats = self.supervision_stats
        metrics = get_metrics()
        tracer = get_tracer()
        n = len(plan.pieces)
        chunk_size = max(1, math.ceil(n / (workers * self.chunks_per_worker)))
        # Prepare everything up front (cached geometry): retry rounds may
        # resubmit any subset, and the prepare/compute overlap matters
        # less than recovery simplicity on the supervised path.
        prepared = [plan.prepare(i) for i in range(n)]
        shm_states = SharedEnsemble.from_array(plan.states)
        shm_obs = SharedEnsemble.from_array(plan.obs)
        shm_out = SharedEnsemble.create(plan.out.shape)
        try:
            ctx_bytes = self._ctx_bytes(plan, shm_states, shm_obs, shm_out, tracer)
            pending = set(range(n))
            attempts = [0] * n
            respawns_left = policy.max_respawns
            piece_seconds: float | None = None  # observed EWMA, overestimate
            futures: dict = {}
            while pending:
                pool = self._ensure_process_pool(workers)
                token = (id(self), next(self._call_counter))
                order = sorted(pending)
                round_t0 = time.perf_counter()
                futures: dict = {}
                for start in range(0, len(order), chunk_size):
                    idx = order[start:start + chunk_size]
                    futures[pool.submit(
                        run_chunk, token, ctx_bytes,
                        [prepared[i] for i in idx], attempts[idx[0]],
                    )] = idx
                deadline = policy.deadline.deadline(len(order), piece_seconds)
                end_by = round_t0 + deadline
                failure: str | None = None
                remaining = dict(futures)
                while remaining and failure is None:
                    timeout = end_by - time.perf_counter()
                    if timeout <= 0.0:
                        failure = "deadline"
                        break
                    done, _ = wait(
                        list(remaining), timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        failure = "deadline"
                        break
                    for future in done:
                        idx = remaining.pop(future)
                        try:
                            pid, spans, samples = future.result()
                        except BrokenProcessPool:
                            failure = "crash"
                            break
                        self._merge_worker_spans(tracer, pid, spans)
                        self._merge_worker_profile(pid, samples)
                        pending.difference_update(idx)
                        observed = (
                            (time.perf_counter() - round_t0) / len(idx)
                        )
                        piece_seconds = (
                            observed if piece_seconds is None
                            else 0.5 * (piece_seconds + observed)
                        )
                if failure is None:
                    break  # every piece confirmed done
                self._recover_round(
                    plan, prepared, shm_out.array, pending, attempts,
                    failure, respawns_left, policy, stats, metrics, tracer,
                )
                if pending:  # a fresh pool will serve the next round
                    respawns_left -= 1
            np.copyto(plan.out, shm_out.array)
            if tracer.enabled:
                metrics.counter("parallel.chunks").inc(len(futures))
        except BaseException:
            self._teardown_process_pool(kill=True)
            raise
        finally:
            shm_states.dispose()
            shm_obs.dispose()
            shm_out.dispose()

    def _recover_round(
        self, plan, prepared, out, pending, attempts,
        failure, respawns_left, policy, stats, metrics, tracer,
    ) -> None:
        """One failed round's recovery: teardown, triage, serial fallback.

        Mutates ``pending``/``attempts`` in place; pieces recovered
        serially are computed into ``out`` immediately and removed from
        ``pending``.
        """
        recovery_t0 = time.perf_counter()
        with tracer.span(
            "parallel.recovery", category="recovery",
            cause=failure, n_pending=len(pending),
        ):
            if failure == "crash":
                stats.worker_crashes += 1
                metrics.counter("parallel.worker_crash").inc()
            else:
                stats.deadline_hits += 1
                metrics.counter("parallel.worker_deadline").inc()
            # Kill wedged workers and drop the pool either way: after a
            # blown deadline the survivors may still be mid-hang, and
            # after a crash the pool is broken beyond reuse.
            self._teardown_process_pool(kill=True)
            failed = sorted(pending)
            for i in failed:
                attempts[i] += 1
            exhausted = [
                i for i in failed
                if not policy.retry.should_retry(attempts[i] - 1)
            ]
            if respawns_left <= 0:
                # Respawn budget spent: no more pools, recover the whole
                # remainder serially (degraded but correct) and warn.
                exhausted = failed
                stats.plan_degrades += 1
                metrics.counter("parallel.degraded_serial").inc()
            retriable = [i for i in failed if i not in set(exhausted)]
            if retriable:
                stats.piece_retries += len(retriable)
                metrics.counter("parallel.piece_retry").inc(len(retriable))
                stats.pool_respawns += 1
                metrics.counter("parallel.pool_respawn").inc()
                backoff = policy.retry.delay(
                    max(attempts[i] for i in retriable) - 1
                )
                if backoff > 0.0:
                    time.sleep(backoff)
            for i in exhausted:
                self._compute_one(plan, prepared[i], out)
                pending.discard(i)
            if exhausted:
                stats.serial_fallback_pieces += len(exhausted)
                metrics.counter("parallel.serial_fallback").inc(len(exhausted))
        elapsed = time.perf_counter() - recovery_t0
        stats.recovery_seconds += elapsed
        metrics.counter("parallel.recovery_seconds").inc(elapsed)

    @staticmethod
    def _merge_worker_spans(tracer, pid: int, spans: list) -> None:
        """Re-base worker ``perf_counter`` spans onto the parent tracer.

        Worker clocks share CLOCK_MONOTONIC with the parent on Linux but
        the tracer clock is injectable, so spans are aligned to end at
        the parent's *receive* time — durations and relative order within
        one worker are preserved exactly.
        """
        if not tracer.enabled or not spans:
            return
        offset = tracer.now() - max(span[3] for span in spans)
        for name, category, start, end, attrs in spans:
            tracer.record(
                name, start + offset, end + offset,
                category=category, track=f"worker-{pid}", **attrs,
            )

    @staticmethod
    def _merge_worker_profile(pid: int, samples: list) -> None:
        """Fold a chunk's in-worker stack samples into the ambient
        profiler under the same ``worker-<pid>`` track the spans use —
        everything a worker samples *is* parallel local analysis, so the
        phase is fixed."""
        if not samples:
            return
        profiler = get_profiler()
        if profiler.enabled:
            profiler.merge_samples(f"worker-{pid}", "parallel", samples)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent pool (idempotent)."""
        self._closed = True
        with self._lock:
            if self._process_pool is not None:
                self._process_pool.shutdown(wait=True)
                self._process_pool = None
                self._process_pool_size = 0

    def __enter__(self) -> "AnalysisExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


_serial_singleton: AnalysisExecutor | None = None


def serial_executor() -> AnalysisExecutor:
    """The shared pool-free executor backing the filters' default path."""
    global _serial_singleton
    if _serial_singleton is None:
        _serial_singleton = AnalysisExecutor(strategy="serial")
    return _serial_singleton
