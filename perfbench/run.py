#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload des-t1-sweep --seed 0 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``des-t1-sweep`` — Fig. 12's ``measured_t1`` on every candidate tuple of
  three I/O budgets, deep-layer tuples included;
* ``des-scaling`` — the Fig. 9 loop (P-EnKF + auto-tuned S-EnKF + phase
  means) at the six default scaling configurations;
* ``campaign`` — a checkpointed twin campaign with inline S-EnKF, one
  simulated crash midway and a resume.

A run sets up (import, inputs, one cold op) five times — four times in
fresh child processes and once in this one — then repeats warm passes of
the workload for ``--seconds``.  Every op's output is checked against the
references under ``perfbench/references`` (and, for the campaign, against
an uninterrupted run of the same seed).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the untraced passes, then runs
one pass under the per-layer wrappers of ``layers.py`` and reports the
per-layer metrics.  All times are host seconds; simulated quantities
carry ``_sim_s`` and are only used as checked outputs.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the host fingerprint.
"""

from __future__ import annotations

import os

#: BLAS threads, pinned before numpy loads (this host has 2 cores).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOAD_NAMES = ("des-t1-sweep", "des-scaling", "campaign")
#: set-up samples per run: this process plus ``SETUP_SAMPLES - 1`` children
SETUP_SAMPLES = 5
#: warm campaign cycles a full run collects at least, so that ten or more
#: lie above the 75th percentile
MIN_CAMPAIGN_CYCLES = 40
#: the timed loop stops by this many seconds whatever the sample count,
#: so a run ends well inside its time limit on a slow host
MAX_TIMED_SECONDS = 90.0
PROBE_TIMEOUT_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- set-up ---------------------------------------------------------------------
def setup(args, work_dir: Path):
    """Import, build the inputs, run the cold op; returns the workload and
    its three set-up timings."""
    t0 = perf_counter()
    import workloads

    t1 = perf_counter()
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(work_dir) if cls is workloads.Campaign else cls()
    workload.build(args.seed, args.smoke)
    t2 = perf_counter()
    workload.cold()
    t3 = perf_counter()
    return workload, {"import_s": t1 - t0, "inputs_s": t2 - t1,
                      "cold_s": t3 - t2}


def probe_setup(args) -> dict:
    """One set-up in a fresh interpreter; the child prints its timings."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- measurement ------------------------------------------------------------------
def timed_passes(workload, seconds: float, min_cycles: int):
    """Warm passes until ``seconds`` have passed and ``min_cycles`` cycle
    ops are collected (at least one pass)."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        ops = workload.run_pass()
        passes.append((perf_counter() - t0, ops))
        elapsed = perf_counter() - start
        cycles = sum(op.cycle for _, pass_ops in passes for op in pass_ops)
        if elapsed >= MAX_TIMED_SECONDS:
            break
        if elapsed >= seconds and cycles >= min_cycles:
            break
    return passes


def traced_pass(workload):
    import workloads
    from layers import LayerTrace

    trace = LayerTrace()
    trace.install(workloads)
    try:
        ops, seconds = trace.root(workload.run_pass)
    finally:
        trace.uninstall()
    return trace, ops, seconds


def fingerprint(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": bool(args.smoke),
        "time_unit": "host seconds (simulated quantities end in _sim_s)",
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def cycle_times(workload, passes) -> list[float]:
    """The latency samples behind ``cycle_p50_s`` and ``cycle_p75_s``.

    Campaign cycles are alike, so every warm cycle of every pass is a
    sample.  A DES pass is a fixed mix of very different simulations, so
    pooling would put the percentile on whichever simulation the pass
    count happens to select; each simulation's mean over the passes is a
    sample instead.  The host's speed wanders from millisecond to minute
    scale, and over a few passes a mean settles faster than a median.
    """
    if workload.pooled_cycles:
        return [op.seconds for _, ops in passes for op in ops if op.cycle]
    by_key: dict[str, list[float]] = {}
    for _, ops in passes:
        for op in ops:
            if op.cycle:
                by_key.setdefault(op.key, []).append(op.seconds)
    return [statistics.fmean(times) for times in by_key.values()]


def end_to_end_metrics(setup_samples, passes, cycles):
    return {
        "setup_s": _metric(statistics.median(
            sum(s.values()) for s in setup_samples), "s"),
        "wall_s": _metric(statistics.fmean(s for s, _ in passes), "s"),
        "cycle_p50_s": _metric(statistics.median(cycles), "s"),
        "cycle_p75_s": _metric(statistics.quantiles(cycles, n=4)[2], "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(setup_samples, untraced_wall, trace, traced_wall,
                      attempted, failed, analysis_rmse):
    from layers import COUNTS, TIMED_LAYERS, share_name

    metrics = {}
    for name in TIMED_LAYERS:
        seconds = trace.self_s.get(name, 0.0)
        metrics[name] = _metric(seconds, "s")
        metrics[share_name(name)] = _metric(seconds / traced_wall, "ratio")
    for name in COUNTS:
        metrics[name] = _metric(trace.counts.get(name, 0), "count")
    for name in ("mpisim.bytes", "io.read_bytes", "checkpoint.bytes"):
        metrics[name]["unit"] = "B"
    events = trace.counts.get("sim.events", 0)
    metrics["sim.us_per_event"] = _metric(
        untraced_wall / events * 1e6 if events else 0.0, "us")
    rows = trace.counts.get("cholesky.rows", 0)
    metrics["cholesky.us_per_row"] = _metric(
        trace.self_s.get("cholesky.s", 0.0) / rows * 1e6 if rows else 0.0,
        "us")
    metrics["geometry.cache_bytes"] = _metric(trace.cache_bytes(), "B")
    for part in ("import_s", "inputs_s", "cold_s"):
        metrics[f"setup.{part}"] = _metric(
            statistics.median(s[part] for s in setup_samples), "s")
    metrics["bench.trace_overhead"] = _metric(traced_wall / untraced_wall,
                                              "ratio")
    metrics["bench.layer_coverage"] = _metric(
        sum(trace.self_s.values()) / traced_wall, "ratio")
    metrics["bench.fail_ratio"] = _metric(failed / attempted, "ratio")
    metrics["filters.analysis_rmse"] = _metric(analysis_rmse, "1")
    return metrics


def _print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:>16.6g} {m['unit']}")


def run(args) -> int:
    work_dir = WORK / f"run-{os.getpid()}"
    if args.probe_setup:
        try:
            _workload, timings = setup(args, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(json.dumps(timings))
        return 0

    try:
        setup_samples = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        workload, timings = setup(args, work_dir)
        setup_samples.append(timings)

        min_cycles = (MIN_CAMPAIGN_CYCLES
                      if args.workload == "campaign" and not args.smoke else 0)
        passes = timed_passes(workload, args.seconds, min_cycles)
        all_ops = [op for _, ops in passes for op in ops]
        traced = None
        if args.trace:
            traced = traced_pass(workload)
            all_ops += traced[1]
        analysis_rmse = 0.0
        if args.workload == "campaign":
            workload.verify_run()
            analysis_rmse = workload.mean_analysis_rmse()
        failures = workload.check(all_ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed = len(all_ops), len(failures)
    pass_times = [s for s, _ in passes]
    cycles = cycle_times(workload, passes)
    p75 = statistics.quantiles(cycles, n=4)[2]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} warm "
          f"passes of {len(passes[0][1])} ops, pass host seconds "
          + " ".join(f"{s:.3f}" for s in pass_times))
    print(f"cycle latency samples: {len(cycles)} "
          f"({sum(t > p75 for t in cycles)} above p75)")
    for message in failures[:20]:
        print(f"FAILED {message}")
    if args.trace:
        trace, _ops, traced_wall = traced
        metrics = per_layer_metrics(
            setup_samples, statistics.fmean(pass_times), trace, traced_wall,
            attempted, failed, analysis_rmse)
        _print_table("per-layer (one traced pass):", metrics)
    else:
        metrics = end_to_end_metrics(setup_samples, passes, cycles)
        _print_table("end to end (untraced):", metrics)
    print(json.dumps({"fingerprint": fingerprint(args)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
