"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark in smoke mode through its command line, check the
result line against ``BENCHMARK.json``, check that every per-layer count
repeats exactly across two traced runs, and show that a perturbed
reference or a resumed run that drifts from the uninterrupted one is
counted as a failed op.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "B")


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_result_line(workload):
    result = _result(_run(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for spec in BENCHMARK["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_per_layer_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, trace=1)) for _ in range(2))
    names = {spec["name"]: spec["unit"] for spec in BENCHMARK["per_layer"]}
    assert set(first["metrics"]) == set(names)
    for name, unit in names.items():
        assert first["metrics"][name]["unit"] == unit
        if unit in EXACT_UNITS:
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]


def test_stripped_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("des-t1-sweep", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _nudged(reference: dict, path: tuple, factor: float | None = None):
    """A deep copy of ``reference`` with the float at ``path`` moved one
    ulp up, or scaled by ``factor``."""
    copy = json.loads(json.dumps(reference))
    node = copy
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    node[path[-1]] = (math.nextafter(value, math.inf) if factor is None
                      else value * factor)
    return copy


def test_perturbed_des_reference_is_flagged(monkeypatch):
    sweep = workloads.T1Sweep()
    sweep.build(0, smoke=True)
    ops = sweep.run_pass()
    assert sweep.check(ops) == []
    reference = workloads.load_reference(sweep.reference_file)
    key = ops[0].key
    perturbed = _nudged(reference, ("ops", key, "t1_sim_s"))
    monkeypatch.setattr(workloads, "load_reference", lambda name: perturbed)
    failures = sweep.check(ops)
    assert len(failures) == 1 and failures[0].startswith(key)


def test_campaign_reference_and_resume_checks(monkeypatch, tmp_path):
    campaign = workloads.Campaign(tmp_path)
    campaign.build(0, smoke=False)
    ops = campaign.run_pass()
    assert campaign.check(ops) == []
    assert [op.key for op in ops if not op.cycle] == ["resume"]

    reference = workloads.load_reference(campaign.reference_file)
    within = _nudged(reference, ("0", "analysis_rmse", 2), 1 + 1e-12)
    monkeypatch.setattr(workloads, "load_reference", lambda name: within)
    assert campaign.check(ops) == []
    beyond = _nudged(reference, ("0", "analysis_rmse", 2), 1 + 1e-9)
    monkeypatch.setattr(workloads, "load_reference", lambda name: beyond)
    assert [f.split(":")[:2] for f in campaign.check(ops)] == [["cycle", "3"]]

    monkeypatch.setattr(workloads, "load_reference", lambda name: reference)
    campaign.uninterrupted.sha256[7] = "0" * 64
    failures = campaign.check(ops)
    assert {f.split(": ")[0] for f in failures} == {"cycle:7", "resume"}
