#!/usr/bin/env python3
"""Regenerate the committed output references from the current program.

    python3 perfbench/make_references.py [des-t1-sweep] [des-scaling] [campaign]

DES outputs are deterministic by construction and are stored exactly
(JSON round-trips every float).  The campaign's per-cycle series are
stored for the default seed (0) and one held-out seed (1) and are
compared at rtol 1e-10.  Regenerate only for a deliberate change of the
program's outputs, and say why in the change's notes.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

CAMPAIGN_SEEDS = (0, 1)


def _des(cls) -> dict:
    ops = {}
    for smoke in (False, True):
        workload = cls()
        workload.build(0, smoke)
        for op in workload.run_pass():
            if op.error is not None:
                raise RuntimeError(f"{op.key} raised {op.error}")
            ops[op.key] = op.output
    return {"ops": dict(sorted(ops.items()))}


def _campaign() -> dict:
    out = {}
    work = run.WORK / "references"
    try:
        for seed in CAMPAIGN_SEEDS:
            workload = workloads.Campaign(work)
            workload.build(seed, smoke=False)
            workload.verify_run()
            record = workload.uninterrupted
            out[str(seed)] = {
                name: [getattr(record, name)[k]
                       for k in range(1, workload.cycles + 1)]
                for name in workloads.CampaignRecord.REFERENCED
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main(argv) -> int:
    wanted = argv or list(run.WORKLOAD_NAMES)
    makers = {
        "des-t1-sweep": (workloads.T1Sweep.reference_file,
                         lambda: _des(workloads.T1Sweep)),
        "des-scaling": (workloads.Scaling.reference_file,
                        lambda: _des(workloads.Scaling)),
        "campaign": (workloads.Campaign.reference_file, _campaign),
    }
    workloads.REFERENCES.mkdir(exist_ok=True)
    for name in wanted:
        filename, make = makers[name]
        path = workloads.REFERENCES / filename
        path.write_text(json.dumps(make(), indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
