"""Parallel execution engine for the inline analysis filters.

Three layers, composable and individually testable:

* :mod:`repro.parallel.shared` — zero-copy ``(n, N)`` ensembles in
  POSIX shared memory with an explicit create/close/unlink lifecycle;
* :mod:`repro.parallel.geometry` — memoised cycle-invariant per-piece
  geometry (observation restriction, index arrays, Cholesky stencil);
* :mod:`repro.parallel.executor` — the strategy-selected fan-out
  (serial / process / auto), the process strategy preparing chunk
  ``k+1``'s geometry while workers compute chunk ``k``;
* :mod:`repro.parallel.supervise` — worker supervision policies
  (deadlines, retry, respawn budgets) and the recovery accounting that
  makes the process strategy self-healing under crashed or wedged
  workers.

Both strategies are bit-identical to the classic serial loop by
construction: one numerical entry point
(:func:`repro.parallel.worker.compute_piece`), randomness consumed
before fan-out, disjoint interior writes.
"""

from repro.parallel.executor import AnalysisExecutor, AnalysisPlan, serial_executor
from repro.parallel.geometry import GeometryCache, PieceGeometry
from repro.parallel.shared import (
    AttachedArray,
    SharedArraySpec,
    SharedEnsemble,
    attach_array,
)
from repro.parallel.supervise import (
    DeadlinePolicy,
    SupervisionPolicy,
    SupervisionReport,
    SupervisionStats,
    piece_seconds_from_cost_model,
)
from repro.parallel.worker import KIND_ENKF, KIND_ETKF, compute_piece

__all__ = [
    "AnalysisExecutor",
    "AnalysisPlan",
    "AttachedArray",
    "DeadlinePolicy",
    "GeometryCache",
    "KIND_ENKF",
    "KIND_ETKF",
    "PieceGeometry",
    "SharedArraySpec",
    "SharedEnsemble",
    "SupervisionPolicy",
    "SupervisionReport",
    "SupervisionStats",
    "attach_array",
    "compute_piece",
    "piece_seconds_from_cost_model",
    "serial_executor",
]
