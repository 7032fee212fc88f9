"""Modified-Cholesky estimation of the inverse background covariance.

This is the estimator at the heart of P-EnKF (Nino-Ruiz, Sandu & Deng 2017,
2018; Bickel & Levina 2008), which the paper adopts for the local analysis:
instead of the rank-deficient sample covariance, fit

    B̂⁻¹ = Lᵀ D⁻¹ L

where ``L`` is unit lower-triangular and ``D`` diagonal, from per-variable
regressions: each component ``x_i`` is regressed onto its *predecessors in
a fixed ordering that lie within the localization radius*, so ``L`` is
sparse by construction and the estimate is well-conditioned even for small
ensembles.  ``B̂⁻¹`` is symmetric positive definite whenever every residual
variance is positive (we floor them to guarantee it).

The function operates on a *local* ensemble (a sub-domain expansion): the
coordinate arrays tell it the (ix, iy) of each component so the conditional
dependence structure follows the physical localization radius.

The per-row regressions are independent of each other (the parallelism
Nino-Ruiz, Sandu & Deng exploit), so the estimator runs them *row-grouped*:
rows with the same predecessor count ``|p|`` are gathered into one
``(R, |p|, N)`` stack and solved with a single batched LAPACK call.  A
planar stencil has only a handful of distinct counts, so an expansion of
a few hundred points costs a few dozen array operations instead of one
Python iteration per row.  The grouping (:class:`RowGroups`) depends only
on the stencil, so callers that analyse the same sub-domain every cycle
build it once and pass it in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.grid import Grid
from repro.util.validation import check_positive


def neighbour_predecessors(
    grid: Grid,
    ix: np.ndarray,
    iy: np.ndarray,
    radius_km: float,
) -> list[np.ndarray]:
    """For each component i, indices j < i within ``radius_km`` of i.

    The ordering is the components' storage order (row-major over the
    expansion), matching the column-major "previous rows" conditioning in
    the modified-Cholesky literature.
    """
    check_positive("radius_km", radius_km)
    ix = np.asarray(ix)
    iy = np.asarray(iy)
    n = ix.size
    preds: list[np.ndarray] = []
    for i in range(n):
        dx = np.abs(ix[:i] - ix[i])
        if grid.periodic_x:
            dx = np.minimum(dx, grid.n_x - dx)
        dy = np.abs(iy[:i] - iy[i])
        dist = np.hypot(dx * grid.dx_km, dy * grid.dy_km)
        preds.append(np.nonzero(dist <= radius_km)[0])
    return preds


@dataclass(frozen=True)
class RowGroups:
    """A predecessor stencil's rows grouped by predecessor count.

    Also carries the CSR skeleton of the unit lower-triangular ``L``: row
    ``i`` holds its predecessors (ascending) followed by its unit
    diagonal, so ``indices`` is sorted within every row and only the
    regression coefficients have to be filled in per ensemble.
    """

    #: CSR row pointer of ``L`` (n + 1,)
    indptr: np.ndarray
    #: CSR column indices of ``L`` (nnz,)
    indices: np.ndarray
    #: position of each row's unit diagonal in ``L``'s data array (n,)
    diag_pos: np.ndarray
    #: per group, the rows it holds (R,)
    rows: tuple[np.ndarray, ...]
    #: per group, the rows' predecessor indices (R, |p|)
    preds: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @classmethod
    def from_predecessors(cls, predecessors) -> "RowGroups":
        """Group a :func:`neighbour_predecessors` stencil."""
        n = len(predecessors)
        counts = np.fromiter(
            (len(p) for p in predecessors), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts + 1, out=indptr[1:])
        diag_pos = indptr[1:] - 1
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        indices[diag_pos] = np.arange(n)
        off_diag = np.ones(indices.size, dtype=bool)
        off_diag[diag_pos] = False
        if n:
            indices[off_diag] = np.concatenate(predecessors)
        order = np.argsort(counts, kind="stable")
        splits = np.flatnonzero(np.diff(counts[order])) + 1
        rows = tuple(np.split(order, splits)) if n else ()
        preds = tuple(
            indices[indptr[r][:, None] + np.arange(counts[r[0]])]
            for r in rows
        )
        return cls(indptr, indices, diag_pos, rows, preds)


def modified_cholesky_inverse(
    states: np.ndarray,
    grid: Grid,
    ix: np.ndarray,
    iy: np.ndarray,
    radius_km: float,
    ridge: float = 1e-8,
    min_variance: float = 1e-12,
    sparse: bool = False,
    row_groups: RowGroups | None = None,
) -> np.ndarray:
    """Estimate ``B̂⁻¹`` from a (local) ensemble by modified Cholesky.

    Parameters
    ----------
    states:
        (n_local, N) ensemble matrix.
    grid, ix, iy:
        Mesh and per-component grid coordinates (for the radius test).
    radius_km:
        Localization radius defining the conditional-dependence stencil.
    ridge:
        Tikhonov regularisation added to each regression's normal matrix
        (scaled by its trace) — keeps the fit well-posed when the number of
        predecessors approaches or exceeds N.
    min_variance:
        Floor on residual variances so ``D⁻¹`` (and hence SPD-ness) is
        always defined.
    sparse:
        Return a ``scipy.sparse.csr_matrix`` instead of a dense array.
        ``L`` has at most ``O(stencil)`` entries per row, so ``B̂⁻¹`` is
        banded; the sparse representation lets the precision-form solve
        use sparse factorisation on large local domains.
    row_groups:
        Pre-computed :class:`RowGroups` of the :func:`neighbour_predecessors`
        stencil.  The stencil depends only on the coordinates and the
        radius — never on the ensemble — so callers that analyse the same
        sub-domain every cycle (the geometry cache) pass it in and skip the
        O(n²) rebuild; built inside the call when omitted.

    Returns
    -------
    (n_local, n_local) SPD matrix ``B̂⁻¹ = Lᵀ D⁻¹ L`` (dense ndarray, or
    CSR when ``sparse=True``).
    """
    u = np.asarray(states, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"expected (n, N) ensemble, got shape {u.shape}")
    n, n_members = u.shape
    if n_members < 2:
        raise ValueError("modified Cholesky needs at least 2 members")
    if np.asarray(ix).size != n or np.asarray(iy).size != n:
        raise ValueError("coordinate arrays must match the state dimension")
    u = u - u.mean(axis=1, keepdims=True)

    if row_groups is None:
        row_groups = RowGroups.from_predecessors(
            neighbour_predecessors(grid, ix, iy, radius_km)
        )
    elif row_groups.n != n:
        raise ValueError(f"row_groups covers {row_groups.n} rows for n={n}")

    d = np.empty(n)
    dof = max(n_members - 1, 1)
    data = np.empty(row_groups.indices.size)
    data[row_groups.diag_pos] = 1.0
    for rows, preds in zip(row_groups.rows, row_groups.preds):
        xi = u[rows]  # (R, N)
        k = preds.shape[1]
        if k == 0:
            resid = xi
        else:
            xp = u[preds]  # (R, |p|, N)
            gram = xp @ xp.transpose(0, 2, 1)
            lam = ridge * (np.trace(gram, axis1=1, axis2=2) / k + 1.0)
            diag = np.arange(k)
            gram[:, diag, diag] += lam[:, None]
            beta = np.linalg.solve(gram, xp @ xi[:, :, None])  # (R, |p|, 1)
            data[row_groups.indptr[rows][:, None] + diag] = -beta[:, :, 0]
            resid = xi - (beta.transpose(0, 2, 1) @ xp)[:, 0, :]
        var = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0] / dof
        d[rows] = np.maximum(var, min_variance)

    lower = sp.csr_matrix(
        (data, row_groups.indices, row_groups.indptr), shape=(n, n)
    )
    d_inv = sp.diags(1.0 / d)
    b_inv = (lower.T @ d_inv @ lower).tocsr()
    if sparse:
        return b_inv
    return np.asarray(b_inv.todense())
