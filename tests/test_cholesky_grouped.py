"""The row-grouped modified-Cholesky kernel against the per-row reference.

:func:`~repro.core.cholesky.modified_cholesky_inverse` solves every
row regression of ``B̂⁻¹ = Lᵀ D⁻¹ L`` in batched groups of equal
predecessor count.  :func:`per_row_reference` below is the classic
one-regression-per-row loop it replaced, kept as the oracle: the two must
agree to ``rtol 1e-12`` on ordinary and degenerate ensembles alike —
N = 2, duplicate members, constant rows, rows with no predecessors,
single-row groups and rank-deficient stencils (``|p| >= N``).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.core.cholesky import (
    RowGroups,
    modified_cholesky_inverse,
    neighbour_predecessors,
)
from repro.parallel import GeometryCache

RTOL = 1e-12


def per_row_reference(states, preds, ridge=1e-8, min_variance=1e-12):
    """The per-row modified Cholesky: one regression per component."""
    u = states - states.mean(axis=1, keepdims=True)
    n, n_members = u.shape
    dof = max(n_members - 1, 1)
    d = np.empty(n)
    rows, cols, vals = [], [], []
    for i in range(n):
        p = preds[i]
        xi = u[i]
        rows.append(i)
        cols.append(i)
        vals.append(1.0)
        if p.size == 0:
            resid = xi
        else:
            xp = u[p]
            gram = xp @ xp.T
            gram[np.diag_indices_from(gram)] += ridge * (
                np.trace(gram) / p.size + 1.0
            )
            beta = np.linalg.solve(gram, xp @ xi)
            rows.extend([i] * p.size)
            cols.extend(p.tolist())
            vals.extend((-beta).tolist())
            resid = xi - beta @ xp
        d[i] = max(float(resid @ resid) / dof, min_variance)
    lower = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return (lower.T @ sp.diags(1.0 / d) @ lower).toarray()


def coords(n_x, n_y):
    ix, iy = np.meshgrid(np.arange(n_x), np.arange(n_y))
    return ix.ravel(), iy.ravel()


def check_against_reference(states, n_x, n_y, radius_km):
    grid = Grid(n_x=n_x, n_y=n_y, dx_km=1.0, dy_km=1.0, periodic_x=False)
    ix, iy = coords(n_x, n_y)
    preds = neighbour_predecessors(grid, ix, iy, radius_km)
    expected = per_row_reference(states, preds)
    scale = np.abs(expected).max()
    dense = modified_cholesky_inverse(states, grid, ix, iy, radius_km)
    sparse = modified_cholesky_inverse(
        states, grid, ix, iy, radius_km, sparse=True,
        row_groups=RowGroups.from_predecessors(preds),
    )
    assert sp.issparse(sparse)
    for got in (dense, sparse.toarray()):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=RTOL * scale)
    return preds


class TestRowGroups:
    def test_groups_partition_rows_by_predecessor_count(self):
        grid = Grid(n_x=6, n_y=4, dx_km=1.0, dy_km=1.0, periodic_x=False)
        preds = neighbour_predecessors(grid, *coords(6, 4), radius_km=1.5)
        groups = RowGroups.from_predecessors(preds)
        assert groups.n == 24
        seen = np.sort(np.concatenate(groups.rows))
        assert np.array_equal(seen, np.arange(24))
        for rows, gp in zip(groups.rows, groups.preds):
            assert gp.shape == (rows.size, preds[rows[0]].size)
            for r, p in zip(rows, gp):
                assert np.array_equal(p, preds[r])

    def test_csr_skeleton_is_unit_lower_triangular(self):
        grid = Grid(n_x=5, n_y=3, dx_km=1.0, dy_km=1.0, periodic_x=False)
        preds = neighbour_predecessors(grid, *coords(5, 3), radius_km=2.0)
        groups = RowGroups.from_predecessors(preds)
        data = np.zeros(groups.indices.size)
        data[groups.diag_pos] = 1.0
        lower = sp.csr_matrix((data, groups.indices, groups.indptr))
        assert lower.has_sorted_indices
        assert np.array_equal(lower.toarray(), np.eye(15))
        for i, p in enumerate(preds):
            row = groups.indices[groups.indptr[i]:groups.indptr[i + 1]]
            assert np.array_equal(row, np.append(p, i))

    def test_row_count_mismatch_rejected(self):
        grid = Grid(n_x=4, n_y=1, dx_km=1.0, dy_km=1.0)
        preds = neighbour_predecessors(grid, *coords(4, 1), radius_km=1.5)
        states = np.random.default_rng(0).standard_normal((3, 5))
        ix, iy = coords(3, 1)
        with pytest.raises(ValueError, match="row_groups"):
            modified_cholesky_inverse(
                states, grid, ix, iy, 1.5,
                row_groups=RowGroups.from_predecessors(preds),
            )


class TestAgainstReference:
    def test_campaign_sized_expansion(self):
        states = np.random.default_rng(1).standard_normal((220, 24))
        check_against_reference(states, 22, 10, radius_km=2.5)

    def test_two_members(self):
        states = np.random.default_rng(2).standard_normal((12, 2))
        check_against_reference(states, 4, 3, radius_km=1.5)

    def test_duplicate_members(self):
        base = np.random.default_rng(3).standard_normal((20, 3))
        states = np.concatenate([base, base], axis=1)
        check_against_reference(states, 5, 4, radius_km=1.5)

    def test_constant_rows(self):
        states = np.random.default_rng(4).standard_normal((15, 6))
        states[[0, 4, 7]] = 3.0
        check_against_reference(states, 5, 3, radius_km=2.0)

    def test_no_predecessors_anywhere(self):
        states = np.random.default_rng(5).standard_normal((8, 4))
        preds = check_against_reference(states, 4, 2, radius_km=0.5)
        assert all(p.size == 0 for p in preds)

    def test_single_row_groups(self):
        """On a 1-D line with radius 2 only rows 0 and 1 are alone in
        their predecessor-count groups."""
        states = np.random.default_rng(6).standard_normal((7, 5))
        preds = check_against_reference(states, 7, 1, radius_km=2.0)
        groups = RowGroups.from_predecessors(preds)
        assert [r.size for r in groups.rows] == [1, 1, 5]

    def test_rank_deficient_stencil(self):
        states = np.random.default_rng(7).standard_normal((36, 3))
        preds = check_against_reference(states, 6, 6, radius_km=3.0)
        assert max(p.size for p in preds) >= states.shape[1]

    @settings(max_examples=40, deadline=None)
    @given(
        n_x=st.integers(1, 7),
        n_y=st.integers(1, 5),
        n_members=st.integers(2, 8),
        radius_km=st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]),
        n_duplicates=st.integers(0, 3),
        n_constant=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_degenerate_ensembles(self, n_x, n_y, n_members, radius_km,
                                  n_duplicates, n_constant, seed):
        rng = np.random.default_rng(seed)
        n = n_x * n_y
        states = rng.standard_normal((n, n_members))
        for _ in range(n_duplicates):
            src, dst = rng.integers(0, n_members, size=2)
            states[:, dst] = states[:, src]
        states[rng.choice(n, size=min(n_constant, n), replace=False)] = 1.5
        check_against_reference(states, n_x, n_y, radius_km)


class TestGeometryCachePlan:
    def test_cached_plan_matches_stencil_and_counts_bytes(self):
        grid = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
        network = ObservationNetwork.random(
            grid, m=60, obs_error_std=0.3, rng=np.random.default_rng(0)
        )
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=2)
        piece = list(decomp)[0]

        bare = GeometryCache()
        bare.get(network, piece, None)  # no stencil requested
        with_plan = GeometryCache()
        geo, _ = with_plan.get(network, piece, 2.0)
        groups = geo.row_groups
        assert geo.predecessors is not None and groups is not None
        assert groups.n == piece.exp_size

        plan_bytes = (
            groups.indptr.nbytes + groups.indices.nbytes
            + groups.diag_pos.nbytes
            + sum(r.nbytes for r in groups.rows)
            + sum(p.nbytes for p in groups.preds)
        )
        stencil_bytes = sum(p.nbytes for p in geo.predecessors)
        assert with_plan.nbytes() == bare.nbytes() + stencil_bytes + plan_bytes
        assert with_plan.stats["bytes"] == with_plan.nbytes()
