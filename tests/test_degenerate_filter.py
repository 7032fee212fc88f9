"""Degenerate ensembles through the whole filter, not just the kernel.

``tests/test_cholesky_grouped.py`` checks the row-grouped Cholesky kernel
on these inputs; here the same cases run end to end through
``PEnKF.assimilate`` on the CLI campaign's geometry
(:func:`repro.experiments.cli._campaign_problem`), once on the serial
strategy and once on a process pool.  Every case must give a finite
analysis, bit-identical across the two strategies.
"""

import numpy as np
import pytest

from repro.core import Decomposition, ObservationNetwork, radius_to_halo
from repro.core.inflation import inflate
from repro.experiments.cli import _campaign_problem
from repro.filters import PEnKF
from repro.parallel.executor import AnalysisExecutor


@pytest.fixture(scope="module")
def campaign():
    twin, truth0, ensemble0, filt = _campaign_problem()
    grid = twin.model.grid
    xi, eta = radius_to_halo(filt.radius_km, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=xi, eta=eta)
    y = twin.network.observe(truth0, rng=np.random.default_rng(0))
    return filt, decomp, twin.network, ensemble0, y


@pytest.fixture(scope="module")
def pool():
    with AnalysisExecutor(strategy="process", workers=2) as ex:
        yield ex


def _serial_and_process(filt, pool, decomp, states, network, y):
    twin_filter = PEnKF(radius_km=filt.radius_km, inflation=filt.inflation,
                        ridge=filt.ridge, executor=pool)
    serial = filt.assimilate(decomp, states, network, y, rng=5)
    process = twin_filter.assimilate(decomp, states, network, y, rng=5)
    return serial, process


def _two_members(states, network):
    return states[:, :2]


def _duplicate_members(states, network):
    states = states.copy()
    states[:, 1] = states[:, 0]
    states[:, 5] = states[:, 4]
    return states


def _constant_rows(states, network):
    """Zero-variance rows, two of them at observed grid points."""
    states = states.copy()
    for row in (0, *network.flat_locations[:2]):
        states[row, :] = 0.5
    return states


def _collapsed(states, network):
    """Every member identical: zero spread in every row."""
    return np.repeat(states[:, :1], 8, axis=1)


DEGENERATE = {
    "n2": _two_members,
    "duplicate-members": _duplicate_members,
    "constant-rows": _constant_rows,
    "collapsed": _collapsed,
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_ensemble_is_finite_and_strategy_identical(
    campaign, pool, case
):
    filt, decomp, network, ensemble0, y = campaign
    states = DEGENERATE[case](ensemble0, network)
    serial, process = _serial_and_process(filt, pool, decomp, states,
                                          network, y)
    assert serial.shape == states.shape
    assert np.isfinite(serial).all()
    assert np.array_equal(serial, process)


def test_piece_without_observations(campaign, pool):
    """Observations only in columns 3-8 leave the eastern sub-domains'
    expansions (columns 9-23 and 0-2; x is periodic) unobserved; those
    pieces must come back as the inflated background, the rest analysed,
    on both strategies."""
    filt, decomp, network, ensemble0, _ = campaign
    keep = (network.ix >= 3) & (network.ix <= 8)
    west = ObservationNetwork(
        network.grid, ix=network.ix[keep], iy=network.iy[keep],
        obs_error_std=network.obs_error_std,
    )
    empty = [
        sd for sd in decomp
        if west.restrict_to_box(sd.exp_x_indices, sd.exp_y_indices)[0].size
        == 0
    ]
    assert empty and len(empty) < decomp.n_subdomains
    y = west.observe(ensemble0[:, 0], rng=np.random.default_rng(2))
    serial, process = _serial_and_process(filt, pool, decomp, ensemble0,
                                          west, y)
    assert np.isfinite(serial).all()
    assert np.array_equal(serial, process)
    background = inflate(ensemble0, filt.inflation)
    for sd in empty:
        rows = sd.interior_flat
        assert np.array_equal(serial[rows], background[rows])
