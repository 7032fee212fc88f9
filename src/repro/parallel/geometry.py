"""Per-cycle geometry caching for the inline analysis engine.

Every local analysis starts with work that is a pure function of the
*decomposition geometry* and the *observation network* — none of it
depends on the ensemble values, so across the cycles of a campaign it is
recomputed for nothing:

* the observation restriction to the expansion box
  (:meth:`~repro.core.observations.ObservationNetwork.restrict_to_box`);
* the expansion/interior flat-index arrays and the interior's positions
  inside the expansion (the projection ``P_ij`` of Eq. 6);
* the expansion's (ix, iy) coordinate arrays;
* the modified-Cholesky conditional-dependence stencil
  (:func:`~repro.core.cholesky.neighbour_predecessors` — the O(n̄²)
  sparsity pattern of ``B̂⁻¹``, which depends only on coordinates and the
  localization radius) and its row-group plan
  (:class:`~repro.core.cholesky.RowGroups`).

:class:`GeometryCache` memoises all of it per ``(network, grid, piece,
radius)`` key into a :class:`PieceGeometry`, which the executor ships to
workers and :func:`~repro.core.analysis.local_analysis` consumes in place
of re-deriving the same arrays.

Invalidation rules (see docs/PERFORMANCE.md): networks and grids are
keyed *by object identity* (they are frozen dataclasses — treat them as
immutable); pieces are keyed *structurally* (S-EnKF rebuilds equal layer
sub-domains every call and must still hit).  A new network/grid object
starts a fresh key family; ``clear()`` empties the cache; ``maxsize``
bounds the entry count with oldest-first eviction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from repro.core.cholesky import RowGroups, neighbour_predecessors
from repro.core.domain import SubDomain
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

__all__ = ["GeometryCache", "PieceGeometry"]


def _value_nbytes(value) -> int:
    """Array bytes of one field value: ndarray, CSR matrix, a nested
    dataclass (the Cholesky row groups), or a list/tuple of any of them;
    everything else counts zero."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if hasattr(value, "data") and hasattr(value, "indices") and hasattr(
        value, "indptr"
    ):  # scipy CSR/CSC without importing scipy here
        return int(
            value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        )
    if isinstance(value, (list, tuple)):
        return sum(_value_nbytes(item) for item in value)
    if is_dataclass(value):
        return _geometry_nbytes(value)
    return 0


def _geometry_nbytes(entry) -> int:
    """Summed array bytes across every dataclass field of one entry."""
    return sum(
        _value_nbytes(getattr(entry, f.name)) for f in fields(entry)
    )


@dataclass(frozen=True)
class PieceGeometry:
    """The ensemble-independent inputs of one piece's local analysis."""

    #: indices into the *global* observation vector that fall in the box
    obs_positions: np.ndarray
    #: local operator ``H_[i,j]`` (m̄ × n̄ CSR)
    h_local: object
    #: diagonal of the local ``R`` (m̄,)
    r_diag: np.ndarray
    #: flat global indices of the expansion (n̄,)
    expansion_flat: np.ndarray
    #: flat global indices of the interior
    interior_flat: np.ndarray
    #: interior positions inside the expansion ordering (``P_ij``)
    interior_positions: np.ndarray
    #: per-expansion-point grid coordinates
    exp_ix: np.ndarray
    exp_iy: np.ndarray
    #: modified-Cholesky predecessor stencil (None when not requested or
    #: when the piece sees no observations)
    predecessors: list[np.ndarray] | None = None
    #: the stencil's rows grouped by predecessor count (the batched
    #: regression plan of the modified Cholesky; None with ``predecessors``)
    row_groups: RowGroups | None = None


class GeometryCache:
    """Memoise :class:`PieceGeometry` across cycles (thread-safe).

    Parameters
    ----------
    maxsize:
        Optional bound on cached entries; the oldest entries are evicted
        first.  ``None`` (default) never evicts — a decomposition has a
        fixed, small piece count, so unbounded growth only happens when
        many distinct networks/decompositions stream through one cache.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, PieceGeometry] = OrderedDict()
        #: id() -> (token, strong ref) — the ref pins the object so its id
        #: cannot be recycled while the cache holds entries keyed on it
        self._tokens: dict[int, tuple[int, object]] = {}
        self._next_token = 0

    # -- keys ------------------------------------------------------------------
    def _token(self, obj: object) -> int:
        key = id(obj)
        entry = self._tokens.get(key)
        if entry is None or entry[1] is not obj:
            entry = (self._next_token, obj)
            self._next_token += 1
            self._tokens[key] = entry
        return entry[0]

    @staticmethod
    def _piece_key(piece: SubDomain) -> tuple:
        return (
            piece.ix0, piece.ix1, piece.iy0, piece.iy1, piece.xi, piece.eta,
        )

    # -- lookup ----------------------------------------------------------------
    def get(
        self,
        network,
        piece: SubDomain,
        radius_km: float | None = None,
    ) -> tuple[PieceGeometry, bool]:
        """``(geometry, was_cached)`` for one piece.

        ``radius_km`` requests the modified-Cholesky predecessor stencil
        as part of the geometry (EnKF path); ``None`` skips it (ETKF
        path, which has no precision estimate).
        """
        key = (
            self._token(network),
            self._token(piece.grid),
            self._piece_key(piece),
            float(radius_km) if radius_km is not None else None,
        )
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
        if cached is not None:
            if get_tracer().enabled:
                get_metrics().counter("geometry.cache_hits").inc()
            return cached, True
        geometry = self._build(network, piece, radius_km)
        with self._lock:
            self.misses += 1
            self._entries[key] = geometry
            if self.maxsize is not None:
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        if get_tracer().enabled:
            get_metrics().counter("geometry.cache_misses").inc()
        return geometry, False

    def local_geometry(
        self, network, piece: SubDomain, radius_km: float | None = None
    ) -> PieceGeometry:
        """Like :meth:`get` without the cache-status flag."""
        return self.get(network, piece, radius_km)[0]

    @staticmethod
    def _build(network, piece: SubDomain, radius_km: float | None) -> PieceGeometry:
        obs_positions, h_local = network.restrict_to_box(
            piece.exp_x_indices, piece.exp_y_indices
        )
        exp_ix, exp_iy = piece.expansion_coords
        predecessors = row_groups = None
        if radius_km is not None and obs_positions.size:
            predecessors = neighbour_predecessors(
                piece.grid, exp_ix, exp_iy, radius_km
            )
            row_groups = RowGroups.from_predecessors(predecessors)
        return PieceGeometry(
            obs_positions=obs_positions,
            h_local=h_local,
            r_diag=np.full(obs_positions.size, network.obs_error_std**2),
            expansion_flat=piece.expansion_flat,
            interior_flat=piece.interior_flat,
            interior_positions=piece.interior_positions_in_expansion,
            exp_ix=exp_ix,
            exp_iy=exp_iy,
            predecessors=predecessors,
            row_groups=row_groups,
        )

    # -- maintenance -----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def nbytes(self) -> int:
        """Total bytes of array payload held by the cached entries.

        The cache bounds entry *count* (``maxsize``); this is the
        byte-side view the resource observatory exports as the
        ``geometry_cache_bytes`` gauge and the footprint model counts as
        a measured component.  Sums every ndarray field of every entry —
        including CSR matrices (data/indices/indptr), per-point
        predecessor lists and the Cholesky row-group plan — and ignores
        scalars, whose bytes are noise next to the arrays.
        """
        with self._lock:
            entries = list(self._entries.values())
        return sum(_geometry_nbytes(entry) for entry in entries)

    @property
    def stats(self) -> dict:
        with self._lock:
            stats = {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }
        stats["bytes"] = self.nbytes()
        return stats

    def clear(self) -> None:
        """Drop every entry (and the object pins backing the keys)."""
        with self._lock:
            self._entries.clear()
            self._tokens.clear()
            self.hits = 0
            self.misses = 0
