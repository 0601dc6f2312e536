"""Exact serial-search stop probabilities on small grids.

For independent cells the event "the search stops at visit i" has
probability p(v_i) * prod_{j<i} (1 - p(v_j)); no approximation enters, so
this module serves as the ground truth the closed-form global detection
formulas are checked against.  Cost is O(K N) per placement, which keeps
exhaustive averaging over all correct-cell placements cheap at small K, N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import NonCentralityProfile, SearchOrder, cell_pdet, cell_pfa

__all__ = ["CellProbabilityGrid", "stop_distribution", "averaged_detection"]


@dataclass(frozen=True)
class CellProbabilityGrid:
    """Per-cell crossing probabilities, K bins by N phases, plus the set of
    (bin, phase) cells whose stops count as detection."""

    probs: np.ndarray
    accepted: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        p = self.probs
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("probs must be a K x N matrix with K, N >= 1")
        if np.any(~np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("cell probabilities must lie in [0, 1]")
        k, n = p.shape
        for b, ph in self.accepted:
            if not (0 <= b < k and 0 <= ph < n):
                raise ValueError(f"accepted cell {(b, ph)} outside the grid")


def stop_distribution(grid: CellProbabilityGrid,
                      order: SearchOrder) -> tuple[np.ndarray, float]:
    """Stop probability per cell plus the no-stop probability.

    Returns (stop, no_stop) with stop shaped like grid.probs; all K*N + 1
    outcomes partition the sample space and sum to 1.
    """
    p = grid.probs
    if order is SearchOrder.CODE_PHASE_FIRST:
        visit = p.reshape(-1)
    elif order is SearchOrder.DOPPLER_FIRST:
        visit = p.T.reshape(-1)
    else:
        raise ValueError(f"unknown search order {order!r}")
    survive = np.cumprod(1.0 - visit)
    before = np.concatenate(([1.0], survive[:-1]))
    stop_flat = visit * before
    no_stop = float(survive[-1])
    if order is SearchOrder.CODE_PHASE_FIRST:
        stop = stop_flat.reshape(p.shape)
    else:
        stop = stop_flat.reshape(p.shape[1], p.shape[0]).T
    return stop, no_stop


def _placement_grid(pdet_by_offset: np.ndarray, pfa: float, k: int, n: int,
                    cb: int, cp: int, m_accept: int) -> CellProbabilityGrid:
    probs = np.full((k, n), pfa)
    offs = np.abs(np.arange(k) - cb)
    col = np.where(offs < pdet_by_offset.size, pdet_by_offset[np.minimum(offs, pdet_by_offset.size - 1)], pfa)
    probs[:, cp] = col
    lo = max(0, cb - m_accept)
    hi = min(k - 1, cb + m_accept)
    accepted = frozenset((b, cp) for b in range(lo, hi + 1))
    return CellProbabilityGrid(probs=probs, accepted=accepted)


def averaged_detection(profile: NonCentralityProfile, beta: float, k: int, n: int,
                       m_accept: int, order: SearchOrder) -> float:
    """Detection probability averaged over all K*N equally likely placements
    of the correct cell, each evaluated by exact enumeration.

    Every bin's cell at the correct phase carries the profile value for its
    offset (cell_pdet of 0 beyond the truncation is exactly the cell P_fa);
    all remaining cells are noise.  A stop counts as detection when it lands
    on the correct phase within m_accept bins of the correct bin.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if m_accept < 0 or m_accept >= k:
        raise ValueError("m_accept must satisfy 0 <= m_accept < k")
    pfa = cell_pfa(beta)
    # offsets 0..k-1 suffice: no placement can see a larger one
    pdet_by_offset = cell_pdet(np.array([profile.at_offset(s) for s in range(k)]), beta)
    total = 0.0
    for cb in range(k):
        for cp in range(n):
            grid = _placement_grid(pdet_by_offset, pfa, k, n, cb, cp, m_accept)
            stop, _ = stop_distribution(grid, order)
            total += sum(stop[b, ph] for b, ph in grid.accepted)
    return total / (k * n)
