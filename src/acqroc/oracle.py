"""Exact serial-search stop probabilities on small grids.

For independent cells the event "the search stops at visit i" has
probability p(v_i) * prod_{j<i} (1 - p(v_j)); no approximation enters, so
this module serves as the ground truth the closed-form global detection
formulas are checked against.  averaged_detection evaluates all K*N
correct-cell placements at once: one cumprod along the visit order per stack
probs[placement, bin, phase] capped at _MAX_STACK_CELLS cells to bound memory.
Its engine _averaged_detection takes the cell P_det by offset (_offset_pdet).
"""

from __future__ import annotations

import numpy as np

from .analytic import NonCentralityProfile, SearchOrder, cell_pdet, cell_pfa

__all__ = ["averaged_detection"]

_MAX_STACK_CELLS = 1 << 20


def _check_probs(p: np.ndarray) -> None:
    # NaN fails both comparisons, so non-finite values are rejected too
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("cell probabilities must lie in [0, 1]")


def _stop_probs(probs: np.ndarray, order: SearchOrder) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell stops, shaped like probs[..., K, N], and per-grid no-stop."""
    if order not in (SearchOrder.CODE_PHASE_FIRST, SearchOrder.DOPPLER_FIRST):
        raise ValueError(f"unknown search order {order!r}")
    visit = probs if order is SearchOrder.CODE_PHASE_FIRST else probs.swapaxes(-1, -2)
    flat = visit.reshape(visit.shape[:-2] + (-1,))
    survive = np.cumprod(1.0 - flat, axis=-1)
    stop = flat.copy()
    stop[..., 1:] *= survive[..., :-1]
    stop = stop.reshape(visit.shape)
    return (stop if visit is probs else stop.swapaxes(-1, -2)), survive[..., -1]


def averaged_detection(profile: NonCentralityProfile, beta: float, k: int, n: int,
                       m_accept: int, order: SearchOrder) -> float:
    """Detection probability averaged over all K*N equally likely placements
    (cb, cp) of the correct cell, each evaluated by exact enumeration.

    Every bin's cell at the correct phase carries the profile value for its
    offset (cell_pdet of 0 beyond the truncation is exactly the cell P_fa);
    all remaining cells are noise.  A stop counts as detection when it lands
    on the correct phase within m_accept bins of the correct bin.  The stops
    are summed sequentially, per placement in ascending bin order, then over
    placements in (cb, cp) order, so the stack size does not change the sum.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    if m_accept < 0 or m_accept >= k:
        raise ValueError("m_accept must satisfy 0 <= m_accept < k")
    return _averaged_detection(_offset_pdet(profile, beta, k), cell_pfa(beta), n, m_accept, order)


def _offset_pdet(profile: NonCentralityProfile, beta: float, k: int) -> np.ndarray:
    """P_det at offsets 0..k-1, all that a placement on k bins can see."""
    return cell_pdet(np.array([profile.at_offset(s) for s in range(k)]), beta)


def _averaged_detection(pdet: np.ndarray, pfa: float, n: int, m: int, order: SearchOrder) -> float:
    """averaged_detection from _offset_pdet of its K bins and the cell P_fa."""
    k = pdet.size
    bins = np.arange(k)
    step = max(1, _MAX_STACK_CELLS // (k * n))
    detect = np.empty(k * n)
    for lo in range(0, k * n, step):
        cb, cp = np.divmod(np.arange(lo, min(lo + step, k * n)), n)
        rows, cols = np.arange(cb.size)[:, None], cp[:, None]
        offs = np.abs(bins - cb[:, None])
        stack = np.full((cb.size, k, n), pfa)
        stack[rows, bins, cols] = pdet[offs]
        _check_probs(stack)
        stop = _stop_probs(stack, order)[0][rows, bins, cols]
        detect[lo:lo + cb.size] = np.cumsum(np.where(offs <= m, stop, 0.0), axis=1)[:, -1]
    return float(np.cumsum(detect)[-1] / (k * n))
