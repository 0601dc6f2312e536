"""Single-trial serial searches: the independent reference for the batched
threshold replay of acqroc.simulator, the per-placement enumeration the
array form of acqroc.oracle.averaged_detection is held to, and the
noiseless waveform chain with its Dirichlet-kernel reference.

Each trial draws every cell metric of the K x N grid (metric level) or
synthesizes every bin (waveform level, through the simulator's own trial
setup) and walks the cells in visiting order until one crosses beta, so the
outcome follows from the definition of the search rather than from the
segment-maxima bookkeeping that monte_carlo_sweep replays.  replay_records
walks recorded segment maxima the same way, one threshold at a time, as the
reference for the batched interval counting; offset_mean_z reads the
recorded correct-phase metrics by offset from the correct bin.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from acqroc.analytic import NonCentralityProfile, SearchOrder, SignalParams, cell_pdet, cell_pfa
from acqroc.prncode import CODE_LENGTH
from acqroc.simulator import (_PRN_SIGNAL, SimConfig, _code_periods, _code_rows,
                              _correlate_all_phases, _realized_l, _received_rows,
                              _search_spectrum, _synth_bin, _waveform_batch, draw_metric)


class Classification(Enum):
    DETECTION = "detection"
    FALSE_STOP = "false-stop"
    NO_STOP = "no-stop"


@dataclass(frozen=True)
class TrialOutcome:
    stopped: bool
    stop_bin: int | None
    stop_phase: int | None
    correct_bin: int
    correct_phase: int
    classified: Classification


def _serial_search(metrics: np.ndarray, order: SearchOrder,
                   beta: float) -> tuple[int, int] | None:
    """First cell with metric > beta in visiting order, or None."""
    k, n = metrics.shape
    flat = metrics.reshape(-1) if order is SearchOrder.CODE_PHASE_FIRST else metrics.T.reshape(-1)
    hits = flat > beta
    if not hits.any():
        return None
    i = int(np.argmax(hits))
    if order is SearchOrder.CODE_PHASE_FIRST:
        return i // n, i % n
    return i % k, i // k


def _classify(stop: tuple[int, int] | None, cb: int, cp: int, m: int) -> TrialOutcome:
    if stop is None:
        return TrialOutcome(False, None, None, cb, cp, Classification.NO_STOP)
    b, ph = stop
    ok = ph == cp and abs(b - cb) <= m
    cls = Classification.DETECTION if ok else Classification.FALSE_STOP
    return TrialOutcome(True, b, ph, cb, cp, cls)


def run_metric_trial(config: SimConfig, rng: np.random.Generator) -> TrialOutcome:
    """One serial search with every cell metric drawn at metric level."""
    beta = config.policy.require_threshold()
    k, n = config.grid.num_bins, CODE_LENGTH
    cb = int(rng.integers(0, k))
    cp = int(rng.integers(0, n))
    df0 = float(rng.uniform(-config.grid.bin_width_hz / 2.0, config.grid.bin_width_hz / 2.0))
    lvals = _realized_l(config.params, config.grid, config.l_max,
                        np.array([cb]), np.array([df0]))[0]
    metrics = rng.exponential(1.0, (k, n))
    for b in range(k):
        metrics[b, cp] = draw_metric(lvals[b], rng)
    stop = _serial_search(metrics, config.policy.order, beta)
    return _classify(stop, cb, cp, config.policy.accept_half_width)


def run_waveform_trial(config: SimConfig, rng: np.random.Generator) -> TrialOutcome:
    """One serial search with metrics produced by the synthesized chain,
    using a fresh noise realization for every Doppler bin."""
    beta = config.policy.require_threshold()
    cb, cp, bins = _waveform_batch(rng, 1, config)
    stop = _serial_search(np.concatenate([p for p, _ in bins]), config.policy.order, beta)
    return _classify(stop, int(cb[0]), int(cp[0]), config.policy.accept_half_width)


def _first_stop(pre: np.ndarray, sig: np.ndarray, post: np.ndarray, order: SearchOrder,
                beta: float) -> tuple[int, bool] | None:
    """(bin, at the correct phase) of the first segment whose maximum
    exceeds beta, visiting the segments of one recorded trial in search
    order, or None."""
    segments = ((pre, False), (sig, True), (post, False))
    k = sig.size
    if order is SearchOrder.CODE_PHASE_FIRST:
        visits = [(b, seg) for b in range(k) for seg in segments]
    else:
        visits = [(b, seg) for seg in segments for b in range(k)]
    for b, (values, correct) in visits:
        if values[b] > beta:
            return b, correct
    return None


def replay_records(rec, order: SearchOrder, betas: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Serial replay of recorded segment maxima at each threshold in turn:
    correct-phase stops per (offset from the correct bin + k - 1, beta
    index) and stops of any kind per beta index."""
    det = np.zeros((2 * k - 1, betas.size), dtype=np.int64)
    stops = np.zeros(betas.size, dtype=np.int64)
    for j, beta in enumerate(betas):
        for t, cb in enumerate(rec.cb):
            stop = _first_stop(rec.pre[t], rec.sig[t], rec.post[t], order, float(beta))
            if stop is None:
                continue
            stops[j] += 1
            if stop[1]:
                det[stop[0] - cb + k - 1, j] += 1
    return det, stops


def offset_mean_z(rec, l: int, want: float) -> float:
    """z-score against want of the mean recorded correct-phase metric over
    the bins at offset +-l from the correct one.  The standard error is
    clustered by trial: a trial's two bins at +-l share its residual Doppler."""
    at = np.abs(np.arange(rec.sig.shape[1])[None, :] - rec.cb[:, None]) == l
    s, c = np.where(at, rec.sig, 0.0).sum(axis=1), at.sum(axis=1)
    mean = s.sum() / c.sum()
    return float((mean - want) * c.sum() / np.sqrt(np.sum((s - mean * c) ** 2)))


def averaged_detection_serial(profile: NonCentralityProfile, beta: float, k: int, n: int,
                              m_accept: int, order: SearchOrder) -> float:
    """acqroc.oracle.averaged_detection one placement at a time, by its own
    walk rather than through acqroc.oracle: per placement (cb, cp) the cells
    are visited in search order with a running survival product, a cell's
    stop probability being its crossing probability times the probability
    that no earlier cell crossed, and the accepted stops are summed in
    ascending bin order."""
    pfa = cell_pfa(beta)
    pdet_by_offset = cell_pdet(np.array([profile.at_offset(s) for s in range(k)]), beta)
    if order is SearchOrder.CODE_PHASE_FIRST:
        visits = [(b, ph) for b in range(k) for ph in range(n)]
    else:
        visits = [(b, ph) for ph in range(n) for b in range(k)]
    total = 0.0
    for cb in range(k):
        for cp in range(n):
            stop, survive = {}, 1.0
            for b, ph in visits:
                p = float(pdet_by_offset[abs(b - cb)]) if ph == cp else pfa
                stop[b, ph] = p * survive
                survive *= 1.0 - p
            total += sum(stop[b, cp] for b in range(max(0, cb - m_accept),
                                                     min(k, cb + m_accept + 1)))
    return total / (k * n)


def dirichlet_kernel(x, n: int = CODE_LENGTH):
    """sin(pi x) / (n sin(pi x / n)): the exact frequency-mismatch loss of an
    n-point average; approaches sinc(x) for large n."""
    xa = np.asarray(x, dtype=np.float64)
    num = np.sin(np.pi * xa)
    den = n * np.sin(np.pi * xa / n)
    small = np.abs(den) < 1e-300
    out = np.where(small, 1.0, num / np.where(small, 1.0, den))
    return float(out) if np.ndim(x) == 0 else out


class _ZeroNoise:
    """Stands in for the generator of `_synth_bin`: all its noise is zero."""

    @staticmethod
    def standard_normal(shape):
        return np.zeros(shape)


def noiseless_metric(params: SignalParams, delta_f_hz: float, code_phase: int = 0) -> float:
    """Decision metric |X|^2 of the full chain without noise, at the correct
    code phase and a residual Doppler of delta_f_hz from the local frequency."""
    csig = _code_rows(_PRN_SIGNAL, np.array([code_phase]), _code_periods(params.t_per))
    rx = _received_rows(params, csig, np.array([float(delta_f_hz)]), np.zeros(1))
    p, = _correlate_all_phases(_synth_bin(_ZeroNoise(), rx, 0.0),
                               (_search_spectrum(_PRN_SIGNAL),))
    return float(p[0, code_phase])
