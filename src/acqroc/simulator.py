"""Monte Carlo verification of serial-search acquisition at two fidelities.

Metric level draws each cell's decision metric from its exact
per-realization distribution: noise cells are Exp(1), the correct-phase
cell of the bin at signed offset s is |sqrt(L/2) e^{j psi} + n|^2 with
L = L_max sinc^2((df0 - s W) T_per), T_per of SignalParams, for the
realized residual Doppler df0 (zero beyond the l_max truncation, where that
cell is drawn as the Exp(1) it then is; only the +-l_max band takes the
non-central draw).  Waveform level synthesizes each trial's received
code-modulated carrier once, then per Doppler bin downconverts it with that
bin's local-oscillator row, adds a fresh white noise realization, despreads
at every code phase, averages, and squares; the metrics then come out of
the arithmetic instead of out of a distribution.

Unit audit (waveform level).  The decision metric must have noise with
per-component variance 1/2 so thresholds mean the same thing in both
fidelities and in the closed forms.  The chain is complex baseband at one
sample per chip: the C/A code runs at 1.023 Mchip/s and repeats T_per/1 ms
times within an integration of N = 1023 T_per/1 ms samples, and the code
periods are summed coherently before the correlation.  The correlator
X = (1/N) sum_n r[n] c[n] scales noise variance by 1/N, so the noise is
drawn with per-sample per-component variance N/2.  The noiseless correlator
peak is the baseband amplitude times the Dirichlet kernel D, so amplitude
sqrt(C/2) with C = L_max makes the non-centrality of 2|X|^2 equal
2 (sqrt(C/2) D)^2 = L_max D^2, which is 2 T_per (C/N0) D^2: the defining
relation between C/N0 and L_max.  Detection searches with the signal's
PRN 1, the false-alarm search with PRN 5.

Determinism.  Trials are processed in fixed-size batches; batch i draws
from its own SFC64 generator, seeded with the i-th child of
SeedSequence((seed, 0)).spawn(), at both fidelities.  Thresholds are
applied post hoc to recorded per-trial segment maxima, so one pass serves a
whole beta grid, and all aggregation is integer counting: results are
identical for any worker count.  Each batch also records every trial's
global maximum of a signal-free search: at waveform level its received
samples searched with the false-alarm code, at metric level the maximum of
K N Exp(1) cells drawn after the batch's detection draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analytic import (DopplerGrid, SearchOrder, SearchPolicy, SignalParams, _beta_array,
                       _check_global_args, l_max_param)
from .prncode import CODE_LENGTH, generate_ca_code

__all__ = [
    "Fidelity",
    "SimConfig",
    "McEstimate",
    "draw_metric",
    "monte_carlo_sweep",
    "wilson_interval",
]

# Fixed batch sizes are part of the algorithm: changing them would reshuffle
# substreams and therefore results for a given seed.
_BATCH_METRIC = 4096
_BATCH_WAVEFORM = 256

# the C/A code: 1023 chips at 1.023 Mchip/s, one period per millisecond
_CHIP_RATE_HZ = 1.023e6
# the transmitted code, and the code the false-alarm search despreads with
_PRN_SIGNAL = 1
_PRN_FALSE_ALARM = 5


class Fidelity(Enum):
    METRIC_LEVEL = "metric"
    WAVEFORM = "waveform"


def _code_periods(t_per: float) -> int:
    """Code periods T_per/1 ms per integration, which must be whole."""
    periods = t_per * _CHIP_RATE_HZ / CODE_LENGTH
    if round(periods) < 1 or abs(periods - round(periods)) > 1e-9 * periods:
        raise ValueError(f"t_per / 1 ms = {periods!r}: the waveform chain needs "
                         "whole numbers of 1 ms code periods")
    return round(periods)


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: sampling plan plus the search definition."""

    trials: int
    seed: int
    fidelity: Fidelity
    params: SignalParams
    grid: DopplerGrid
    policy: SearchPolicy
    l_max: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        _check_global_args(self.grid.num_bins, self.policy.accept_half_width, l_max=self.l_max)
        if self.fidelity is Fidelity.WAVEFORM:
            _code_periods(self.params.t_per)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimates at one threshold.

    p_det comes from the detection search (search code = signal code); p_fa
    is the stop probability of the signal-free false-alarm search.  Confidence
    intervals are 95% Wilson.  stop_offset_counts histograms the detection
    run's correct-phase stops by stop-bin offset from the correct bin,
    regardless of the acceptance half-width.
    """

    beta: float
    trials: int
    n_detect: int
    n_false_stop: int
    n_no_stop: int
    n_fa_stop: int
    p_det: float
    p_det_ci: tuple[float, float]
    p_fa: float
    p_fa_ci: tuple[float, float]
    stop_offset_counts: dict[int, int]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    zz = z * z
    denom = 1.0 + zz / trials
    center = (p + zz / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# --- elementary draws -----------------------------------------------------------

def draw_metric(l_param, rng: np.random.Generator, size=None):
    """Cell decision metrics |X|^2 with X = sqrt(L/2) e^{j psi} + n,
    psi uniform and n complex Gaussian with per-component variance 1/2;
    2|X|^2 is then non-central chi-squared with 2 dof and non-centrality L.
    An array L gives one metric per entry (drawn as all psi, then both noise
    components); a scalar L without size gives one float.
    """
    ls = np.asarray(l_param, dtype=np.float64)
    if not (np.isfinite(ls).all() and (ls >= 0.0).all()):
        raise ValueError("l_param must be finite and >= 0")
    if size is None and ls.ndim:
        size = ls.shape
    amp = np.sqrt(0.5 * ls)
    psi = rng.uniform(0.0, 2.0 * math.pi, size)
    g1 = rng.standard_normal(size)
    g2 = rng.standard_normal(size)
    re = amp * np.cos(psi) + math.sqrt(0.5) * g1
    im = amp * np.sin(psi) + math.sqrt(0.5) * g2
    out = re * re + im * im
    return float(out) if size is None else out


def _exp_block_max(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """Max of `counts` iid Exp(1) per entry, exactly, via inverse CDF of the
    maximum; empty blocks give -inf."""
    u = rng.random(counts.shape)
    with np.errstate(divide="ignore"):
        # 1 - u^(1/n) as -expm1: for u near 1 the power sits within an ulp
        # of 1, where 1 - exp(y) would keep only its first few digits
        out = -np.log(-np.expm1(np.log(u) / counts))
    out[counts == 0] = -np.inf
    return out


def _realized_l(params: SignalParams, grid: DopplerGrid, l_max: int,
                cb: np.ndarray, df0: np.ndarray) -> np.ndarray:
    """Per-bin non-centrality for each trial: rows trials, columns bins;
    sinc^2 is evaluated only on the +-l_max band, zero outside it."""
    offsets = np.arange(grid.num_bins)[None, :] - cb[:, None]
    rows, bins = np.nonzero(np.abs(offsets) <= l_max)
    resid = df0[rows] - offsets[rows, bins] * grid.bin_width_hz
    lvals = np.zeros(offsets.shape)
    lvals[rows, bins] = l_max_param(params) * np.sinc(resid * params.t_per) ** 2
    return lvals


def _received_rows(params: SignalParams, csig_rows: np.ndarray, f_doppler: np.ndarray,
                   theta: np.ndarray) -> np.ndarray:
    """Noiseless complex-baseband samples of a batch, rows trials: each
    trial's code-modulated carrier at its Doppler and carrier phase,
    synthesized once for all Doppler bins."""
    t = np.arange(csig_rows.shape[1]) / _CHIP_RATE_HZ
    phase = 2.0 * np.pi * f_doppler[:, None] * t[None, :] + theta[:, None]
    return math.sqrt(l_max_param(params) / 2.0) * csig_rows * np.exp(1j * phase)


def _synth_bin(rng: np.random.Generator, rx: np.ndarray, f_local: float) -> np.ndarray:
    """One Doppler bin's samples, downconverted and folded to one code
    period: the received rows rx of `_received_rows` times the bin's
    local-oscillator row, plus that bin's fresh noise; rows are trials.  The
    noise is one standard_normal((nb, 2 n)) draw read as complex (real and
    imaginary parts interleaved), scaled in place to per-component variance
    n/2, with the downconverted carrier added in place; the code periods are
    then summed coherently."""
    nb, n = rx.shape
    lo = np.exp(-2j * np.pi * f_local * (np.arange(n) / _CHIP_RATE_HZ))
    g = rng.standard_normal((nb, 2 * n))
    g *= math.sqrt(n / 2.0)
    base = g.view(np.complex128)
    base += rx * lo
    if n > CODE_LENGTH:
        base = base.reshape(nb, -1, CODE_LENGTH).mean(axis=1)
    return base


def _search_spectrum(prn: int) -> np.ndarray:
    """conj(C)/N^2 for the DFT C of a search code: the correlator's spectral
    factor, computed once per batch."""
    chips = generate_ca_code(prn).astype(np.float64)
    return np.conj(np.fft.fft(chips)) / CODE_LENGTH ** 2


def _correlate_all_phases(baseband: np.ndarray, spectra: tuple[np.ndarray, ...]):
    """|X|^2 at every code phase against each search spectrum, yielded in
    turn: X[m] = (1/N) sum_n r[n] c[n - m].  With spectrum = conj(C)/N^2 of
    `_search_spectrum`, X is the unscaled inverse DFT (norm="forward") of the
    rows' DFT times the spectrum.  The forward DFT runs once, in place in
    baseband, which it overwrites.  Every spectrum but the last multiplies a
    copy of that DFT, and the inverse DFT and the power re^2 + im^2 are
    formed in place in the copy (the power a strided view of it); the last
    multiplies baseband in place, and its power is a new array, so holding
    it keeps none of the bin's samples alive."""
    x = np.fft.fft(baseband, axis=1, out=baseband)
    last = len(spectra) - 1
    for i, spectrum in enumerate(spectra):
        y = np.multiply(x, spectrum, out=x if i == last else None)
        y = np.fft.ifft(y, axis=1, norm="forward", out=y)
        v = y.view(np.float64)
        v *= v
        yield np.add(v[:, 0::2], v[:, 1::2], out=v[:, 0::2] if i < last else None)


def _code_rows(prn: int, cp: np.ndarray, periods: int) -> np.ndarray:
    """Code chips delayed by each trial's phase, repeated over the code
    periods."""
    chips = generate_ca_code(prn).astype(np.float64)
    idx = (np.arange(CODE_LENGTH)[None, :] - cp[:, None]) % CODE_LENGTH
    return np.tile(chips[idx], periods)


def _bin_centers(grid: DopplerGrid) -> np.ndarray:
    k = grid.num_bins
    return (np.arange(k) - (k - 1) / 2.0) * grid.bin_width_hz


# --- batched recording ----------------------------------------------------------

@dataclass
class _Records:
    """Per-trial segment maxima, sufficient to replay the serial search at
    any threshold: correct bins, the correct-phase metric per bin, and the
    maxima over each bin's cells before/after the correct phase."""

    cb: np.ndarray          # (nb,)
    sig: np.ndarray         # (nb, k)
    pre: np.ndarray         # (nb, k)
    post: np.ndarray        # (nb, k)


def _record_metric_batch(rng: np.random.Generator, nb: int,
                         config: SimConfig) -> tuple[_Records, np.ndarray]:
    """Draws cb, cp and df0, then every correct-phase cell as Exp(1), then
    the non-central metrics of the cells within +-l_max of the correct bin
    over those, then the pre and post maxima, and last each trial's
    false-alarm maximum over K N Exp(1) cells: a signal-free trial needs no
    received samples.  Outside the band L = 0, where |sqrt(L/2) e^{j psi} +
    n|^2 is exactly Exp(1)."""
    grid = config.grid
    k, n = grid.num_bins, CODE_LENGTH
    cb = rng.integers(0, k, nb)
    cp = rng.integers(0, n, nb)
    df0 = rng.uniform(-grid.bin_width_hz / 2.0, grid.bin_width_hz / 2.0, nb)
    lvals = _realized_l(config.params, grid, config.l_max, cb, df0)
    sig = rng.standard_exponential((nb, k))
    band = np.abs(np.arange(k)[None, :] - cb[:, None]) <= config.l_max
    sig[band] = draw_metric(lvals[band], rng)
    pre = _exp_block_max(rng, np.broadcast_to(cp[:, None], (nb, k)))
    post = _exp_block_max(rng, np.broadcast_to((n - 1 - cp)[:, None], (nb, k)))
    fa_max = _exp_block_max(rng, np.full(nb, k * n))
    return _Records(cb=cb, sig=sig, pre=pre, post=post), fa_max


def _waveform_batch(rng: np.random.Generator, nb: int, config: SimConfig):
    """The trial setup shared by every waveform-level search: draws nb
    trials' correct bins cb, phases cp, residual Dopplers and carrier phases
    (in that order), synthesizes their received carriers once, and returns
    (cb, cp, bins), where bins yields, per Doppler bin, the |X|^2 of the
    signal code's search at every code phase (rows trials) and each row's
    maximum of the false-alarm code's search over the same samples; each
    bin downconverts with its local-oscillator row and draws its noise as it
    is reached."""
    grid = config.grid
    k, n = grid.num_bins, CODE_LENGTH
    cb = rng.integers(0, k, nb)
    cp = rng.integers(0, n, nb)
    df0 = rng.uniform(-grid.bin_width_hz / 2.0, grid.bin_width_hz / 2.0, nb)
    theta = rng.uniform(0.0, 2.0 * math.pi, nb)
    centers = _bin_centers(grid)
    csig = _code_rows(_PRN_SIGNAL, cp, _code_periods(config.params.t_per))
    rx = _received_rows(config.params, csig, centers[cb] + df0, theta)
    # false-alarm search first: its power, formed in place in a copy of the
    # bin's DFT, is reduced to row maxima before the signal search runs
    spectra = (_search_spectrum(_PRN_FALSE_ALARM), _search_spectrum(_PRN_SIGNAL))

    def bins():
        # closing the correlator lets the bin's samples go before the next
        # bin is drawn
        for b in range(k):
            powers = _correlate_all_phases(
                _synth_bin(rng, rx, float(centers[b])), spectra)
            fa_max = next(powers).max(axis=1)
            yield next(powers), fa_max
            powers.close()

    return cb, cp, bins()


def _segment_maxima(p: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Per row of p (trials x code phases), the maxima of the cells before
    the row's correct phase cp, at it and after it, as the columns of a
    (rows, 3) array, from one reduceat over the flat powers; an empty
    segment (cp = 0 before, cp = N - 1 after) gives -inf."""
    nb, n = p.shape
    starts = np.arange(nb)[:, None] * n + np.stack([np.zeros_like(cp), cp, cp + 1], axis=1)
    # a last row with cp = N - 1 starts its empty after-segment at p.size,
    # past the end; clipped, it still ends that row's one-cell segment at cp
    out = np.maximum.reduceat(p.ravel(), np.minimum(starts.ravel(), p.size - 1))
    out = out.reshape(nb, 3)
    out[cp == 0, 0] = -np.inf
    out[cp == n - 1, 2] = -np.inf
    return out


def _record_waveform_batch(rng: np.random.Generator, nb: int,
                           config: SimConfig) -> tuple[_Records, np.ndarray]:
    """The detection records of a batch and each trial's global maximum of
    the false-alarm search over the same received samples."""
    k = config.grid.num_bins
    cb, cp, bins = _waveform_batch(rng, nb, config)
    sig = np.empty((nb, k))
    pre = np.empty((nb, k))
    post = np.empty((nb, k))
    fa_max = np.full(nb, -np.inf)
    for b in range(k):
        p, bin_fa_max = next(bins)
        pre[:, b], sig[:, b], post[:, b] = _segment_maxima(p, cp).T
        del p  # let this bin's power go before the next bin is synthesized
        np.maximum(fa_max, bin_fa_max, out=fa_max)
    return _Records(cb=cb, sig=sig, pre=pre, post=post), fa_max


# --- threshold evaluation --------------------------------------------------------

def _detection_intervals(rec: _Records, order: SearchOrder
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (trial, bin): the threshold interval [lo, hi) over which the
    serial search stops exactly at that bin's correct-phase cell, plus the
    global metric maximum per trial."""
    neg = np.full((rec.sig.shape[0], 1), -np.inf)
    if order is SearchOrder.CODE_PHASE_FIRST:
        bin_max = np.maximum(np.maximum(rec.pre, rec.post), rec.sig)
        running = np.maximum.accumulate(bin_max, axis=1)
        before = np.concatenate([neg, running[:, :-1]], axis=1)
        lo = np.maximum(before, rec.pre)
        gmax = running[:, -1]
    elif order is SearchOrder.DOPPLER_FIRST:
        pre_all = rec.pre.max(axis=1, keepdims=True)
        running_sig = np.maximum.accumulate(rec.sig, axis=1)
        before = np.concatenate([neg, running_sig[:, :-1]], axis=1)
        lo = np.maximum(pre_all, before)
        gmax = np.maximum(np.maximum(pre_all[:, 0], running_sig[:, -1]),
                          rec.post.max(axis=1))
    else:
        raise ValueError(f"unknown search order {order!r}")
    return lo, rec.sig, gmax


def _count_detection(rec: _Records, order: SearchOrder, betas: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """Difference-array counts: correct-phase stops per (offset, beta index)
    and any-stop counts per beta index.  Only the (trial, bin) pairs with
    hi > lo can hold a threshold, so only they are searched; an interval
    [i_lo, i_hi) adds +1 at i_lo and -1 at i_hi of its offset's row."""
    width = betas.size + 1
    lo, hi, gmax = _detection_intervals(rec, order)
    rows, bins = np.nonzero(hi > lo)
    i_lo = np.searchsorted(betas, lo[rows, bins], side="left")
    i_hi = np.searchsorted(betas, hi[rows, bins], side="left")
    cell = (bins - rec.cb[rows] + (k - 1)) * width
    size = (2 * k - 1) * width
    hist = np.bincount(cell + i_lo, minlength=size) - np.bincount(cell + i_hi, minlength=size)
    return hist.reshape(2 * k - 1, width), _count_stops(gmax, betas)


def _count_stops(gmax: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Difference-array counts of the stops [0, i_g) per beta index."""
    out = -np.bincount(np.searchsorted(betas, gmax, side="left"), minlength=betas.size + 1)
    out[0] += gmax.size
    return out


# --- batched execution ------------------------------------------------------------

def _batch_sizes(trials: int, batch: int) -> list[int]:
    sizes = [batch] * (trials // batch)
    if trials % batch:
        sizes.append(trials % batch)
    return sizes


def _run_batches(config: SimConfig, worker, workers: int):
    """Evaluate `worker(rng, nb)` over deterministic per-batch substreams and
    return the results in batch order."""
    batch = _BATCH_METRIC if config.fidelity is Fidelity.METRIC_LEVEL else _BATCH_WAVEFORM
    sizes = _batch_sizes(config.trials, batch)
    # validate draws from (seed, 2), disjoint from these substreams
    seeds = np.random.SeedSequence(entropy=(int(config.seed), 0)).spawn(len(sizes))

    def job(i: int):
        rng = np.random.Generator(np.random.SFC64(seeds[i]))
        return worker(rng, sizes[i])

    if workers <= 1:
        return [job(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(len(sizes))))


def monte_carlo_sweep(config: SimConfig, betas, workers: int = 1) -> list[McEstimate]:
    """Detection and false-alarm estimates at every threshold of an ascending
    grid, from one recording pass: each batch records its detection search
    and every trial's global maximum of a signal-free search."""
    betas = _beta_array(betas)
    k = config.grid.num_bins
    m = config.policy.accept_half_width
    order = config.policy.order
    record = (_record_metric_batch if config.fidelity is Fidelity.METRIC_LEVEL
              else _record_waveform_batch)

    def worker(rng, nb):
        rec, fa_max = record(rng, nb, config)
        return _count_detection(rec, order, betas, k), _count_stops(fa_max, betas)

    hist = np.zeros((2 * k - 1, betas.size + 1), dtype=np.int64)
    stops = np.zeros(betas.size + 1, dtype=np.int64)
    fa = np.zeros(betas.size + 1, dtype=np.int64)
    for (h, s), f in _run_batches(config, worker, workers):
        hist += h
        stops += s
        fa += f
    hist = np.cumsum(hist, axis=1)[:, :-1]
    stops = np.cumsum(stops)[:-1]
    fa = np.cumsum(fa)[:-1]
    offsets = np.arange(-(k - 1), k)
    accepted = np.abs(offsets) <= m
    out = []
    for j, beta in enumerate(betas):
        n_det = int(hist[accepted, j].sum())
        n_stop = int(stops[j])
        n_fa = int(fa[j])
        out.append(McEstimate(
            beta=float(beta),
            trials=config.trials,
            n_detect=n_det,
            n_false_stop=n_stop - n_det,
            n_no_stop=config.trials - n_stop,
            n_fa_stop=n_fa,
            p_det=n_det / config.trials,
            p_det_ci=wilson_interval(n_det, config.trials),
            p_fa=n_fa / config.trials,
            p_fa_ci=wilson_interval(n_fa, config.trials),
            stop_offset_counts={int(o): int(hist[i, j]) for i, o in enumerate(offsets)},
        ))
    return out

