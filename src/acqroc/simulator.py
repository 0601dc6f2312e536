"""Monte Carlo verification of serial-search acquisition at two fidelities.

Metric level draws each cell's decision metric from its exact
per-realization distribution: noise cells are Exp(1), the correct-phase
cell of the bin at signed offset s is |sqrt(L/2) e^{j psi} + n|^2 with
L = L_max sinc^2((df0 - s W) T_per) for the realized residual Doppler df0
(zero beyond the l_max truncation, where that cell is drawn as the Exp(1)
it then is; only the +-l_max band takes the non-central draw).  Waveform
level synthesizes each trial's received code-modulated carrier once, then
per Doppler bin downconverts it with that bin's local-oscillator row, adds
a fresh white noise realization, despreads at every code phase, averages,
and squares; the metrics then come out of the arithmetic instead of out of
a distribution.

Unit audit (waveform level).  The decision metric must have noise with
per-component variance 1/2 so thresholds mean the same thing in both
fidelities and in the closed forms.  The correlator X = (1/N) sum_n r[n]
c[n] scales noise variance by 1/N, so complex baseband noise is drawn with
per-sample per-component variance N/2.  The noiseless correlator peak is
the baseband amplitude times the Dirichlet kernel D, so amplitude
sqrt(C/2) with C = L_max makes the non-centrality of 2|X|^2 equal
2 (sqrt(C/2) D)^2 = L_max D^2, which is 2 T_per (C/N0) D^2: the defining
relation between C/N0 and L_max.  In the real-IF validation mode the same
audit gives per-sample real noise variance equal to the high-rate sample
count N_high and amplitude sqrt(2 C): downconversion halves the amplitude
and splits the noise between components, averaging by R = N_high/N then
restores the chip-rate figures above.  Either way the code runs at
1.023 Mchip/s, f_s/1.023 MHz samples per chip, and repeats T_per/1 ms times
within an integration; each chip's samples are averaged and the code
periods summed coherently, so the correlator still averages all N_high
samples of the integration and the audit is unchanged.

Determinism.  Trials are processed in fixed-size batches; batch i of run
tag t draws from its own SFC64 generator, seeded with the i-th child of
SeedSequence((seed, t)).spawn(), at both fidelities.  Thresholds are
applied post hoc to recorded per-trial segment maxima, so one pass serves a
whole beta grid, and all aggregation is integer counting: results are
identical for any worker count.  Detection batches use run tag 0.  At
waveform level each detection batch also searches its received samples
with the false-alarm code and records each trial's global maximum of that
search, so the false-alarm maxima come from the detection batches; only the
metric level runs a separate false-alarm run, with run tag 1.
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
    "WaveformConfig",
    "SimConfig",
    "McEstimate",
    "draw_metric",
    "monte_carlo_sweep",
    "wilson_interval",
    "dirichlet_kernel",
    "noiseless_metric",
]

# Fixed batch sizes are part of the algorithm: changing them would reshuffle
# substreams and therefore results for a given seed.
_BATCH_METRIC = 4096
_BATCH_WAVEFORM = 256

# the C/A code: 1023 chips at 1.023 Mchip/s, one period per millisecond
_CHIP_RATE_HZ = 1.023e6


class Fidelity(Enum):
    METRIC_LEVEL = "metric"
    WAVEFORM = "waveform"


@dataclass(frozen=True)
class WaveformConfig:
    """Sampling and code selection for the waveform-level chain.

    f_if = 0 selects complex-baseband synthesis at f_s, a nonzero f_if
    real-valued IF synthesis at f_s; both average down to one sample per
    chip, so f_s must be a whole multiple of the 1.023 MHz chip rate.
    Detection searches with prn_signal, the false-alarm search with
    false_alarm_prn.
    """

    f_s: float = 1.023e6
    f_if: float = 0.0
    prn_signal: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_s) and self.f_s > 0.0):
            raise ValueError("f_s must be positive")
        if not (math.isfinite(self.f_if) and self.f_if >= 0.0):
            raise ValueError("f_if must be finite and >= 0")

    def _chip_layout(self, t_per: float) -> tuple[int, int]:
        """Samples per chip f_s/1.023 MHz and code periods T_per/1 ms."""
        r, periods = self.f_s / _CHIP_RATE_HZ, t_per * _CHIP_RATE_HZ / CODE_LENGTH
        if not all(round(v) >= 1 and abs(v - round(v)) <= 1e-9 * v for v in (r, periods)):
            raise ValueError(f"f_s / 1.023 MHz = {r!r} and t_per / 1 ms = {periods!r} "
                             "must be whole numbers")
        return round(r), round(periods)

    def samples_per_period(self, t_per: float) -> int:
        """Samples per integration period: chips x samples per chip x code
        periods."""
        r, periods = self._chip_layout(t_per)
        return CODE_LENGTH * r * periods

    @property
    def false_alarm_prn(self) -> int:
        """PRN 5, or PRN 1 when the signal is PRN 5."""
        return 5 if self.prn_signal != 5 else 1


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
    waveform: WaveformConfig = WaveformConfig()

    def __post_init__(self) -> None:
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        _check_global_args(self.grid.num_bins, self.policy.accept_half_width, l_max=self.l_max)
        if self.fidelity is Fidelity.WAVEFORM:
            self.waveform.samples_per_period(self.params.t_per)


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
    lvals[rows, bins] = l_max_param(params) * np.sinc(resid * grid.t_per) ** 2
    return lvals


def dirichlet_kernel(x, n: int = CODE_LENGTH):
    """sin(pi x) / (n sin(pi x / n)): the exact frequency-mismatch loss of an
    n-point average; approaches sinc(x) for large n."""
    xa = np.asarray(x, dtype=np.float64)
    num = np.sin(np.pi * xa)
    den = n * np.sin(np.pi * xa / n)
    small = np.abs(den) < 1e-300
    out = np.where(small, 1.0, num / np.where(small, 1.0, den))
    return float(out) if np.ndim(x) == 0 else out


def _received_rows(params: SignalParams, wf: WaveformConfig, csig_rows: np.ndarray,
                   f_doppler: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Noiseless received samples of a batch, rows trials: each trial's
    code-modulated carrier at its Doppler and carrier phase, synthesized once
    for all Doppler bins (complex baseband, or real IF when f_if > 0)."""
    lm = l_max_param(params)
    t = np.arange(csig_rows.shape[1]) / wf.f_s
    if wf.f_if == 0.0:
        phase = 2.0 * np.pi * f_doppler[:, None] * t[None, :] + theta[:, None]
        return math.sqrt(lm / 2.0) * csig_rows * np.exp(1j * phase)
    carrier = np.cos(2.0 * np.pi * (wf.f_if + f_doppler[:, None]) * t[None, :]
                     + theta[:, None])
    return math.sqrt(2.0 * lm) * csig_rows * carrier


def _synth_bin(params: SignalParams, wf: WaveformConfig, rng: np.random.Generator | None,
               rx: np.ndarray, f_local: float) -> np.ndarray:
    """One Doppler bin's samples, downconverted and folded to one code period
    at chip rate: the received rows rx of `_received_rows` times the bin's
    local-oscillator row, plus that bin's fresh noise; rows are trials.
    At baseband the noise is one standard_normal((nb, 2 n_high)) draw read
    as complex (real and imaginary parts interleaved), scaled in place to
    per-component variance n_high/2, with the downconverted carrier added in
    place; at real IF it is one standard_normal((nb, n_high)) plane of
    variance n_high added before the downconversion.  rng None disables
    noise."""
    nb, n_high = rx.shape
    r, periods = wf._chip_layout(params.t_per)
    t = np.arange(n_high) / wf.f_s
    if wf.f_if == 0.0:
        # complex baseband: only the residual Doppler matters
        lo = np.exp(-2j * np.pi * f_local * t)
        if rng is None:
            base = rx * lo
        else:
            g = rng.standard_normal((nb, 2 * n_high))
            g *= math.sqrt(n_high / 2.0)
            base = g.view(np.complex128)
            base += rx * lo
    else:
        # real IF: add the passband noise and multiply down
        y = rx
        if rng is not None:
            y = rng.standard_normal((nb, n_high))
            y *= math.sqrt(float(n_high))
            y += rx
        base = y * np.exp(-2j * np.pi * (wf.f_if + f_local) * t)[None, :]
    # average each chip's r samples, then sum the code periods coherently
    if r > 1:
        base = base.reshape(nb, -1, r).mean(axis=2)
    if periods > 1:
        base = base.reshape(nb, periods, CODE_LENGTH).mean(axis=1)
    return base


def _search_spectrum(prn: int) -> np.ndarray:
    """conj(C)/N^2 for the DFT C of a search code: the correlator's spectral
    factor, computed once per batch."""
    chips = generate_ca_code(prn).chips.astype(np.float64)
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


def _code_rows(prn: int, cp: np.ndarray, r: int, periods: int) -> np.ndarray:
    """Code chips delayed by each trial's phase, sample-and-held r times and
    repeated over the code periods."""
    chips = generate_ca_code(prn).chips.astype(np.float64)
    idx = (np.arange(CODE_LENGTH)[None, :] - cp[:, None]) % CODE_LENGTH
    return np.tile(np.repeat(chips[idx], r, axis=1), periods)


def noiseless_metric(params: SignalParams, wf: WaveformConfig, delta_f_hz: float,
                     code_phase: int = 0) -> float:
    """Decision metric |X|^2 of the full chain without noise, at the correct
    code phase and a residual Doppler of delta_f_hz from the local frequency."""
    prn = wf.prn_signal
    csig = _code_rows(prn, np.array([code_phase]), *wf._chip_layout(params.t_per))
    rx = _received_rows(params, wf, csig, np.array([float(delta_f_hz)]), np.zeros(1))
    base = _synth_bin(params, wf, None, rx, 0.0)
    p, = _correlate_all_phases(base, (_search_spectrum(prn),))
    return float(p[0, code_phase])


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
                         config: SimConfig) -> _Records:
    """Draws cb, cp and df0, then every correct-phase cell as Exp(1), then
    the non-central metrics of the cells within +-l_max of the correct bin
    over those, then the pre and post maxima.  Outside the band L = 0, where
    |sqrt(L/2) e^{j psi} + n|^2 is exactly Exp(1)."""
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
    return _Records(cb=cb, sig=sig, pre=pre, post=post)


def _waveform_batch(rng: np.random.Generator, nb: int, config: SimConfig):
    """The trial setup shared by every waveform-level search: draws nb
    trials' correct bins cb, phases cp, residual Dopplers and carrier phases
    (in that order), synthesizes their received carriers once, and returns
    (cb, cp, bins), where bins yields, per Doppler bin, the |X|^2 of the
    signal code's search at every code phase (rows trials) and each row's
    maximum of the false-alarm code's search over the same samples; each
    bin downconverts with its local-oscillator row and draws its noise as it
    is reached."""
    wf = config.waveform
    grid = config.grid
    k, n = grid.num_bins, CODE_LENGTH
    cb = rng.integers(0, k, nb)
    cp = rng.integers(0, n, nb)
    df0 = rng.uniform(-grid.bin_width_hz / 2.0, grid.bin_width_hz / 2.0, nb)
    theta = rng.uniform(0.0, 2.0 * math.pi, nb)
    centers = _bin_centers(grid)
    csig = _code_rows(wf.prn_signal, cp, *wf._chip_layout(config.params.t_per))
    rx = _received_rows(config.params, wf, csig, centers[cb] + df0, theta)
    # false-alarm search first: its power, formed in place in a copy of the
    # bin's DFT, is reduced to row maxima before the signal search runs
    spectra = (_search_spectrum(wf.false_alarm_prn), _search_spectrum(wf.prn_signal))

    def bins():
        # closing the correlator lets the bin's samples go before the next
        # bin is drawn
        for b in range(k):
            powers = _correlate_all_phases(
                _synth_bin(config.params, wf, rng, rx, float(centers[b])), spectra)
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


def _run_batches(config: SimConfig, run_tag: int, worker, workers: int):
    """Evaluate `worker(rng, nb)` over deterministic per-batch substreams and
    return the results in batch order."""
    batch = _BATCH_METRIC if config.fidelity is Fidelity.METRIC_LEVEL else _BATCH_WAVEFORM
    sizes = _batch_sizes(config.trials, batch)
    seeds = np.random.SeedSequence(entropy=(int(config.seed), run_tag)).spawn(len(sizes))

    def job(i: int):
        rng = np.random.Generator(np.random.SFC64(seeds[i]))
        return worker(rng, sizes[i])

    if workers <= 1:
        return [job(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, range(len(sizes))))


def monte_carlo_sweep(config: SimConfig, betas, workers: int = 1) -> list[McEstimate]:
    """Detection and false-alarm estimates at every threshold of an ascending
    grid, from one recording pass.  At waveform level the detection batches
    also carry the false-alarm maxima; at metric level a signal-free trial
    needs no received samples, and a run of its own (run tag 1) draws each
    trial's global maximum of K N Exp(1) cells exactly."""
    betas = _beta_array(betas)
    k = config.grid.num_bins
    m = config.policy.accept_half_width
    order = config.policy.order
    metric_level = config.fidelity is Fidelity.METRIC_LEVEL

    def det_worker(rng, nb):
        if metric_level:
            return _count_detection(_record_metric_batch(rng, nb, config), order, betas, k), None
        rec, fa_max = _record_waveform_batch(rng, nb, config)
        return _count_detection(rec, order, betas, k), _count_stops(fa_max, betas)

    def fa_worker(rng, nb):
        return _count_stops(_exp_block_max(rng, np.full(nb, k * CODE_LENGTH)), betas)

    hist = np.zeros((2 * k - 1, betas.size + 1), dtype=np.int64)
    stops = np.zeros(betas.size + 1, dtype=np.int64)
    fa = np.zeros(betas.size + 1, dtype=np.int64)
    for (h, s), f in _run_batches(config, 0, det_worker, workers):
        hist += h
        stops += s
        if f is not None:
            fa += f
    if metric_level:
        for f in _run_batches(config, 1, fa_worker, workers):
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

