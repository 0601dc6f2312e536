"""Waveform-level chain, chip-rate complex baseband with PRN 1 as the signal
and PRN 5 as the false-alarm search code: noiseless transfer function,
cross-fidelity agreement, and code cross-correlation effects."""

import math

import numpy as np
import pytest

from acqroc.analytic import (
    DopplerGrid,
    SearchOrder,
    SearchPolicy,
    SignalParams,
    cell_pfa,
    default_beta_grid,
    expected_noncentrality,
    global_pdet_code_first_exact,
    global_pfa,
    l_max_param,
)
from acqroc.prncode import CODE_LENGTH, generate_ca_code
from acqroc.simulator import (
    Fidelity,
    SimConfig,
    _code_periods,
    _correlate_all_phases,
    _record_waveform_batch,
    _search_spectrum,
    _segment_maxima,
    _synth_bin,
    _waveform_batch,
    monte_carlo_sweep,
)
from single_trial import (Classification, _ZeroNoise, dirichlet_kernel, noiseless_metric,
                          offset_mean_z, run_waveform_trial)

PARAMS = SignalParams(cn0_dbhz=40.0, t_per=1e-3)
N = CODE_LENGTH
GRID = DopplerGrid(1000.0, 5000.0)


def _wave_config(trials, seed, m=0, threshold=None):
    return SimConfig(trials=trials, seed=seed, fidelity=Fidelity.WAVEFORM,
                     params=PARAMS, grid=GRID,
                     policy=SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, threshold))


class _NoiselessDraws(_ZeroNoise):
    """Stands in for the generator: one trial with the given correct bin,
    code phase and residual Doppler, zero carrier phase and no noise."""

    def __init__(self, cb, cp, df0):
        self._ints = iter([cb, cp])
        self._uniforms = iter([df0, 0.0])

    def integers(self, lo, hi, size):
        return np.full(size, next(self._ints))

    def uniform(self, lo, hi, size):
        return np.full(size, next(self._uniforms))


class TestDirichletKernel:
    def test_unity_at_zero(self):
        assert dirichlet_kernel(0.0) == 1.0

    def test_tracks_sinc_for_long_codes(self):
        xs = np.linspace(-2.0, 2.0, 41)
        gap = np.abs(dirichlet_kernel(xs) - np.sinc(xs))
        assert gap.max() < 1e-5

    def test_vector_and_scalar_agree(self):
        xs = np.array([0.0, 0.3, 1.2])
        vec = dirichlet_kernel(xs)
        assert vec[1] == dirichlet_kernel(0.3)
        assert isinstance(dirichlet_kernel(0.3), float)


class TestNoiselessChain:
    def test_matches_dirichlet_prediction(self):
        lm = l_max_param(PARAMS)
        for dft in (0.0, 0.25, 0.5, 1.0):
            met = noiseless_metric(PARAMS, dft / 1e-3)
            want = dirichlet_kernel(dft) ** 2
            assert abs(2.0 * met / lm - want) < 1e-9, dft

    def test_peak_independent_of_code_phase(self):
        a = noiseless_metric(PARAMS, 250.0, code_phase=0)
        b = noiseless_metric(PARAMS, 250.0, code_phase=777)
        assert a == pytest.approx(b, rel=1e-12)

    def test_sampling_validation(self):
        # the chain integrates whole 1 ms code periods
        assert _code_periods(1e-3) == 1
        assert _code_periods(4e-3) == 4
        with pytest.raises(ValueError, match="whole numbers"):
            _code_periods(1.5e-3)

    def test_code_runs_at_chip_rate_over_several_periods(self):
        # at T_per = 2 ms the code runs at 1.023 Mchip/s and repeats once:
        # the chain's noiseless power at every code phase, sidelobes
        # included, equals a direct correlation over the two code periods
        params = SignalParams(cn0_dbhz=40.0, t_per=2e-3)
        config = SimConfig(trials=1, seed=0, fidelity=Fidelity.WAVEFORM, params=params,
                           grid=DopplerGrid(500.0, 5000.0),
                           policy=SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0))
        cb, cp, df0 = 7, 300, 300.0
        _, _, bins = _waveform_batch(_NoiselessDraws(cb, cp, df0), 1, config)
        got = [p for p, _ in bins][cb][0]
        code = generate_ca_code(1).astype(np.float64)
        n = np.arange(2 * N)
        rx = (math.sqrt(l_max_param(params) / 2.0) * code[(n - cp) % N]
              * np.exp(2j * np.pi * df0 * n / 1.023e6))
        want = np.array([abs(np.dot(rx, code[(n - m) % N])) ** 2 for m in range(N)])
        want /= (2 * N) ** 2
        assert np.max(np.abs(got - want)) <= 1e-9 * want.max()


class TestChainReference:
    @pytest.mark.parametrize("t_per", [1e-3, 2e-3], ids=["baseband-1ms", "baseband-2ms"])
    def test_powers_match_per_bin_synthesis(self, t_per):
        # reference: draw the trial setup and, per bin, the noise in the
        # chain's order and layout (one draw of 2 n_high normals per trial,
        # real and imaginary parts interleaved), synthesize each bin's
        # received samples from scratch (carrier at the residual Doppler
        # f_d - f_b) and correlate them over the whole integration against
        # every delayed copy of the signal code (PRN 1) and of the
        # false-alarm code (PRN 5), keeping each row's maximum of the latter
        params = SignalParams(cn0_dbhz=40.0, t_per=t_per)
        grid = DopplerGrid(500.0, 2000.0)
        config = SimConfig(trials=1, seed=0, fidelity=Fidelity.WAVEFORM, params=params,
                           grid=grid, policy=SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0))
        nb, k, seed = 3, grid.num_bins, 12345
        n_high = N * round(t_per / 1e-3)
        lm = l_max_param(params)
        rng = np.random.Generator(np.random.Philox(seed))
        cb = rng.integers(0, k, nb)
        cp = rng.integers(0, N, nb)
        df0 = rng.uniform(-grid.bin_width_hz / 2.0, grid.bin_width_hz / 2.0, nb)
        theta = rng.uniform(0.0, 2.0 * math.pi, nb)
        centers = (np.arange(k) - (k - 1) / 2.0) * grid.bin_width_hz
        fd = centers[cb] + df0
        t = np.arange(n_high) / 1.023e6
        chip = np.arange(n_high)
        code = generate_ca_code(1).astype(np.float64)
        csig = code[(chip[None, :] - cp[:, None]) % N]
        search = code[(chip[None, :] - np.arange(N)[:, None]) % N]
        code5 = generate_ca_code(5).astype(np.float64)
        search5 = code5[(chip[None, :] - np.arange(N)[:, None]) % N]
        want, want_fa = [], []
        for fb in centers:
            phase = 2.0 * np.pi * (fd[:, None] - fb) * t[None, :] + theta[:, None]
            g = rng.standard_normal((nb, 2 * n_high))
            noise = g[:, 0::2] + 1j * g[:, 1::2]
            rx = (math.sqrt(lm / 2.0) * csig * np.exp(1j * phase)
                  + math.sqrt(n_high / 2.0) * noise)
            want.append(np.abs(rx @ search.T / n_high) ** 2)
            want_fa.append((np.abs(rx @ search5.T / n_high) ** 2).max(axis=1))
        got_cb, got_cp, bins = _waveform_batch(np.random.Generator(np.random.Philox(seed)),
                                               nb, config)
        assert np.array_equal(got_cb, cb) and np.array_equal(got_cp, cp)
        got = list(bins)
        assert len(got) == k
        for b, (p, fa_max) in enumerate(got):
            assert np.max(np.abs(p - want[b])) <= 1e-9, b
            assert np.max(np.abs(fa_max - want_fa[b])) <= 1e-9, b


class TestSegmentMaxima:
    @pytest.mark.parametrize("nb, last_cp", [(37, N - 1), (37, 0), (1, N - 1), (1, 0)])
    def test_matches_masked_maxima(self, nb, last_cp):
        # the one-reduceat maxima equal, bit for bit, the masked maxima of
        # the cells before and after the correct phase and the cell at it;
        # rows with cp = 0 (nothing before) and cp = N - 1 (nothing after),
        # the last row among them, give -inf for the empty segment
        rng = np.random.default_rng(nb)
        p = rng.exponential(size=(nb, N))
        cp = rng.integers(0, N, nb)
        cp[3::7] = 0
        cp[5::7] = N - 1
        cp[-1] = last_cp
        got = _segment_maxima(p, cp)
        phases = np.arange(N)[None, :]
        assert np.array_equal(got[:, 0], np.where(phases < cp[:, None], p, -np.inf).max(axis=1))
        assert np.array_equal(got[:, 1], p[np.arange(nb), cp])
        assert np.array_equal(got[:, 2], np.where(phases > cp[:, None], p, -np.inf).max(axis=1))


class TestNoiseUnits:
    @pytest.mark.parametrize("t_per", [1e-3, 2e-3], ids=["baseband", "baseband-2ms"])
    def test_signal_free_cells_are_unit_exponential(self, t_per):
        # with the signal switched off every cell |X|^2 is Exp(1), i.e. the
        # noise has per-component variance 1/2 after the correlator: the
        # mean over all cells and the exceedance fractions at beta = 2, 5
        # sit within 4 sigma of 1 and e^-beta; the cells of one row are
        # correlated through the code autocorrelation rho(d), which inflates
        # the variance of a row mean by sum_d |rho(d)|^2 (1.94 for PRN 1),
        # and to first order in |rho|^2 bounds the exceedance inflation too;
        # at 2 ms the two code periods are summed before the correlation
        nb, n_high = 256, N * _code_periods(t_per)
        rng = np.random.Generator(np.random.SFC64(7))
        rx = np.zeros((nb, n_high))
        spectrum = _search_spectrum(1)
        cells = np.concatenate([
            p for f_local in (-2000.0, 0.0, 500.0, 1500.0)
            for p in _correlate_all_phases(_synth_bin(rng, rx, f_local), (spectrum,))
        ]).ravel()
        code = generate_ca_code(1).astype(np.float64)
        rho = np.fft.ifft(np.abs(np.fft.fft(code)) ** 2).real / N
        inflation = float(np.sum(rho ** 2))
        assert abs(cells.mean() - 1.0) < 4.0 * math.sqrt(inflation / cells.size)
        for beta in (2.0, 5.0):
            q = math.exp(-beta)
            se = math.sqrt(q * (1.0 - q) * inflation / cells.size)
            assert abs(np.mean(cells > beta) - q) < 4.0 * se, beta


class TestMeanMetricByOffset:
    def test_is_one_plus_half_the_expected_noncentrality(self):
        # the paper's quantity: the mean correct-phase metric at offset l is
        # 1 + E[L_l]/2, E[L_l] the sinc^2 average over the residual Doppler
        nb = 1024
        rec, _ = _record_waveform_batch(np.random.Generator(np.random.SFC64(26)), nb,
                                        _wave_config(nb, 26))
        for l in range(5):
            want = 1.0 + expected_noncentrality(PARAMS, GRID, l) / 2.0
            assert abs(offset_mean_z(rec, l, want)) <= 4.0, l


class TestSingleWaveformTrial:
    def test_zero_threshold_stops_at_first_cell(self):
        cfg = _wave_config(1, 4, threshold=0.0)
        out = run_waveform_trial(cfg, np.random.default_rng(4))
        assert out.stopped and out.stop_bin == 0 and out.stop_phase == 0

    def test_huge_threshold_never_stops(self):
        cfg = _wave_config(1, 4, threshold=500.0)
        out = run_waveform_trial(cfg, np.random.default_rng(4))
        assert out.classified is Classification.NO_STOP

    def test_moderate_threshold_detects_sometimes(self):
        cfg = _wave_config(1, 4, m=1, threshold=10.0)
        rng = np.random.default_rng(8)
        seen = {run_waveform_trial(cfg, rng).classified for _ in range(40)}
        assert Classification.DETECTION in seen

    def test_outcome_frequencies_match_the_sweep(self):
        # the reference search over the synthesized cells and the batched
        # replay of their segment maxima sample the same stopped search:
        # detection, false-stop and no-stop frequencies agree within 4 sigma
        # of their difference, in both visiting orders; K = 4 keeps it fast,
        # and at beta = 8 noise cells before and after the correct phase
        # stop a fair share of the searches, so the segment maxima matter
        beta, trials = 8.0, 500
        for order in SearchOrder:
            cfg = SimConfig(trials=512, seed=19, fidelity=Fidelity.WAVEFORM, params=PARAMS,
                            grid=DopplerGrid(1000.0, 2000.0),
                            policy=SearchPolicy(order, 1, beta))
            rng = np.random.default_rng(23)
            single = {c: 0 for c in Classification}
            for _ in range(trials):
                single[run_waveform_trial(cfg, rng).classified] += 1
            r = monte_carlo_sweep(cfg, [beta])[0]
            swept = {Classification.DETECTION: r.n_detect,
                     Classification.FALSE_STOP: r.n_false_stop,
                     Classification.NO_STOP: r.n_no_stop}
            for c in Classification:
                p1, p2 = single[c] / trials, swept[c] / cfg.trials
                se = math.sqrt(p1 * (1 - p1) / trials + p2 * (1 - p2) / cfg.trials)
                assert abs(p1 - p2) < 4.0 * se, (order, c, p1, p2)


class TestFixedSeedRegression:
    def test_sweep_counts_are_pinned(self):
        # counts of a small fixed-seed sweep (W = 1000 Hz, M = 0, code-first,
        # the 60-point grid): a change to the waveform realizations (draw
        # order, generator, synthesis arithmetic) shows here and must be
        # announced
        res = monte_carlo_sweep(_wave_config(256, 61), default_beta_grid())
        assert [r.n_detect for r in res] == [
            0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 4, 8, 10, 13, 17, 22, 29, 36, 44, 48,
            49, 50, 53, 58, 62, 61, 60, 61, 54, 50, 47, 47, 43, 42, 39, 37, 29, 26, 23, 20,
            18, 15, 14, 10, 10, 7, 7, 7, 6, 6, 6, 5, 4, 3, 2, 2]
        assert [r.n_false_stop for r in res] == [
            256, 256, 256, 255, 255, 255, 255, 255, 255, 255, 255, 255, 254, 253, 252, 248,
            246, 243, 239, 234, 227, 218, 206, 194, 177, 153, 125, 104, 80, 56, 42, 29, 20,
            13, 13, 10, 6, 3, 2, 2, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert [r.n_fa_stop for r in res] == [
            256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256,
            256, 256, 256, 256, 256, 251, 248, 227, 212, 178, 143, 122, 98, 69, 49, 38, 23,
            12, 9, 5, 5, 4, 4, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]

    def test_two_period_sweep_counts_are_pinned(self):
        # the same pin at T_per = 2 ms (two code periods summed per
        # integration; W = 250 Hz, f_dmax = 2000 Hz, M = 0, code-first):
        # a change to the multi-period realizations shows here
        params = SignalParams(cn0_dbhz=40.0, t_per=2e-3)
        config = SimConfig(trials=256, seed=62, fidelity=Fidelity.WAVEFORM, params=params,
                           grid=DopplerGrid(250.0, 2000.0),
                           policy=SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0))
        res = monte_carlo_sweep(config, default_beta_grid())
        assert [r.n_detect for r in res] == [
            0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 4, 4, 4, 5, 6, 11, 15, 20, 24, 33, 43, 59,
            80, 99, 114, 124, 138, 146, 159, 161, 169, 174, 175, 177, 179, 179, 177, 170, 170,
            168, 164, 165, 160, 160, 159, 156, 153, 150, 146, 143, 133, 128, 118, 115, 111, 103,
            101]
        assert [r.n_false_stop for r in res] == [
            256, 256, 256, 256, 256, 256, 256, 255, 255, 255, 255, 254, 254, 252, 252, 252, 251,
            250, 245, 241, 236, 232, 223, 213, 197, 176, 157, 142, 132, 117, 107, 94, 90, 81, 72,
            67, 62, 59, 56, 55, 56, 51, 51, 50, 47, 45, 42, 37, 37, 36, 34, 30, 30, 29, 26, 26,
            24, 24, 23, 23]
        assert [r.n_fa_stop for r in res] == [
            256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256, 256,
            256, 256, 256, 256, 256, 255, 252, 240, 217, 191, 156, 127, 97, 84, 69, 47, 36, 30,
            22, 18, 10, 5, 4, 3, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]


@pytest.fixture(scope="module")
def shared_sweep():
    """One code-first W = 1000 Hz, M = 0 sweep that serves the detection and
    false-alarm checks below, by threshold."""
    return {r.beta: r for r in monte_carlo_sweep(_wave_config(8000, 21), [9.0, 11.0, 12.0])}


class TestWaveformStatistics:
    def test_detection_matches_metric_level_distribution(self, shared_sweep):
        # both fidelities sample the same stopped-search functional; compare
        # their estimates rather than either against a model
        betas = np.array([9.0, 11.0])
        metric = monte_carlo_sweep(
            SimConfig(trials=40000, seed=22, fidelity=Fidelity.METRIC_LEVEL,
                      params=PARAMS, grid=GRID,
                      policy=SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0)), betas)
        for m in metric:
            w = shared_sweep[m.beta]
            se = math.sqrt(w.p_det * (1 - w.p_det) / w.trials
                           + m.p_det * (1 - m.p_det) / m.trials)
            assert abs(w.p_det - m.p_det) < 4.0 * max(se, 1e-4), w.beta

    def test_detection_matches_exact_analytic(self, shared_sweep):
        for beta in (9.0, 12.0):
            r = shared_sweep[beta]
            pol = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0, r.beta)
            pd = global_pdet_code_first_exact(PARAMS, GRID, pol, N)
            se = math.sqrt(max(pd * (1 - pd), 1e-12) / r.trials)
            assert abs(r.p_det - pd) < 4.0 * se, r.beta

    def test_false_alarm_shows_cross_correlation_leakage(self, shared_sweep):
        # the false-alarm search despreads the detection samples, PRN 1
        # signal and noise, with PRN 5; Gold-code cross-correlation (up to
        # 65/1023) adds a little non-centrality to a quarter of the cells,
        # so the stop rate must sit slightly above the noise-only closed form
        beta = 9.0
        res = shared_sweep[beta]
        noise_only = global_pfa(cell_pfa(beta), N, GRID.num_bins)
        se = math.sqrt(noise_only * (1 - noise_only) / res.trials)
        assert res.p_fa > noise_only + 2.0 * se
        assert res.p_fa < noise_only + 0.06

    def test_worker_count_does_not_change_results(self):
        betas = np.array([10.0])
        a = monte_carlo_sweep(_wave_config(512, 77), betas, workers=1)
        b = monte_carlo_sweep(_wave_config(512, 77), betas, workers=3)
        assert a == b
