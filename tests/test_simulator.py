"""Monte Carlo engine: distributional agreement with the closed forms,
bookkeeping invariants, and reproducibility guarantees."""

import math

import mpmath
import numpy as np
import pytest

from acqroc.analytic import (
    DopplerGrid,
    NonCentralityProfile,
    SearchOrder,
    SearchPolicy,
    SignalParams,
    cell_pdet,
    cell_pfa,
    default_beta_grid,
    expected_noncentrality,
    global_pdet_code_first_exact,
    global_pdet_doppler_first,
    global_pfa,
)
from acqroc.prncode import CODE_LENGTH
from acqroc.simulator import (
    Fidelity,
    SimConfig,
    _count_detection,
    _exp_block_max,
    _Records,
    _realized_l,
    _record_metric_batch,
    draw_metric,
    monte_carlo_sweep,
    wilson_interval,
)
from single_trial import Classification, offset_mean_z, replay_records, run_metric_trial

PARAMS = SignalParams(cn0_dbhz=40.0, t_per=1e-3)
N = CODE_LENGTH


def _config(width=1000.0, m=0, order=SearchOrder.CODE_PHASE_FIRST, trials=20000,
            seed=7, threshold=None):
    return SimConfig(
        trials=trials,
        seed=seed,
        fidelity=Fidelity.METRIC_LEVEL,
        params=PARAMS,
        grid=DopplerGrid(width, 5000.0),
        policy=SearchPolicy(order, m, threshold),
    )


class TestWilsonInterval:
    def test_frozen_midpoint_case(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.4038298, abs=1e-6)
        assert hi == pytest.approx(0.5961702, abs=1e-6)

    def test_edges_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 40)
        assert lo == 0.0 and 0.0 < hi < 0.2
        lo, hi = wilson_interval(40, 40)
        assert 0.8 < lo < 1.0 and hi == 1.0

    def test_contains_point_estimate(self):
        for s, n in ((3, 17), (250, 1000), (999, 1000)):
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestDrawMetric:
    def test_moments(self):
        rng = np.random.default_rng(11)
        for l in (0.0, 4.0, 20.0):
            x = draw_metric(l, rng, 200000)
            want = 1.0 + l / 2.0
            se = math.sqrt((1.0 + l) / x.size)
            assert abs(x.mean() - want) < 5.0 * se

    def test_exceedance_matches_cell_probabilities(self):
        rng = np.random.default_rng(5)
        n = 100000
        for l in (0.0, 8.4291, 20.0):
            x = draw_metric(l, rng, n)
            for beta in (2.0, 6.0, 10.0):
                want = cell_pdet(l, beta)
                got = float(np.mean(x > beta))
                se = math.sqrt(max(want * (1.0 - want), 1e-12) / n)
                assert abs(got - want) < 4.0 * se, (l, beta)

    def test_scalar_mode(self):
        rng = np.random.default_rng(0)
        v = draw_metric(3.0, rng)
        assert isinstance(v, float) and v >= 0.0

    def test_array_noncentrality_draws_like_sized_scalar(self):
        ls = np.full((3, 4), 6.5)
        a = draw_metric(ls, np.random.Generator(np.random.Philox(11)))
        b = draw_metric(6.5, np.random.Generator(np.random.Philox(11)), (3, 4))
        assert a.shape == (3, 4)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_noncentrality(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_metric(-1.0, rng)


class TestBlockMaximum:
    class _FixedUniforms:
        """Stands in for the generator: hands out the given u values."""

        def __init__(self, u):
            self.u = np.asarray(u, dtype=np.float64)

        def random(self, shape):
            return np.broadcast_to(self.u, shape).copy()

    def test_inverse_cdf_matches_mpmath_near_one(self):
        # the false-alarm block size at W = 1000 Hz; u this close to 1 puts
        # u^(1/n) within a few ulps of 1.  The last block is empty.
        n = 10230
        us = [0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-10, 0.3]
        got = _exp_block_max(self._FixedUniforms(us), np.array([n] * 5 + [0]))
        assert got[-1] == -np.inf
        with mpmath.workdps(50):
            for u, x in zip(us[:-1], got):
                want = float(-mpmath.log(1 - mpmath.mpf(u) ** (mpmath.mpf(1) / n)))
                assert abs(x - want) <= 1e-12 * want, u


class TestMetricUnits:
    @pytest.mark.parametrize("width", [200.0, 1000.0])
    def test_correct_phase_cells_by_band(self, width):
        # replay the batch's cb and df0 from the same seed: beyond +-lmax
        # the correct-phase cells are Exp(1) (mean, and exceedance at
        # beta = 2, 5, within 4 sigma of 1 and e^-beta); within the band
        # their mean is 1 + L/2 over the realized L within 4 sigma, with
        # per-cell variance 1 + L
        cfg, nb = _config(width=width), 4096
        rec, _ = _record_metric_batch(np.random.Generator(np.random.SFC64(13)), nb, cfg)
        replay = np.random.Generator(np.random.SFC64(13))
        k = cfg.grid.num_bins
        cb = replay.integers(0, k, nb)
        replay.integers(0, N, nb)
        df0 = replay.uniform(-width / 2.0, width / 2.0, nb)
        np.testing.assert_array_equal(rec.cb, cb)
        band = np.abs(np.arange(k)[None, :] - cb[:, None]) <= cfg.l_max
        noise = rec.sig[~band]
        assert abs(noise.mean() - 1.0) < 4.0 / math.sqrt(noise.size)
        for beta in (2.0, 5.0):
            q = math.exp(-beta)
            se = math.sqrt(q * (1.0 - q) / noise.size)
            assert abs(np.mean(noise > beta) - q) < 4.0 * se, beta
        lvals = _realized_l(PARAMS, cfg.grid, cfg.l_max, cb, df0)[band]
        se = math.sqrt(np.sum(1.0 + lvals)) / lvals.size
        assert abs(rec.sig[band].mean() - np.mean(1.0 + lvals / 2.0)) < 4.0 * se

    def test_mean_by_offset_is_the_truncated_expected_noncentrality(self):
        # the paper's quantity: the mean correct-phase metric at offset l is
        # 1 + E[L_l]/2 within the +-lmax band and 1 beyond it, where the
        # metric level draws noise only.  At W = 200 Hz the untruncated
        # 1 + E[L_3]/2 sits at z = -463 at l = 3: that gap is the metric
        # level's lmax truncation, not noise
        cfg, nb = _config(width=200.0), 16384
        rec, _ = _record_metric_batch(np.random.Generator(np.random.SFC64(26)), nb, cfg)
        for l in range(5):
            el = expected_noncentrality(PARAMS, cfg.grid, l) if l <= cfg.l_max else 0.0
            assert abs(offset_mean_z(rec, l, 1.0 + el / 2.0)) <= 4.0, l


class TestSingleTrial:
    def test_zero_threshold_stops_immediately(self):
        cfg = _config(trials=1, threshold=0.0)
        out = run_metric_trial(cfg, np.random.default_rng(1))
        assert out.stopped and out.stop_bin == 0 and out.stop_phase == 0
        want = (Classification.DETECTION
                if out.correct_phase == 0 and out.correct_bin == 0
                else Classification.FALSE_STOP)
        assert out.classified is want

    def test_huge_threshold_never_stops(self):
        cfg = _config(trials=1, threshold=200.0)
        out = run_metric_trial(cfg, np.random.default_rng(2))
        assert not out.stopped
        assert out.stop_bin is None and out.stop_phase is None
        assert out.classified is Classification.NO_STOP

    def test_outcome_frequencies_match_the_sweep(self):
        # the reference search and the batched replay sample the same
        # stopped search: detection, false-stop and no-stop frequencies agree
        # within 4 sigma of their difference, in both visiting orders
        beta, trials = 10.0, 3000
        for order in SearchOrder:
            cfg = _config(m=1, order=order, threshold=beta)
            rng = np.random.default_rng(17)
            single = {c: 0 for c in Classification}
            for _ in range(trials):
                single[run_metric_trial(cfg, rng).classified] += 1
            r = monte_carlo_sweep(cfg, [beta])[0]
            swept = {Classification.DETECTION: r.n_detect,
                     Classification.FALSE_STOP: r.n_false_stop,
                     Classification.NO_STOP: r.n_no_stop}
            for c in Classification:
                p1, p2 = single[c] / trials, swept[c] / cfg.trials
                se = math.sqrt(p1 * (1 - p1) / trials + p2 * (1 - p2) / cfg.trials)
                assert abs(p1 - p2) < 4.0 * se, (order, c, p1, p2)

    def test_classification_frequencies_are_sane(self):
        cfg = _config(trials=1, m=1, threshold=10.0)
        rng = np.random.default_rng(3)
        counts = {c: 0 for c in Classification}
        for _ in range(300):
            counts[run_metric_trial(cfg, rng).classified] += 1
        assert counts[Classification.DETECTION] > 0
        assert counts[Classification.FALSE_STOP] > 0
        assert counts[Classification.NO_STOP] > 0


def _difference_array(counts: np.ndarray) -> np.ndarray:
    """Per-beta counts as the difference array the sweep accumulates: one
    more column, whose running sums give the counts and then 0."""
    return np.diff(counts, axis=-1, prepend=0, append=0)


class TestCountReplay:
    @staticmethod
    def _records(rng, nb, k, betas, tie_share=0.2):
        # noise-like maxima with a share of entries set exactly to grid
        # thresholds, and rows with an empty segment before (cp = 0) or
        # after (cp = N - 1) the correct phase
        cb = rng.integers(0, k, nb)
        sig, pre, post = (rng.exponential(4.0, (nb, k)) for _ in range(3))
        pre[:nb // 8] = -np.inf
        post[nb // 8:nb // 4] = -np.inf
        for a in (sig, pre, post):
            tie = (rng.random(a.shape) < tie_share) & np.isfinite(a)
            a[tie] = rng.choice(betas, np.count_nonzero(tie))
        return _Records(cb=cb, sig=sig, pre=pre, post=post)

    def test_counts_match_serial_replay(self):
        # exact equality, element for element, of the batched interval
        # counts and a per-threshold serial walk over the same records;
        # the last case's pre maxima exceed every signal cell, so no
        # (trial, bin) pair has a threshold interval
        betas = default_beta_grid()
        rng = np.random.default_rng(29)
        quiet = self._records(rng, 64, 10, betas)
        quiet.pre[:] = 50.0
        cases = [(self._records(rng, 160, 10, betas), 10),
                 (self._records(rng, 96, 3, betas, tie_share=0.5), 3), (quiet, 10)]
        for rec, k in cases:
            for order in SearchOrder:
                det, stops = replay_records(rec, order, betas, k)
                hist, any_stops = _count_detection(rec, order, betas, k)
                np.testing.assert_array_equal(hist, _difference_array(det), err_msg=str(order))
                np.testing.assert_array_equal(any_stops, _difference_array(stops))
        assert not hist.any() and any_stops.any()


class TestSweepAgainstClosedForms:
    def test_code_first_matches_exact_global(self):
        for m in (0, 1):
            cfg = _config(m=m)
            betas = np.array([7.0, 9.0, 11.0, 13.0])
            for r in monte_carlo_sweep(cfg, betas):
                pol = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, r.beta)
                pd = global_pdet_code_first_exact(PARAMS, cfg.grid, pol, N)
                pf = global_pfa(cell_pfa(r.beta), N, cfg.grid.num_bins)
                sd = math.sqrt(max(pd * (1.0 - pd), 1e-12) / cfg.trials)
                sf = math.sqrt(max(pf * (1.0 - pf), 1e-12) / cfg.trials)
                assert abs(r.p_det - pd) < 4.0 * sd, (m, r.beta)
                assert abs(r.p_fa - pf) < 4.0 * sf, (m, r.beta)

    def test_doppler_first_matches_expected_form_when_bins_are_narrow(self):
        # at W T_per = 0.2 the expected-L shortcut is indistinguishable from
        # the realized-L distribution at this trial count
        cfg = _config(width=200.0, m=1, order=SearchOrder.DOPPLER_FIRST, trials=15000)
        prof = NonCentralityProfile.expected(PARAMS, cfg.grid, 2)
        betas = np.array([8.0, 11.0, 14.0])
        for r in monte_carlo_sweep(cfg, betas):
            pol = SearchPolicy(SearchOrder.DOPPLER_FIRST, 1, r.beta)
            pd = global_pdet_doppler_first(prof, pol, N, cfg.grid.num_bins)
            sd = math.sqrt(max(pd * (1.0 - pd), 1e-12) / cfg.trials)
            assert abs(r.p_det - pd) < 4.0 * sd, r.beta


class TestSweepBookkeeping:
    def test_counts_are_consistent(self):
        cfg = _config(m=1, trials=8000)
        betas = np.array([6.0, 9.0, 12.0])
        for r in monte_carlo_sweep(cfg, betas):
            assert r.n_detect + r.n_false_stop + r.n_no_stop == cfg.trials
            assert 0 <= r.n_fa_stop <= cfg.trials
            in_window = sum(c for o, c in r.stop_offset_counts.items() if abs(o) <= 1)
            assert in_window == r.n_detect
            assert sum(r.stop_offset_counts.values()) <= r.n_detect + r.n_false_stop
            assert r.p_det_ci[0] <= r.p_det <= r.p_det_ci[1]
            assert r.p_fa_ci[0] <= r.p_fa <= r.p_fa_ci[1]

    def test_stop_counts_decrease_with_threshold(self):
        cfg = _config(trials=8000)
        res = monte_carlo_sweep(cfg, np.linspace(2.0, 16.0, 8))
        stops = [r.n_detect + r.n_false_stop for r in res]
        assert all(a >= b for a, b in zip(stops, stops[1:]))
        fas = [r.n_fa_stop for r in res]
        assert all(a >= b for a, b in zip(fas, fas[1:]))

    def test_rejects_bad_beta_grid(self):
        cfg = _config(trials=100)
        with pytest.raises(ValueError):
            monte_carlo_sweep(cfg, [])
        with pytest.raises(ValueError):
            monte_carlo_sweep(cfg, [3.0, 2.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(trials=0)
        with pytest.raises(ValueError):
            _config(m=10)  # not smaller than num_bins at W=1000
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=-1, fidelity=Fidelity.METRIC_LEVEL,
                      params=PARAMS, grid=DopplerGrid(1000.0, 5000.0),
                      policy=SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0))
        # the waveform chain runs whole code periods: T_per = 1.5 ms has none
        with pytest.raises(ValueError, match="whole numbers"):
            SimConfig(trials=10, seed=0, fidelity=Fidelity.WAVEFORM,
                      params=SignalParams(40.0, 1.5e-3), grid=DopplerGrid(1000.0, 5000.0),
                      policy=SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0))


class TestFixedSeedRegression:
    def test_sweep_counts_are_pinned(self):
        # counts of a small fixed-seed sweep (W = 1000 Hz, M = 1, 5000
        # trials: one full batch and one partial) in both orders: a change
        # to the metric-level realizations (draw order, generator, which
        # cells take the non-central draw) shows here and must be announced
        betas = np.linspace(4.0, 15.0, 12)
        want = {
            SearchOrder.CODE_PHASE_FIRST: (
                [25, 59, 168, 356, 746, 1244, 1390, 1307, 1067, 818, 631, 473],
                [4975, 4941, 4832, 4644, 4173, 2995, 1579, 702, 283, 105, 39, 13]),
            SearchOrder.DOPPLER_FIRST: (
                [31, 67, 171, 378, 782, 1272, 1424, 1325, 1069, 818, 631, 473],
                [4969, 4933, 4829, 4622, 4137, 2967, 1545, 684, 281, 105, 39, 13]),
        }
        fa = [5000, 5000, 5000, 4999, 4849, 3601, 1882, 802, 326, 116, 45, 17]
        for order, (det, false_stop) in want.items():
            res = monte_carlo_sweep(_config(m=1, order=order, trials=5000, seed=43), betas)
            assert [r.n_detect for r in res] == det, order
            assert [r.n_false_stop for r in res] == false_stop, order
            assert [r.n_fa_stop for r in res] == fa, order


class TestReproducibility:
    def test_same_seed_same_results(self):
        betas = np.array([7.0, 10.0])
        a = monte_carlo_sweep(_config(trials=5000, seed=99), betas)
        b = monte_carlo_sweep(_config(trials=5000, seed=99), betas)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        betas = np.array([7.0, 10.0])
        cfg = _config(trials=9000, seed=123)
        a = monte_carlo_sweep(cfg, betas, workers=1)
        b = monte_carlo_sweep(cfg, betas, workers=5)
        assert a == b

    def test_different_seed_changes_results(self):
        betas = np.array([9.0])
        a = monte_carlo_sweep(_config(trials=5000, seed=1), betas)
        b = monte_carlo_sweep(_config(trials=5000, seed=2), betas)
        assert a != b
