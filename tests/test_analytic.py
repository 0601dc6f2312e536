"""Closed-form probabilities against frozen quadrature values, identities,
and an independent scipy marginalization of the exact global variant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import acqroc.analytic as analytic
from acqroc.analytic import (
    DopplerGrid,
    NonCentralityProfile,
    SearchOrder,
    SearchPolicy,
    SignalParams,
    cell_pdet,
    cell_pdet_exact,
    cell_pfa,
    default_beta_grid,
    expected_noncentrality,
    global_pdet_approx,
    global_pdet_code_first,
    global_pdet_code_first_exact,
    global_pdet_doppler_first,
    global_pfa,
    l_max_param,
    roc_curve,
)
from acqroc.analytic import (
    _code_first_value, _integrate_mean, _leggauss, _residual_doppler_mean, _signed_pdet)

import closed_form_reference as ref

PARAMS = SignalParams(cn0_dbhz=40.0, t_per=1e-3)
N = 1023

# scipy.integrate.quad of L_max sinc^2(x) over each offset's residual
# interval, divided by W T_per; frozen at the reference configuration
EXPECTED_L = {
    200.0: (19.78239848452189, 17.349074108864436, 11.44447714401542),
    500.0: (18.694782595650064, 8.429148401801072, 0.41177674051076485),
    700.0: (17.557760640830256, 4.119696736459153, 0.6319899095241827),
    1000.0: (15.473900198056326, 1.573965538106108, 0.2806581775531989),
}

# (W T_per) (L_0 + 2 sum_{l=1}^{50} L_l) / L_max, same oracle
ENERGY = {
    0.2: 0.9898794387744538,
    0.5: 0.995961993038825,
    0.7: 0.9971232643426668,
    1.0: 0.9979936000763787,
}


def _grid(width):
    return DopplerGrid(bin_width_hz=width, f_dmax_hz=5000.0)


class TestGeometry:
    def test_num_bins_at_standard_widths(self):
        for width, k in ((200.0, 50), (500.0, 20), (700.0, 15), (1000.0, 10)):
            assert _grid(width).num_bins == k

    def test_num_bins_rounds_up_only_for_fractions(self):
        assert DopplerGrid(300.0, 5000.0).num_bins == 34
        # quotient that is integral up to float fuzz must not ceil upward
        assert DopplerGrid(1000.0000000001, 5000.0).num_bins == 10

    def test_l_max_param(self):
        assert l_max_param(PARAMS) == pytest.approx(20.0, rel=1e-14)
        assert l_max_param(SignalParams(50.0, 1e-3)) == pytest.approx(200.0, rel=1e-14)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DopplerGrid(0.0, 5000.0)
        with pytest.raises(ValueError):
            DopplerGrid(100.0, -1.0)


class TestExpectedNonCentrality:
    def test_frozen_profiles(self):
        for width, vals in EXPECTED_L.items():
            grid = _grid(width)
            for l, want in enumerate(vals):
                got = expected_noncentrality(PARAMS, grid, l)
                assert got == pytest.approx(want, rel=1e-10), (width, l)

    def test_profile_class_matches_function(self):
        grid = _grid(500.0)
        prof = NonCentralityProfile.expected(PARAMS, grid, 2)
        assert prof.values == tuple(expected_noncentrality(PARAMS, grid, l) for l in range(3))
        assert prof.at_offset(-1) == prof.at_offset(1)
        assert prof.at_offset(7) == 0.0

    def test_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            expected_noncentrality(PARAMS, _grid(500.0), -1)

    def test_energy_identity(self):
        # nearly all of L_max is recovered across the 101 nearest bins; the
        # remainder is the sinc^2 tail beyond |x| = 101 (W T_per) / 2
        for wt, want in ENERGY.items():
            grid = DopplerGrid(wt * 1000.0, 5000.0)
            total = expected_noncentrality(PARAMS, grid, 0)
            total += 2.0 * sum(expected_noncentrality(PARAMS, grid, l) for l in range(1, 51))
            got = wt * total / l_max_param(PARAMS)
            assert got == pytest.approx(want, rel=1e-9)
            tail = 1.0 / (math.pi ** 2 * 101.0 * wt / 2.0)
            assert 1.0 - 1.1 * tail < got < 1.0


class TestCellProbabilities:
    def test_pfa_is_exponential_tail(self):
        for beta in (0.5, 5.0, 12.0):
            assert cell_pfa(beta) == math.exp(-beta)

    def test_zero_noncentrality_reduces_to_pfa_exactly(self):
        betas = np.array([0.5, 5.0, 12.0, 20.0])
        for beta in betas.tolist():
            assert cell_pdet(0.0, beta) == cell_pfa(beta)
        # an array of beta, against a scalar L and against the L = 0
        # entries of an array of L
        want = np.array([cell_pfa(b) for b in betas.tolist()])
        np.testing.assert_array_equal(cell_pdet(0.0, betas), want)
        got = cell_pdet(np.array([0.0, 3.0, 0.0]), betas[:, None])
        np.testing.assert_array_equal(got[:, 0], want)
        np.testing.assert_array_equal(got[:, 2], want)

    def test_frozen_marcum_point(self):
        # L = L_max = 20 at beta = 10: Q1(sqrt(20), sqrt(20))
        assert cell_pdet(20.0, 10.0) == pytest.approx(0.5448901559424129, rel=1e-12)

    def test_monotone_in_noncentrality(self):
        vals = [cell_pdet(l, 10.0) for l in np.linspace(0.0, 30.0, 40)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_exact_matches_expected_when_width_is_narrow(self):
        # at W T_per = 0.05 the residual barely moves the sinc, so averaging
        # before or after the Marcum function cannot matter much
        grid = DopplerGrid(50.0, 5000.0)
        for beta in (6.0, 10.0, 14.0):
            a = cell_pdet_exact(PARAMS, grid, 0, beta)
            b = cell_pdet(expected_noncentrality(PARAMS, grid, 0), beta)
            assert a == pytest.approx(b, abs=2e-4)

    def test_exact_vs_expected_gap_is_large_only_where_documented(self):
        betas = default_beta_grid()[::6]
        gap = {}
        for width in (200.0, 700.0):
            grid = _grid(width)
            for l in range(3):
                el = expected_noncentrality(PARAMS, grid, l)
                g = max(abs(cell_pdet_exact(PARAMS, grid, l, float(b))
                            - cell_pdet(el, float(b))) for b in betas)
                gap[(width, l)] = g
        # adjacent bin at W T_per = 0.7: the spread of realized L across the
        # residual range makes the mean-L shortcut visibly wrong
        assert gap[(700.0, 1)] > 0.1
        # narrow bins: every offset is benign
        assert all(g < 0.02 for (w, _), g in gap.items() if w == 200.0)

    def test_exact_over_beta_array_matches_scalar_calls(self):
        betas = default_beta_grid()[::7]
        for width in (200.0, 700.0):
            grid = _grid(width)
            for l in range(3):
                many = cell_pdet_exact(PARAMS, grid, l, betas)
                one = [cell_pdet_exact(PARAMS, grid, l, b) for b in betas.tolist()]
                np.testing.assert_allclose(many, one, rtol=1e-13, atol=0.0)

    def test_exact_never_falls_below_pfa(self):
        # residual signal energy can only raise the crossing probability
        grid = _grid(1000.0)
        beta = 9.0
        for l in (0, 1, 2, 5, 7):
            assert cell_pdet_exact(PARAMS, grid, l, beta) >= cell_pfa(beta) - 1e-12


class TestCellMonotonicity:
    # roundoff of one call against another may reach a few ulp of 1
    SLACK = 1e-15

    @settings(max_examples=150, deadline=None)
    @given(l=st.floats(0.0, 200.0), dl=st.floats(0.0, 50.0), beta=st.floats(0.0, 50.0))
    def test_does_not_decrease_in_noncentrality(self, l, dl, beta):
        assert cell_pdet(l + dl, beta) >= cell_pdet(l, beta) - self.SLACK

    @settings(max_examples=150, deadline=None)
    @given(l=st.floats(0.0, 200.0), beta=st.floats(0.0, 50.0), dbeta=st.floats(0.0, 20.0))
    def test_does_not_increase_in_threshold(self, l, beta, dbeta):
        assert cell_pdet(l, beta + dbeta) <= cell_pdet(l, beta) + self.SLACK


def _full_node_mean(params, grid, beta, offsets, reduce=None):
    """_residual_doppler_mean with the evaluator run on every node."""
    wt = grid.bin_width_hz * params.t_per
    lm = l_max_param(params)
    betas = np.asarray(beta, dtype=np.float64)
    if betas.ndim:
        betas = betas[..., None, None]

    def f(xs):
        pdet = cell_pdet(lm * np.sinc(xs[:, None] - offsets * wt) ** 2, betas)
        return np.moveaxis(pdet, -2, -1) if reduce is None else reduce(pdet)

    return _integrate_mean(f, wt / 2.0)


class TestHalfNodeQuadrature:
    @pytest.mark.parametrize("order", [128, 256, 512])
    def test_leggauss_nodes_are_exactly_antisymmetric(self, order):
        x, _ = _leggauss(order)  # the nodes the quadrature uses
        assert np.array_equal(x, -x[::-1])
        assert np.all(x[order // 2:] > 0.0)

    @pytest.mark.parametrize("offsets", [(0, 1, 2), (2,), (-2, -1, 0, 1, 2)])
    @pytest.mark.parametrize("width", [200.0, 700.0])
    def test_equals_full_node_reference(self, width, offsets):
        grid = _grid(width)
        k, pfa, offs = grid.num_bins, cell_pfa(9.0), np.array(offsets)

        def code_first(pdet):
            return _code_first_value(_signed_pdet(pdet, pfa, k), pfa, N, k, 1)

        for beta, reduce in ((default_beta_grid()[::5], None), (9.0, None), (9.0, code_first)):
            want = _full_node_mean(PARAMS, grid, beta, offs, reduce)
            assert np.array_equal(_residual_doppler_mean(PARAMS, grid, beta, offs, reduce), want)


class TestGlobalProbabilities:
    def test_global_pfa_matches_direct_power(self):
        for beta in (5.0, 10.0, 15.0):
            p = cell_pfa(beta)
            want = 1.0 - (1.0 - p) ** (N * 10)
            assert global_pfa(p, N, 10) == pytest.approx(want, rel=1e-12)

    def test_global_pfa_monotone_in_beta(self):
        vals = [global_pfa(cell_pfa(float(b)), N, 20) for b in default_beta_grid()]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_reduction_to_naive_at_m0_single_signal(self):
        # with no adjacent-bin energy and M = 0 both refined orders collapse
        # to the single-signal-cell formula
        prof = NonCentralityProfile((18.694782595650064,))
        k = 20
        for beta in default_beta_grid()[::4]:
            b = float(beta)
            naive = ref.naive_value(cell_pdet(prof.values[0], b), cell_pfa(b), N, k)
            cf = global_pdet_code_first(prof, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0, b), N, k)
            df = global_pdet_doppler_first(prof, SearchPolicy(SearchOrder.DOPPLER_FIRST, 0, b), N, k)
            assert abs(cf - naive) < 1e-12
            assert abs(df - naive) < 1e-12

    def test_single_bin_grid_orders_agree(self):
        prof = NonCentralityProfile((15.47, 1.57, 0.28))
        for beta in (6.0, 10.0, 14.0):
            cf = global_pdet_code_first(prof, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0, beta), N, 1)
            df = global_pdet_doppler_first(prof, SearchPolicy(SearchOrder.DOPPLER_FIRST, 0, beta), N, 1)
            assert cf == pytest.approx(df, abs=1e-14)

    def test_approx_meets_code_first_when_false_alarms_are_rare(self):
        grid = _grid(1000.0)
        prof = NonCentralityProfile.expected(PARAMS, grid, 2)
        beta = 25.0  # K N P_fa ~ 1.4e-7
        pol = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 1, beta)
        a = global_pdet_approx(prof, pol, grid.num_bins)
        c = global_pdet_code_first(prof, pol, N, grid.num_bins)
        assert a == pytest.approx(c, rel=1e-6)

    def test_accept_width_monotone(self):
        grid = _grid(500.0)
        prof = NonCentralityProfile.expected(PARAMS, grid, 2)
        beta = 10.0
        vals = [global_pdet_code_first(prof, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, beta),
                                       N, grid.num_bins) for m in range(4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_m_not_smaller_than_k(self):
        prof = NonCentralityProfile((10.0,))
        with pytest.raises(ValueError):
            global_pdet_code_first(prof, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 5, 8.0), N, 5)

    def test_missing_threshold_raises(self):
        prof = NonCentralityProfile((10.0,))
        with pytest.raises(ValueError):
            global_pdet_code_first(prof, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0), N, 5)


class TestExactGlobal:
    def test_matches_scipy_marginalization(self):
        # independent route: condition on the residual Doppler, evaluate the
        # fixed-profile closed form, integrate with adaptive quadrature
        lm = l_max_param(PARAMS)
        for width, m, beta in ((1000.0, 0, 10.0), (1000.0, 1, 13.0), (500.0, 1, 11.5)):
            grid = _grid(width)
            k = grid.num_bins
            wt = width * PARAMS.t_per
            pol = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, beta)
            from acqroc.numerics import marcum_q1

            def pdet_fn(df0):
                def at(s):
                    if abs(s) > 2:
                        return cell_pfa(beta)
                    l = lm * float(np.sinc((df0 - s * width) * 1e-3)) ** 2
                    return marcum_q1(math.sqrt(l), math.sqrt(2.0 * beta))
                pfa = cell_pfa(beta)
                reach = (1.0 - (1.0 - pfa) ** N) / (N * pfa) if pfa > 0 else 1.0
                quiet = (1.0 - pfa) ** (N - 1)
                total = 0.0
                for q in range(-m, m + 1):
                    n_lo, n_hi = max(0, q), min(k, k + q) - 1
                    if n_hi < n_lo:
                        continue
                    run = 1.0
                    for l in range(1, n_lo + 1):
                        run *= quiet * (1.0 - at(q - l))
                    inner = run
                    for nn in range(n_lo + 1, n_hi + 1):
                        run *= quiet * (1.0 - at(q - nn))
                        inner += run
                    total += at(q) * inner
                return reach / k * total

            want, err = integrate.quad(pdet_fn, -width / 2.0, width / 2.0, limit=200)
            want /= width
            got = global_pdet_code_first_exact(PARAMS, grid, pol, N)
            assert got == pytest.approx(want, abs=max(5e-9, 10 * err)), (width, m, beta)

    def test_reduces_to_expected_variant_for_narrow_bins(self):
        grid = DopplerGrid(50.0, 5000.0)
        prof = NonCentralityProfile.expected(PARAMS, grid, 2)
        beta = 10.0
        pol = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0, beta)
        a = global_pdet_code_first_exact(PARAMS, grid, pol, N)
        b = global_pdet_code_first(prof, pol, N, grid.num_bins)
        assert a == pytest.approx(b, abs=2e-4)


def _engine_cases(rng, count):
    """(params, grid, M, lmax, beta grid, N) led by the K = 1, M = K - 1,
    lmax = 0 and lmax >= K corners; K runs to 60, lmax to 6 and N to 1099,
    and a grid may reach beta = 0 (cell P_fa 1) and beta = 760 (cell P_fa 0)."""
    corners = [(1, 0, 0), (4, 3, 2), (6, 1, 0), (3, 2, 5)]  # (K, M, lmax)
    out = []
    for i in range(count):
        k = corners[i][0] if i < len(corners) else int(
            rng.integers(1, 9) if rng.random() < 0.9 else rng.integers(9, 61))
        m, l_max = corners[i][1:] if i < len(corners) else (
            int(rng.integers(0, min(k, 4))), int(rng.integers(0, min(k + 3, 7))))
        width = float(rng.uniform(100.0, 1500.0))
        grid = DopplerGrid(width, k * width / 2.0)
        assert grid.num_bins == k
        betas = rng.uniform(0.0, 40.0, int(rng.integers(1, 6)))
        edge = rng.random()
        betas = np.unique(np.append(betas, 0.0 if edge < 0.05 else 760.0 if edge < 0.1 else []))
        params = SignalParams(float(rng.uniform(25.0, 45.0)), 1e-3)
        out.append((params, grid, m, l_max, betas, int(rng.integers(1, 1100))))
    return out


def _quadrature_stand_in(params, grid, beta, offsets, reduce=None):
    """In place of _residual_doppler_mean: a P_det with a distinct value per
    (threshold, node, offset) on eight nodes, through reduce and averaged
    over the nodes as the quadrature does."""
    nodes = np.linspace(0.0, 1.0, 8)[:, None]
    pdet = np.exp(-np.asarray(beta)[..., None, None] / (1.0 + np.abs(offsets) + nodes))
    return (np.moveaxis(pdet, -2, -1) if reduce is None else reduce(pdet)).mean(axis=-1)


class TestEngineMatchesPerBetaReference:
    """The array engine against the per-threshold helpers it replaced
    (closed_form_reference), compared with == on floats.  Both sides reach
    the residual-Doppler quadrature through the module, so the first two
    tests swap in a cheap stand-in for it (TestHalfNodeQuadrature and
    TestExactGlobal hold the quadrature itself); the last one keeps it."""

    CASES = _engine_cases(np.random.default_rng(2626), 200)

    def test_roc_curve(self, monkeypatch):
        monkeypatch.setattr(analytic, "_residual_doppler_mean", _quadrature_stand_in)
        for params, grid, m, l_max, betas, n in self.CASES:
            policy = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m)
            want = ref.roc_curve(params, grid, m, betas, n, l_max)
            assert roc_curve(params, grid, policy, betas, n, l_max) == want, (grid, m, l_max, n)

    def test_public_closed_forms(self, monkeypatch):
        monkeypatch.setattr(analytic, "_residual_doppler_mean", _quadrature_stand_in)
        rng = np.random.default_rng(2627)
        for params, grid, m, l_max, betas, n in self.CASES:
            k = grid.num_bins
            values = rng.uniform(0.0, 30.0, l_max + 1) * (rng.random(l_max + 1) < 0.8)
            profile = NonCentralityProfile(tuple(values.tolist()))
            # the grid's ends, so beta = 760 reaches the expected-L forms and
            # beta = 0 the exact one
            b = float(betas[-1])
            cf = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, b)
            df = SearchPolicy(SearchOrder.DOPPLER_FIRST, m, b)
            got = (global_pdet_code_first(profile, cf, n, k),
                   global_pdet_doppler_first(profile, df, n, k),
                   global_pdet_approx(profile, cf, k))
            assert got == ref.closed_forms(profile, b, n, k, m), (k, m, l_max, n, b)
            b = float(betas[0])
            want = ref.code_first_exact(params, grid, b, n, m, l_max)
            assert global_pdet_code_first_exact(
                params, grid, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, b), n, l_max) == want

    def test_exact_form_through_the_quadrature(self):
        for params, grid, m, l_max, betas, n in self.CASES[:20]:
            b = float(betas[0])
            want = ref.code_first_exact(params, grid, b, n, m, l_max)
            assert global_pdet_code_first_exact(
                params, grid, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, b), n, l_max) == want


class TestBetaGridAndRoc:
    def test_default_grid_endpoints(self):
        betas = default_beta_grid()
        assert betas.size == 60
        assert np.all(np.diff(betas) > 0)
        assert cell_pfa(float(betas[0])) == pytest.approx(0.5, rel=1e-12)
        assert cell_pfa(float(betas[-1])) == pytest.approx(1e-9, rel=1e-12)

    def test_roc_curve_structure(self):
        grid = _grid(1000.0)
        betas = default_beta_grid()[::10]
        points = roc_curve(PARAMS, grid, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 1), betas)
        assert isinstance(points, tuple) and len(points) == betas.size
        pfas = [p.p_fa_global for p in points]
        assert all(a >= b for a, b in zip(pfas, pfas[1:]))
        for p in points:
            for name in ("p_fa_cell", "p_det_cell_l0", "p_det_cell_l1", "p_det_cell_l2",
                         "p_det_cell_l0_exact", "p_det_cell_l1_exact", "p_det_cell_l2_exact",
                         "p_fa_global", "p_det_naive", "p_det_code_first",
                         "p_det_doppler_first", "p_det_approx"):
                v = getattr(p, name)
                assert 0.0 <= v <= 1.0, name
            assert p.width_hz == 1000.0 and p.m == 1

    def test_roc_rejects_unsorted_grid(self):
        grid = _grid(1000.0)
        with pytest.raises(ValueError):
            roc_curve(PARAMS, grid, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, 0),
                      np.array([5.0, 4.0]))


class TestWidthOrderings:
    """Qualitative shape of the analytic curves at the reference configuration."""

    def _pdet_at_matched_pfa(self, width, m, target_pfa):
        grid = _grid(width)
        # exact threshold for the target global false-alarm probability
        p_cell = -math.expm1(math.log1p(-target_pfa) / (N * grid.num_bins))
        beta = -math.log(p_cell)
        prof = NonCentralityProfile.expected(PARAMS, grid, 2)
        pol = SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, beta)
        return global_pdet_code_first(prof, pol, N, grid.num_bins)

    def test_m0_midwidths_beat_extremes_at_percent_pfa(self):
        p = {w: self._pdet_at_matched_pfa(w, 0, 1e-2) for w in (200.0, 500.0, 700.0, 1000.0)}
        assert min(p[500.0], p[700.0]) > max(p[200.0], p[1000.0])

    def test_m1_narrow_wins_everywhere(self):
        for pfa in np.geomspace(1e-3, 1e-1, 7):
            p = {w: self._pdet_at_matched_pfa(w, 1, float(pfa)) for w in (200.0, 500.0, 700.0, 1000.0)}
            assert p[200.0] >= max(p[500.0], p[700.0], p[1000.0])

    def test_per_width_m_scenario_narrow_wins(self):
        m_map = {200.0: 2, 500.0: 1, 700.0: 0}
        for pfa in np.geomspace(1e-3, 1e-1, 7):
            p = {w: self._pdet_at_matched_pfa(w, m, float(pfa)) for w, m in m_map.items()}
            assert p[200.0] >= max(p[500.0], p[700.0])
