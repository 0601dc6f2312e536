"""Special functions and probability helpers against frozen reference values.

Reference values were computed independently at 40+ decimal digits with
mpmath (sine integral, non-central chi-squared survival via its Poisson
mixture, exact binomial complements) and are frozen here; scipy supplies
a second, broader cross-check grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ncx2

from acqroc.numerics import (
    ConvergenceError,
    ProbabilityRangeError,
    as_probability,
    marcum_q1,
    one_minus_pow_complement,
    one_minus_pow_ratio,
    sine_integral,
)

# mpmath.si at dps=40
SI_REFERENCE = {
    0.1: 0.09994446110827696,
    0.5: 0.4931074180430667,
    1.0: 0.946083070367183,
    2.0: 1.6054129768026948,
    math.pi: 1.8519370519824663,
    4.0: 1.7582031389490531,
    4.000000001: 1.7582031387598525,
    5.0: 1.549931244944674,
    10.0: 1.6583475942188741,
    50.0: 1.551617072485936,
    100.0: 1.5622254668890563,
    1000.0: 1.5702331219687713,
}

# mpmath Poisson-mixture series at dps=40
MARCUM_REFERENCE = {
    (2.0, 3.0): 0.21436208816264946,
    (6.324555320336759, 4.47213595499958): 0.9742056322846618,
    (4.47213595499958, 4.47213595499958): 0.5448901559424129,
    (1.0, 0.5): 0.926527397956648,
    (0.5, 4.0): 0.0007370353068049483,
    (3.0, 3.0): 0.5674797622908615,
    (10.0, 12.0): 0.02532947429794142,
}

# mpmath 1 - (1-p)^n at dps=50
ONE_MINUS_POW_REFERENCE = {
    (1e-6, 20460): 0.020252124416673276,
    (1e-12, 1000000): 9.999995000006667e-07,
    (0.3, 7): 0.9176457,
    (0.9, 3): 0.999,
    (1e-15, 1023): 1.0229999999994773e-12,
}


class TestSineIntegral:
    def test_frozen_values(self):
        for x, ref in SI_REFERENCE.items():
            assert sine_integral(x) == pytest.approx(ref, abs=1e-13, rel=1e-13)

    def test_zero_and_odd_symmetry(self):
        assert sine_integral(0.0) == 0.0
        for x in (0.3, 2.0, 7.5, 40.0):
            assert sine_integral(-x) == -sine_integral(x)

    def test_continuity_at_branch_switch(self):
        below = sine_integral(4.0 - 1e-9)
        above = sine_integral(4.0 + 1e-9)
        # derivative sin(4)/4 ~ -0.19, so the interval itself contributes ~4e-10
        assert abs(below - above) < 1e-8

    def test_approaches_half_pi(self):
        assert abs(sine_integral(1e6) - math.pi / 2.0) < 1e-5
        # the 1/x envelope: Si(100) sits below pi/2 by about cos(100)/100
        assert sine_integral(100.0) < math.pi / 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sine_integral(math.nan)
        with pytest.raises(ValueError):
            sine_integral(math.inf)


class TestMarcumQ1:
    def test_frozen_values(self):
        for (a, b), ref in MARCUM_REFERENCE.items():
            assert marcum_q1(a, b) == pytest.approx(ref, abs=1e-12, rel=5e-12)

    def test_degenerate_arguments(self):
        assert marcum_q1(3.0, 0.0) == 1.0
        # zero non-centrality reduces to the exponential tail, bit for bit
        for b in (0.5, 2.0, 6.0):
            assert marcum_q1(0.0, b) == math.exp(-b * b / 2.0)

    def test_against_scipy_grid(self):
        for a in (0.05, 0.7, 1.5, 3.0, 5.5, 8.0, 11.0):
            for b in (0.05, 0.9, 2.2, 4.0, 6.5, 9.0, 12.5):
                ref = float(ncx2.sf(b * b, 2, a * a))
                assert marcum_q1(a, b) == pytest.approx(ref, abs=2e-13, rel=5e-12)

    def test_monotone_in_both_arguments(self):
        bs = np.linspace(0.1, 8.0, 30)
        vals_b = [marcum_q1(3.0, float(b)) for b in bs]
        assert all(x >= y for x, y in zip(vals_b, vals_b[1:]))
        aa = np.linspace(0.0, 8.0, 30)
        vals_a = [marcum_q1(float(a), 3.0) for a in aa]
        assert all(x <= y for x, y in zip(vals_a, vals_a[1:]))

    def test_extreme_arguments_stay_in_range(self):
        assert marcum_q1(80.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= marcum_q1(0.01, 60.0) <= 1e-300
        assert 0.0 <= marcum_q1(60.0, 60.5) <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 2.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, math.nan)

    def test_vectorized_matches_scalar(self):
        # array input against scipy, with L = 0 entries and non-centralities
        # past 1e4 in the same call as ordinary ones
        ls = np.array([0.0, 0.3, 2.0, 8.4291, 18.69, 20.0, 45.0, 0.0,
                       2.02e4, 2.1e4, 2.5e4, 3.0e4])
        for beta in (0.7, 5.0, 10.2, 18.0, 1.0e4, 1.05e4, 1.25e4, 1.5e4):
            b = math.sqrt(2.0 * beta)
            many = marcum_q1(np.sqrt(ls), b)
            assert many.shape == ls.shape
            for l, got in zip(ls, many):
                ref = float(ncx2.sf(b * b, 2, l)) if l > 0.0 else math.exp(-b * b / 2.0)
                assert got == pytest.approx(ref, abs=2e-13, rel=5e-12), (l, beta)
            assert many[0] == many[7] == math.exp(-b * b / 2.0)
        grid = np.array([[0.0, 1.5], [3.0, 9.0]])
        assert marcum_q1(grid, 2.0).shape == (2, 2)
        assert marcum_q1(np.array([]), 2.0).shape == (0,)

    def test_widely_spread_arguments_split_their_window(self):
        # non-centralities from 0 to 8e4 in one call: one shared count window
        # would hold ~3e5 counts per entry, so the call is split by size
        ls = np.linspace(0.0, 8.0e4, 300)
        for beta in (3.0, 2.0e4):
            b = math.sqrt(2.0 * beta)
            many = marcum_q1(np.sqrt(ls), b)
            for l, got in zip(ls, many):
                ref = float(ncx2.sf(b * b, 2, l)) if l > 0.0 else math.exp(-b * b / 2.0)
                assert got == pytest.approx(ref, abs=2e-13, rel=5e-12), (l, beta)
        # thresholds as widely spread, broadcast against a few non-centralities:
        # the call is split by threshold instead
        betas = ls / 2.0
        many = marcum_q1(np.sqrt([3.0, 2.0e4]), np.sqrt(2.0 * betas)[:, None])
        for beta, row in zip(betas, many):
            for l, got in zip((3.0, 2.0e4), row):
                ref = float(ncx2.sf(2.0 * beta, 2, l))
                assert got == pytest.approx(ref, abs=2e-13, rel=5e-12), (l, beta)

    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=8),
           b=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5),
           da=st.floats(0.0, 5.0), db=st.floats(0.0, 5.0))
    def test_array_property(self, a, b, da, db):
        a, b = np.array(a), np.sort(np.array(b))[:, None]
        # an array of b broadcast against a: one row per threshold
        many = marcum_q1(a, b)
        assert many.shape == (b.size, a.size)
        one = np.array([[marcum_q1(float(x), float(y)) for x in a] for y in b[:, 0]])
        np.testing.assert_allclose(many, one, rtol=1e-13, atol=1e-15)
        for y, row in zip(b[:, 0], many):
            np.testing.assert_allclose(marcum_q1(a, float(y)), row, rtol=1e-13, atol=1e-15)
        assert np.all((many >= 0.0) & (many <= 1.0))
        # non-increasing along the ascending b, non-decreasing in a,
        # non-increasing in b, up to roundoff
        assert np.all(np.diff(many, axis=0) <= 1e-14)
        assert np.all(marcum_q1(a + da, b) >= many - 1e-14)
        assert np.all(marcum_q1(a, b + db) <= many + 1e-14)


class TestOneMinusPow:
    def test_frozen_values(self):
        for (p, n), ref in ONE_MINUS_POW_REFERENCE.items():
            assert one_minus_pow_complement(p, n) == pytest.approx(ref, rel=1e-13, abs=0)
            assert one_minus_pow_ratio(p, n) == pytest.approx(ref / p, rel=1e-13, abs=0)

    def test_edge_probabilities(self):
        assert one_minus_pow_complement(0.0, 12) == 0.0
        assert one_minus_pow_complement(1.0, 12) == 1.0
        # ratio limit p -> 0 is n
        assert one_minus_pow_ratio(0.0, 20460) == 20460.0
        assert one_minus_pow_ratio(1e-310, 7) == 7.0

    def test_small_p_keeps_precision(self):
        # naive 1 - (1-p)^n loses every digit here
        p, n = 1e-17, 1000
        assert one_minus_pow_complement(p, n) == pytest.approx(1e-14, rel=1e-10)

    def test_zero_count_is_empty_product(self):
        assert one_minus_pow_complement(0.5, 0) == 0.0
        assert one_minus_pow_ratio(0.5, 0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            one_minus_pow_complement(1.5, 3)
        with pytest.raises(ValueError):
            one_minus_pow_complement(0.5, -1)
        with pytest.raises(ValueError):
            one_minus_pow_ratio(-0.1, 3)


class TestAsProbability:
    def test_passes_and_clamps(self):
        assert as_probability(0.5) == 0.5
        assert as_probability(-1e-10) == 0.0
        assert as_probability(1.0 + 1e-10) == 1.0

    def test_rejects_beyond_slack(self):
        with pytest.raises(ProbabilityRangeError):
            as_probability(-1e-8)
        with pytest.raises(ProbabilityRangeError):
            as_probability(1.0 + 1e-8)
        with pytest.raises(ProbabilityRangeError):
            as_probability(math.nan)


class TestErrorTypes:
    def test_convergence_error_is_raisable(self):
        assert issubclass(ConvergenceError, ArithmeticError)
