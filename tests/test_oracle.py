"""Exact enumeration of the serial search: hand-worked fixtures, partition
invariants, closed-form cross-checks, and the array form of the placement
average against its per-placement reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acqroc.oracle as oracle
import acqroc.validate as validate
from acqroc.analytic import (
    NonCentralityProfile,
    SearchOrder,
    SearchPolicy,
    cell_pdet,
    cell_pfa,
    global_pdet_code_first,
    global_pdet_doppler_first,
)
from acqroc.oracle import _stop_probs, averaged_detection
from single_trial import averaged_detection_serial

import closed_form_reference as ref


class TestStopDistribution:
    def test_hand_worked_2x2_code_first(self):
        probs = np.array([[0.5, 0.25], [0.125, 0.0625]])
        stop, no_stop = _stop_probs(probs, SearchOrder.CODE_PHASE_FIRST)
        # visit order (b0,p0), (b0,p1), (b1,p0), (b1,p1)
        want = np.array([[0.5, 0.125], [0.046875, 0.0205078125]])
        np.testing.assert_allclose(stop, want, rtol=0, atol=0)
        assert no_stop == 0.3076171875

    def test_hand_worked_2x2_doppler_first(self):
        probs = np.array([[0.5, 0.25], [0.125, 0.0625]])
        stop, no_stop = _stop_probs(probs, SearchOrder.DOPPLER_FIRST)
        # visit order (b0,p0), (b1,p0), (b0,p1), (b1,p1)
        want = np.array([[0.5, 0.109375], [0.0625, 0.0205078125]])
        np.testing.assert_allclose(stop, want, rtol=0, atol=0)
        assert no_stop == 0.3076171875

    def test_single_cell(self):
        probs = np.array([[0.3]])
        for order in SearchOrder:
            stop, no_stop = _stop_probs(probs, order)
            assert stop[0, 0] == 0.3
            assert no_stop == 0.7

    def test_all_equal_probabilities_are_geometric(self):
        p = 0.2
        probs = np.full((3, 4), p)
        stop, no_stop = _stop_probs(probs, SearchOrder.CODE_PHASE_FIRST)
        flat = stop.reshape(-1)
        want = p * (1.0 - p) ** np.arange(12)
        np.testing.assert_allclose(flat, want, rtol=1e-15)
        assert no_stop == pytest.approx((1.0 - p) ** 12, rel=1e-15)

    def test_outcomes_partition_unity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            probs = rng.random((k, n))
            for order in SearchOrder:
                stop, no_stop = _stop_probs(probs, order)
                assert abs(stop.sum() + no_stop - 1.0) < 1e-14

    def test_no_stop_ignores_visit_order(self):
        rng = np.random.default_rng(3)
        probs = rng.random((4, 5))
        _, a = _stop_probs(probs, SearchOrder.CODE_PHASE_FIRST)
        _, b = _stop_probs(probs, SearchOrder.DOPPLER_FIRST)
        shuffled = probs.reshape(-1).copy()
        rng.shuffle(shuffled)
        _, c = _stop_probs(shuffled.reshape(4, 5), SearchOrder.CODE_PHASE_FIRST)
        assert a == pytest.approx(b, abs=1e-16)
        assert a == pytest.approx(c, rel=1e-13)


class TestAveragedDetection:
    def test_hand_worked_single_bin_two_phases(self):
        profile = NonCentralityProfile((12.0,))
        beta = 2.2
        p_sig = cell_pdet(12.0, beta)
        p_fa = cell_pfa(beta)
        # cp = 0: signal cell first; cp = 1: one noise cell must stay quiet
        want = 0.5 * (p_sig + (1.0 - p_fa) * p_sig)
        for order in SearchOrder:
            got = averaged_detection(profile, beta, 1, 2, 0, order)
            assert got == pytest.approx(want, abs=1e-16)

    def test_zero_profile_reduces_to_naive(self):
        # no signal energy anywhere: detection means the first crossing just
        # happens to land on the correct cell
        profile = NonCentralityProfile((0.0,))
        beta, k, n = 1.5, 3, 4
        want = ref.naive_value(cell_pdet(0.0, beta), cell_pfa(beta), n, k)
        got = averaged_detection(profile, beta, k, n, 0, SearchOrder.CODE_PHASE_FIRST)
        assert got == pytest.approx(want, rel=1e-13)

    def test_matches_refined_formulas_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, min(k, 3)))
            depth = int(rng.integers(1, 4))
            profile = NonCentralityProfile(tuple(rng.uniform(0.0, 30.0, depth)))
            beta = -np.log(10.0 ** rng.uniform(-6.0, np.log10(0.9)))
            cf = global_pdet_code_first(
                profile, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, beta), n, k)
            df = global_pdet_doppler_first(
                profile, SearchPolicy(SearchOrder.DOPPLER_FIRST, m, beta), n, k)
            ocf = averaged_detection(profile, beta, k, n, m, SearchOrder.CODE_PHASE_FIRST)
            odf = averaged_detection(profile, beta, k, n, m, SearchOrder.DOPPLER_FIRST)
            assert abs(cf - ocf) < 1e-12
            assert abs(df - odf) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 5), n=st.integers(1, 6), data=st.data(),
           values=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3),
           log_pfa=st.floats(-6.0, float(np.log10(0.9))))
    def test_closed_forms_match_oracle_property(self, k, n, data, values, log_pfa):
        m = data.draw(st.integers(0, k - 1), label="m")
        profile = NonCentralityProfile(tuple(values))
        beta = -np.log(10.0 ** log_pfa)
        for order, closed in ((SearchOrder.CODE_PHASE_FIRST, global_pdet_code_first),
                              (SearchOrder.DOPPLER_FIRST, global_pdet_doppler_first)):
            want = averaged_detection(profile, beta, k, n, m, order)
            assert abs(closed(profile, SearchPolicy(order, m, beta), n, k) - want) < 1e-12
            by_m = [averaged_detection(profile, beta, k, n, mm, order) for mm in range(k)]
            assert all(a <= b for a, b in zip(by_m, by_m[1:]))

    def test_detection_grows_with_accept_width(self):
        profile = NonCentralityProfile((15.0, 6.0, 1.0))
        vals = [averaged_detection(profile, 8.0, 5, 6, m, SearchOrder.CODE_PHASE_FIRST)
                for m in range(5)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        profile = NonCentralityProfile((10.0,))
        with pytest.raises(ValueError):
            averaged_detection(profile, 5.0, 0, 3, 0, SearchOrder.CODE_PHASE_FIRST)
        with pytest.raises(ValueError):
            averaged_detection(profile, 5.0, 3, 3, 3, SearchOrder.CODE_PHASE_FIRST)


def _random_instances(rng, count):
    """(profile, beta, k, n) with K 1-5, N 1-6 and profile depth 1-3, led by
    the K = 1, N = 1 corner."""
    out = [(NonCentralityProfile((17.0,)), 3.0, 1, 1)]
    for _ in range(count):
        depth = int(rng.integers(1, 4))
        out.append((NonCentralityProfile(tuple(rng.uniform(0.0, 30.0, depth))),
                    -np.log(10.0 ** rng.uniform(-6.0, np.log10(0.9))),
                    int(rng.integers(1, 6)), int(rng.integers(1, 7))))
    return out


class TestArrayOracle:
    def test_matches_serial_reference(self):
        rng = np.random.default_rng(909)
        for profile, beta, k, n in _random_instances(rng, 80):
            for m in range(k):  # every valid M, M = K - 1 included
                for order in SearchOrder:
                    want = averaged_detection_serial(profile, beta, k, n, m, order)
                    got = averaged_detection(profile, beta, k, n, m, order)
                    assert abs(got - want) <= 1e-15, (k, n, m, order)

    def test_result_does_not_depend_on_stack_size(self, monkeypatch):
        rng = np.random.default_rng(910)
        cases = [(profile, beta, k, n, int(rng.integers(0, k)), order)
                 for profile, beta, k, n in _random_instances(rng, 30) for order in SearchOrder]
        whole = [averaged_detection(*case) for case in cases]
        monkeypatch.setattr(oracle, "_MAX_STACK_CELLS", 1)  # one placement per stack
        assert [averaged_detection(*case) for case in cases] == whole

    def test_large_grid_in_bounded_memory(self):
        profile = NonCentralityProfile((20.0, 8.0))
        beta, k, n, m = 12.0, 3, 1023, 1
        tracemalloc.start()
        try:
            got = averaged_detection(profile, beta, k, n, m, SearchOrder.CODE_PHASE_FIRST)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = global_pdet_code_first(profile, SearchPolicy(SearchOrder.CODE_PHASE_FIRST, m, beta), n, k)
        assert abs(got - want) < 1e-12
        assert peak < 64 * 2**20


class TestValidateOracleCheck:
    def test_shared_cell_probabilities_still_compare_two_computations(self, monkeypatch):
        # validate feeds one cell P_det array to the closed forms and the
        # oracle; a closed form off by 1e-9 must still fail the check
        def check():
            rng = np.random.Generator(np.random.Philox(3))
            return validate._check_oracle_equivalence(rng, instances=6).status

        assert check() is validate.CheckStatus.PASS
        engine = validate._global_columns
        monkeypatch.setattr(validate, "_global_columns",
                            lambda *args: tuple(c + 1e-9 for c in engine(*args)))
        assert check() is validate.CheckStatus.FAIL
