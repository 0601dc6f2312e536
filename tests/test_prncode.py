"""C/A code generator against an independent construction and known values.

The oracle builds each code the other standard way: as G1 XOR a circular
delay of the plain G2 register output, using the published per-PRN delay
table, instead of the two-tap phase selector the implementation uses.
"""

import numpy as np
import pytest

from acqroc.prncode import CODE_LENGTH, generate_ca_code

# published delay (chips) of the G2 sequence per PRN 1..32
G2_DELAYS = [
    5, 6, 7, 8, 17, 18, 139, 140, 141, 251, 252, 254, 255, 256, 257, 258,
    469, 470, 471, 472, 473, 474, 509, 512, 513, 514, 515, 516, 859, 860,
    861, 862,
]

# first ten chips as an octal number (1 maps to the bit 1), standard table
FIRST_TEN_OCTAL = {1: 0o1440, 5: 0o1133}


def circular_correlation(a, b, lag: int) -> float:
    """(1/N) sum_n a[n] * b[(n - lag) mod N] for equal-length sequences."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1:
        raise ValueError("sequences must be 1-d and of equal length")
    n = av.size
    return float(np.dot(av, np.roll(bv, int(lag) % n))) / n


def _lfsr_sequence(taps):
    reg = [1] * 10
    out = np.empty(CODE_LENGTH, dtype=np.int8)
    for i in range(CODE_LENGTH):
        out[i] = reg[9]
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
    return out


def _oracle_code(prn):
    g1 = _lfsr_sequence((3, 10))
    g2 = _lfsr_sequence((2, 3, 6, 8, 9, 10))
    delayed = np.roll(g2, G2_DELAYS[prn - 1])
    bits = g1 ^ delayed
    return np.where(bits == 0, 1, -1).astype(np.int8)


class TestGenerator:
    def test_matches_delay_construction_for_all_prns(self):
        for prn in range(1, 33):
            np.testing.assert_array_equal(generate_ca_code(prn), _oracle_code(prn))

    def test_first_ten_chips_octal(self):
        for prn, want in FIRST_TEN_OCTAL.items():
            chips = generate_ca_code(prn)[:10]
            bits = (1 - chips) // 2  # +1 -> 0, -1 -> 1
            got = int("".join(str(int(b)) for b in bits), 2)
            assert got == want, f"PRN {prn}: {oct(got)} != {oct(want)}"

    def test_chip_balance(self):
        # 512 ones vs 511 zeros in bit land: chip sum is exactly -1
        for prn in range(1, 33):
            assert int(generate_ca_code(prn).sum()) == -1

    def test_cache_returns_same_object_and_is_readonly(self):
        a = generate_ca_code(7)
        b = generate_ca_code(7)
        assert a is b
        assert a.dtype == np.int8 and a.shape == (CODE_LENGTH,)
        with pytest.raises((ValueError, RuntimeError)):
            a[0] = -a[0]

    def test_rejects_bad_prn(self):
        for prn in (0, 33, -3):
            with pytest.raises(ValueError):
                generate_ca_code(prn)


class TestCorrelation:
    def _all_lags(self, a, b):
        # frequency-domain oracle for every circular lag at once
        return np.real(np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b)))) / CODE_LENGTH

    def test_autocorrelation_three_valued(self):
        allowed = {-65, -1, 63}
        for prn in (1, 5, 9, 17, 24, 32):
            c = generate_ca_code(prn).astype(np.float64)
            r = np.rint(self._all_lags(c, c) * CODE_LENGTH).astype(int)
            assert r[0] == CODE_LENGTH
            assert set(r[1:].tolist()) <= allowed, f"PRN {prn}"

    def test_crosscorrelation_bounded(self):
        c1 = generate_ca_code(1).astype(np.float64)
        c5 = generate_ca_code(5).astype(np.float64)
        r = np.rint(self._all_lags(c1, c5) * CODE_LENGTH).astype(int)
        assert set(r.tolist()) <= {-65, -1, 63}
        assert np.abs(r).max() == 65

    def test_single_lag_matches_oracle(self):
        c1 = generate_ca_code(1).astype(np.float64)
        c5 = generate_ca_code(5).astype(np.float64)
        want = self._all_lags(c1, c5)
        for lag in (0, 1, 511, 1022, -1, 2046):
            got = circular_correlation(c1, c5, lag)
            assert got == pytest.approx(want[lag % CODE_LENGTH], abs=1e-12)

    def test_peak_is_unity(self):
        c = generate_ca_code(12).astype(np.float64)
        assert circular_correlation(c, c, 0) == pytest.approx(1.0, abs=0)

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            circular_correlation(np.ones(4), np.ones(5), 0)
        with pytest.raises(ValueError):
            circular_correlation(np.ones((2, 2)), np.ones((2, 2)), 0)
