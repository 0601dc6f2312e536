"""GPS L1 C/A Gold-code generation.

Codes are produced by the standard two-LFSR construction: G1 with feedback
polynomial 1 + x^3 + x^10 and G2 with 1 + x^2 + x^3 + x^6 + x^8 + x^9 + x^10,
both initialized to all ones, output chip = G1 output XOR the XOR of two
PRN-specific G2 phase-selector taps.  Chips are stored as +/-1 integers
(binary 0 -> +1, 1 -> -1) because every consumer multiplies and averages,
which makes the autocorrelation peak exactly 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CODE_LENGTH", "generate_ca_code"]

CODE_LENGTH = 1023

# G2 output tap pair (1-indexed register stages) per PRN 1..32.
_G2_TAP_PAIRS = (
    (2, 6), (3, 7), (4, 8), (5, 9), (1, 9), (2, 10), (1, 8), (2, 9),
    (3, 10), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
    (1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (1, 3), (4, 6),
    (5, 7), (6, 8), (7, 9), (8, 10), (1, 6), (2, 7), (3, 8), (4, 9),
)


_CODE_CACHE: dict[int, np.ndarray] = {}


def generate_ca_code(prn: int) -> np.ndarray:
    """Generate (and cache) the C/A code for PRN 1..32: one period of 1023
    chips, a read-only int8 array of +/-1."""
    if int(prn) != prn or not 1 <= prn <= 32:
        raise ValueError(f"prn must be an integer in [1, 32], got {prn!r}")
    prn = int(prn)
    if prn in _CODE_CACHE:
        return _CODE_CACHE[prn]
    t1, t2 = _G2_TAP_PAIRS[prn - 1]
    g1 = [1] * 10
    g2 = [1] * 10
    bits = np.empty(CODE_LENGTH, dtype=np.int8)
    for i in range(CODE_LENGTH):
        bits[i] = g1[9] ^ g2[t1 - 1] ^ g2[t2 - 1]
        fb1 = g1[2] ^ g1[9]
        fb2 = g2[1] ^ g2[2] ^ g2[5] ^ g2[7] ^ g2[8] ^ g2[9]
        g1 = [fb1] + g1[:9]
        g2 = [fb2] + g2[:9]
    chips = np.where(bits == 0, 1, -1).astype(np.int8)
    chips.setflags(write=False)
    _CODE_CACHE[prn] = chips
    return chips
