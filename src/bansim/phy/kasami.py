"""Length-63 spreading codes for the pulse-radio synchronization header.

The code family is the small Kasami set for degree m = 6: take a length-63
maximal sequence u, decimate it by 2**(m//2) + 1 = 9 to get a short sequence
w of period 7, and form u plus u XOR (every cyclic shift of w). That yields
2**(m//2) = 8 codes whose periodic cross-correlations and off-peak
autocorrelations take only the values {-1, -9, +7}.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mseq", "kasami63_bits"]

# Feedback polynomial x^6 + x + 1, all-ones start state.
_DEGREE = 6
_TAPS = (6, 1)
_SEED = 0b111111

KASAMI_SET_SIZE = 8


def mseq(degree: int = _DEGREE, taps: tuple[int, ...] = _TAPS, seed: int = _SEED) -> np.ndarray:
    """Maximal-length sequence from a Fibonacci LFSR, as 0/1 values.

    `taps` lists the exponents of the feedback polynomial. The register
    must never be all-zero, so the seed must be a state in 1..2**degree - 1.
    """
    if not 0 < seed < (1 << degree):
        raise ValueError("seed must be a nonzero state of the register")
    length = (1 << degree) - 1
    state = [(seed >> i) & 1 for i in range(degree)]
    out = np.empty(length, dtype=np.uint8)
    for i in range(length):
        out[i] = state[-1]
        fb = 0
        for t in taps:
            fb ^= state[t - 1]
        state = [fb] + state[:-1]
    return out


def kasami63_bits(index: int) -> np.ndarray:
    """Code `index` of the set as 63 bits in {0, 1}.

    Index 0 is the base m-sequence; 1..7 add the seven distinct cyclic
    shifts of the decimated short sequence.
    """
    if not 0 <= index < KASAMI_SET_SIZE:
        raise ValueError(f"code index {index} outside 0..{KASAMI_SET_SIZE - 1}")
    u = mseq()
    if index == 0:
        return u
    w = u[(9 * np.arange(63)) % 63]  # period-7 short sequence
    return u ^ np.roll(w, index - 1)
