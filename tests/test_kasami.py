"""Spreading-code family properties, checked against brute force."""

import numpy as np
import pytest

from bansim.phy.kasami import kasami63_bits, mseq

SET_SIZE = 8


def kasami63(index: int) -> np.ndarray:
    """Code `index` as a 63-chip antipodal sequence (values +1/-1)."""
    return 1 - 2 * kasami63_bits(index).astype(np.int64)


def periodic_crosscorrelation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All cyclic correlation values between two +/-1 chip sequences."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("sequences must have equal length")
    return np.array([int(np.dot(a, np.roll(b, -t))) for t in range(len(a))])


def brute_force_correlation(a, b, shift):
    # Independent of the library routine: plain python sum over one shift.
    n = len(a)
    return sum(int(a[i]) * int(b[(i + shift) % n]) for i in range(n))


def test_every_code_has_length_63_and_antipodal_values():
    for idx in range(SET_SIZE):
        code = kasami63(idx)
        assert len(code) == 63
        assert set(np.unique(code)) <= {-1, 1}


def test_codes_are_distinct():
    codes = [tuple(kasami63(i)) for i in range(SET_SIZE)]
    assert len(set(codes)) == SET_SIZE


def test_autocorrelation_peak_is_63():
    for idx in range(SET_SIZE):
        code = kasami63(idx)
        assert brute_force_correlation(code, code, 0) == 63


def test_mseq_is_balanced():
    u = mseq()
    assert len(u) == 63
    assert int(u.sum()) in (31, 32)


def test_index_out_of_range_rejected():
    with pytest.raises(ValueError, match=r"^code index 8 outside 0\.\.7$"):
        kasami63(8)
    with pytest.raises(ValueError, match=r"^code index -1 outside 0\.\.7$"):
        kasami63(-1)


@pytest.mark.parametrize("seed", [0, 1 << 6, (1 << 6) + 1, -1, -(1 << 6)])
def test_a_seed_that_is_no_nonzero_register_state_is_refused(seed):
    with pytest.raises(ValueError, match="^seed must be a nonzero state of the register$"):
        mseq(seed=seed)


def test_every_register_state_seeds_a_shift_of_one_sequence():
    u = "".join(map(str, mseq().tolist()))
    for seed in (1, (1 << 6) - 1):
        assert "".join(map(str, mseq(seed=seed).tolist())) in u + u


# Each code's 63 bits as one word, first bit most significant: which shift
# of the short sequence each index names is part of the signal.
CODE_WORDS = [
    0x7EACDDA4E2F28C20, 0x0C491633CCAE3552, 0x47DE386F75DCD099, 0x2215AF412965A27C,
    0x50F064D607391B0E, 0x6982811D901747B7, 0x353BF3F85B8069EB, 0x1B674A8ABE4BFEC5,
]


def test_each_index_names_its_pinned_code():
    for idx, word in enumerate(CODE_WORDS):
        assert int("".join(map(str, kasami63_bits(idx).tolist())), 2) == word, idx


def test_full_set_correlations_are_three_valued():
    # Brute force over every pair and every shift; off-peak values of the
    # small set must stay inside {-1, -9, +7}.
    codes = [kasami63(i) for i in range(SET_SIZE)]
    seen = set()
    for i in range(SET_SIZE):
        for j in range(SET_SIZE):
            for shift in range(63):
                if i == j and shift == 0:
                    continue
                seen.add(brute_force_correlation(codes[i], codes[j], shift))
    assert seen <= {-1, -9, 7}, f"unexpected correlation values: {sorted(seen)}"


def test_library_correlation_matches_brute_force():
    a, b = kasami63(1), kasami63(5)
    lib = periodic_crosscorrelation(a, b)
    for shift in (0, 1, 17, 62):
        assert lib[shift] == brute_force_correlation(a, b, shift)


def test_bits_and_chips_agree():
    for idx in range(SET_SIZE):
        bits = kasami63_bits(idx)
        assert np.array_equal(1 - 2 * bits.astype(int), kasami63(idx))
