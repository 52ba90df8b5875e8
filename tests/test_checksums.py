"""Checksum golden vectors and detection properties."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bansim.phy.checksums import CRC4_POLY, CRC12_POLY, crc4_bits, crc12_bits, crc16, crc_word


def test_crc16_golden_vector():
    # Standard check value for this polynomial/init combination.
    assert crc16(b"123456789") == 0x29B1


def test_crc16_width_and_determinism():
    for data in (b"", b"\x00", b"\xff" * 64):
        val = crc16(data)
        assert 0 <= val <= 0xFFFF
        assert crc16(data) == val


def test_crc16_single_bit_flip_always_detected():
    rng = random.Random(20)
    for _ in range(20):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
        base = crc16(data)
        for byte_idx in range(len(data)):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[byte_idx] ^= 1 << bit
                assert crc16(bytes(mutated)) != base


def test_crc4_range_and_sensitivity():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1]
    base = crc4_bits(bits)
    assert 0 <= base <= 0xF
    for i in range(len(bits)):
        flipped = list(bits)
        flipped[i] ^= 1
        assert crc4_bits(flipped) != base


def test_crc12_single_bit_flip_always_detected():
    # The block coder's detect-only decode depends on this property, so it
    # is checked exhaustively at both codeword information widths.
    rng = random.Random(21)
    for width in (19, 51):
        for _ in range(10):
            bits = [rng.randrange(2) for _ in range(width)]
            base = crc12_bits(bits)
            assert 0 <= base <= 0xFFF
            for i in range(width):
                flipped = list(bits)
                flipped[i] ^= 1
                assert crc12_bits(flipped) != base


def reference_crc16(data: bytes) -> int:
    """Bitwise CRC-CCITT (poly 0x1021, init 0xFFFF, MSB first), the loop
    the C implementation behind `crc16` replaced."""
    reg = 0xFFFF
    for byte in data:
        reg ^= byte << 8
        for _ in range(8):
            reg = ((reg << 1) ^ 0x1021) & 0xFFFF if reg & 0x8000 else (reg << 1) & 0xFFFF
    return reg


def test_crc16_equals_the_bitwise_reference():
    assert reference_crc16(b"123456789") == crc16(b"123456789") == 0x29B1
    rng = random.Random(22)
    for length in list(range(0, 20)) + [rng.randrange(270) for _ in range(300)] + [269]:
        data = rng.randbytes(length)
        assert crc16(data) == reference_crc16(data)
    for data in (b"", b"\x00" * 64, b"\xff" * 64, bytes(range(256))):
        assert crc16(data) == reference_crc16(data)


def register_crc(bits, width, poly):
    """The bit-serial shift register, one input bit at a time, init 0."""
    top, mask, reg = 1 << (width - 1), (1 << width) - 1, 0
    for bit in bits:
        reg ^= (bit & 1) << (width - 1)
        reg = ((reg << 1) ^ poly) & mask if reg & top else (reg << 1) & mask
    return reg


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=80))
def test_the_word_crc_equals_the_bit_crcs_and_the_register(bits):
    word = int("".join(map(str, bits)) or "0", 2)
    assert crc_word(word, 4, CRC4_POLY) == crc4_bits(bits) == register_crc(bits, 4, CRC4_POLY)
    assert crc_word(word, 12, CRC12_POLY) == crc12_bits(bits) == register_crc(bits, 12, CRC12_POLY)
    # Leading zero bits change no check with init 0.
    assert crc4_bits([0, 0, 0] + bits) == crc4_bits(bits)
