"""Bit-array helpers against their per-bit reference loops."""

import random

import numpy as np
import pytest

from bansim.phy.bitfields import bits_to_bytes, bits_to_int, bytes_to_bits, int_to_bits, padded_bytes


def reference_int_to_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def reference_bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def width_values(width: int, rng: random.Random) -> list[int]:
    top = (1 << width) - 1
    return sorted({0, 1 & top, top, 1 << (width - 1), top >> 1} | {rng.randrange(top + 1) for _ in range(20)})


@pytest.mark.parametrize("width", list(range(1, 17)) + [24, 63, 64, 100])
def test_int_to_bits_equals_the_loop(width):
    rng = random.Random(f"bits-{width}")
    for value in width_values(width, rng):
        got = int_to_bits(value, width)
        assert got.dtype == np.uint8
        assert got.tolist() == reference_int_to_bits(value, width).tolist()
        assert bits_to_int(got) == value


@pytest.mark.parametrize("width", list(range(0, 17)) + [24, 63, 64, 100])
def test_bits_to_int_equals_the_loop(width):
    rng = random.Random(f"int-{width}")
    for _ in range(20):
        bits = np.array([rng.randrange(2) for _ in range(width)], dtype=np.uint8)
        assert bits_to_int(bits) == reference_bits_to_int(bits)
        assert bits_to_int(bits.tolist()) == reference_bits_to_int(bits)


@pytest.mark.parametrize("width", range(1, 17))
def test_out_of_range_values_rejected(width):
    for value in (-1, 1 << width, (1 << width) + 5):
        with pytest.raises(ValueError):
            int_to_bits(value, width)


def test_zero_width_is_empty():
    assert int_to_bits(0, 0).tolist() == []
    assert bits_to_int(np.zeros(0, dtype=np.uint8)) == 0
    with pytest.raises(ValueError):
        int_to_bits(1, 0)


def test_numpy_integers_accepted():
    assert int_to_bits(np.uint8(5), 3).tolist() == [1, 0, 1]
    assert int_to_bits(np.int64(300), 12).tolist() == reference_int_to_bits(300, 12).tolist()


def test_byte_round_trip_including_empty():
    for data in (b"", b"\x00", b"\xa5\x0f", bytes(range(256))):
        bits = bytes_to_bits(data)
        assert bits.dtype == np.uint8 and len(bits) == 8 * len(data)
        assert bits_to_bytes(bits) == data
    with pytest.raises(ValueError):
        bits_to_bytes(np.zeros(7, dtype=np.uint8))


def test_padded_bytes_fill_the_last_byte_with_zeros():
    rng = random.Random("pad")
    for n in range(0, 25):
        bits = np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)
        reference = np.concatenate([bits, np.zeros(-n % 8, dtype=np.uint8)])
        assert padded_bytes(bits) == bits_to_bytes(reference)
