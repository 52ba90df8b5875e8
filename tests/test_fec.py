"""Block-coder geometry, round trips, and detection guarantees."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bansim.errors import CodewordError, ConfigError, TruncatedFrame
from bansim.phy.bitfields import bits_to_int, int_to_bits
from bansim.phy.checksums import crc12_bits
from bansim.phy.fec import check_code, coded_length, decode_blocks, encode_blocks


def random_bits(rng, n):
    return np.array([rng.randrange(2) for _ in range(n)], dtype=np.uint8)


@pytest.mark.parametrize("code", [(31, 19), (63, 51)])
def test_round_trip_random_lengths(code):
    rng = random.Random(f"fec-{code}")
    for _ in range(50):
        n_bits = rng.randrange(1, 400)
        bits = random_bits(rng, n_bits)
        image = encode_blocks(bits, code)
        assert np.array_equal(decode_blocks(image, code, n_bits), bits)


@pytest.mark.parametrize("code", [(31, 19), (63, 51)])
def test_rate_expansion_arithmetic(code):
    # Expected size computed here from first principles, not via the library.
    n, k = code
    rng = random.Random(7)
    for n_bits in (1, k - 1, k, k + 1, 3 * k, 200):
        image = encode_blocks(random_bits(rng, n_bits), code)
        assert len(image) == math.ceil(n_bits / k) * n
        assert coded_length(n_bits, code) == len(image)


def test_empty_input_encodes_to_nothing():
    assert len(encode_blocks(np.zeros(0, dtype=np.uint8), (63, 51))) == 0
    assert len(decode_blocks(np.zeros(0, dtype=np.uint8), (63, 51), 0)) == 0


@pytest.mark.parametrize("code", [(31, 19), (63, 51)])
def test_every_single_bit_flip_detected(code):
    rng = random.Random(f"flip-{code}")
    bits = random_bits(rng, code[1] + 5)  # two codewords
    image = encode_blocks(bits, code)
    for pos in range(len(image)):
        mutated = image.copy()
        mutated[pos] ^= 1
        with pytest.raises(CodewordError):
            decode_blocks(mutated, code, len(bits))


def test_nonzero_pad_bits_detected():
    code = (63, 51)
    bits = random_bits(random.Random(3), 40)  # 11 pad bits in the codeword
    image = encode_blocks(bits, code)
    # Forge an image whose pad region is nonzero but whose parity is valid.
    padded = np.concatenate([bits, np.zeros(11, dtype=np.uint8)])
    padded[45] = 1
    forged = encode_blocks(padded, code)
    assert len(forged) == len(image)
    with pytest.raises(CodewordError):
        decode_blocks(forged, code, 40)


def test_short_image_is_truncation():
    bits = random_bits(random.Random(4), 60)
    image = encode_blocks(bits, (63, 51))
    with pytest.raises(TruncatedFrame):
        decode_blocks(image[:-1], (63, 51), 60)


def test_identity_code_is_a_passthrough():
    bits = random_bits(random.Random(5), 63)
    image = encode_blocks(bits, (63, 63))
    assert np.array_equal(image, bits)
    assert np.array_equal(decode_blocks(image, (63, 63), 63), bits)


# ---------------------------------------------------- reference equality
#
# The coder computes every codeword's parity in one GF(2) matrix product.
# These references are the per-codeword loop it replaced: pad, then append
# `crc12_bits` of each information word. Outputs must be exactly equal.

CODES = [(31, 19), (63, 51), (63, 63), (300, 288), (612, 600)]


def reference_encode(bits, code):
    n, k = code
    bits = [int(b) for b in bits]
    out = []
    for off in range(0, len(bits), k):
        info = bits[off : off + k]
        info += [0] * (k - len(info))
        out += info
        if n > k:
            parity = crc12_bits(info)
            out += [(parity >> (n - k - 1 - i)) & 1 for i in range(n - k)]
    return np.array(out, dtype=np.uint8)


def reference_decode(image, code, info_bit_count):
    n, k = code
    image = [int(b) for b in image]
    expected = math.ceil(info_bit_count / k) * n if info_bit_count else 0
    if len(image) < expected:
        raise TruncatedFrame(f"coded region holds {len(image)} bits, needs {expected}")
    if len(image) > expected:
        raise CodewordError(f"coded region holds {len(image)} bits, expected {expected}")
    info_bits = []
    for idx, off in enumerate(range(0, len(image), n)):
        word = image[off : off + n]
        if n > k:
            parity = crc12_bits(word[:k])
            if word[k:] != [(parity >> (n - k - 1 - i)) & 1 for i in range(n - k)]:
                raise CodewordError(f"parity mismatch in codeword {idx}")
        info_bits += word[:k]
    if any(info_bits[info_bit_count:]):
        raise CodewordError("nonzero pad bits in final codeword")
    return np.array(info_bits[:info_bit_count], dtype=np.uint8)


def outcome(fn, *args):
    """The result array, or the error class and message it raised."""
    try:
        result = fn(*args)
    except (CodewordError, TruncatedFrame) as exc:
        return type(exc), str(exc)
    return result.dtype, result.tolist()


def reference_lengths(code, rng):
    k = code[1]
    return [0, 1, k - 1, k, k + 1] + [rng.randrange(400) for _ in range(20)]


@pytest.mark.parametrize("code", CODES)
def test_encode_equals_the_per_codeword_loop(code):
    rng = random.Random(f"ref-encode-{code}")
    for n_bits in reference_lengths(code, rng):
        bits = random_bits(rng, n_bits)
        assert outcome(encode_blocks, bits, code) == outcome(reference_encode, bits, code)


@pytest.mark.parametrize("code", CODES)
def test_decode_equals_the_per_codeword_loop(code):
    rng = random.Random(f"ref-decode-{code}")
    for n_bits in reference_lengths(code, rng):
        image = reference_encode(random_bits(rng, n_bits), code)
        cases = [image, image[:-1], np.concatenate([image, [0]])]
        if len(image):
            flipped = image.copy()
            flipped[rng.randrange(len(image))] ^= 1
            cases.append(flipped)
        for case in cases:
            assert outcome(decode_blocks, case, code, n_bits) == outcome(
                reference_decode, case, code, n_bits
            )


@pytest.mark.parametrize("code", [(31, 19), (63, 51)])
def test_several_corrupted_codewords_name_the_first(code):
    n, k = code
    rng = random.Random(f"ref-multi-{code}")
    n_bits = 9 * k - 3
    image = encode_blocks(random_bits(rng, n_bits), code)
    for _ in range(20):
        bad_words = sorted(rng.sample(range(9), rng.randrange(2, 5)))
        mutated = image.copy()
        for word in bad_words:
            mutated[word * n + rng.randrange(n)] ^= 1
        with pytest.raises(CodewordError) as info:
            decode_blocks(mutated, code, n_bits)
        assert str(info.value) == f"parity mismatch in codeword {bad_words[0]}"
        assert outcome(decode_blocks, mutated, code, n_bits) == outcome(
            reference_decode, mutated, code, n_bits
        )


@pytest.mark.parametrize("code", [(300, 288), (612, 600)])
def test_long_codes_equal_the_loop_on_dense_words(code):
    # Parity sums reach about k / 2 ones per column, past 255 for k = 600,
    # so the product must be reduced mod 2 in a type that holds them.
    n, k = code
    rng = random.Random(f"ref-long-{code}")
    for bits in (np.ones(4 * k - 7, dtype=np.uint8), random_bits(rng, 4 * k - 7)):
        image = encode_blocks(bits, code)
        assert np.array_equal(image, reference_encode(bits, code))
        assert np.array_equal(decode_blocks(image, code, len(bits)), bits)
        late = image.copy()
        late[3 * n + rng.randrange(n)] ^= 1
        assert outcome(decode_blocks, late, code, len(bits)) == (CodewordError, "parity mismatch in codeword 3")
        assert outcome(decode_blocks, late, code, len(bits)) == outcome(reference_decode, late, code, len(bits))


def test_pad_check_runs_after_every_parity_check():
    # A forged final word with valid parity but set pad bits, and a corrupt
    # first word: the parity failure is reported, as the loop did.
    code = (63, 51)
    padded = np.concatenate([random_bits(random.Random(6), 60), np.zeros(42, dtype=np.uint8)])
    padded[-1] = 1
    forged = encode_blocks(padded, code)
    assert outcome(decode_blocks, forged, code, 60) == (CodewordError, "nonzero pad bits in final codeword")
    forged[0] ^= 1
    assert outcome(decode_blocks, forged, code, 60) == (CodewordError, "parity mismatch in codeword 0")
    assert outcome(decode_blocks, forged, code, 60) == outcome(reference_decode, forged, code, 60)


@pytest.mark.parametrize("code", [(40, 19), (63, 52), (19, 31), (12, 0), (0, 0)])
def test_bad_geometry_is_a_config_error_even_without_data(code):
    for bits in (np.zeros(0, dtype=np.uint8), np.ones(30, dtype=np.uint8)):
        with pytest.raises(ConfigError):
            encode_blocks(bits, code)
    with pytest.raises(ConfigError):
        decode_blocks(np.zeros(0, dtype=np.uint8), code, 0)


@pytest.mark.parametrize("code", [(13, 1), (1, 1)])
def test_one_information_bit_per_codeword_is_a_code(code):
    # k = 1 is the edge of the k >= 1 rule.
    bits = np.array([1, 0, 1], dtype=np.uint8)
    image = encode_blocks(bits, code)
    assert len(image) == 3 * code[0]
    assert np.array_equal(decode_blocks(image, code, 3), bits)


@pytest.mark.parametrize("code", [(31.0, 19.0), (31, 19.0), (True, True)], ids=["floats", "float-k", "bools"])
def test_a_code_of_other_than_ints_is_refused(code):
    # 12.0 parity bits pass the geometry rule, but the coder sizes arrays with n and k.
    with pytest.raises(ConfigError, match=r"block code \(.*\) needs int n and k"):
        encode_blocks(np.ones(30, dtype=np.uint8), code)


# ------------------------------------------------------- the word coder
#
# A short field, such as a PHY header, held as one integer and coded by
# the per-codeword loop above. It is the reference that the frame codec's
# header tables are checked against, so it does not use encode_blocks.


def encode_word(word: int, info_bit_count: int, code) -> int:
    """The `info_bit_count` bits of `word`, MSB first, as the
    coded_length(info_bit_count, code) bits that encode_blocks gives them,
    held as one integer."""
    check_code(code)
    return bits_to_int(reference_encode(int_to_bits(word, info_bit_count), code))


WORD_CODES = [(31, 19), (15, 3), (63, 51), (63, 63)]


@st.composite
def coded_fields(draw):
    """A code, an information bit count of up to four codewords (a whole
    number of them or not) and a word of that width."""
    code = draw(st.sampled_from(WORD_CODES))
    count = draw(st.integers(0, 4 * code[1]))
    return code, count, draw(st.integers(0, (1 << count) - 1))


@settings(max_examples=300, deadline=None)
@given(coded_fields())
def test_the_word_coder_gives_the_block_coders_bits(field):
    code, count, word = field
    image = encode_blocks(int_to_bits(word, count), code)
    assert int_to_bits(encode_word(word, count, code), len(image)).tolist() == image.tolist()


def test_a_word_wider_than_its_bit_count_is_refused():
    with pytest.raises(ValueError, match="does not fit in 19 bits"):
        encode_word(1 << 19, 19, (31, 19))
    with pytest.raises(ConfigError):
        encode_word(0, 19, (40, 19))
