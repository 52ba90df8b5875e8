"""Block coding modeled as rate expansion with checksum parity.

Only the (n, k) geometry matters to the rest of the stack: k information
bits expand to an n-bit codeword, the last block zero-padded to a whole
codeword. The n - k = 12 parity bits (none when n == k; the rule is
`rates.check_code`) are the 12-bit checksum `crc12_bits` of the
codeword's information bits, which makes every single-bit corruption of
a codeword detectable. Decoding is detect-only: a parity mismatch
raises, nothing is corrected.

That checksum has init 0 and no final XOR, so it is linear over GF(2): the
parity of information row u is u @ G mod 2, where row i of the k x 12
generator matrix G is the checksum of unit vector i. Two coders share
those rows:

* `encode_blocks`/`decode_blocks` code a bit array, such as a frame's
  PSDU, in one matrix product: encoding takes all parity rows at once,
  decoding checks all 0/1 codewords in one syndrome product with [G; I12],
  and mod 2 is the low bit of int32 sums.
* `decode_word` decodes a short field held as one integer, such as a
  PHY header that the frame codec's tables do not hold: a codeword's
  parity is the XOR of per-byte tables of G, built on first use. It raises
  what `decode_blocks` raises on the same bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from bansim.errors import CodewordError, TruncatedFrame
from bansim.phy.bitfields import checked_uint, int_to_bits
from bansim.phy.checksums import crc12_bits
from bansim.phy.rates import PARITY_BITS, check_code

__all__ = ["BlockCode", "encode_blocks", "decode_blocks", "decode_word", "coded_length"]

BlockCode = tuple[int, int]  # (n, k)
_PARITY_MASK = (1 << PARITY_BITS) - 1


@functools.cache
def _parity_rows(k: int) -> tuple[int, ...]:
    """The rows of G as integers: row i is the parity of unit vector i."""
    return tuple(crc12_bits(unit) for unit in np.eye(k, dtype=int).tolist())


@functools.cache
def _generator(k: int) -> np.ndarray:
    """[G; I12] over GF(2). float32 runs the products in BLAS, exact for
    k < 2**24; a cast to uint8 is undefined past 255."""
    rows = [int_to_bits(row, PARITY_BITS) for row in _parity_rows(k)]
    matrix = np.vstack([np.array(rows, dtype=np.float32), np.eye(PARITY_BITS, dtype=np.float32)])
    matrix.flags.writeable = False
    return matrix


@functools.cache
def _parity_tables(k: int) -> tuple[tuple[int, ...], ...]:
    """Per byte of a k-bit information word, lowest byte first, the parity
    of each of its 256 values: a word's parity is the XOR of its bytes'."""
    rows = _parity_rows(k)[::-1]  # rows[j]: the parity of bit j from the bottom
    tables = []
    for low in range(0, k, 8):
        table = [0] * 256
        for value in range(1, 256):
            bit = low + (value & -value).bit_length() - 1
            table[value] = table[value & (value - 1)] ^ (rows[bit] if bit < k else 0)
        tables.append(tuple(table))
    return tuple(tables)


def _word_parity(info: int, tables: tuple[tuple[int, ...], ...]) -> int:
    parity = 0
    for table in tables:
        parity ^= table[info & 0xFF]
        info >>= 8
    return parity


def coded_length(info_bit_count: int, code: BlockCode) -> int:
    """Serialized bit count after expansion to whole codewords."""
    n, k = code
    return math.ceil(info_bit_count / k) * n if info_bit_count else 0


def encode_blocks(bits: np.ndarray, code: BlockCode) -> np.ndarray:
    """Expand information bits into n-bit codewords.

    The final partial block is padded with zero bits up to k before its
    parity is computed; the pad is checked on decode.
    """
    n, k = check_code(code)
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) % k:
        bits = np.concatenate([bits, np.zeros(-len(bits) % k, dtype=np.uint8)])
    info = bits.reshape(-1, k)
    if n == k:
        return info.flatten()
    words = np.empty((len(info), n), dtype=np.uint8)
    words[:, :k] = info
    parity = (info @ _generator(k)[:-PARITY_BITS]).astype(np.int32)
    np.bitwise_and(parity, 1, out=words[:, k:], casting="unsafe")
    return words.ravel()


def decode_blocks(image: np.ndarray, code: BlockCode, info_bit_count: int) -> np.ndarray:
    """Recover information bits, validating parity and pad bits.

    `info_bit_count` is the true payload size; capacity bits beyond it in
    the final codeword must be zero. Parity errors name the first bad codeword.
    """
    n, k = check_code(code)
    image = np.asarray(image, dtype=np.uint8)
    expected = coded_length(info_bit_count, code)
    if len(image) < expected:
        raise TruncatedFrame(f"coded region holds {len(image)} bits, needs {expected}")
    if len(image) > expected:
        raise CodewordError(f"coded region holds {len(image)} bits, expected {expected}")
    words = image.reshape(-1, n)
    if n > k:
        syndrome = (words @ _generator(k)).astype(np.int32)
        if np.bitwise_or.reduce(syndrome, axis=None) & 1:  # some sum is odd
            raise CodewordError(f"parity mismatch in codeword {(syndrome & 1).any(axis=1).argmax()}")
    info_bits = words[:, :k].flatten()
    if info_bits[info_bit_count:].any():
        raise CodewordError("nonzero pad bits in final codeword")
    return info_bits[:info_bit_count]


def decode_word(coded: int, info_bit_count: int, code: BlockCode) -> int:
    """The information word of coded_length(info_bit_count, code) coded
    bits held as one integer; raises what decode_blocks raises on them."""
    n, k = check_code(code)
    blocks = -(-info_bit_count // k)
    checked_uint(coded, blocks * n)
    if n == k:
        info = coded
    else:
        tables, mask = _parity_tables(k), (1 << k) - 1
        info = 0
        for index, shift in enumerate(range((blocks - 1) * n, -1, -n)):
            codeword = coded >> shift
            data = codeword >> PARITY_BITS & mask
            if codeword & _PARITY_MASK != _word_parity(data, tables):
                raise CodewordError(f"parity mismatch in codeword {index}")
            info = info << k | data
    pad = blocks * k - info_bit_count
    if info & ((1 << pad) - 1):
        raise CodewordError("nonzero pad bits in final codeword")
    return info >> pad
