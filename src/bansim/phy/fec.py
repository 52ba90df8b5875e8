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
generator matrix G is the checksum of unit vector i. `encode_blocks` and
`decode_blocks` code a bit array, such as a frame's PSDU or PHY header, in
one matrix product: encoding takes all parity rows at once, decoding
checks all 0/1 codewords in one syndrome product with [G; I12], and mod 2
is the low bit of int32 sums.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from bansim.errors import CodewordError, TruncatedFrame
from bansim.phy.bitfields import int_to_bits
from bansim.phy.checksums import crc12_bits
from bansim.phy.rates import PARITY_BITS, check_code

__all__ = ["BlockCode", "encode_blocks", "decode_blocks", "coded_length"]

BlockCode = tuple[int, int]  # (n, k)


@functools.cache
def _generator(k: int) -> np.ndarray:
    """[G; I12] over GF(2), row i of G the parity of unit vector i. float32
    runs the products in BLAS, exact for k < 2**24; a cast to uint8 is
    undefined past 255."""
    rows = [int_to_bits(crc12_bits(unit), PARITY_BITS) for unit in np.eye(k, dtype=int).tolist()]
    matrix = np.vstack([np.array(rows, dtype=np.float32), np.eye(PARITY_BITS, dtype=np.float32)])
    matrix.flags.writeable = False
    return matrix


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
