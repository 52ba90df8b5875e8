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
matrix G is the checksum of unit vector i. The systematic generator
[I_k | G] (`generator`) turns information rows into whole codewords in one
matrix product, mod 2 being the low bit of int32 sums; `encode_blocks`
codes a bit array so, and the frame codec a PSDU's rows. `decode_blocks`
accepts codewords whose parity bits equal those rebuilt from their
information bits, and names the first that differs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from bansim.errors import CodewordError, TruncatedFrame
from bansim.phy.bitfields import int_to_bits
from bansim.phy.checksums import crc12_bits
from bansim.phy.rates import PARITY_BITS, check_code

__all__ = ["BlockCode", "generator", "encode_blocks", "decode_blocks", "coded_length"]

BlockCode = tuple[int, int]  # (n, k)


@functools.cache
def generator(n: int, k: int) -> np.ndarray:
    """[I_k | G] over GF(2), k x n, row i the codeword of unit vector i, of a
    code the caller checked. float32 runs the products in BLAS, exact for
    k < 2**24; a cast to uint8 is undefined past 255."""
    matrix = np.eye(k, n, dtype=np.float32)
    if n > k:
        matrix[:, k:] = [int_to_bits(crc12_bits(unit), PARITY_BITS) for unit in np.eye(k, dtype=int).tolist()]
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
    words = (bits.reshape(-1, k) @ generator(n, k)).astype(np.int32) & 1
    return words.astype(np.uint8).ravel()


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
        parity = (words[:, :k] @ generator(n, k)[:, k:]).astype(np.int32) & 1
        bad = (parity != words[:, k:]).any(axis=1)
        if bad.any():
            raise CodewordError(f"parity mismatch in codeword {bad.argmax()}")
    info_bits = words[:, :k].flatten()
    if info_bits[info_bit_count:].any():
        raise CodewordError("nonzero pad bits in final codeword")
    return info_bits[:info_bit_count]
