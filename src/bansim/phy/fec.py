"""Block coding modeled as rate expansion with checksum parity.

Only the (n, k) geometry matters to the rest of the stack: k information
bits expand to an n-bit codeword, the last block zero-padded to a whole
codeword. The n - k = 12 parity bits (none when n == k; the rule is
`check_code`) are the 12-bit checksum `crc12_bits` of the
codeword's information bits, which makes every single-bit corruption of
a codeword detectable. Decoding is detect-only: a parity mismatch
raises, nothing is corrected.

That checksum has init 0 and no final XOR, so it is linear over GF(2): the
parity of information row u is u @ G mod 2, where row i of the k x 12
parity matrix G (`parity_matrix`) is the checksum of unit vector i. Only
the parity columns take a product: `encode_rows` turns information rows
into codewords [info | info @ G mod 2], mod 2 being the low bit of int32
sums, and it is the one coder behind the header tables (`encode_blocks`),
the miss path (`decode_blocks`) and the frame codec's PSDU build and parse
rebuild. `decode_blocks` accepts codewords that their own information
bits code back to, and names the first that does not.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from bansim.errors import CodewordError, ConfigError, TruncatedFrame
from bansim.phy.bitfields import int_to_bits
from bansim.phy.checksums import crc12_bits

__all__ = ["BlockCode", "check_code", "parity_matrix", "encode_rows", "encode_blocks", "decode_blocks", "coded_length"]

BlockCode = tuple[int, int]  # (n, k)
PARITY_BITS = 12  # per codeword: the width of the checksum


def check_code(code: BlockCode) -> BlockCode:
    """The (n, k) block code if the block coder can code it: int n and k,
    k >= 1 and n - k of 0 (uncoded) or PARITY_BITS; ConfigError otherwise."""
    n, k = code
    if type(n) is not int or type(k) is not int:
        raise ConfigError(f"block code ({n!r},{k!r}) needs int n and k")
    if k < 1 or n - k not in (0, PARITY_BITS):
        raise ConfigError(f"block code ({n},{k}) needs k >= 1 and n - k of 0 or {PARITY_BITS}")
    return n, k


@functools.cache
def parity_matrix(k: int) -> np.ndarray:
    """G over GF(2), k x 12, read-only, row i the parity of unit vector i.
    float32 runs the products in BLAS, exact for k < 2**24; a cast to
    uint8 is undefined past 255."""
    matrix = np.array(
        [int_to_bits(crc12_bits(unit), PARITY_BITS) for unit in np.eye(k, dtype=int).tolist()], dtype=np.float32
    )
    matrix.flags.writeable = False
    return matrix


def encode_rows(info: np.ndarray, code: BlockCode) -> np.ndarray:
    """The codewords [info | info @ G mod 2] (blocks x n, uint8) of the
    information rows `info` (blocks x k, each bit 0 or 1) of a checked code."""
    n, k = code
    if n == k:
        return info.astype(np.uint8)
    parity = np.dot(info, parity_matrix(k)).astype(np.int32)
    parity &= 1
    return np.concatenate([info, parity], axis=1, dtype=np.uint8, casting="unsafe")


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
    return encode_rows(bits.reshape(-1, k), (n, k)).ravel()


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
    info = words[:, :k]
    if n > k:
        bad = (encode_rows(info, (n, k)) != words).any(axis=1)
        if bad.any():
            raise CodewordError(f"parity mismatch in codeword {bad.argmax()}")
    info_bits = info.flatten()
    if info_bits[info_bit_count:].any():
        raise CodewordError("nonzero pad bits in final codeword")
    return info_bits[:info_bit_count]
