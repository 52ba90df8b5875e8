"""Error-detection checksums used across the frame formats.

Three generators, all MSB-first with no reflection:

* 16-bit frame check over the MAC frame body (CRC-CCITT: poly 0x1021,
  init 0xFFFF), computed by the standard library's C `binascii.crc_hqx`,
* 4-bit header check folded into PLCP headers (ITU poly x^4 + x + 1),
* 12-bit per-codeword parity used by the block coder (poly 0x80F).
"""

from __future__ import annotations

import binascii
from typing import Iterable

__all__ = ["crc16", "crc4_bits", "crc12_bits"]


def crc16(data: bytes) -> int:
    """16-bit FCS over a byte string. crc16(b"123456789") == 0x29B1."""
    return binascii.crc_hqx(data, 0xFFFF)


def _crc_bits(bits: Iterable[int], width: int, poly: int) -> int:
    # Plain long division over GF(2), one input bit at a time, init 0.
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    reg = 0
    for bit in bits:
        reg ^= (bit & 1) << (width - 1)
        if reg & top:
            reg = ((reg << 1) ^ poly) & mask
        else:
            reg = (reg << 1) & mask
    return reg


def crc4_bits(bits: Iterable[int]) -> int:
    """4-bit header check over a bit sequence (poly x^4 + x + 1 = 0x3)."""
    return _crc_bits(bits, 4, 0x3)


def crc12_bits(bits: Iterable[int]) -> int:
    """12-bit codeword parity over a bit sequence (poly 0x80F).

    Any single-bit flip inside one codeword changes this value, which is
    what the block coder's detect-only decode relies on.
    """
    return _crc_bits(bits, 12, 0x80F)
