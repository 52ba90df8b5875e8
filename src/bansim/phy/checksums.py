"""Error-detection checksums used across the frame formats.

Three generators, all MSB-first with no reflection:

* 16-bit frame check over the MAC frame body (CRC-CCITT: poly 0x1021,
  init 0xFFFF), computed by the standard library's C `binascii.crc_hqx`,
* 4-bit header check folded into PLCP headers (ITU poly x^4 + x + 1),
* 12-bit per-codeword parity used by the block coder (poly 0x80F).

The 4- and 12-bit checks have init 0 and no final XOR, so each is the
remainder of the message times x^width over the generator: `crc_word`
takes it in one long division over GF(2) on a Python integer, and the bit
sequence forms first gather their bits into that integer.
"""

from __future__ import annotations

import binascii
from typing import Iterable

__all__ = ["crc16", "crc_word", "crc4_bits", "crc12_bits", "CRC4_POLY", "CRC12_POLY"]

CRC4_POLY = 0x3
CRC12_POLY = 0x80F


def crc16(data: bytes) -> int:
    """16-bit FCS over a byte string. crc16(b"123456789") == 0x29B1."""
    return binascii.crc_hqx(data, 0xFFFF)


def crc_word(word: int, width: int, poly: int) -> int:
    """`width`-bit check (generator x^width + poly, init 0) of the bits of
    `word`, MSB first; leading zero bits change nothing."""
    reg = word << width
    divisor = 1 << width | poly
    top = reg.bit_length()
    while top > width:
        reg ^= divisor << (top - width - 1)
        top = reg.bit_length()
    return reg


def _word(bits: Iterable[int]) -> int:
    word = 0
    for bit in bits:
        word = word << 1 | int(bit) & 1
    return word


def crc4_bits(bits: Iterable[int]) -> int:
    """4-bit header check over a bit sequence (poly x^4 + x + 1 = 0x3)."""
    return crc_word(_word(bits), 4, CRC4_POLY)


def crc12_bits(bits: Iterable[int]) -> int:
    """12-bit codeword parity over a bit sequence (poly 0x80F).

    Any single-bit flip inside one codeword changes this value, which is
    what the block coder's detect-only decode relies on.
    """
    return crc_word(_word(bits), 12, CRC12_POLY)
