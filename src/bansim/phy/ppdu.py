"""Bit-exact frame construction and parsing for the three radio types.

Every frame serializes as

    sync pattern .. coded PHY header .. coded (and spread) MAC frame

with the sizes and header layouts of `phy.rates`, which also times a
frame without building it. The PHY header carries the body length, so a
parser given the operating config can recover every field and validate
the frame end to end. Decoding is detect-only: any inconsistency raises a
distinct FrameError subclass.
The MAC frame is coded by `fec.encode_rows`, one product of its
information rows with the 12 parity columns, then spread. Parse rebuilds
nothing: with the sync matched and the coded header in a table, it checks
the frame region in order, each check on the bytes or rows the last one
left. Every value is 0 or 1; the length is the header's; each spread
bit's copies agree (each s-byte word is 0 or 0x01..01, which also shows
its values are bits); and one product of the codewords with [G; I]
(`fec.check_matrix`) gives only even sums, so each codeword's own parity
columns are the parity of its information columns. Those information
columns give the PSDU bytes. A reject names the first failed check: a
value not 0 or 1 (ValueError), sync, header, length, copies, parity. A
non-1-D image is a ValueError first.

A frame (`Ppdu`) is an immutable record, built in one step, whose image
is a read-only view of immutable bytes: build assembles the image as
bytes, and parse keeps the image it was given when its `.base` chain ends
in bytes, a copy otherwise, so no later write to the caller's memory
reaches the frame, not even through a read-only view of it. A frame holds
no copy of its family's sync pattern: that is `_FORMATS[kind].sync`, and
every image starts with it.

The families differ only in data, held in one format table (`_FORMATS`)
that a single build, parse and hexdump walk:

* sync: a preamble unit sent a fixed number of times, then an optional
  start-frame delimiter. Narrowband sends a 90-bit pseudo-noise preamble
  once, with no delimiter; pulse radio sends spreading code 0 four times,
  then its complement as the delimiter; body-coupled sends a 32-bit unit
  four times, then a 16-bit delimiter. The patterns are fixed constants of
  this implementation (the frame format requires fixed patterns without
  prescribing them). Each sync is built once, read-only; parse compares it
  as bytes in one step and walks its blocks only to name a failure.
* header: the family's layout and check from `rates.HEADER_LAYOUTS`,
  which also describes the fields; the header record is made from it.
  Pulse radio's pad bits must read zero on parse. Parse refuses a header
  whose rate index is not the config's: the frame region is decoded with
  the config's coding, so another rate cannot be read under it.

The block codes are the same in every family (`rates.HEADER_CODE`,
`rates.PSDU_CODE`), and build sends every other header field as zero (nb:
scrambler, burst_mode; uwb: scrambler_seed), so a frame's header is a
function of its family, rate index and body length alone. Each (family,
rate index) gets a header table, filled on the first build that uses it:
for every length 0..255 the header and its read-only coded bits, all 256
block-coded in one `fec.encode_blocks` product. Build then looks its
header up by body length. An inverse map per (family, rate index) holds
the coded-header bytes of that table, so parse looks up the image's
header bytes and goes straight on to the frame region. A miss (a
corrupted or short header, a header field or narrowband reserved bit set,
or a table no build has filled yet) takes the miss path: the header
decoded by the block decoder (`fec.decode_blocks`), its fields and check
read off the decoded word, so parse reads any field value. Importing the
module fills nothing; all 8 + 16 + 8 tables together take about 3 MB.

Known limit: a header whose `length` is raised by a few bytes, within the
zero pad of the frame region's last codeword, still parses. The body then
takes in the two FCS bytes and the pad bytes after them, and the FCS is
read from the pad as 0x0000. That check passes because the frame check
(`crc16`: init 0xFFFF, no final XOR) of a message followed by its own
check is 0, and zero bytes after it keep it 0; one raised byte passes
too, as the check of the message plus the FCS's high byte is the low byte
followed by a zero byte. Pulse radio and body-coupled have no header
check over `length`, so a header error there meets this; narrowband's
4-bit header check catches most such errors, but not a header re-coded
with its check. Closing the gap needs another frame check, which would
change every bit image.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from bansim.errors import (
    CodewordError,
    FcsMismatch,
    FrameTooLong,
    HeaderCheckError,
    DespreadError,
    PreambleMismatch,
    SfdMismatch,
    TrailingBitsError,
    TruncatedFrame,
    frame_bytes,
)
from bansim.phy import fec
from bansim.phy.bitfields import bits_to_int, padded_bytes
from bansim.phy.checksums import CRC4_POLY, crc16, crc_word
from bansim.phy.kasami import kasami63_bits, mseq
from bansim.phy.rates import (FCS_LEN, HEADER_CODE, HEADER_INFO_BITS, HEADER_LAYOUTS, MAC_HEADER_LEN, MAX_BODY_LEN,
                              PSDU_CODE, PhyConfig, PhyKind)
from bansim.phy.rates import frame_airtime_us  # bound here only for bench/worker.py, which reads it here

__all__ = [
    "NbPlcpHeader",
    "UwbPhr",
    "HbcPhyHeader",
    "Ppdu",
    "build_ppdu",
    "parse_ppdu",
    "hexdump",
]

# Narrowband sync: the first 90 bits of the degree-7 maximal sequence.
NB_PREAMBLE = mseq(7, (7, 1), 0b1111111)[:90].copy()

UWB_PREAMBLE_REPS = 4
UWB_PREAMBLE_CODE = kasami63_bits(0)
UWB_SFD = (1 - UWB_PREAMBLE_CODE).astype(np.uint8)

HBC_PREAMBLE_REPS = 4
# Degree-5 and degree-4 maximal sequences, padded to even byte sizes.
HBC_PREAMBLE_UNIT = np.concatenate([mseq(5, (5, 2), 0b11111), [0]]).astype(np.uint8)
HBC_SFD = np.concatenate([mseq(4, (4, 1), 0b1111), [1]]).astype(np.uint8)


class Ppdu(NamedTuple):
    """Structured frame plus its serialized bit image, which is read-only."""

    kind: PhyKind
    header: NbPlcpHeader | UwbPhr | HbcPhyHeader
    mac_header: bytes
    body: bytes
    fcs: int
    bits: np.ndarray

    @property
    def psdu_bytes(self) -> bytes:
        return self.mac_header + self.body + self.fcs.to_bytes(FCS_LEN, "big")


class _Format:
    """One signal family's frame format, walked by the shared codec; what
    the codec derives from it is worked out once, here."""

    __slots__ = ("unit", "reps", "sfd", "layout", "crc4", "zero_pad", "header",
                 "info_bits", "coded_bits", "shifts", "sync", "sync_bytes")

    def __init__(self, kind: PhyKind, unit: np.ndarray, reps: int, sfd: np.ndarray, zero_pad: bool, header: str):
        self.unit = unit  # preamble unit, sent `reps` times
        self.reps = reps
        self.sfd = sfd  # start-frame delimiter; empty when the family has none
        self.layout, self.crc4 = HEADER_LAYOUTS[kind]  # header (field, width), and whether `hcs` follows
        self.zero_pad = zero_pad  # the None bits must read zero on parse
        fields = [name for name, _ in self.layout if name] + ["hcs"] * self.crc4
        self.header = NamedTuple(header, [(name, int) for name in fields])  # a record of this module
        self.info_bits = HEADER_INFO_BITS[kind]
        self.coded_bits = fec.coded_length(self.info_bits, HEADER_CODE)  # the coded header's length
        self.shifts: dict[str, int] = {}  # each named field's bit position in the layout word
        pos = self.info_bits - 4 * self.crc4
        for name, width in self.layout:
            pos -= width
            if name:
                self.shifts[name] = pos
        self.sync = np.concatenate([np.tile(unit, reps), sfd])
        self.sync.flags.writeable = False
        self.sync_bytes = self.sync.tobytes()


_FORMATS = {
    PhyKind.NB: _Format(PhyKind.NB, NB_PREAMBLE, 1, np.zeros(0, np.uint8), zero_pad=False, header="NbPlcpHeader"),
    PhyKind.UWB: _Format(PhyKind.UWB, UWB_PREAMBLE_CODE, UWB_PREAMBLE_REPS, UWB_SFD, zero_pad=True, header="UwbPhr"),
    PhyKind.HBC: _Format(PhyKind.HBC, HBC_PREAMBLE_UNIT, HBC_PREAMBLE_REPS, HBC_SFD, zero_pad=False,
                         header="HbcPhyHeader"),
}
NbPlcpHeader, UwbPhr, HbcPhyHeader = (fmt.header for fmt in _FORMATS.values())


# Spreading sends each coded bit s times (s is 1, 2 or 4). Read as one
# s-byte word, the s copies of a bit are 0 or 0x01..01 (`_COPIES[s]`), so
# spreading is one multiply and despreading one compare, true for a 1.
_COPIES = {2: 0x0101, 4: 0x01010101}
_EVEN = bytes(range(0, 256, 2))  # deleted by bytes.translate, they leave the odd sums


def _refuse_stray(image: bytes, start: int) -> None:
    """ValueError at the first value of `image` (image position `start`) that is not a bit."""
    stray = image.translate(None, b"\x00\x01")  # the values that are not bits, in order
    if stray:
        raise ValueError(f"image position {start + image.index(stray[0])} holds {stray[0]}, not a bit")


def _decode_psdu(cfg: PhyConfig, bits: np.ndarray, start: int, psdu_len: int) -> bytes:
    """The PSDU of the frame region bits[start:], checked in the module's
    order. The bits before `start` are bits: sync and header bytes matched
    exactly, or values `_bit_image` checked. Spread words of the right
    length have their values checked with their copies."""
    (n, k), s = PSDU_CODE, cfg.spreading
    region, rows = bits[start:], -(-8 * psdu_len // k)
    image, size = region.tobytes(), rows * n * s
    if s == 1 or len(image) != size:
        _refuse_stray(image, start)
    if len(image) < size:
        raise TruncatedFrame(f"frame region holds {len(image)} bits, needs {size}")
    if len(image) > size:
        raise TrailingBitsError(f"{len(image) - size} bits past end of frame")
    if s > 1:
        copies = np.frombuffer(image, f"<u{s}")
        coded = copies == _COPIES[s]  # each coded bit, if its copies agree
        if np.count_nonzero(copies) != np.count_nonzero(coded):  # a word neither 0 nor 0x01..01
            _refuse_stray(image, start)
            raise DespreadError("repetition copies disagree")
        words = coded.view(np.uint8).reshape(rows, n)
    else:
        words = region.reshape(rows, n)
    sums = np.dot(words, fec.check_matrix(k)).astype(np.uint8).tobytes()  # n < 256 ones at most: exact
    if sums.translate(None, _EVEN):  # an odd sum: a parity column is not its information's parity
        odd = np.frombuffer(sums, np.uint8) & 1
        raise CodewordError(f"parity mismatch in codeword {odd.argmax() // (n - k)}")
    psdu = np.packbits(words[:, :k]).tobytes()  # the pad bits fill the bytes past psdu_len
    if any(psdu[psdu_len:]):
        raise CodewordError("nonzero pad bits in final codeword")
    return psdu[:psdu_len]


def _take(bits: np.ndarray, offset: int, count: int, what: str) -> np.ndarray:
    if len(bits) < offset + count:
        raise TruncatedFrame(f"image ends inside {what}")
    return bits[offset : offset + count]


# -------------------------------------------------------------------- codec


def _bit_image(bits: np.ndarray) -> np.ndarray:
    """`bits` as a 1-D uint8 array; ValueError if not 1-D (or ragged), or at
    the first value not 0 or 1, and TypeError if it holds no real numbers."""
    try:
        raw = np.asarray(bits)
    except ValueError:  # rows of unequal length
        raise ValueError(f"image must be one-dimensional, got a ragged {type(bits).__name__}") from None
    if raw.ndim != 1:
        raise ValueError(f"image must be one-dimensional, got {raw.ndim} dimensions ({type(bits).__name__})")
    if raw.dtype.kind in "Vc":  # records and raw bytes compare with no number, complex ones cast with a warning
        raise TypeError(f"image must hold real numbers, got dtype {raw.dtype}")
    if raw.dtype == np.uint8 and np.bitwise_or.reduce(raw, axis=None) < 2:
        return raw
    stray = (raw != 0) & (raw != 1)
    if stray.any():
        pos = int(stray.argmax())
        raise ValueError(f"image position {pos} holds {raw.flat[pos]}, not a bit")
    try:
        return raw.astype(np.uint8)
    except TypeError:  # a complex 0 or 1 among objects has no int()
        raise TypeError(f"image must hold real numbers, got dtype {raw.dtype}") from None


def _family(cfg: PhyConfig) -> tuple[PhyKind, _Format]:
    """`cfg`'s signal family and its frame format; TypeError if `cfg` is not a PhyConfig."""
    if not isinstance(cfg, PhyConfig):
        raise TypeError(f"cfg must be a PhyConfig, got {type(cfg).__name__}")
    return cfg.kind, _FORMATS[cfg.kind]


def _preamble_label(fmt: _Format, rep: int) -> str:
    return f"preamble block {rep + 1}/{fmt.reps}" if fmt.reps > 1 else "preamble"


# ------------------------------------------------------------ header tables

# (family, rate index): one entry per body length, (header, coded bits),
# and the map from each entry's coded-header bytes to its header.
_TABLES: dict[tuple[PhyKind, int], tuple[tuple[object, np.ndarray], ...]] = {}
_INVERSE: dict[tuple[PhyKind, int], dict[bytes, object]] = {}
_NO_HEADERS: dict[bytes, object] = {}


def _header_table(kind: PhyKind, fmt: _Format, rate_index: int) -> tuple:
    """The headers of every body length at `rate_index`, filled in one
    block-coding pass on first use."""
    table = _TABLES.get((kind, rate_index))
    if table:
        return table
    shifts = fmt.shifts
    words = [rate_index << shifts["rate_index"] | length << shifts["length"] for length in range(MAX_BODY_LEN + 1)]
    if fmt.crc4:
        words = [word << 4 | crc_word(word, 4, CRC4_POLY) for word in words]
    k = HEADER_CODE[1]
    info = np.zeros((len(words), -(-fmt.info_bits // k) * k), dtype=np.uint8)  # whole codewords
    info[:, : fmt.info_bits] = np.array(words)[:, None] >> np.arange(fmt.info_bits - 1, -1, -1) & 1
    coded = fec.encode_blocks(info.ravel(), HEADER_CODE).reshape(len(words), -1)
    coded.flags.writeable = False
    values = dict.fromkeys(shifts, 0)
    values["rate_index"] = rate_index
    entries = []
    for length, (word, row) in enumerate(zip(words, coded)):
        values["length"] = length
        if fmt.crc4:
            values["hcs"] = word & 0xF
        entries.append((fmt.header(**values), row))
    table = _TABLES[kind, rate_index] = tuple(entries)
    _INVERSE[kind, rate_index] = {row.tobytes(): header for header, row in table}
    return table


def _decode_header(fmt: _Format, cfg: PhyConfig, coded: np.ndarray):
    """The miss path: the coded header decoded by `fec.decode_blocks`, its
    fields and check read off the decoded word."""
    n_info = fmt.info_bits
    word = bits_to_int(fec.decode_blocks(coded, HEADER_CODE, n_info))
    values, pos = {}, n_info
    for name, width in fmt.layout:
        pos -= width
        value = word >> pos & ((1 << width) - 1)
        if name:
            values[name] = value
        elif value and fmt.zero_pad:
            raise HeaderCheckError("nonzero header pad bits")
    if fmt.crc4:
        values["hcs"] = word & 0xF
        if values["hcs"] != crc_word(word >> 4, 4, CRC4_POLY):
            raise HeaderCheckError("header check bits mismatch")
    if values["rate_index"] != cfg.rate_index:
        raise HeaderCheckError(f"header rate index {values['rate_index']} is not the configured {cfg.rate_index}")
    return fmt.header(**values)


def build_ppdu(cfg: PhyConfig, mac_header: bytes, body: bytes) -> Ppdu:
    """The frame of `cfg`'s family. `mac_header` and `body` are bytes-like,
    kept as bytes. The image is a read-only view of immutable bytes."""
    mac_header, body = frame_bytes(mac_header, "mac_header"), frame_bytes(body, "body")
    if len(mac_header) != MAC_HEADER_LEN:
        raise ValueError(f"mac header must be {MAC_HEADER_LEN} bytes, got {len(mac_header)}")
    if len(body) > MAX_BODY_LEN:
        raise FrameTooLong(f"body of {len(body)} bytes exceeds {MAX_BODY_LEN}")
    kind, fmt = _family(cfg)
    header, header_bits = _header_table(kind, fmt, cfg.rate_index)[len(body)]
    frame = mac_header + body
    fcs = crc16(frame)
    psdu = frame + fcs.to_bytes(FCS_LEN, "big")
    k = PSDU_CODE[1]
    info = np.unpackbits(np.frombuffer(psdu, np.uint8), count=-(-8 * len(psdu) // k) * k)
    words, s = fec.encode_rows(info.reshape(-1, k), PSDU_CODE), cfg.spreading
    if s > 1:
        words = words.astype(f"<u{s}")
        words *= _COPIES[s]
    image = fmt.sync_bytes + header_bits.tobytes() + words.tobytes()
    return Ppdu(kind, header, mac_header, body, fcs, np.frombuffer(image, np.uint8))


def parse_ppdu(bits: np.ndarray, cfg: PhyConfig) -> Ppdu:
    """The frame in an image of `cfg`'s family; a FrameError names the first
    failed check. The frame keeps `bits` if immutable bytes back it (a built
    image or a slice of one), a read-only copy over bytes otherwise."""
    kind, fmt = _family(cfg)
    if not (isinstance(bits, np.ndarray) and bits.ndim == 1 and bits.dtype == np.uint8):
        bits = _bit_image(bits)
    off, n_hdr = len(fmt.sync), fmt.coded_bits
    headers = _INVERSE.get((kind, cfg.rate_index), _NO_HEADERS)
    head = bits[: off + n_hdr].tobytes()  # a uint8 image's bytes: the miss path's sync checks read it too
    header = headers.get(head[off:]) if head[:off] == fmt.sync_bytes else None
    if header is None:
        bits = _bit_image(bits)  # a value not a bit is named before any check
        if head[:off] != fmt.sync_bytes:
            unit = len(fmt.unit)
            for rep in range(fmt.reps):
                lo = rep * unit
                _take(bits, lo, unit, "preamble")
                if head[lo : lo + unit] != fmt.sync_bytes[lo : lo + unit]:  # the sync opens with its units
                    raise PreambleMismatch(f"{_preamble_label(fmt, rep)} mismatch")
            _take(bits, fmt.reps * unit, len(fmt.sfd), "start-frame delimiter")
            raise SfdMismatch("start-frame delimiter mismatch")
        header = _decode_header(fmt, cfg, _take(bits, off, n_hdr, "header"))
    psdu = _decode_psdu(cfg, bits, off + n_hdr, MAC_HEADER_LEN + header.length + FCS_LEN)
    mac_header = psdu[:MAC_HEADER_LEN]
    body = psdu[MAC_HEADER_LEN:-FCS_LEN]
    fcs = int.from_bytes(psdu[-FCS_LEN:], "big")
    if fcs != crc16(psdu[:-FCS_LEN]):
        raise FcsMismatch(f"frame check 0x{fcs:04X} != computed 0x{crc16(psdu[:-FCS_LEN]):04X}")
    base = bits
    while type(base) is np.ndarray:
        base = base.base
    if type(base) is not bytes:  # writeable memory may back `bits`
        bits = np.frombuffer(bits.tobytes(), np.uint8)
    return Ppdu(kind, header, mac_header, body, fcs, bits)


# ------------------------------------------------------------------ hexdump


def _regions(ppdu: Ppdu) -> list[tuple[str, np.ndarray]]:
    fmt = _FORMATS[ppdu.kind]
    bits, unit, sfd = ppdu.bits, len(fmt.unit), len(fmt.sfd)
    out = [(_preamble_label(fmt, i), bits[i * unit : (i + 1) * unit]) for i in range(fmt.reps)]
    off = fmt.reps * unit
    if sfd:
        out.append(("sfd", bits[off : off + sfd]))
        off += sfd
    n_hdr = fmt.coded_bits
    out.append((f"phy_header ({fmt.info_bits} info bits)", bits[off : off + n_hdr]))
    out.append((f"psdu ({len(ppdu.psdu_bytes)} bytes coded)", bits[off + n_hdr :]))
    return out


def hexdump(ppdu: Ppdu) -> str:
    """Annotated dump: bit offset, hex of the region bits, field label.

    Regions are padded to whole bytes for display only; offsets count image
    bits, so region boundaries remain exact.
    """
    lines = []
    offset = 0
    for label, bits in _regions(ppdu):
        data = padded_bytes(bits)
        for i in range(0, max(len(data), 1), 16):
            chunk = data[i : i + 16]
            hexpart = " ".join(f"{b:02x}" for b in chunk)
            note = f"{label} ({len(bits)} bits)" if i == 0 else ""
            lines.append(f"{offset + i * 8:>7}  {hexpart:<47}  {note}".rstrip())
        offset += len(bits)
    return "\n".join(lines)
