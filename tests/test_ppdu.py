"""Frame codec round trips, image geometry, and mutation detection."""

import hashlib
import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bansim
from bansim.errors import (
    DespreadError,
    FcsMismatch,
    FrameError,
    FrameTooLong,
    HeaderCheckError,
    PreambleMismatch,
    SfdMismatch,
    TrailingBitsError,
    TruncatedFrame,
)
from bansim.efficiency import sweep_configs
from bansim.phy import fec
from bansim.phy.bitfields import bytes_to_bits, int_to_bits
from bansim.phy.checksums import crc4_bits, crc16
from bansim.phy.ppdu import (
    HBC_PREAMBLE_REPS,
    HBC_PREAMBLE_UNIT,
    HBC_SFD,
    NB_PREAMBLE,
    UWB_PREAMBLE_CODE,
    UWB_PREAMBLE_REPS,
    build_ppdu,
    hexdump,
    parse_ppdu,
    HbcPhyHeader,
    NbPlcpHeader,
    UwbPhr,
    _FORMATS,
    _INVERSE,
    _TABLES,
    _decode_header,
    _header_table,
)
from bansim.phy.rates import (
    HEADER_CODE,
    MAC_HEADER_LEN,
    MAX_BODY_LEN,
    PREAMBLE_SYMBOLS,
    PSDU_CODE,
    RATE_INDEX_BITS,
    Band,
    PhyConfig,
    PhyKind,
    Modulation,
    builtin_rate_table,
    frame_airtime_us,
    frame_airtimes_us,
    hbc_config,
    info_data_rate,
    nb_config,
    uwb_config,
)
from test_fec import encode_word, reference_decode

NB = nb_config(Band.NB_402_405, "high")
NB_SPREAD = nb_config(Band.NB_2360_2400, "low")  # payload spreading of 4
UWB = uwb_config(2)
HBC = hbc_config(16)
NB_GMSK = nb_config(Band.NB_420_450, "low")  # GMSK, payload spreading of 2

ALL = [NB, NB_SPREAD, UWB, HBC, NB_GMSK]
# Ids name each case's index and family in a fixed form, so test reports
# compare across versions.
ALL_IDS = [f"cfg{i}-build_{cfg.kind.value}_ppdu-parse_{cfg.kind.value}_ppdu" for i, cfg in enumerate(ALL)]


def random_frame(rng):
    header = bytes(rng.randrange(256) for _ in range(MAC_HEADER_LEN))
    body = bytes(rng.randrange(256) for _ in range(rng.randrange(256)))
    return header, body


@pytest.mark.parametrize("cfg", ALL, ids=ALL_IDS)
def test_round_trip_random_frames(cfg):
    rng = random.Random(f"roundtrip-{cfg.band_id.value}")
    for _ in range(100):
        header, body = random_frame(rng)
        ppdu = build_ppdu(cfg, header, body)
        back = parse_ppdu(ppdu.bits, cfg)
        assert back.mac_header == header
        assert back.body == body
        assert back.fcs == ppdu.fcs
        assert back.header == ppdu.header


def test_empty_body_round_trip():
    ppdu = build_ppdu(NB, b"\x01" * 7, b"")
    assert len(ppdu.psdu_bytes) == MAC_HEADER_LEN + 2
    back = parse_ppdu(ppdu.bits, NB)
    assert back.body == b""


def test_oversize_body_rejected():
    with pytest.raises(FrameTooLong):
        build_ppdu(NB, b"\x01" * 7, b"x" * 256)


@pytest.mark.parametrize("body_len", [-1, MAX_BODY_LEN + 1])
def test_airtime_of_a_length_the_field_cannot_hold_names_the_range(body_len):
    with pytest.raises(FrameTooLong, match=rf"body of {body_len} bytes outside 0\.\.255"):
        frame_airtime_us(NB, body_len)


@pytest.mark.parametrize("body_len", [1.5, 1.0, True, "1", None])
def test_airtime_of_a_length_that_is_not_an_int_names_the_argument(body_len):
    # No build makes a fractional body: 1.5 once timed 1087.37 us on nb 402-405 high.
    with pytest.raises(TypeError, match=f"^body_len must be an int, got {re.escape(repr(body_len))}$"):
        frame_airtime_us(NB, body_len)
    with pytest.raises(TypeError, match="^body_len must be an int"):
        frame_airtimes_us(NB, [0, body_len])


def test_nb_image_geometry():
    # Expected layout arithmetic recomputed here from the block structure.
    for body_len in (0, 1, 50, 255):
        ppdu = build_ppdu(NB, b"\x02" * 7, b"y" * body_len)
        psdu_bits = (MAC_HEADER_LEN + body_len + 2) * 8
        expect = 90 + 31 + math.ceil(psdu_bits / 51) * 63 * NB.spreading
        assert len(ppdu.bits) == expect


def test_spread_image_is_wider_by_the_spreading_factor():
    a = build_ppdu(nb_config(Band.NB_2360_2400, "high"), b"\x03" * 7, b"z" * 20)
    b = build_ppdu(NB_SPREAD, b"\x03" * 7, b"z" * 20)
    psdu_a = len(a.bits) - 90 - 31
    psdu_b = len(b.bits) - 90 - 31
    assert psdu_b == 4 * psdu_a


def test_hbc_image_has_four_preamble_copies_then_one_sfd():
    ppdu = build_ppdu(HBC, b"\x04" * 7, b"ab")
    unit = len(HBC_PREAMBLE_UNIT)
    for rep in range(HBC_PREAMBLE_REPS):
        segment = ppdu.bits[rep * unit : (rep + 1) * unit]
        assert np.array_equal(segment, HBC_PREAMBLE_UNIT)
    off = HBC_PREAMBLE_REPS * unit
    assert np.array_equal(ppdu.bits[off : off + len(HBC_SFD)], HBC_SFD)
    # The preamble unit must not continue past the fourth copy.
    assert not np.array_equal(ppdu.bits[off : off + unit], HBC_PREAMBLE_UNIT)


def test_hbc_missing_preamble_copy_is_a_preamble_mismatch():
    ppdu = build_ppdu(HBC, b"\x05" * 7, b"cd")
    unit = len(HBC_PREAMBLE_UNIT)
    shortened = ppdu.bits[unit:]  # three copies left, SFD lands in copy 4
    with pytest.raises(PreambleMismatch):
        parse_ppdu(shortened, HBC)


def test_uwb_phr_fields_round_trip():
    # Build sends the scrambler seed as 0; a header carrying another is read on the miss path.
    ppdu = build_ppdu(UWB, b"\x06" * 7, b"e" * 9)
    assert ppdu.header.scrambler_seed == 0
    back = parse_ppdu(with_coded_header(ppdu, reference_header(UWB, 9, {"scrambler_seed": 3})[1], UWB), UWB)
    assert back.header.scrambler_seed == 3
    assert back.header.length == 9
    assert back.header.rate_index == UWB.rate_index
    assert back.body == b"e" * 9


def test_uwb_preamble_is_code_repetitions_plus_complement_sfd():
    ppdu = build_ppdu(UWB, b"\x07" * 7, b"")
    for rep in range(UWB_PREAMBLE_REPS):
        assert np.array_equal(ppdu.bits[rep * 63 : (rep + 1) * 63], UWB_PREAMBLE_CODE)
    sfd = ppdu.bits[UWB_PREAMBLE_REPS * 63 : (UWB_PREAMBLE_REPS + 1) * 63]
    assert np.array_equal(sfd, 1 - UWB_PREAMBLE_CODE)
    # Every frame of the family starts with its one sync array, which nothing may write to.
    sync = _FORMATS[PhyKind.UWB].sync
    assert not sync.flags.writeable
    assert np.array_equal(sync[: UWB_PREAMBLE_REPS * 63], np.tile(UWB_PREAMBLE_CODE, UWB_PREAMBLE_REPS))


@pytest.mark.parametrize("cfg", ALL, ids=ALL_IDS)
def test_exhaustive_single_bit_flips_all_detected(cfg):
    ppdu = build_ppdu(cfg, b"\x08" * 7, b"hi")
    for pos in range(len(ppdu.bits)):
        mutated = ppdu.bits.copy()
        mutated[pos] ^= 1
        with pytest.raises(FrameError):
            parse_ppdu(mutated, cfg)


def test_wrong_fcs_in_consistently_coded_frame_is_fcs_mismatch():
    # A bit flip on the wire is caught by the coded-region checks first, so
    # the frame-check path is exercised with a frame whose coding is valid
    # but whose stored check value is wrong (an encoder bug, not noise).
    header, body = b"\x09" * 7, b"payload"
    bad_fcs = (crc16(header + body) ^ 0x0001).to_bytes(2, "big")
    good = build_ppdu(NB, header, body)
    forged_psdu = header + body + bad_fcs
    coded = np.repeat(fec.encode_blocks(bytes_to_bits(forged_psdu), PSDU_CODE), NB.spreading)
    image = np.concatenate([good.bits[: 90 + 31], coded])
    with pytest.raises(FcsMismatch):
        parse_ppdu(image, NB)


def test_truncation_points():
    ppdu = build_ppdu(NB, b"\x0a" * 7, b"jk")
    with pytest.raises(TruncatedFrame):
        parse_ppdu(ppdu.bits[:50], NB)  # inside the preamble
    with pytest.raises(TruncatedFrame):
        parse_ppdu(ppdu.bits[:100], NB)  # inside the header
    with pytest.raises(TruncatedFrame):
        parse_ppdu(ppdu.bits[:-5], NB)  # inside the frame region


def test_trailing_bits_rejected():
    ppdu = build_ppdu(NB, b"\x0b" * 7, b"lm")
    padded = np.concatenate([ppdu.bits, np.zeros(8, dtype=np.uint8)])
    with pytest.raises(TrailingBitsError):
        parse_ppdu(padded, NB)


def test_uwb_sfd_corruption_is_distinct_from_preamble():
    ppdu = build_ppdu(UWB, b"\x0c" * 7, b"n")
    mutated = ppdu.bits.copy()
    sfd_region = UWB_PREAMBLE_REPS * 63
    mutated[sfd_region : sfd_region + 63] = mutated[:63]  # repeat code instead
    with pytest.raises(SfdMismatch):
        parse_ppdu(mutated, UWB)


def test_dispatch_by_kind():
    for cfg in (NB, UWB, HBC):
        ppdu = build_ppdu(cfg, b"\x0d" * 7, b"op")
        assert parse_ppdu(ppdu.bits, cfg).body == b"op"


def test_airtime_monotone_in_body_length():
    # Sync and header time stay fixed; only the frame region grows.
    zero, ten = frame_airtime_us(NB, 0), frame_airtime_us(NB, 10)
    assert zero < ten
    assert ten - zero == pytest.approx(10 * 8 / info_data_rate(NB, "psdu") * 1000)


def test_airtime_is_additive_and_matches_helper():
    for cfg in (NB, NB_SPREAD, UWB, HBC):
        sync_us = cfg.preamble_symbols / cfg.symbol_rate * 1000
        header_us = _FORMATS[cfg.kind].info_bits / info_data_rate(cfg, "header") * 1000
        for body_len in (0, 37, 255):
            ppdu = build_ppdu(cfg, b"\x10" * 7, b"r" * body_len)
            psdu_us = 8 * len(ppdu.psdu_bytes) / info_data_rate(cfg, "psdu") * 1000
            assert frame_airtime_us(cfg, body_len) == pytest.approx(sync_us + header_us + psdu_us)
            assert frame_airtimes_us(cfg, [body_len]) == [frame_airtime_us(cfg, body_len)]


def test_frame_airtime_is_bit_equal_to_the_built_frames_total():
    # Sync symbols at the symbol rate, then the header's and the frame
    # region's information bits at their information rates, in that order.
    for cfg in [*(cfg for _, cfg in sweep_configs()), UWB, HBC]:
        sync_us = cfg.preamble_symbols / cfg.symbol_rate * 1000
        header_us = _FORMATS[cfg.kind].info_bits / info_data_rate(cfg, "header") * 1000
        for body_len in range(MAX_BODY_LEN + 1):
            frame = build_ppdu(cfg, b"\x11" * 7, bytes(body_len))
            psdu_us = 8 * len(frame.psdu_bytes) / info_data_rate(cfg, "psdu") * 1000
            assert frame_airtime_us(cfg, body_len) == sync_us + header_us + psdu_us, (cfg, body_len)


def test_doubling_spreading_doubles_frame_region_time():
    base = nb_config(Band.NB_402_405, "low")  # spreading 2
    halved = PhyConfig(
        band_id=base.band_id,
        modulation=base.modulation,
        symbol_rate=base.symbol_rate,
        header_modulation=base.header_modulation,
        spreading=4,
        header_spreading=base.header_spreading,
    )
    body = b"s" * 40
    t2, t4 = frame_airtime_us(base, len(body)), frame_airtime_us(halved, len(body))
    psdu_bits = 8 * len(build_ppdu(base, b"\x11" * 7, body).psdu_bytes)
    assert t4 - t2 == pytest.approx(psdu_bits / info_data_rate(base, "psdu") * 1000)  # the frame region again


def test_higher_rate_entry_transmits_faster():
    low = nb_config(Band.NB_902_928, "low")  # 121.4 Kbps
    high = nb_config(Band.NB_902_928, "high")  # 485.7 Kbps
    body = b"t" * 100
    t_low = frame_airtime_us(low, len(body))
    t_high = frame_airtime_us(high, len(body))
    assert t_high < t_low


def test_hexdump_shows_every_region():
    dump = hexdump(build_ppdu(HBC, b"\x13" * 7, b"uv"))
    assert "preamble" in dump and "sfd" in dump and "phy_header" in dump and "psdu" in dump
    first_offset = int(dump.splitlines()[0].split()[0])
    assert first_offset == 0


@pytest.mark.parametrize("cfg", [NB, UWB, HBC], ids=["nb", "uwb", "hbc"])
def test_hexdump_regions_tile_the_image_in_order(cfg):
    # Each region's first line names its bit count, starts where the last
    # region ended and shows the region's own first bytes.
    frame = build_ppdu(cfg, b"\x13" * 7, b"uv")
    offset = 0
    for line in hexdump(frame).splitlines():
        count = re.search(r"\((\d+) bits\)$", line)
        if count:
            assert int(line[:7]) == offset
            region = frame.bits[offset : offset + int(count.group(1))]
            assert bytes.fromhex(line[9:56]) == np.packbits(region).tobytes()[:16]
            offset += len(region)
    assert offset == len(frame.bits)


# Each family's header record, as its layout makes it: (name, fields).
HEADER_RECORDS = {
    PhyKind.NB: (NbPlcpHeader, "NbPlcpHeader", ("rate_index", "length", "scrambler", "burst_mode", "hcs")),
    PhyKind.UWB: (UwbPhr, "UwbPhr", ("rate_index", "length", "scrambler_seed")),
    PhyKind.HBC: (HbcPhyHeader, "HbcPhyHeader", ("length", "rate_index")),
}


@pytest.mark.parametrize("cfg", [NB, UWB, HBC], ids=["nb", "uwb", "hbc"])
def test_each_header_record_is_its_layouts_named_module_record(cfg):
    record, name, fields = HEADER_RECORDS[cfg.kind]
    assert _FORMATS[cfg.kind].header is record
    assert (record.__name__, record.__qualname__, record._fields) == (name, name, fields)
    assert record.__module__ == "bansim.phy.ppdu"
    assert type(build_ppdu(cfg, b"\x09" * 7, b"xyz").header) is record


@pytest.mark.parametrize("cfg", [NB, UWB, HBC], ids=["nb", "uwb", "hbc"])
def test_built_and_parsed_frames_survive_a_pickle_round_trip(cfg):
    built = build_ppdu(cfg, b"\x09" * 7, b"xyz")
    for frame in (built, parse_ppdu(built.bits.copy(), cfg)):
        back = pickle.loads(pickle.dumps(frame))
        assert type(back.header) is type(frame.header) and back.header == frame.header
        assert np.array_equal(back.bits, frame.bits) and back.body == frame.body


@pytest.mark.parametrize("kind", list(PhyKind), ids=lambda kind: kind.value)
def test_the_sync_pattern_is_as_long_as_its_family_counts(kind):
    assert len(_FORMATS[kind].sync) == PREAMBLE_SYMBOLS[kind]


def test_wrong_mac_header_size_rejected():
    with pytest.raises(ValueError):
        build_ppdu(NB, b"short", b"")


class TestFrameBytes:
    """`mac_header` and `body` take any bytes-like value, kept as bytes."""

    @pytest.mark.parametrize(
        "convert",
        [bytearray, memoryview, lambda b: np.frombuffer(b, dtype=np.uint8), lambda b: np.frombuffer(b, dtype=np.int8)],
        ids=["bytearray", "memoryview", "uint8-array", "int8-array"],
    )
    def test_a_bytes_like_value_builds_the_frame_of_its_bytes(self, convert):
        # A uint8 body once raised numpy's UFuncTypeError.
        want = build_ppdu(NB, b"\x08" * 7, b"abcd")
        frame = build_ppdu(NB, convert(b"\x08" * 7), convert(b"abcd"))
        assert type(frame.mac_header) is bytes and type(frame.body) is bytes
        assert type(frame.psdu_bytes) is bytes
        assert (frame.mac_header, frame.body, frame.fcs) == (want.mac_header, want.body, want.fcs)
        assert frame.bits.tolist() == want.bits.tolist()

    def test_a_mutable_argument_changed_later_leaves_the_frame_alone(self):
        body = bytearray(b"abcd")
        frame = build_ppdu(NB, b"\x08" * 7, body)
        body[0] = 0
        assert frame.body == b"abcd"
        assert frame.psdu_bytes == b"\x08" * 7 + b"abcd" + frame.fcs.to_bytes(2, "big")

    @pytest.mark.parametrize(
        "name, value, kind",
        [
            ("body", "hello", "str"),
            ("body", [1, 2], "list"),
            ("body", None, "NoneType"),
            ("body", np.arange(4), "ndarray"),  # 8-byte items
            ("mac_header", "0102030405060708", "str"),
            ("mac_header", list(range(7)), "list"),
        ],
    )
    def test_anything_else_is_a_type_error_naming_the_argument(self, name, value, kind):
        # "hello" once raised a bare "can't concat str to bytes".
        args = {"mac_header": b"\x08" * 7, "body": b"abcd", name: value}
        message = f"^{name} must be bytes-like \\(single-byte items\\), got {kind}$"
        with pytest.raises(TypeError, match=message):
            build_ppdu(NB, args["mac_header"], args["body"])


@pytest.mark.parametrize("cfg", [NB, NB_SPREAD, UWB, HBC], ids=["nb", "nb-spread", "uwb", "hbc"])
class TestOwnedImage:
    """A frame's image is read-only, and no caller's array is the image of a parsed frame."""

    def test_a_built_image_is_read_only(self, cfg):
        frame = build_ppdu(cfg, b"\x08" * 7, b"abcd")
        assert not frame.bits.flags.writeable
        with pytest.raises(ValueError):
            frame.bits[0] = 1

    def test_parse_keeps_a_read_only_copy_of_a_writeable_image(self, cfg):
        frame = build_ppdu(cfg, b"\x08" * 7, b"abcd")
        image = frame.bits.copy()
        parsed = parse_ppdu(image, cfg)
        image[:] = 0
        assert parsed.bits.tolist() == frame.bits.tolist()
        assert not parsed.bits.flags.writeable
        assert not np.shares_memory(parsed.bits, image)

    def test_parse_keeps_a_read_only_image_as_given(self, cfg):
        frame = build_ppdu(cfg, b"\x08" * 7, b"abcd")
        assert parse_ppdu(frame.bits, cfg).bits is frame.bits

    def test_parse_copies_a_read_only_view_of_writeable_memory(self, cfg):
        # Such a view was kept: zeroing its memory then emptied the parsed image.
        frame = build_ppdu(cfg, b"\x08" * 7, b"abcd")
        image = frame.bits.copy()
        view = image.view()
        view.flags.writeable = False
        parsed = parse_ppdu(view, cfg)
        image[:] = 0
        assert parsed.bits.tolist() == frame.bits.tolist()
        assert parsed.body == b"abcd"
        assert not parsed.bits.flags.writeable
        assert not np.shares_memory(parsed.bits, image)


# ------------------------------------------------------- outcome digest
#
# Every parse outcome of one short frame per family, hashed together: for
# each accepted image its header, for each rejected one the error class and
# message. The images are the frame with every single-bit flip, every
# truncation and one to three trailing bits, and with every one- and
# two-bit change of the header's information bits, coded validly so that
# the header's own checks (pad bits, header check, length) are reached.
# This pins which check fires first against stored bytes.

OUTCOME_DIGEST = "ad519b2c64bfeff0fe8a117622e0dbc59762b60e3ea95e647f12d5252676ef5c"


def parse_outcome(bits, cfg):
    try:
        parsed = parse_ppdu(bits, cfg)
    except Exception as exc:  # every outcome is recorded, whatever its class
        return f"{type(exc).__name__}: {exc}"
    return f"ok {parsed.header}"


def codec_outcomes():
    records = []
    for cfg in (NB, NB_SPREAD, UWB, HBC):
        bits = build_ppdu(cfg, b"\x08" * 7, b"4byt").bits
        label = f"{cfg.band_id.value} {HEADER_CODE}"
        for pos in range(len(bits)):
            mutated = bits.copy()
            mutated[pos] ^= 1
            records.append(f"{label} flip {pos} {parse_outcome(mutated, cfg)}")
        for length in range(len(bits)):
            records.append(f"{label} cut {length} {parse_outcome(bits[:length], cfg)}")
        for extra in (1, 2, 3):
            for fill in (0, 1):
                padded = np.concatenate([bits, np.full(extra, fill, dtype=np.uint8)])
                records.append(f"{label} trail {extra}x{fill} {parse_outcome(padded, cfg)}")
        info_bits, start = _FORMATS[cfg.kind].info_bits, cfg.preamble_symbols
        end = start + fec.coded_length(info_bits, HEADER_CODE)
        header = fec.decode_blocks(bits[start:end], HEADER_CODE, info_bits)
        for flips in itertools.chain(
            itertools.combinations(range(info_bits), 1), itertools.combinations(range(info_bits), 2)
        ):
            forged = header.copy()
            forged[list(flips)] ^= 1
            image = np.concatenate([bits[:start], fec.encode_blocks(forged, HEADER_CODE), bits[end:]])
            records.append(f"{label} header {flips} {parse_outcome(image, cfg)}")
    return records


def test_every_codec_outcome_matches_the_stored_digest():
    records = codec_outcomes()
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == OUTCOME_DIGEST


# ------------------------------------------------------- re-coded headers


def with_coded_header(frame, coded, cfg):
    """`frame`'s image with the coded PHY header `coded` in place of its own."""
    start = cfg.preamble_symbols
    return np.concatenate([frame.bits[:start], coded, frame.bits[start + len(coded) :]])


def with_header_of(frame, donor, cfg):
    """`frame`'s image with the coded PHY header of `donor` in place of its
    own: a header error that the header coding cannot see."""
    start = cfg.preamble_symbols
    end = start + fec.coded_length(_FORMATS[cfg.kind].info_bits, HEADER_CODE)
    return with_coded_header(frame, donor.bits[start:end], cfg)


@pytest.mark.parametrize("cfg", [NB, UWB, HBC], ids=["nb", "uwb", "hbc"])
def test_header_rate_other_than_the_config_is_refused(cfg):
    frame = build_ppdu(cfg, b"\x08" * 7, b"4byt")
    other = cfg._replace(rate_index=cfg.rate_index + 1)
    image = with_header_of(frame, build_ppdu(other, b"\x08" * 7, b"4byt"), cfg)
    with pytest.raises(HeaderCheckError, match=f"header rate index {cfg.rate_index + 1} is not the configured"):
        parse_ppdu(image, cfg)


@pytest.mark.parametrize("cfg", [NB, UWB, HBC], ids=["nb", "uwb", "hbc"])
@pytest.mark.parametrize("raised", [1, 2, 3, 4])
def test_known_gap_a_raised_length_takes_the_fcs_into_the_body(cfg, raised):
    # Kept on purpose, see the ppdu docstring: the zero pad after the frame
    # check reads as a passing FCS of 0x0000 (0xLL00 for one raised byte).
    # Only narrowband has a header check, and a re-coded header passes it.
    frame = build_ppdu(cfg, b"\x08" * 7, b"4byt")
    longer = build_ppdu(cfg, b"\x08" * 7, b"4byt" + bytes(raised))
    parsed = parse_ppdu(with_header_of(frame, longer, cfg), cfg)
    assert parsed.header.length == 4 + raised
    fcs = frame.fcs.to_bytes(2, "big")
    assert parsed.body == (b"4byt" + fcs + bytes(raised))[: 4 + raised]
    assert parsed.fcs == (0 if raised > 1 else fcs[1] << 8)


# ------------------------------------------------------- non-bit images


class TestNonBitImages:
    """An image value other than 0 or 1 is misuse of the API, refused as a
    ValueError at its first position before any check reads it."""

    def test_a_two_in_the_last_parity_bit_is_refused(self):
        # The syndrome read it as its low bit, so this parsed as b"abcd".
        bits = build_ppdu(NB, b"\x08" * 7, b"abcd").bits.copy()
        bits[-1] = 2
        with pytest.raises(ValueError, match=f"image position {len(bits) - 1} holds 2, not a bit"):
            parse_ppdu(bits, NB)

    @pytest.mark.parametrize("cfg", [NB, UWB, HBC], ids=["nb", "uwb", "hbc"])
    def test_the_first_stray_value_is_named(self, cfg):
        bits = build_ppdu(cfg, b"\x08" * 7, b"abcd").bits.copy()
        bits[[3, cfg.preamble_symbols + 2, len(bits) - 5]] = [255, 3, 2]
        with pytest.raises(ValueError, match="image position 3 holds 255, not a bit"):
            parse_ppdu(bits, cfg)

    @pytest.mark.parametrize("column", ["info", "parity"])
    def test_a_255_in_a_frame_region_column_is_named_before_the_parity_product(self, column):
        # Parse casts the product's sums to uint8, exact only for sums of
        # bits (a cast past 255 is undefined), so the value comes first.
        frame = build_ppdu(UWB, b"\x08" * 7, b"abcd")
        pos = region_positions(UWB, frame)[column][-1]
        bits = frame.bits.copy()
        bits[pos] = 255
        with pytest.raises(ValueError, match=f"^image position {pos} holds 255, not a bit$"):
            parse_ppdu(bits, UWB)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_a_stray_value_in_a_spread_region_of_the_wrong_length_is_named_first(self, extra):
        # A spread region of the right length has its values checked with
        # its copies; one of another length must have them checked first.
        bits = build_ppdu(HBC, b"\x08" * 7, b"abcd").bits
        bits = np.concatenate([bits, np.zeros(extra, np.uint8)]) if extra > 0 else bits[:extra].copy()
        bits[-5] = 2
        with pytest.raises(ValueError, match=f"^image position {len(bits) - 5} holds 2, not a bit$"):
            parse_ppdu(bits, HBC)

    def test_an_image_of_only_zeros_and_twos_is_refused_at_position_0(self):
        # Every value ORs to 2, which the check of a uint8 image of bits must not pass.
        bits = (build_ppdu(NB, b"\x08" * 7, b"abcd").bits * 2).astype(np.uint8)
        bits[0] = 2
        with pytest.raises(ValueError, match="^image position 0 holds 2, not a bit$"):
            parse_ppdu(bits, NB)

    @pytest.mark.parametrize("stray, dtype", [(-1, np.int64), (256, np.int64), (0.5, np.float64), (2, np.int8)])
    def test_other_dtypes_are_checked_before_conversion(self, stray, dtype):
        bits = build_ppdu(NB, b"\x08" * 7, b"abcd").bits.astype(dtype)
        bits[40] = stray
        with pytest.raises(ValueError, match="image position 40 holds"):
            parse_ppdu(bits, NB)

    @pytest.mark.parametrize("convert", [lambda b: b.astype(np.int64), lambda b: b.astype(bool), lambda b: b.tolist()])
    def test_bits_in_other_types_parse_as_uint8(self, convert):
        frame = build_ppdu(NB, b"\x08" * 7, b"abcd")
        assert parse_ppdu(convert(frame.bits), NB).body == b"abcd"

    @pytest.mark.parametrize(
        "convert, dims, kind",
        [
            (lambda b: b.reshape(1, -1), 2, "ndarray"),  # once TruncatedFrame: image ends inside preamble
            (lambda b: [b.tolist()], 2, "list"),
            (lambda b: np.uint8(1), 0, "uint8"),  # once a bare IndexError
            (lambda b: bytes(b), 0, "bytes"),  # once a ValueError quoting the whole input
        ],
        ids=["row", "nested-list", "scalar", "bytes"],
    )
    def test_an_image_that_is_not_one_dimensional_is_named_first(self, convert, dims, kind):
        bits = build_ppdu(NB, b"\x08" * 7, b"abcd").bits.copy()
        bits[3] = 2  # the dimension is named before any value
        message = f"^image must be one-dimensional, got {dims} dimensions \\({kind}\\)$"
        with pytest.raises(ValueError, match=message):
            parse_ppdu(convert(bits), NB)


# ------------------------------------------------------- accept by parity
#
# Parse accepts a frame region when its values are bits, its copies agree
# and each codeword's own parity columns are the parity of its
# information columns. The reference below is a plain parse: every value
# checked up front, then the despread pass, then each codeword's parity
# (`test_fec.reference_decode`, the per-codeword loop). The header goes
# through the shared miss path, which `test_parse_maps_every_table_header_back`
# holds to the header tables.


def reference_parse(bits, cfg):
    """(header, mac_header, body, fcs) of an image, or the error the plain
    parse raised first."""
    fmt = _FORMATS[cfg.kind]
    raw = np.asarray(bits)
    stray = (raw != 0) & (raw != 1)
    if stray.any():
        pos = int(stray.argmax())
        raise ValueError(f"image position {pos} holds {raw[pos]}, not a bit")
    bits = raw.astype(np.uint8)
    unit, off = len(fmt.unit), len(fmt.sync)
    for rep in range(fmt.reps):
        block = bits[rep * unit : (rep + 1) * unit]
        if len(block) < unit:
            raise TruncatedFrame("image ends inside preamble")
        if block.tolist() != fmt.unit.tolist():
            label = f"preamble block {rep + 1}/{fmt.reps}" if fmt.reps > 1 else "preamble"
            raise PreambleMismatch(f"{label} mismatch")
    if len(bits) < off:
        raise TruncatedFrame("image ends inside start-frame delimiter")
    if bits[:off].tolist() != fmt.sync.tolist():
        raise SfdMismatch("start-frame delimiter mismatch")
    n_hdr = fec.coded_length(fmt.info_bits, HEADER_CODE)
    if len(bits) < off + n_hdr:
        raise TruncatedFrame("image ends inside header")
    header = _decode_header(fmt, cfg, bits[off : off + n_hdr])
    psdu_len = MAC_HEADER_LEN + header.length + 2
    region, s = bits[off + n_hdr :], cfg.spreading
    expected = fec.coded_length(8 * psdu_len, PSDU_CODE) * s
    if len(region) < expected:
        raise TruncatedFrame(f"frame region holds {len(region)} bits, needs {expected}")
    if len(region) > expected:
        raise TrailingBitsError(f"{len(region) - expected} bits past end of frame")
    copies = region.reshape(-1, s)
    if (copies != copies[:, :1]).any():
        raise DespreadError("repetition copies disagree")
    psdu = np.packbits(reference_decode(copies[:, 0], PSDU_CODE, 8 * psdu_len)).tobytes()
    mac_header, body, fcs = psdu[:MAC_HEADER_LEN], psdu[MAC_HEADER_LEN:-2], int.from_bytes(psdu[-2:], "big")
    if fcs != crc16(mac_header + body):
        raise FcsMismatch(f"frame check 0x{fcs:04X} != computed 0x{crc16(mac_header + body):04X}")
    return header, mac_header, body, fcs


def parsed_fields(bits, cfg):
    frame = parse_ppdu(bits, cfg)
    return frame.header, frame.mac_header, frame.body, frame.fcs


def outcome_of(parse, bits, cfg):
    """The fields `parse` reads, or the class and message of its error."""
    try:
        return parse(bits, cfg)
    except (FrameError, ValueError) as exc:
        return type(exc), str(exc)


def region_positions(cfg, frame):
    """Image positions of each part of a frame, by name; empty when the
    frame has none (no spread copies at spreading 1, no pad bits when the
    PSDU fills its last codeword)."""
    (n, k), s = PSDU_CODE, cfg.spreading
    off = len(_FORMATS[cfg.kind].sync)
    start = off + fec.coded_length(_FORMATS[cfg.kind].info_bits, HEADER_CODE)
    info_bits = 8 * len(frame.psdu_bytes)
    coded = [(j // n * k + j % n, j % n < k) for j in range((len(frame.bits) - start) // s)]
    first = [start + j * s for j in range(len(coded))]
    return {
        "sync": list(range(off)),
        "header": list(range(off, start)),
        "info": [p for p, (i, is_info) in zip(first, coded) if is_info and i < info_bits],
        "pad": [p for p, (i, is_info) in zip(first, coded) if is_info and i >= info_bits],
        "parity": [p for p, (_, is_info) in zip(first, coded) if not is_info],
        "copy": [p + c for p in first for c in range(1, s)],
    }


@st.composite
def damaged_images(draw):
    """A frame of any family and body, whole or with one kind of damage:
    1-3 flipped image bits, 1-3 flipped coded bits (every spread copy, so
    the copies agree), a stray value, a cut, added bits, or 1-3 flipped
    information or pad bits coded and spread validly (so that only the pad
    and frame checks can see them)."""
    cfg = draw(st.sampled_from([NB, NB_SPREAD, UWB, HBC]))
    frame = build_ppdu(cfg, draw(st.binary(min_size=7, max_size=7)), draw(st.binary(max_size=MAX_BODY_LEN)))
    bits, s = frame.bits.copy(), cfg.spreading
    regions = {name: pos for name, pos in region_positions(cfg, frame).items() if pos}

    def positions(names):  # a region first, so that each is hit about as often
        names = sorted(regions.keys() & names)
        count = draw(st.integers(1, 3))
        return sorted({draw(st.sampled_from(regions[draw(st.sampled_from(names))])) for _ in range(count)})

    damage = draw(st.sampled_from(["none", "flips", "coded", "stray", "cut", "extend", "recoded"]))
    if damage == "flips":
        bits[positions(regions)] ^= 1
    elif damage == "coded":
        for pos in positions({"info", "pad", "parity"}):
            bits[pos : pos + s] ^= 1
    elif damage == "stray":
        bits[positions(regions)[0]] = draw(st.sampled_from([2, 255]))
    elif damage == "cut":
        bits = bits[: draw(st.integers(0, len(bits) - 1))]
    elif damage == "extend":
        bits = np.concatenate([bits, np.array(draw(st.lists(st.integers(0, 1), min_size=1, max_size=70)), np.uint8)])
    elif damage == "recoded":
        start, (n, k) = regions["info"][0], PSDU_CODE
        info = bytes_to_bits(frame.psdu_bytes)
        info = np.concatenate([info, np.zeros(-len(info) % k, np.uint8)])
        coded = [(pos - start) // s for pos in positions({"info", "pad"})]
        info[[j // n * k + j % n for j in coded]] ^= 1
        bits = np.concatenate([bits[:start], np.repeat(fec.encode_blocks(info, PSDU_CODE), s)])
    return cfg, bits


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(damaged_images())
def test_parse_gives_the_outcome_of_the_despread_and_parity_parse(case):
    cfg, bits = case
    assert outcome_of(parsed_fields, bits, cfg) == outcome_of(reference_parse, bits, cfg)


def test_the_damaged_images_reach_every_region():
    frame = build_ppdu(NB_SPREAD, b"\x08" * 7, b"abcd")
    positions = region_positions(NB_SPREAD, frame)
    assert sorted(name for name, pos in positions.items() if pos) == ["copy", "header", "info", "pad", "parity", "sync"]
    assert sorted(sum(positions.values(), [])) == list(range(len(frame.bits)))


# ------------------------------------------------------- misfit images
#
# An image of another family or config, cut or extended anywhere, or held
# in another dtype is the caller's mistake. Parse returns, raises a
# FrameError, or raises a ValueError or TypeError that names the image;
# it never fails inside numpy, as a reshape of a region of the wrong
# length would.

MISFIT_DTYPES = [np.uint8, np.int8, np.int64, ">u2", np.float16, np.float64, np.complex128, bool, object,
                 "U1", "S1", "M8[s]", "m8[s]", "V1", [("bit", "u1")]]


@st.composite
def misfit_images(draw):
    """(config, image): a frame built under one config of ALL, parsed under
    any, cut to any length or extended by up to 70 bits, in any of
    MISFIT_DTYPES."""
    built, cfg = draw(st.sampled_from(ALL)), draw(st.sampled_from(ALL))
    bits = build_ppdu(built, draw(st.binary(min_size=7, max_size=7)), draw(st.binary(max_size=40))).bits
    if draw(st.booleans()):
        bits = bits[: draw(st.integers(0, len(bits)))]
    else:
        bits = np.concatenate([bits, np.array(draw(st.lists(st.integers(0, 1), max_size=70)), np.uint8)])
    return cfg, bits.astype(draw(st.sampled_from(MISFIT_DTYPES)))


@pytest.mark.filterwarnings("ignore:Casting complex values to real")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(misfit_images())
def test_a_misfit_image_is_refused_by_name(case):
    cfg, bits = case
    try:
        parse_ppdu(bits, cfg)
    except FrameError:
        pass
    except (ValueError, TypeError) as exc:
        assert str(exc).startswith("image "), f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------- header tables
#
# Build takes each PHY header from a table filled on first use, one per
# (family, rate index), and parse maps the coded header back through an
# inverse map. Every table entry must be the header and the bits of the
# word coder (`test_fec.encode_word`, the 4-bit check by `crc4_bits`), and
# parse must give each one back. A header with a field set is in no table:
# parse reads it on the miss path.

TABLE_CONFIGS = [
    *dict.fromkeys(row.config for row in builtin_rate_table()),
    *(uwb_config(channel) for channel in range(1, 12)),
    hbc_config(16),
    hbc_config(27),
]
FIELD_SETTINGS = {
    PhyKind.NB: [{"scrambler": s, "burst_mode": b} for s in (0, 1) for b in (0, 1)],
    PhyKind.UWB: [{"scrambler_seed": seed} for seed in range(4)],
    PhyKind.HBC: [{}],
}


def config_id(cfg):
    return f"{cfg.band_id.value}-r{cfg.rate_index}-{HEADER_CODE[0]}.{HEADER_CODE[1]}-{cfg.center_freq:g}"


def reference_header(cfg, length, fields, reserved=0):
    """The header of a `length`-byte body with `fields` set (others 0) and
    its coded bits, assembled bit by bit from the layout and coded by the
    word coder; `reserved` fills narrowband's two reserved bits."""
    fmt = _FORMATS[cfg.kind]
    values = {name: fields.get(name, 0) for name, _ in fmt.layout if name}
    values.update(rate_index=cfg.rate_index, length=length)
    layout = [int_to_bits(values[name] if name else reserved, width) for name, width in fmt.layout]
    bits = np.concatenate(layout)
    if fmt.crc4:
        values["hcs"] = crc4_bits(bits)
        bits = np.concatenate([bits, int_to_bits(values["hcs"], 4)])
    word = int("".join(map(str, bits)), 2)
    coded = encode_word(word, fmt.info_bits, HEADER_CODE)
    return fmt.header(**values), int_to_bits(coded, fec.coded_length(fmt.info_bits, HEADER_CODE))


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=config_id)
def test_every_table_header_is_the_word_coders(cfg):
    fmt = _FORMATS[cfg.kind]
    rng = random.Random(f"table-{config_id(cfg)}")
    table = _header_table(cfg.kind, fmt, cfg.rate_index)
    assert len(table) == MAX_BODY_LEN + 1
    for length, (header, bits) in enumerate(table):
        want_header, want_bits = reference_header(cfg, length, {})
        assert header == want_header, length
        assert bits.tolist() == want_bits.tolist(), length
        assert not bits.flags.writeable
    length = rng.randrange(MAX_BODY_LEN + 1)
    frame = build_ppdu(cfg, b"\x08" * 7, bytes(length))
    start = cfg.preamble_symbols
    assert frame.header is table[length][0]
    assert frame.bits[start : start + len(table[length][1])].tolist() == table[length][1].tolist()


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=config_id)
def test_parse_maps_every_table_header_back(cfg):
    fmt = _FORMATS[cfg.kind]
    table = _header_table(cfg.kind, fmt, cfg.rate_index)
    headers = _INVERSE[(cfg.kind, cfg.rate_index)]
    assert len(headers) == len(table)
    for header, bits in table:
        assert len(bits) == fec.coded_length(fmt.info_bits, HEADER_CODE)
        assert headers[bits.tobytes()] == header
        assert _decode_header(fmt, cfg, bits) == header  # the miss path reads the same


@pytest.mark.parametrize("cfg", [NB, UWB, HBC], ids=["nb", "uwb", "hbc"])
def test_every_length_and_field_setting_round_trips(cfg):
    # Build sends every field as 0; parse reads any setting off the miss path.
    for length in range(MAX_BODY_LEN + 1):
        frame = build_ppdu(cfg, b"\x08" * 7, bytes(range(length)))
        for fields in FIELD_SETTINGS[cfg.kind]:
            header, coded = reference_header(cfg, length, fields)
            image = with_coded_header(frame, coded, cfg)
            if not any(fields.values()):
                assert (frame.header, image.tolist()) == (header, frame.bits.tolist())
            parsed = parse_ppdu(image, cfg)
            assert (parsed.header, parsed.body, parsed.fcs) == (header, frame.body, frame.fcs)


@pytest.mark.parametrize("reserved", [1, 2, 3])
def test_nb_reserved_bits_under_a_recomputed_check_still_parse(reserved):
    # Narrowband covers its reserved bits only by the header check, so a
    # header with them set and its check recomputed is valid. No table holds
    # it: parse misses and reads it on the miss path, through fec.decode_blocks.
    frame = build_ppdu(NB, b"\x08" * 7, b"abcd")
    header, coded = reference_header(NB, 4, {}, reserved=reserved)
    assert header._replace(hcs=frame.header.hcs) == frame.header  # only the check differs
    assert coded.tobytes() not in _INVERSE[(PhyKind.NB, NB.rate_index)]
    parsed = parse_ppdu(with_coded_header(frame, coded, NB), NB)
    assert (parsed.header, parsed.body) == (header, b"abcd")


def test_all_32_header_tables_are_kept():
    _TABLES.clear()
    _INVERSE.clear()
    keys = [(kind, rate) for kind, bits in RATE_INDEX_BITS.items() for rate in range(1 << bits)]
    assert len(keys) == 8 + 16 + 8
    base = {PhyKind.NB: NB, PhyKind.UWB: UWB, PhyKind.HBC: HBC}
    frames = {}
    for kind, rate in keys:
        cfg = base[kind]._replace(rate_index=rate)
        frames[kind, rate] = (cfg, build_ppdu(cfg, b"\x08" * 7, b"abcd"))
    assert list(_TABLES) == list(_INVERSE) == keys
    tables = dict(_TABLES)
    for cfg, frame in frames.values():
        assert frame.header is _header_table(cfg.kind, _FORMATS[cfg.kind], cfg.rate_index)[4][0]
        assert parse_ppdu(frame.bits, cfg).header is frame.header  # found in the inverse map
    assert all(_TABLES[key] is table for key, table in tables.items())


@pytest.mark.parametrize(
    "one, other",
    [(NB, nb_config(Band.NB_2400_2483, "high")), (UWB, uwb_config(7))],
    ids=["nb", "uwb"],
)
def test_configs_of_one_family_and_rate_index_share_one_table(one, other):
    assert (one.kind, one.rate_index) == (other.kind, other.rate_index) and one.band_id != other.band_id
    _TABLES.clear()
    _INVERSE.clear()
    first = build_ppdu(one, b"\x08" * 7, b"abcd")
    second = build_ppdu(other, b"\x08" * 7, b"abcd")
    assert len(_TABLES) == len(_INVERSE) == 1
    assert second.header is first.header
    start = one.preamble_symbols
    assert second.bits[start : start + 31].tolist() == first.bits[start : start + 31].tolist()


def test_importing_the_codec_and_simulating_fill_no_table(tmp_path):
    root = Path(bansim.__file__).resolve().parent.parent
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "contention_pair.scn"
    code = (
        "from bansim.cli import main\n"
        "from bansim.phy import ppdu\n"
        "assert not ppdu._TABLES and not ppdu._INVERSE, 'filled at import'\n"
        f"assert main(['simulate', {str(scenario)!r}, '--out', {str(tmp_path / 'stats.csv')!r}]) == 0\n"
        "assert not ppdu._TABLES and not ppdu._INVERSE, 'filled by a run'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stats.csv").exists()
