"""Band registry, modulation parameters, and the information-rate engine.

Each operating band carries a published pair of rate entries per packet
component (header at a fixed low rate, payload at a selectable rate); the
information data rate follows from

    rate = symbol_rate * bits_per_symbol * (k / n) / spreading

with spreading a repetition factor in {1, 2, 4}. The 21-row narrowband
table reproduces from these parameters to within 0.1 Kbps.

It is also the one home of how big and how long a frame is, all that the
MAC and the efficiency model need of one; `phy.ppdu` codes the bits. A
frame is the sync, the coded PHY header and the coded MAC frame:
mac_header(7) + body(0..255) + fcs(2). Each family's PHY header is a
(field, width) layout, MSB first (`HEADER_LAYOUTS`); unnamed entries are
reserved or pad bits sent as zero, which pulse radio checks on parse and
narrowband covers only by its 4-bit check `hcs` over the layout bits. The
codec's header record (NbPlcpHeader, UwbPhr, HbcPhyHeader) holds the
named fields in order (`length` counts body bytes), then `hcs`.
"""

from __future__ import annotations

import csv
import math
from enum import Enum
from typing import NamedTuple

from bansim.errors import ConfigError, FrameTooLong

__all__ = [
    "Band",
    "Modulation",
    "PhyKind",
    "PhyConfig",
    "RateRow",
    "UwbChannelPlan",
    "UWB_CHANNELS",
    "info_data_rate",
    "builtin_rate_table",
    "nb_config",
    "uwb_config",
    "hbc_config",
    "phy_config",
    "write_rate_csv",
    "RATE_INDEX_BITS",
    "MAC_HEADER_LEN", "FCS_LEN", "MAX_BODY_LEN", "HEADER_LAYOUTS", "HEADER_INFO_BITS",
    "frame_airtime_us", "frame_airtimes_us",
]


class PhyKind(str, Enum):
    NB = "nb"
    UWB = "uwb"
    HBC = "hbc"


class Modulation(str, Enum):
    DBPSK = "pi/2-DBPSK"
    DQPSK = "pi/4-DQPSK"
    D8PSK = "D8PSK"
    GMSK = "GMSK"
    UWB_GENERIC = "UWB"
    EFC = "EFC"


BITS_PER_SYMBOL = {
    Modulation.DBPSK: 1,
    Modulation.DQPSK: 2,
    Modulation.D8PSK: 3,
    Modulation.GMSK: 1,
    Modulation.UWB_GENERIC: 1,
    Modulation.EFC: 1,
}


class Band(str, Enum):
    NB_402_405 = "402-405"
    NB_420_450 = "420-450"
    NB_863_870 = "863-870"
    NB_902_928 = "902-928"
    NB_950_956 = "950-956"
    NB_2360_2400 = "2360-2400"
    NB_2400_2483 = "2400-2483.5"
    UWB_LOW = "uwb-low"
    UWB_HIGH = "uwb-high"
    HBC_16 = "hbc-16"
    HBC_27 = "hbc-27"


class BandInfo(NamedTuple):
    kind: PhyKind
    center_freq: float  # MHz
    bandwidth: float  # MHz
    # Regulations forbid beacons in the implant band. Nothing enforces
    # this flag yet: a beacon-mode scenario in such a band still runs.
    beacon_prohibited: bool = False


_BAND_INFO = {
    Band.NB_402_405: BandInfo(PhyKind.NB, 403.5, 3.0, beacon_prohibited=True),
    Band.NB_420_450: BandInfo(PhyKind.NB, 435.0, 30.0),
    Band.NB_863_870: BandInfo(PhyKind.NB, 866.5, 7.0),
    Band.NB_902_928: BandInfo(PhyKind.NB, 915.0, 26.0),
    Band.NB_950_956: BandInfo(PhyKind.NB, 953.0, 6.0),
    Band.NB_2360_2400: BandInfo(PhyKind.NB, 2380.0, 40.0),
    Band.NB_2400_2483: BandInfo(PhyKind.NB, 2441.75, 83.5),
    Band.UWB_LOW: BandInfo(PhyKind.UWB, 3993.6, 499.2),
    Band.UWB_HIGH: BandInfo(PhyKind.UWB, 7987.2, 499.2),
    Band.HBC_16: BandInfo(PhyKind.HBC, 16.0, 4.0),
    Band.HBC_27: BandInfo(PhyKind.HBC, 27.0, 4.0),
}


class UwbChannelPlan(NamedTuple):
    channel_id: int
    center_freq: float  # MHz
    mandatory: bool


# Low band: three channels on the 499.2 MHz raster; high band: eight.
UWB_CHANNELS = [
    UwbChannelPlan(1, 7 * 499.2, False),
    UwbChannelPlan(2, 8 * 499.2, True),
    UwbChannelPlan(3, 9 * 499.2, False),
] + [
    UwbChannelPlan(ch, (ch + 9) * 499.2, ch == 7) for ch in range(4, 12)
]


# Sync pattern size of each family in symbols, including any start-frame
# delimiter: narrowband's 90-bit preamble, pulse radio's four code
# repetitions and one delimiter code, body-coupled's four 32-bit preamble
# copies and one 16-bit delimiter.
PREAMBLE_SYMBOLS = {PhyKind.NB: 90, PhyKind.UWB: 5 * 63, PhyKind.HBC: 4 * 32 + 16}

# The (n, k) block codes of the PHY header and of the frame region, alike
# in every family.
HEADER_CODE = (31, 19)
PSDU_CODE = (63, 51)

MAC_HEADER_LEN = 7
FCS_LEN = 2
MAX_BODY_LEN = 255

# Each family's PHY header: its (field, width) layout, None for bits sent
# as zero, and whether the 4-bit check `hcs` follows it.
HEADER_LAYOUTS = {
    PhyKind.NB: ((("rate_index", 3), ("length", 8), ("scrambler", 1), ("burst_mode", 1), (None, 2)), True),
    PhyKind.UWB: ((("rate_index", 4), ("length", 8), ("scrambler_seed", 2), (None, 2)), False),
    PhyKind.HBC: ((("length", 8), ("rate_index", 3)), False),
}
# The information bits of each family's PHY header, check included, and
# the width of its rate-index field.
HEADER_INFO_BITS = {kind: sum(w for _, w in layout) + 4 * crc4 for kind, (layout, crc4) in HEADER_LAYOUTS.items()}
RATE_INDEX_BITS = {kind: dict(layout)["rate_index"] for kind, (layout, _) in HEADER_LAYOUTS.items()}


def _positive_finite(value) -> bool:
    """A real number, not a bool, in (0, inf); NaN fails every comparison."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < math.inf


class PhyConfig:
    """Operating point: band plus the modulation and spreading of both
    components; the block codes (`HEADER_CODE`, `PSDU_CODE`) and the sync
    pattern (`PREAMBLE_SYMBOLS`) are fixed by the signal family.

    `spreading` applies to the payload component, `header_spreading` to the
    PHY header; both are repetition factors. `rate_override_kbps`, when set,
    pins the information rate of both components directly, bypassing the
    arithmetic (used for rate points quoted without table parameters).
    `symbol_rate` is in kilosymbols per second; a `center_freq` (MHz) of 0
    takes the band's. The band's family and width are read from the band
    table, never stored here. Every field is checked by name.
    """

    __slots__ = ("band_id", "modulation", "symbol_rate", "header_modulation", "spreading", "header_spreading",
                 "center_freq", "rate_index", "rate_override_kbps")

    def __init__(
        self,
        band_id: Band,
        modulation: Modulation,
        symbol_rate: float,
        header_modulation: Modulation | None = None,
        spreading: int = 1,
        header_spreading: int = 2,
        center_freq: float = 0.0,
        rate_index: int = 0,
        rate_override_kbps: float | None = None,
    ):
        header_modulation = modulation if header_modulation is None else header_modulation
        for name, value, enum in (("band_id", band_id, Band), ("modulation", modulation, Modulation),
                                  ("header_modulation", header_modulation, Modulation)):
            if not isinstance(value, enum):
                raise ConfigError(f"{name} must be a {enum.__name__}, got {value!r}")
        for name, value in (("spreading", spreading), ("header_spreading", header_spreading)):
            if type(value) is not int or value not in (1, 2, 4):
                raise ConfigError(f"{name} must be 1, 2, or 4, got {value!r}")
        if not _positive_finite(symbol_rate):
            raise ConfigError(f"symbol rate must be positive and finite, got {symbol_rate!r}")
        if rate_override_kbps is not None and not _positive_finite(rate_override_kbps):
            raise ConfigError(f"rate override must be None or positive and finite, got {rate_override_kbps!r}")
        info = _BAND_INFO[band_id]
        bits = RATE_INDEX_BITS[info.kind]
        if type(rate_index) is not int or not 0 <= rate_index < 1 << bits:
            raise ConfigError(
                f"rate index {rate_index!r} does not fit the {info.kind.value} header's {bits}-bit field"
            )
        self.band_id = band_id
        self.modulation = modulation
        self.symbol_rate = symbol_rate
        self.header_modulation = header_modulation
        self.spreading = spreading
        self.header_spreading = header_spreading
        self.center_freq = center_freq or info.center_freq
        self.rate_index = rate_index
        self.rate_override_kbps = rate_override_kbps

    def _replace(self, **changes) -> PhyConfig:
        """A copy with `changes`, built and checked as a new config."""
        return PhyConfig(**{name: getattr(self, name) for name in self.__slots__} | changes)

    @property
    def kind(self) -> PhyKind:
        return _BAND_INFO[self.band_id].kind

    @property
    def preamble_symbols(self) -> int:
        return PREAMBLE_SYMBOLS[self.kind]


def _component(cfg: PhyConfig, component: str) -> tuple[Modulation, tuple[int, int], int]:
    """The modulation, (n, k) code and spreading of one packet component."""
    if component == "header":
        return cfg.header_modulation, HEADER_CODE, cfg.header_spreading
    if component == "psdu":
        return cfg.modulation, PSDU_CODE, cfg.spreading
    raise ValueError(f"component must be 'header' or 'psdu', got {component!r}")


def info_data_rate(cfg: PhyConfig, component: str) -> float:
    """Information data rate of one packet component, in Kbps."""
    modulation, (n, k), spreading = _component(cfg, component)
    if cfg.rate_override_kbps is not None:
        return cfg.rate_override_kbps
    return cfg.symbol_rate * BITS_PER_SYMBOL[modulation] * (k / n) / spreading


def frame_airtimes_us(cfg: PhyConfig, body_lens: list[int]) -> list[float]:
    """Airtime in microseconds of a frame with each of `body_lens` body
    bytes, without building it; the config's rates are worked out once.

    Each is the sum of the sync, header and PSDU times, in that order. Sync
    symbols go out at the raw symbol rate; header and frame regions take
    information_bits / information_rate, so coding and spreading stretch
    them through the rate, not through the bit image.
    """
    for body_len in body_lens:
        if type(body_len) is not int:
            raise TypeError(f"body_len must be an int, got {body_len!r}")
        if not 0 <= body_len <= MAX_BODY_LEN:
            raise FrameTooLong(f"body of {body_len} bytes outside 0..{MAX_BODY_LEN}")
    preamble_us = cfg.preamble_symbols / cfg.symbol_rate * 1000.0
    header_us = HEADER_INFO_BITS[cfg.kind] / info_data_rate(cfg, "header") * 1000.0
    psdu_kbps = info_data_rate(cfg, "psdu")
    return [
        preamble_us + header_us + (MAC_HEADER_LEN + body_len + FCS_LEN) * 8 / psdu_kbps * 1000.0
        for body_len in body_lens
    ]


def frame_airtime_us(cfg: PhyConfig, body_len: int) -> float:
    """Airtime of a frame with `body_len` body bytes, without building it."""
    return frame_airtimes_us(cfg, [body_len])[0]


# Narrowband registry: per band, the symbol rate and the modulation and
# spreading of (header, low-rate payload, high-rate payload). Spreading
# values were fixed by requiring every published rate to reproduce within
# 0.1 Kbps; at 600 ksps the low-rate entries spread by 4, elsewhere by 2.
_M = Modulation
_NB_BANDS: dict[Band, tuple[float, _M, tuple[_M, int], tuple[_M, int]]] = {
    Band.NB_402_405: (187.5, _M.DBPSK, (_M.DBPSK, 2), (_M.DQPSK, 1)),
    Band.NB_420_450: (187.5, _M.GMSK, (_M.GMSK, 2), (_M.GMSK, 1)),
    Band.NB_863_870: (250.0, _M.DBPSK, (_M.DBPSK, 2), (_M.DQPSK, 1)),
    Band.NB_902_928: (300.0, _M.DBPSK, (_M.DBPSK, 2), (_M.DQPSK, 1)),
    Band.NB_950_956: (250.0, _M.DBPSK, (_M.DBPSK, 2), (_M.DQPSK, 1)),
    Band.NB_2360_2400: (600.0, _M.DBPSK, (_M.DBPSK, 4), (_M.DBPSK, 1)),
    Band.NB_2400_2483: (600.0, _M.DBPSK, (_M.DBPSK, 4), (_M.DBPSK, 1)),
}


def nb_config(band: Band, rate: str = "high") -> PhyConfig:
    """Operational narrowband config: `rate` picks the payload entry."""
    if band not in _NB_BANDS:
        raise ConfigError(f"{band.value} is not a narrowband band")
    sym, hdr_mod, low, high = _NB_BANDS[band]
    if rate not in ("low", "high"):
        raise ConfigError(f"rate must be 'low' or 'high', got {rate!r}")
    mod, spread = low if rate == "low" else high
    return PhyConfig(
        band_id=band,
        modulation=mod,
        symbol_rate=sym,
        header_modulation=hdr_mod,
        spreading=spread,
        header_spreading=4 if sym == 600.0 else 2,
        rate_index=0 if rate == "low" else 1,
    )


def uwb_config(channel: int = 2) -> PhyConfig:
    """Pulse-radio config on one of the 11 channels.

    The 603.1 ksps symbol clock puts the payload information rate at the
    mandatory 488.2 Kbps under the (63,51) code.
    """
    plan = next((c for c in UWB_CHANNELS if c.channel_id == channel), None)
    if plan is None:
        raise ConfigError(f"channel {channel} outside 1..11")
    return PhyConfig(
        band_id=Band.UWB_LOW if channel <= 3 else Band.UWB_HIGH,
        modulation=Modulation.UWB_GENERIC,
        symbol_rate=603.1,
        spreading=1,
        header_spreading=1,
        center_freq=plan.center_freq,
    )


def hbc_config(center_mhz: int = 16) -> PhyConfig:
    """Body-coupled config; symbol clock equals the 4 MHz channel width."""
    if center_mhz not in (16, 27):
        raise ConfigError(f"band center must be 16 or 27 MHz, got {center_mhz}")
    return PhyConfig(
        band_id=Band.HBC_16 if center_mhz == 16 else Band.HBC_27,
        modulation=Modulation.EFC,
        symbol_rate=4000.0,
        spreading=4,
        header_spreading=4,
    )


def phy_config(kind: str, band: str, rate: str, channel: int, center: int) -> PhyConfig:
    """The config of one family: nb reads `band` (a band name) and `rate`,
    uwb `channel`, hbc `center`; the others are ignored."""
    if kind == "nb":
        try:
            band_id = Band(band)
        except ValueError:
            raise ConfigError(f"unknown band {band!r}") from None
        return nb_config(band_id, rate)
    if kind == "uwb":
        return uwb_config(channel)
    if kind == "hbc":
        return hbc_config(center)
    raise ConfigError(f"phy kind must be nb, uwb, or hbc, got {kind!r}")


class RateRow(NamedTuple):
    """One line of the published rate table: a component of a config."""

    band: Band
    component: str  # "header" or "psdu"
    config: PhyConfig
    modulation: Modulation
    fec: tuple[int, int]
    spreading: int
    rate_kbps: float


def builtin_rate_table() -> list[RateRow]:
    """The 21 narrowband rows: per band, one header and two payload entries."""
    rows = []
    for band in _NB_BANDS:
        low = nb_config(band, "low")
        for component, cfg in (("header", low), ("psdu", low), ("psdu", nb_config(band, "high"))):
            rows.append(RateRow(band, component, cfg, *_component(cfg, component), info_data_rate(cfg, component)))
    return rows


_CSV_FIELDS = [
    "band",
    "component",
    "modulation",
    "symbol_rate_ksps",
    "fec_n",
    "fec_k",
    "spreading",
    "rate_kbps",
]


def write_rate_csv(rows: list[RateRow], fh) -> None:
    """Emit the machine-readable table, as `bansim rates --format csv` prints it."""
    writer = csv.writer(fh)
    writer.writerow(_CSV_FIELDS)
    for row in rows:
        n, k = row.fec
        writer.writerow(
            [
                row.band.value,
                row.component,
                row.modulation.value,
                f"{row.config.symbol_rate:g}",
                n,
                k,
                row.spreading,
                f"{row.rate_kbps:.1f}",
            ]
        )
