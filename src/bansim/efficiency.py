"""Closed-form bandwidth efficiency of a saturated contention node.

The model charges each delivered frame one full channel cycle:

    T_cycle = mean backoff + frame airtime + pSIFS + ack airtime + pSIFS

with mean backoff = pCSMASlotLength x (1 + CW_min) / 2 under an ideal
channel (zero bit errors, no collisions, the queue never empties, no
buffer overflow). Efficiency is the payload bit time divided by T_cycle.
The overhead constants are explicit inputs with documented defaults, so
the published operating points are a calibration of those defaults, not
a hard-coded fit. Acknowledgements are minimal frames with a zero-length
body throughout. `analytic_efficiency` and `sweep` share one layer,
`_efficiencies`, which takes every airtime from `frame_airtimes_us`.
"""

from __future__ import annotations

import csv
from typing import Iterable, NamedTuple

from bansim.mac.csma import MacTimingConstants, PriorityClass, PRIORITY_TABLE
from bansim.phy.ppdu import MAX_BODY_LEN, frame_airtimes_us
from bansim.phy.rates import (
    Band,
    PhyConfig,
    builtin_rate_table,
    info_data_rate,
    nb_config,
)
from bansim.textio import text_stream

__all__ = [
    "DEFAULT_CONTENTION_CLASS",
    "EfficiencyPoint",
    "analytic_efficiency",
    "mean_backoff_us",
    "reference_configs",
    "sweep",
    "sweep_configs",
    "write_efficiency_csv",
]

# Calibration default: a mid-table traffic class whose CW_min of 4 puts
# the mean backoff at 312.5 us with the default 125 us slot.
DEFAULT_CONTENTION_CLASS = PRIORITY_TABLE[4]


class EfficiencyPoint(NamedTuple):
    band: str
    rate_kbps: float
    payload_bytes: int
    efficiency: float


def mean_backoff_us(timing: MacTimingConstants, csma: PriorityClass) -> float:
    """Expected initial countdown: the draw is uniform over [1, CW_min]."""
    return timing.csma_slot_us * (1 + csma.cw_min) / 2


def _efficiencies(
    payloads: list[int], cfg: PhyConfig, timing: MacTimingConstants, csma: PriorityClass
) -> list[float]:
    """Each payload's bit time over its T_cycle, summed in the order above;
    the rate and every airtime are worked out once."""
    for payload_bytes in payloads:
        if type(payload_bytes) is not int:
            raise TypeError(f"payload_bytes must be an int, got {payload_bytes!r}")
        if not 1 <= payload_bytes <= MAX_BODY_LEN:
            raise ValueError(f"payload must be 1..{MAX_BODY_LEN} bytes, got {payload_bytes}")
    psdu_kbps = info_data_rate(cfg, "psdu")
    backoff_us = mean_backoff_us(timing, csma)
    ack_us, *frames_us = frame_airtimes_us(cfg, [0, *payloads])
    return [
        8 * p / psdu_kbps * 1000.0 / (backoff_us + frame_us + timing.psifs_us + ack_us + timing.psifs_us)
        for p, frame_us in zip(payloads, frames_us)
    ]


def analytic_efficiency(
    payload_bytes: int,
    cfg: PhyConfig,
    timing: MacTimingConstants = MacTimingConstants(),
    csma: PriorityClass = DEFAULT_CONTENTION_CLASS,
) -> float:
    """Payload bit time over full cycle time, as a fraction in (0, 1)."""
    return _efficiencies([payload_bytes], cfg, timing, csma)[0]


def reference_configs() -> list[tuple[str, PhyConfig]]:
    """The two flat-rate operating points used as published calibration
    targets: 187.5 Kbps at a 187.5 ksps symbol rate, and a 971 Kbps
    override on the 600 ksps 2.4 GHz band (a rate quoted for that band
    but not derivable from any modulation/code row, hence the override).
    """
    low = nb_config(Band.NB_402_405, "low")._replace(rate_override_kbps=187.5)
    high = nb_config(Band.NB_2400_2483, "high")._replace(rate_override_kbps=971.0)
    return [("187.5", low), ("971", high)]


def sweep_configs() -> list[tuple[str, PhyConfig]]:
    """One labeled configuration per built-in rate-table row (21 rows).

    PSDU rows run as-is; header rows pin the header rate as the data rate
    via an override so every published rate appears as one curve.
    """
    out = []
    for row in builtin_rate_table():
        label = f"{row.band.value}:{row.component}@{row.rate_kbps:.1f}"
        cfg = row.config
        if row.component == "header":
            cfg = cfg._replace(rate_override_kbps=row.rate_kbps)
        out.append((label, cfg))
    return out


def sweep(configs: Iterable[tuple[str, PhyConfig]], payloads: Iterable[int]) -> list[EfficiencyPoint]:
    """One point per config and payload under the default timing and
    contention class; each config's rate, ack and header airtimes are
    worked out once for all its payloads."""
    payloads, timing = list(payloads), MacTimingConstants()
    points = []
    for label, cfg in configs:
        rate = info_data_rate(cfg, "psdu")
        efficiencies = _efficiencies(payloads, cfg, timing, DEFAULT_CONTENTION_CLASS)
        points += [EfficiencyPoint(label, rate, p, e) for p, e in zip(payloads, efficiencies)]
    return points


def write_efficiency_csv(points: Iterable[EfficiencyPoint], out) -> None:
    """CSV with fixed decimal formatting (one decimal for Kbps, six for
    efficiency) so equal inputs always produce byte-equal files."""
    with text_stream(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(EfficiencyPoint._fields)
        for pt in points:
            writer.writerow(
                [pt.band, f"{pt.rate_kbps:.1f}", pt.payload_bytes, f"{pt.efficiency:.6f}"]
            )
