"""Closed-form efficiency model: calibration points, shape, serialization."""

import csv
import io
import re

import pytest

from bansim.efficiency import (
    DEFAULT_CONTENTION_CLASS,
    EfficiencyPoint,
    analytic_efficiency,
    mean_backoff_us,
    reference_configs,
    sweep,
    sweep_configs,
    write_efficiency_csv,
)
from bansim.errors import FrameTooLong
from bansim.mac.csma import MacTimingConstants, PRIORITY_TABLE
from bansim.phy.rates import MAX_BODY_LEN, Band, frame_airtime_us, frame_airtimes_us, info_data_rate, nb_config
from bansim.textio import text_stream

TIMING = MacTimingConstants()


def cycle_time_us(payload_bytes, cfg):
    """Channel time consumed per delivered frame on an ideal channel, read
    back from the model's efficiency (payload bit time over cycle time)."""
    return 8 * payload_bytes / info_data_rate(cfg, "psdu") * 1000.0 / analytic_efficiency(payload_bytes, cfg)


def read_efficiency_csv(source):
    with text_stream(source, "r") as fh:
        return [
            EfficiencyPoint(
                row["band"],
                float(row["rate_kbps"]),
                int(row["payload_bytes"]),
                float(row["efficiency"]),
            )
            for row in csv.DictReader(fh)
        ]


def hand_efficiency(payload_bytes, rate_kbps, symbol_rate_ksps, preamble_symbols=90):
    """Independent route: build the cycle out of raw symbol/bit arithmetic
    for a flat-rate configuration (header and payload at one pinned rate).
    """
    def frame_us(body):
        psdu_bits = (7 + body + 2) * 8
        return (
            preamble_symbols / symbol_rate_ksps * 1000.0
            + 19 / rate_kbps * 1000.0
            + psdu_bits / rate_kbps * 1000.0
        )

    backoff = 125.0 * (1 + 4) / 2  # default contention class draws over [1, 4]
    cycle = backoff + frame_us(payload_bytes) + 50.0 + frame_us(0) + 50.0
    return (8 * payload_bytes / rate_kbps * 1000.0) / cycle


class TestCalibrationPoints:
    def test_full_payload_at_187(self):
        _, cfg = reference_configs()[0]
        assert 0.806 <= analytic_efficiency(255, cfg) <= 0.866

    def test_full_payload_at_971(self):
        _, cfg = reference_configs()[1]
        assert 0.664 <= analytic_efficiency(255, cfg) <= 0.724

    def test_reference_labels_carry_their_rates(self):
        for label, cfg in reference_configs():
            assert info_data_rate(cfg, "psdu") == pytest.approx(float(label), abs=0.5)
            # flat-rate points pin the header to the same number
            assert info_data_rate(cfg, "header") == info_data_rate(cfg, "psdu")

    @pytest.mark.parametrize("payload", [1, 10, 100, 255])
    def test_matches_hand_arithmetic_187(self, payload):
        _, cfg = reference_configs()[0]
        want = hand_efficiency(payload, 187.5, 187.5)
        assert analytic_efficiency(payload, cfg) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("payload", [1, 10, 100, 255])
    def test_matches_hand_arithmetic_971(self, payload):
        _, cfg = reference_configs()[1]
        want = hand_efficiency(payload, 971.0, 600.0)
        assert analytic_efficiency(payload, cfg) == pytest.approx(want, rel=1e-12)


class TestShape:
    def test_strictly_increasing_in_payload(self):
        for label, cfg in sweep_configs()[:6]:
            values = [analytic_efficiency(p, cfg) for p in range(1, 256)]
            assert all(a < b for a, b in zip(values, values[1:])), label

    def test_decreasing_in_rate_at_fixed_payload(self):
        # same band and geometry, rate pinned to increasing values
        _, base = reference_configs()[0]
        rates = [100.0, 200.0, 400.0, 800.0]
        effs = [
            analytic_efficiency(100, base._replace(rate_override_kbps=r)) for r in rates
        ]
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_tiny_payload_mostly_overhead(self):
        for label, cfg in sweep_configs():
            if info_data_rate(cfg, "psdu") >= 400.0:
                assert analytic_efficiency(1, cfg) < 0.1, label

    def test_bounded_by_unity(self):
        for label, cfg in sweep_configs():
            eff = analytic_efficiency(255, cfg)
            assert 0.0 < eff < 1.0, label

    @pytest.mark.parametrize("bad", [0, -3, 256, 1000])
    def test_payload_bounds(self, bad):
        _, cfg = reference_configs()[0]
        with pytest.raises(ValueError):
            analytic_efficiency(bad, cfg)

    @pytest.mark.parametrize("bad", [10.5, 10.0, True, "10", None])
    def test_a_payload_that_is_not_an_int_is_refused_by_name(self, bad):
        # No frame has a fractional body: 10.5 once gave 0.09936 on nb 402-405 high.
        cfg = nb_config(Band.NB_402_405, "high")
        with pytest.raises(TypeError, match=f"^payload_bytes must be an int, got {re.escape(repr(bad))}$"):
            analytic_efficiency(bad, cfg)
        with pytest.raises(TypeError, match="^payload_bytes must be an int"):
            sweep([("nb", cfg)], [10, bad])


class TestPieces:
    def test_mean_backoff_from_contention_class(self):
        assert mean_backoff_us(TIMING, PRIORITY_TABLE[0]) == 125 * (1 + 16) / 2
        assert mean_backoff_us(TIMING, PRIORITY_TABLE[7]) == 125.0
        assert DEFAULT_CONTENTION_CLASS.cw_min == 4

    def test_ack_is_the_smallest_frame(self):
        _, cfg = reference_configs()[0]
        assert frame_airtime_us(cfg, 0) < frame_airtime_us(cfg, 1)

    def test_cycle_decomposition(self):
        _, cfg = reference_configs()[0]
        total = cycle_time_us(100, cfg)
        parts = (
            mean_backoff_us(TIMING, DEFAULT_CONTENTION_CLASS)
            + frame_airtime_us(cfg, 100)
            + TIMING.psifs_us
            + frame_airtime_us(cfg, 0)
            + TIMING.psifs_us
        )
        assert total == pytest.approx(parts, rel=1e-12)

    def test_custom_timing_moves_the_result(self):
        _, cfg = reference_configs()[0]
        slow = MacTimingConstants(psifs_us=500, csma_slot_us=1250, gtn_us=85)
        assert analytic_efficiency(100, cfg, slow) < analytic_efficiency(100, cfg)


class TestSweepAndCsv:
    def test_sweep_covers_every_table_row(self):
        configs = sweep_configs()
        assert len(configs) == 21
        assert len({label for label, _ in configs}) == 21

    def test_header_rows_pin_their_published_rate(self):
        for label, cfg in sweep_configs():
            if ":header@" in label:
                assert cfg.rate_override_kbps is not None
                assert info_data_rate(cfg, "psdu") == cfg.rate_override_kbps

    def test_sweep_point_grid(self):
        points = sweep(sweep_configs(), [10, 255])
        assert len(points) == 42
        assert {pt.payload_bytes for pt in points} == {10, 255}

    def test_every_sweep_point_equals_its_single_point_value(self):
        # The sweep works out each config's rate and airtimes once; every
        # point must still be the single-point value, and that the sum of
        # the public pieces in the cycle's order, bit for bit.
        payloads = range(1, MAX_BODY_LEN + 1)
        points = sweep(sweep_configs(), payloads)
        assert len(points) == 21 * 255
        backoff = mean_backoff_us(TIMING, DEFAULT_CONTENTION_CLASS)
        for (label, cfg), row in zip(sweep_configs(), zip(*[iter(points)] * 255)):
            rate, ack = info_data_rate(cfg, "psdu"), frame_airtime_us(cfg, 0)
            for p, pt in zip(payloads, row):
                assert (pt.band, pt.rate_kbps, pt.payload_bytes) == (label, rate, p)
                assert pt.efficiency == analytic_efficiency(p, cfg)
                cycle = backoff + frame_airtime_us(cfg, p) + TIMING.psifs_us + ack + TIMING.psifs_us
                assert pt.efficiency == 8 * p / rate * 1000.0 / cycle

    def test_frame_airtimes_equal_one_at_a_time(self):
        lengths = list(range(MAX_BODY_LEN + 1))
        for _, cfg in sweep_configs():
            assert frame_airtimes_us(cfg, lengths) == [frame_airtime_us(cfg, n) for n in lengths]
        with pytest.raises(FrameTooLong):
            frame_airtimes_us(cfg, [0, MAX_BODY_LEN + 1])

    def test_csv_round_trip(self, tmp_path):
        points = sweep(sweep_configs()[:4], [10, 100, 255])
        path = tmp_path / "eff.csv"
        write_efficiency_csv(points, path)
        back = read_efficiency_csv(path)
        assert len(back) == len(points)
        for a, b in zip(points, back):
            assert a.band == b.band
            assert a.payload_bytes == b.payload_bytes
            assert b.rate_kbps == pytest.approx(a.rate_kbps, abs=0.05)
            assert b.efficiency == pytest.approx(a.efficiency, abs=5e-7)

    def test_csv_deterministic_bytes(self):
        points = sweep(sweep_configs(), [50])
        first, second = io.StringIO(), io.StringIO()
        write_efficiency_csv(points, first)
        write_efficiency_csv(points, second)
        assert first.getvalue() == second.getvalue()
        assert first.getvalue().splitlines()[0] == "band,rate_kbps,payload_bytes,efficiency"
