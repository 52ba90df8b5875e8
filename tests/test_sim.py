"""End-to-end kernel behavior: oracle agreement, determinism, conservation,
phase containment, all three access kinds, security on the wire."""

import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bansim
from bansim.efficiency import analytic_efficiency, reference_configs
from bansim.errors import ScenarioError, SimulationError
from bansim.mac.csma import PRIORITY_TABLE
from bansim.phy.ppdu import frame_airtime_us
from bansim.sim.kernel import BEACON_BODY_LEN, Simulation, run, run_to_files, write_trace
from bansim.sim.scenario import load_scenario, parse_scenario
from bansim.sim.stats import write_stats_csv

# One giant contention phase: a superframe long enough that a saturated
# node never meets a phase boundary, so the run matches the closed-form
# cycle model directly.
OPEN_RAP = """\
[phy]
kind = nb
band = 402-405
rate = low
rate_override_kbps = 187.5

[superframe]
slot_length_us = 500
slots = 65536
beacon_prohibited = true
rap1_slots = 65536

[nodes]
n0 = priority=4, traffic=saturated, payload={payload}, access=contention

[run]
seed = {seed}
duration_ms = {duration_ms}
channel = ideal
"""

PAIR = """\
[phy]
kind = nb
band = 2400-2483.5
rate = high

[superframe]
beacon_slots = 4
rap1_slots = 120
cap_slots = 132

[nodes]
a = priority=3, traffic=saturated, payload=80, access=contention
b = priority=3, traffic=saturated, payload=120, access=contention

[run]
seed = 11
duration_ms = 1500
channel = collision
"""


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def parse_trace(lines):
    rows = []
    for line in lines:
        t, node, event, counter, cw, fails, phase = line.split(",")
        rows.append((int(t), node, event, int(counter), int(cw), int(fails), phase))
    return rows


class TestOracleAgreement:
    @pytest.mark.parametrize("payload", [10, 255])
    def test_saturated_run_tracks_the_closed_form(self, payload):
        sc = parse_scenario(OPEN_RAP.format(payload=payload, seed=7, duration_ms=4000))
        stats, _ = run(sc)
        want = analytic_efficiency(payload, sc.phy, sc.timing, PRIORITY_TABLE[4])
        assert stats.efficiency == pytest.approx(want, rel=0.01)

    def test_empty_scenario_is_all_zeros(self):
        sc = parse_scenario(
            "[superframe]\nmode = unbounded\n[run]\nduration_ms = 50\n"
        )
        stats, trace = run(sc, collect_trace=True)
        assert stats.offered == stats.delivered == stats.failed == 0
        assert stats.busy_us == 0.0
        assert stats.idle_us == stats.elapsed_us == 50_000
        assert trace == []


class TestDeterminism:
    def test_same_seed_same_run(self):
        sc = parse_scenario(PAIR)
        first_stats, first_trace = run(sc, collect_trace=True)
        second_stats, second_trace = run(sc, collect_trace=True)
        assert first_trace == second_trace
        a, b = io.StringIO(), io.StringIO()
        write_stats_csv(first_stats, a)
        write_stats_csv(second_stats, b)
        assert a.getvalue() == b.getvalue()

    def test_seed_changes_the_run(self):
        base = parse_scenario(PAIR)
        other = parse_scenario(PAIR.replace("seed = 11", "seed = 12"))
        _, t1 = run(base, collect_trace=True)
        _, t2 = run(other, collect_trace=True)
        assert t1 != t2


class TestConservation:
    def test_busy_time_rebuilt_from_counted_events(self):
        sc = parse_scenario(OPEN_RAP.format(payload=100, seed=3, duration_ms=1000))
        stats, _ = run(sc)
        node = stats.nodes["n0"]
        attempts = node.delivered + node.failed
        data_us = frame_airtime_us(sc.phy, 100)
        ack_us = frame_airtime_us(sc.phy, 0)
        rebuilt = attempts * data_us + node.delivered * ack_us
        assert stats.busy_us == pytest.approx(rebuilt, rel=1e-9)
        assert node.failed == 0  # lone node on an ideal channel never fails
        assert stats.idle_us == pytest.approx(stats.elapsed_us - stats.busy_us)

    def test_collision_accounting(self):
        sc = parse_scenario(PAIR)
        stats, trace = run(sc, collect_trace=True)
        for node in stats.nodes.values():
            assert node.delivered + node.queued == node.offered
            assert node.collided == node.failed  # the only loss is collision
            assert node.delivered > 0
        rows = parse_trace(trace)
        # both contenders fire in the same microsecond somewhere
        tx_ticks = {}
        for t, node, event, *_ in rows:
            if event == "tx_start" and node != "hub":
                tx_ticks.setdefault(t, []).append(node)
        assert any(len(v) == 2 for v in tx_ticks.values())
        # a collided attempt is one failed attempt on each participant
        fails = sum(1 for r in rows if r[2] == "fail")
        assert fails == stats.failed

    def test_beacon_time_counted(self):
        sc = parse_scenario(PAIR)
        stats, _ = run(sc)
        per_beacon = frame_airtime_us(sc.phy, BEACON_BODY_LEN)
        assert stats.beacon_airtime_us == pytest.approx(stats.beacons * per_beacon)
        assert stats.beacons > 0


class TestPhaseContainment:
    def test_no_transmission_crosses_its_phase(self):
        # short contention phases force guard locks near every boundary
        sc = parse_scenario(
            """
            [phy]
            kind = nb
            band = 402-405
            rate = low

            [superframe]
            beacon_slots = 8
            rap1_slots = 60
            type_a_slots = 40
            rap2_slots = 60
            cap_slots = 88

            [nodes]
            n0 = priority=2, traffic=saturated, payload=255, access=contention

            [run]
            seed = 5
            duration_ms = 2000
            channel = ideal
            """
        )
        stats, trace = run(sc, collect_trace=True)
        rows = parse_trace(trace)
        spans = {}
        layout_duration = sc.superframe.slots_per_superframe * sc.superframe.slot_length_us
        slot = sc.superframe.slot_length_us
        cursor = 0
        for key, count in (("BEACON", 8), ("RAP1", 60), ("TypeI_II_a", 40), ("RAP2", 60), ("CAP", 88)):
            spans[key] = (cursor * slot, (cursor + count) * slot)
            cursor += count
        locks = 0
        for i, (t, node, event, *_rest, phase) in enumerate(rows):
            if event == "lock":
                locks += 1
            if event != "tx_start" or node == "hub":
                continue
            base = (t // layout_duration) * layout_duration
            lo, hi = spans[phase]
            end = rows[i + 1 :]
            tx_end = next(r for r in end if r[1] == node and r[2] == "tx_end")
            assert base + lo <= t and tx_end[0] <= base + hi
        assert locks > 0  # the guard really engaged
        assert stats.delivered > 0


class TestPolledAccess:
    def test_grants_deliver_without_contention(self):
        sc = parse_scenario(
            """
            [superframe]
            beacon_slots = 4
            type_a_slots = 132
            cap_slots = 120

            [nodes]
            pump = traffic=saturated, payload=60, access=polled

            [run]
            seed = 2
            duration_ms = 1000
            """
        )
        stats, trace = run(sc, collect_trace=True)
        node = stats.nodes["pump"]
        assert node.delivered > 10
        assert node.failed == 0
        events = {r[2] for r in parse_trace(trace) if r[1] == "pump"}
        assert "draw" not in events and "enter" not in events
        assert {"tx_start", "tx_end", "ack", "success"} <= events

    def test_undersized_grants_starve_the_node(self):
        sc = parse_scenario(
            """
            [superframe]
            beacon_slots = 4
            type_a_slots = 132
            cap_slots = 120
            poll_grant_us = 100

            [nodes]
            pump = traffic=saturated, payload=60, access=polled

            [run]
            duration_ms = 500
            """
        )
        stats, _ = run(sc)
        node = stats.nodes["pump"]
        assert node.delivered == 0
        assert node.queued == node.offered == 1


class TestScheduledAccess:
    SCHEDULED = """\
[superframe]
mode = nonbeacon
slots = 256

[nodes]
sensor = traffic=saturated, payload=40, access=scheduled, slot_start=16, slot_len=30{period}

[run]
seed = 4
duration_ms = {duration_ms}
"""

    def test_one_delivery_per_active_superframe(self):
        sc = parse_scenario(self.SCHEDULED.format(period="", duration_ms=512))
        stats, trace = run(sc, collect_trace=True)
        assert stats.nodes["sensor"].delivered == 4  # four 128 ms superframes
        superframe_us = 256 * 500
        for t, node, event, *_ in parse_trace(trace):
            if event == "tx_start":
                assert t % superframe_us == 16 * 500  # always inside its slots

    def test_periodicity_halves_the_grants(self):
        sc = parse_scenario(
            self.SCHEDULED.format(period=", period=2, offset=1", duration_ms=512)
        )
        stats, _ = run(sc)
        assert stats.nodes["sensor"].delivered == 2  # superframes 1 and 3


class TestTrafficModels:
    def test_scripted_arrivals_define_offered(self):
        sc = parse_scenario(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252

            [nodes]
            n0 = traffic=scripted:5000;30000;900000, payload=50

            [run]
            duration_ms = 100
            """
        )
        stats, _ = run(sc)
        node = stats.nodes["n0"]
        assert node.offered == 2  # the 900 ms arrival is past the horizon
        assert node.delivered == 2
        assert node.mean_access_delay_us > 0

    def test_poisson_rate_sets_the_tempo(self):
        sc = parse_scenario(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252

            [nodes]
            n0 = traffic=poisson:100, payload=30

            [run]
            seed = 8
            duration_ms = 2000
            """
        )
        stats, _ = run(sc)
        node = stats.nodes["n0"]
        assert 140 <= node.offered <= 260  # 200 expected over 2 s
        assert node.delivered + node.queued == node.offered


class TestSecurityOnTheWire:
    def test_secured_node_spends_airtime_on_the_envelope(self):
        base = """
[superframe]
beacon_slots = 4
rap1_slots = 252

[nodes]
n0 = traffic=saturated, payload=100

{security}
[run]
seed = 6
duration_ms = 500
"""
        plain = parse_scenario(base.format(security=""))
        secured = parse_scenario(base.format(security="[security]\nn0 = level=2\n"))
        p_stats, _ = run(plain)
        s_stats, _ = run(secured)
        p_node, s_node = p_stats.nodes["n0"], s_stats.nodes["n0"]
        assert s_node.delivered > 0
        # the envelope steals airtime: fewer deliveries, same per-frame payload
        assert s_node.delivered <= p_node.delivered
        assert s_node.payload_bits == 800 * s_node.delivered
        per_attempt = frame_airtime_us(secured.phy, 100 + 13)
        attempts = s_node.delivered + s_node.failed
        assert s_node.tx_airtime_us == pytest.approx(attempts * per_attempt)

    def test_group_membership_rides_along(self):
        sc = parse_scenario(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 120
            type_a_slots = 132

            [nodes]
            a = traffic=saturated, payload=50, access=contention
            b = traffic=saturated, payload=50, access=polled

            [security]
            a = level=1, group=ward
            b = level=2, group=ward

            [run]
            duration_ms = 300
            channel = collision
            """
        )
        stats, _ = run(sc)
        assert stats.nodes["a"].delivered > 0
        assert stats.nodes["b"].delivered > 0


class TestBeacons:
    def test_multiplier_thins_the_beacons(self):
        text = """
[superframe]
beacon_slots = 4
rap1_slots = 252
beacon_period_multiplier = {m}

[run]
duration_ms = 768
"""
        every = parse_scenario(text.format(m=1))
        third = parse_scenario(text.format(m=3))
        assert run(every)[0].beacons == 6  # six 128 ms superframes
        assert run(third)[0].beacons == 2  # superframes 0 and 3

    def test_beacon_must_fit_its_phase(self):
        sc = parse_scenario(
            """
            [superframe]
            slot_length_us = 100
            slots = 256
            beacon_slots = 1
            rap1_slots = 255

            [run]
            duration_ms = 100
            """
        )
        with pytest.raises(ScenarioError):
            run(sc)


class TestRunToFiles:
    def test_caller_paths_win(self, tmp_path):
        scenario_stats = tmp_path / "from_scenario.csv"
        cli_stats = tmp_path / "from_caller.csv"
        trace_path = tmp_path / "trace.csv"
        sc = parse_scenario(
            PAIR + f"stats_out = {scenario_stats}\ntrace_out = {trace_path}\n"
        )
        run_to_files(sc, stats_path=cli_stats)
        assert cli_stats.exists()
        assert not scenario_stats.exists()
        assert trace_path.exists()  # scenario trace path still honored
        header = cli_stats.read_text().splitlines()[0]
        assert header.startswith("node,offered,delivered")

    def test_trace_file_is_one_line_per_entry(self, tmp_path):
        write_trace(["1,a", "2,b"], tmp_path / "two.txt")
        write_trace([], tmp_path / "empty.txt")
        assert (tmp_path / "two.txt").read_bytes() == b"1,a\n2,b\n"
        assert (tmp_path / "empty.txt").read_bytes() == b""


class TestKernelInvariants:
    """Internal consistency checks raise SimulationError, so `python -O`
    keeps them."""

    CHECK = (
        "from bansim.errors import SimulationError\n"
        "from bansim.sim.kernel import Simulation\n"
        "from bansim.sim.scenario import parse_scenario\n"
        "sim = Simulation(parse_scenario({text!r}))\n"
        "try:\n"
        "    sim._on_tx_end('n0')\n"
        "except SimulationError as exc:\n"
        "    print(__debug__, exc)\n"
    )

    def test_tx_end_outside_an_exchange_raises(self):
        sim = Simulation(parse_scenario(OPEN_RAP.format(payload=50, seed=1, duration_ms=10)))
        with pytest.raises(SimulationError, match="transmission ended outside an exchange"):
            sim._on_tx_end("n0")

    def test_check_survives_optimized_mode(self):
        src = str(Path(bansim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = self.CHECK.format(text=OPEN_RAP.format(payload=50, seed=1, duration_ms=10))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False transmission ended outside an exchange\n"


class _TickCounter(Simulation):
    """Counts slot ticks, those at or past their phase's end, and those
    run while every contender of the phase is guard-locked."""

    ticks = past_end = all_guard_locked = 0

    def _on_slot_tick(self, kind, phase_end, slot_ends, unlock):
        self.ticks += 1
        if self.now >= phase_end:
            self.past_end += 1
        elif self.exchange is None and all(
            n.drawn and n.backoff.locked and n.lock_reason == "guard" for n in self._contenders[kind]
        ):
            self.all_guard_locked += 1
        super()._on_slot_tick(kind, phase_end, slot_ends, unlock)


class _HeapWatch(Simulation):
    """Records the largest length the event heap reaches."""

    largest = 0

    def _push(self, *args):
        super()._push(*args)
        self.largest = max(self.largest, len(self._heap))

    def _push_schedule(self, *args):
        super()._push_schedule(*args)
        self.largest = max(self.largest, len(self._heap))


class TestLeanLoop:
    def test_no_tick_at_or_past_the_phase_end(self):
        sim = _TickCounter(load_scenario(SCENARIO_DIR / "contention_pair.scn"))
        sim.run()
        assert sim.ticks > 0
        assert sim.past_end == 0

    def test_no_tick_while_every_contender_is_guard_locked(self):
        # Nothing can count, draw or unlock until the next phase start.
        sim = _TickCounter(load_scenario(SCENARIO_DIR / "contention_pair.scn"))
        sim.run()
        assert sim.all_guard_locked == 0

    def test_largest_heap_does_not_grow_with_run_length(self):
        sc = load_scenario(SCENARIO_DIR / "mixed_access.scn")
        largest = []
        for seconds in (60, 600):
            sim = _HeapWatch(replace(sc, run=replace(sc.run, duration_us=seconds * 1_000_000)))
            sim.run()
            largest.append(sim.largest)
        assert largest[0] == largest[1]
