"""End-to-end kernel behavior: oracle agreement, determinism, conservation,
phase containment, all three access kinds, security on the wire, and the
lazy slot grid against a slot-by-slot reference."""

import hashlib
import importlib.util
import io
import math
import os
import random
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import bansim
import bansim.sim.kernel as kernel
from bansim.cli import main
from bansim.efficiency import analytic_efficiency, reference_configs
from bansim.errors import ConfigError, ScenarioError, SimulationError
from bansim.mac.csma import (
    MacTimingConstants,
    PRIORITY_TABLE,
    draw_backoff,
    exchange_us,
    guard_check,
    on_idle_slot,
    trace_batch,
    trace_unlocks,
)
from bansim.mac.superframe import (HIGHEST_PRIORITY, SHARED_PHASES, PhaseKind, ScheduledAllocation, TrafficKind,
                                   phases_covered, schedule_polls)
from bansim.phy.rates import Band, frame_airtime_us, frame_airtimes_us, nb_config
from bansim.sim.kernel import Simulation, run, run_to_files, write_trace
from bansim.sim.scenario import (BEACON_BODY_LEN, EventKind, clock_us, compile_scenario, load_plan, load_scenario,
                                 parse_scenario)
from bansim.sim.stats import RunStats, write_stats_csv
from test_conservation import count_one_arrival_twice
from test_csma import trace_lines
from test_golden import SCENARIO_DIGESTS, STRESS_DIGESTS, overloaded
from test_superframe import beacon_in

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

    def test_busy_time_sums_overlapping_airtimes_past_the_elapsed_time(self):
        # busy_us sums every airtime, and collided transmissions overlap on
        # the air, so it can exceed elapsed_us and leave idle_us negative.
        sc = parse_scenario(
            "[phy]\nkind = nb\nband = 2400-2483.5\nrate = high\n"
            "[superframe]\nslot_length_us = 10000\nbeacon_slots = 1\nrap1_slots = 255\n"
            "[nodes]\na = priority=4, traffic=saturated\nb = priority=4, traffic=saturated\n"
            "[run]\nduration_ms = 200\nchannel = collision\n"
        )
        stats, _ = run(sc)
        assert stats.collided > 0
        assert (stats.elapsed_us, f"{stats.busy_us:.1f}", f"{stats.idle_us:.1f}") == (200_000, "204402.5", "-4402.5")
        assert stats.idle_us == stats.elapsed_us - stats.busy_us

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

    CONTENDED = """
[superframe]
beacon_slots = 4
rap1_slots = 120
type_a_slots = 132

[nodes]
a = priority=3, traffic=saturated, payload=50, access=contention
b = priority=3, traffic=saturated, payload=80, access=contention
p = traffic=saturated, payload=40, access=polled

[security]
a = level=1
b = level=2
p = level=2

[run]
seed = 11
duration_ms = 300
channel = collision
"""

    @pytest.mark.parametrize("sc", [load_scenario(SCENARIO_DIR / "mixed_access.scn"), parse_scenario(CONTENDED)],
                             ids=["mixed_access", "contended"])
    def test_every_transmission_spends_one_counter(self, sc):
        # A collided frame spends its sender's counter unsealed and never
        # reaches the hub; a delivered one is admitted, so the replay floor
        # reaches its counter. At most one exchange is cut by the run's end.
        sim = Simulation(sc)
        stats = sim.run()
        assert sum(node.collided for node in stats.nodes.values()) > 0
        for node_id, session in sim.security.sessions.items():
            node = stats.nodes[node_id]
            assert session.tx_counter - (node.delivered + node.failed) in (0, 1), node_id
            assert node.delivered <= session.rx_counter <= session.tx_counter, node_id
            if sim.nodes[node_id].spec.access != TrafficKind.CONTENTION:
                assert session.rx_counter == session.tx_counter == node.delivered, node_id


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
        with pytest.raises(ScenarioError) as info:
            parse_scenario(
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
        assert info.value.line == 2 and "beacon phase" in str(info.value)


class TestRunToFiles:
    def test_caller_paths_win(self, tmp_path):
        # The caller's paths are the only ones: a scenario names no output.
        cli_stats = tmp_path / "from_caller.csv"
        trace_path = tmp_path / "trace.csv"
        for key in ("stats_out", "trace_out"):
            with pytest.raises(ScenarioError, match=f"^line 19: unknown \\[run\\] key '{key}'$"):
                parse_scenario(PAIR + f"{key} = {tmp_path / 'from_scenario.csv'}\n")
        run_to_files(parse_scenario(PAIR), stats_path=cli_stats, trace_path=trace_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["from_caller.csv", "trace.csv"]
        header = cli_stats.read_text().splitlines()[0]
        assert header.startswith("node,offered,delivered")

    def test_stats_and_trace_on_one_file_are_refused(self, tmp_path):
        same = tmp_path / "same.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(same)
        sc = parse_scenario(PAIR)
        for paths in ((same, same), (same, link), (link, same)):
            with pytest.raises(ConfigError, match="same.csv"):
                run_to_files(sc, *paths)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv"]

    def test_trace_file_is_one_line_per_entry(self, tmp_path):
        write_trace(["1,a", "2,b"], tmp_path / "two.txt")
        write_trace([], tmp_path / "empty.txt")
        assert (tmp_path / "two.txt").read_bytes() == b"1,a\n2,b\n"
        assert (tmp_path / "empty.txt").read_bytes() == b""


def traced_lines(sc, end_us):
    """The trace lines of `sc` run to `end_us`."""
    return run(sc._replace(run=sc.run._replace(duration_us=end_us)), collect_trace=True)[1]


class TestTheRunEnd:
    """A run covers [0, end): an event at the end instant does not happen.
    So a run cut at T traces exactly the lines that a longer run traces
    before T: no delivery, timeout, data end, acknowledgement, beacon end or
    grid tick at T itself."""

    def test_a_run_cut_at_each_traced_instant_keeps_the_lines_before_it(self):
        sc = parse_scenario(PAIR)
        full = traced_lines(sc, 140_000)
        events = {line.split(",")[2] for line in full}
        assert {"tx_end", "ack", "success", "fail", "unlock", "draw", "count"} <= events
        times = [int(line.split(",", 1)[0]) for line in full]
        for end in sorted(set(times)):
            assert traced_lines(sc, end) == [line for line, t in zip(full, times) if t < end], end

    def test_a_beacon_that_ends_at_the_end_instant_is_traced_but_not_counted(self):
        sc = parse_scenario(PAIR)
        beacon_us = frame_airtime_us(sc.phy, BEACON_BODY_LEN)
        beacon_end = clock_us(beacon_us)
        for end, beacons in ((beacon_end, 0), (beacon_end + 1, 1)):
            stats, lines = run(sc._replace(run=sc.run._replace(duration_us=end)), collect_trace=True)
            assert (stats.beacons, stats.busy_us, stats.beacon_airtime_us) == (beacons, beacons * beacon_us,
                                                                               beacons * beacon_us)
            hub = [line.split(",")[2] for line in lines if line.split(",")[1] == "hub"]
            assert hub == ["tx_start", "tx_end"][: 1 + beacons]

    def test_an_arrival_at_the_end_instant_is_not_offered(self):
        sc = parse_scenario(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n"
            "[nodes]\nn0 = traffic=scripted:0;999;1000\n[run]\nduration_ms = 1\n"
        )
        stats, _ = run(sc)
        assert stats.nodes["n0"].offered == 2


class TestKernelInvariants:
    """Internal consistency checks raise SimulationError, so `python -O`
    keeps them."""

    CHECK = (
        "from bansim.errors import SimulationError\n"
        "from bansim.sim.kernel import Simulation\n"
        "from bansim.sim.scenario import parse_scenario\n"
        "from bansim.mac.superframe import PhaseKind\n"
        "sim = Simulation(parse_scenario({text!r}))\n"
        "try:\n"
        "    sim._collide([sim.nodes['n0']], 0, PhaseKind.RAP1, 10)\n"
        "except SimulationError as exc:\n"
        "    print(__debug__, exc)\n"
    )

    def test_a_collided_data_end_past_its_phase_raises(self):
        sim = Simulation(parse_scenario(OPEN_RAP.format(payload=50, seed=1, duration_ms=10)))
        with pytest.raises(SimulationError, match="^transmission crossed its phase boundary$"):
            sim._collide([sim.nodes["n0"]], 0, PhaseKind.RAP1, 10)

    def test_a_grid_tick_during_an_exchange_raises(self):
        # Every exchange ends by its phase's end, where the grid stops, and
        # the grid resumes only after the exchange clears.
        sim = Simulation(parse_scenario(OPEN_RAP.format(payload=50, seed=1, duration_ms=10)))
        sim.now, sim.exchange = 300, kernel._Exchange(PhaseKind.RAP1, 9000)
        with pytest.raises(SimulationError, match="^a grid tick at t=300 during an exchange$"):
            sim._on_slot_tick(PhaseKind.RAP1, 9000, [], None)

    def test_check_survives_optimized_mode(self):
        src = str(Path(bansim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = self.CHECK.format(text=OPEN_RAP.format(payload=50, seed=1, duration_ms=10))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False transmission crossed its phase boundary\n"

    # A grant shorter than its node's exchange (the scenario check refuses
    # such grants), a second pending grid tick, a delivery and a timeout
    # with no exchange in flight, a grant window that ends inside the data
    # frame of a clean exchange, and a deferred grant that meets that
    # exchange still in flight.
    GRID_AND_GRANT = (
        "from bansim.errors import SimulationError\n"
        "from bansim.mac.superframe import PhaseKind\n"
        "from bansim.sim.kernel import Simulation\n"
        "from bansim.sim.scenario import parse_scenario\n"
        "sim = Simulation(parse_scenario({text!r}))\n"
        "sim.nodes['n0'].backlog = 1\n"
        "def second_tick():\n"
        "    sim._push_tick(100, PhaseKind.RAP1, 9000, [], None)\n"
        "    sim._push_tick(200, PhaseKind.RAP1, 9000, [], None)\n"
        "for check in (lambda: sim._on_poll_grant('n0', 99, 99, PhaseKind.TYPE_A), second_tick,\n"
        "              lambda: sim._on_delivery('n0'), lambda: sim._on_timeout('n0'),\n"
        "              lambda: sim._on_poll_grant('n0', 10**6, 5, PhaseKind.TYPE_A),\n"
        "              lambda: sim._on_poll_grant('n0', 10**6, 10**6, PhaseKind.TYPE_A, True)):\n"
        "    try:\n"
        "        check()\n"
        "    except SimulationError as exc:\n"
        "        print(__debug__, exc)\n"
    )

    def test_grant_and_grid_checks_survive_optimized_mode(self):
        src = str(Path(bansim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        sc = OPEN_RAP.format(payload=50, seed=1, duration_ms=10)
        need = Simulation(parse_scenario(sc)).nodes["n0"].exchange_us
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.GRID_AND_GRANT.format(text=sc)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"False n0: a {need} us frame exchange does not fit its 99 us grant",
            "False a second grid tick pending at t=200",
            "False delivery outside an exchange",
            "False acknowledgement timeout outside an exchange",
            "False transmission crossed its phase boundary",
            "False n0: a grant deferred to t=0 met an exchange in flight",
        ]


    def test_overlap_on_an_ideal_channel_raises(self):
        # The compile refuses a second contender on an ideal channel; a Plan
        # whose scenario was changed after its compile is not compiled
        # again, so the kernel's own check is what catches the overlap.
        plan = load_plan(SCENARIO_DIR / "contention_pair.scn")
        sc = plan.scenario
        ideal = plan._replace(scenario=sc._replace(run=sc.run._replace(channel="ideal")))
        with pytest.raises(ScenarioError, match="at most one contention node"):
            compile_scenario(ideal.scenario)
        with pytest.raises(SimulationError, match="^2 overlapping transmissions on an ideal channel at t=30166$"):
            Simulation(ideal).run()

    def test_a_secured_body_that_comes_back_altered_raises(self, monkeypatch):
        monkeypatch.setattr(kernel, "admit_frame", lambda wire, session: b"altered")
        sim = Simulation(load_plan(SCENARIO_DIR / "mixed_access.scn"))
        with pytest.raises(SimulationError, match="^secured round trip altered the body$"):
            sim.run()


class _TickCounter(Simulation):
    """Counts slot ticks, those at or past their phase's end, and those
    run while every contender of the phase is guard-locked."""

    ticks = past_end = all_guard_locked = 0

    def _on_slot_tick(self, kind, phase_end, *tick):
        self.ticks += 1
        if self.now >= phase_end:
            self.past_end += 1
        elif self.exchange is None and all(n.backoff.locked == "guard" for n in self._contenders[kind]):
            self.all_guard_locked += 1
        super()._on_slot_tick(kind, phase_end, *tick)


class _HeapWatch(Simulation):
    """Records the largest length the event heap reaches."""

    largest = 0

    def _push(self, *args):
        super()._push(*args)
        self.largest = max(self.largest, len(self._heap))


class _LockReasons(Simulation):
    """Records the reason each node holds on every traced lock line, and
    the reason each node held before a resume tick unlocked it. A guard
    lock is rendered by kernel.trace_batch and a resume's unlock by
    kernel.trace_unlocks, which `batch` and `unlocks` stand in for; a busy
    lock by kernel.trace_storm, whose held nodes the exchange keeps and
    marks after it renders them, so their reasons are read once the
    exchange has begun."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.locks, self.resume_unlocks, self._before = [], [], {}

    def _on_slot_tick(self, kind, phase_end, *tick):
        self._before = {n.node_id: n.backoff.locked for n in self._contenders[kind]}
        super()._on_slot_tick(kind, phase_end, *tick)

    def batch(self, lines, time_us, kind, events, nodes):
        if events == ("lock",):
            self.locks += [n.backoff.locked for n in nodes]
        trace_batch(lines, time_us, kind, events, nodes)

    def _begin_exchange(self, *args):
        super()._begin_exchange(*args)
        self.locks += [node.backoff.locked for node, _ in self.exchange.held]

    def unlocks(self, lines, time_us, held):
        self.resume_unlocks += [self._before[node.node_id] for node, _ in held]
        trace_unlocks(lines, time_us, held)


class TestLockReasons:
    @pytest.mark.parametrize("name", ["contention_pair", "mixed_access"])
    def test_every_lock_has_a_reason_and_a_resume_lifts_only_busy(self, name, monkeypatch):
        sim = _LockReasons(load_scenario(SCENARIO_DIR / f"{name}.scn"), collect_trace=True)
        monkeypatch.setattr(kernel, "trace_batch", sim.batch)
        monkeypatch.setattr(kernel, "trace_unlocks", sim.unlocks)
        sim.run()
        assert len(sim.locks) == sum(",lock," in line for line in sim.trace)
        assert set(sim.locks) == {"busy", "guard"}  # each scenario meets both
        assert set(sim.resume_unlocks) == {"busy"}


class _BusyWatch(Simulation):
    """Counts the nodes that read busy-locked as each slot tick and phase
    start begins, and the exchanges begun from a slot end that held some
    other counting node."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.looks, self.busy, self.holding = 0, 0, 0

    def _look(self):
        self.looks += 1
        self.busy += sum(node.backoff.locked == "busy" for node in self.nodes.values())

    def _on_slot_tick(self, *tick):
        self._look()
        super()._on_slot_tick(*tick)

    def _on_phase_start(self, *args):
        self._look()
        super()._on_phase_start(*args)

    def _begin_exchange(self, transmitters, t, kind, phase_end, counting=()):
        self.holding += any(node.backoff.counter for node in counting)  # a transmitter's is 0
        super()._begin_exchange(transmitters, t, kind, phase_end, counting)


def _bench_ward_scenario(seed: int) -> str:
    """The ward scenario of the benchmark's sim_ward workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", SCENARIO_DIR.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.ward_scenario(seed)


class TestUntracedHolds:
    """The grid does not tick during an exchange, so an untraced run holds
    the other contenders without marking them; only a traced run, whose
    unlock lines read the marks, sets and lifts them."""

    @pytest.mark.parametrize("name", ["contention_pair", "mixed_access", "bench_ward"])
    def test_an_untraced_run_marks_no_counter_busy(self, name):
        text = (_bench_ward_scenario(1) if name == "bench_ward"
                else (SCENARIO_DIR / f"{name}.scn").read_text())
        untraced, traced = _BusyWatch(parse_scenario(text)), _BusyWatch(parse_scenario(text), collect_trace=True)
        untraced.run()
        traced.run()
        assert untraced.holding == traced.holding > 0
        assert untraced.looks == traced.looks > 0
        assert untraced.busy == 0
        assert traced.busy > 0  # a resume tick begins before it lifts the marks


# contention_pair with a random access phase exactly one pSIFS long, so
# that its grid's first instant would be its end.
PSIFS_LONG_RAP1 = (SCENARIO_DIR / "contention_pair.scn").read_text().replace(
    "rap1_slots = 56", "rap1_slots = 1").replace("slots = 256", "slots = 201") + "\n[csma]\npsifs_us = 500\n"


class TestLeanLoop:
    @pytest.mark.parametrize("text", [(SCENARIO_DIR / "contention_pair.scn").read_text(), PSIFS_LONG_RAP1],
                             ids=["contention_pair", "psifs_long_rap1"])
    def test_no_tick_at_or_past_the_phase_end(self, text):
        sim = _TickCounter(parse_scenario(text))
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
            sim = _HeapWatch(sc._replace(run=sc.run._replace(duration_us=seconds * 1_000_000)))
            sim.run()
            largest.append(sim.largest)
        assert largest[0] == largest[1]


# ------------------------------------------- the grid against its reference


class SlotBySlot(Simulation):
    """The slot grid as it ran before it became a lazy event stream: every
    grid instant is a heap event, every slot end is its own tick, and each
    tick checks the guard with guard_check. Every tick scans every
    contender of its phase for counts, unlocks, draws and locks. Nothing is
    batched, and its own lines go out as (node id, event, state) entries
    through trace_lines; an exchange, begun by the base class from this
    grid's own scan, traces its lines and the count lines of the slot end
    that starts it. Every exchange runs hop by hop, as before a clean one
    became one heap event and a collided one one event per transmitter:
    each data end is an event, which pushes a collided transmitter's
    timeout or a clean exchange's acknowledgement, an event that pushes its
    delivery. Kept as the reference that the kernel's stats and trace must
    match byte for byte, but for the two ties that TestArrivalOnADelivery
    and TestArrivalOnATimeout pin."""

    def _collides(self, transmitters):
        # Every exchange goes to _collide, which pushes its data ends and
        # notes for _on_data_end whether the exchange collided.
        return True

    def _collide(self, transmitters, t, kind, phase_end):
        self._collided = len(transmitters) > 1
        for node in transmitters:
            self._push(t + node.airtime_int, self._on_data_end, (node.node_id,))

    def _on_data_end(self, node_id):
        exchange, node, t = self.exchange, self.nodes[node_id], self.now
        if t > exchange.phase_end:
            raise SimulationError("transmission crossed its phase boundary")
        self._emit_entries(t, exchange.kind, [(node_id, "tx_end", node.backoff)])
        node.stats.tx_airtime_us += node.airtime_us
        if self._collided:
            timeout = t + self.timing.psifs_us + self.ack_int + self.timing.gtn_us
            self._push(timeout, self._on_timeout, (node_id,))
        else:
            self._push(t + self.timing.psifs_us, self._on_ack_hop, (node_id,))

    def _on_ack_hop(self, node_id):
        self.stats.ack_airtime_us += self.ack_airtime_us
        self._emit_entries(self.now, self.exchange.kind, [(node_id, "ack", self.nodes[node_id].backoff)])
        self._push(self.now + self.ack_int, self._on_delivery, (node_id,))

    def _emit_entries(self, t, kind, entries):
        if self.collect_trace:
            self.trace += trace_lines(t, kind, entries)

    def _push_tick(self, time_us, kind, phase_end, counting, ended):
        # The base class pushes a slot end with the counters it expects to
        # count, and a resume with the exchange that ended; this grid scans
        # for both itself.
        self._push(time_us, self._on_slot_tick, (kind, phase_end, bool(counting), ended is not None))

    def _on_slot_tick(self, kind, phase_end, slot_ends, unlock):
        if self.exchange is not None:
            return
        t = self.now
        participants = self._contenders[kind]

        if unlock:
            entries = []
            for node in participants:
                state = node.backoff
                if state.locked == "busy":
                    state.locked = None
                    entries.append((node.node_id, "unlock", state))
            self._emit_entries(t, kind, entries)

        transmitters = []
        if slot_ends:
            counted = []
            for node in participants:
                state = node.backoff
                if state.counter > 0 and not state.locked:
                    due = on_idle_slot(state)
                    counted.append(node)
                    if due:
                        transmitters.append(node)
            if transmitters:
                # The exchange traces the count lines with its own.
                self._begin_exchange(transmitters, t, kind, phase_end, counted)
                return
            self._emit_entries(t, kind, [(node.node_id, "count", node.backoff) for node in counted])

        entries = []
        for node in participants:
            state = node.backoff
            if node.backlog and state.counter == 0 and not state.locked:
                draw_backoff(state, node.rng)
                if node.service_start is None:
                    node.service_start = t
                entries.append((node.node_id, "draw", state))
        self._emit_entries(t, kind, entries)

        can_act = False
        entries = []
        for node in participants:
            state = node.backoff
            if state.counter == 0:
                can_act = True
            elif not state.locked:
                if guard_check(state, t, phase_end, node.airtime_int, self.ack_int, self.timing):
                    can_act = True
                else:
                    entries.append((node.node_id, "lock", state))
        self._emit_entries(t, kind, entries)

        if can_act and t + self.timing.csma_slot_us < phase_end:
            self._push(t + self.timing.csma_slot_us, self._on_slot_tick, (kind, phase_end, True, False))


def stats_and_trace(sim):
    sim.run()
    out = io.StringIO()
    write_stats_csv(sim.stats, out)
    return out.getvalue(), sim.trace


# Phases that take contention traffic, and the shared ones.
_CONTENTION_KEYS = ("eap1_slots", "rap1_slots", "eap2_slots", "rap2_slots", "cap_slots")
_OPEN_KEYS = ("rap1_slots", "rap2_slots", "cap_slots")  # the EAPs admit priority 7 only
_ALL_KEYS = ("eap1_slots", "rap1_slots", "type_a_slots", "eap2_slots", "rap2_slots", "type_b_slots", "cap_slots")
# Data frame airtime on the clock per payload of 0..200 bytes on small_scenarios'
# PHY; entry 0 is the ack.
_SMALL_FRAME_US = [
    clock_us(t) for t in frame_airtimes_us(nb_config(Band.NB_2400_2483, "high"), list(range(201)))
]


def _contention_need_us(timing: MacTimingConstants, payload: int) -> int:
    """The phase length compile_scenario asks for a contention node: pSIFS,
    one CSMA slot and the node's frame exchange."""
    exchange = exchange_us(_SMALL_FRAME_US[payload], _SMALL_FRAME_US[0], timing)
    return timing.psifs_us + timing.csma_slot_us + exchange


@st.composite
def small_scenarios(draw):
    """1-8 contention nodes (priorities 0-7, saturated, Poisson or scripted
    traffic, 1-200 B) and now and then a polled node, on a beacon,
    beacon-free or non-beacon layout with random phase lengths and MAC
    timing. Scripted arrivals fall on whole 100 us, and the slot and
    interframe space often divide that, so arrivals land on grid instants.
    A beacon or beacon-free layout has a contention phase that holds a
    1-byte exchange, and every contention node gets a priority some phase
    admits and a payload that phase holds; a non-beacon layout has no
    contention phase, so it carries its polled node or none. A polled node
    the compiler refuses as never polled is left out."""
    duration_ms = draw(st.integers(20, 250))
    layout = draw(st.sampled_from(["beacon", "no beacon", "nonbeacon"]))
    slots = draw(st.integers(16, 96))
    timing = MacTimingConstants(
        psifs_us=draw(st.sampled_from([0, 50]) | st.integers(0, 80)),
        csma_slot_us=draw(st.sampled_from([20, 25, 50, 100]) | st.integers(20, 200)),
        gtn_us=draw(st.sampled_from([0, 1, 85, 120])),
    )
    open_us = exclusive_us = 0  # the longest phase open to every priority, and to priority 7
    if layout == "nonbeacon":
        superframe = f"mode = nonbeacon\nslots = {slots}\nfill_phase_type = {draw(st.sampled_from('I II'.split()))}\n"
    else:
        beacon = 4 if layout == "beacon" else 0
        keys = draw(st.lists(st.sampled_from(_ALL_KEYS), min_size=1, max_size=5, unique=True))
        if not any(k in _CONTENTION_KEYS for k in keys):
            keys.append("rap1_slots")
        floor = -(-_contention_need_us(timing, 1) // 500)  # 500 us slots
        cuts = sorted(draw(st.lists(st.integers(0, slots - floor), min_size=len(keys) - 1, max_size=len(keys) - 1)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [slots - floor])]
        sizes[next(i for i, k in enumerate(keys) if k in _CONTENTION_KEYS)] += floor
        superframe = f"slots = {slots + beacon}\n"
        superframe += f"beacon_slots = {beacon}\n" if beacon else "beacon_prohibited = true\n"
        superframe += "".join(f"{k} = {n}\n" for k, n in zip(keys, sizes))
        open_us = 500 * max((n for k, n in zip(keys, sizes) if k in _OPEN_KEYS), default=0)
        exclusive_us = 500 * max(n for k, n in zip(keys, sizes) if k in _CONTENTION_KEYS)
    fits_open = _contention_need_us(timing, 1) <= open_us
    nodes = []
    for i in range(draw(st.integers(1, 8)) if exclusive_us else 0):
        traffic = draw(st.sampled_from(["saturated", "poisson:5", "poisson:60", "poisson:400", "scripted"]))
        if traffic == "scripted":
            times = draw(st.lists(st.integers(0, duration_ms * 10), min_size=1, max_size=8, unique=True))
            traffic = "scripted:" + ";".join(str(100 * t) for t in sorted(times))
        priority = draw(st.integers(0, 7)) if fits_open else 7
        longest = exclusive_us if priority == 7 else open_us
        most = max(p for p in range(1, 201) if _contention_need_us(timing, p) <= longest)
        nodes.append(
            f"n{i} = priority={priority}, traffic={traffic}, "
            f"payload={draw(st.integers(1, most))}, access=contention"
        )
    polled = []
    if draw(st.booleans()):
        polled.append(f"p = traffic=poisson:{draw(st.sampled_from([20, 200]))}, payload={draw(st.integers(1, 200))}, access=polled")
    channel = "ideal" if len(nodes) == 1 and draw(st.booleans()) else "collision"
    head = (
        "[phy]\nband = 2400-2483.5\nrate = high\n"
        f"[superframe]\nslot_length_us = 500\n{superframe}"
        f"[csma]\npsifs_us = {timing.psifs_us}\nslot_us = {timing.csma_slot_us}\ngtn_us = {timing.gtn_us}\n"
    )
    tail = f"[run]\nseed = {draw(st.integers(1, 10**6))}\nduration_ms = {duration_ms}\nchannel = {channel}\n"
    try:
        return parse_scenario(head + "[nodes]\n" + "\n".join(nodes + polled) + "\n" + tail)
    except ScenarioError as exc:
        # A polled node that no poll phase can hold is refused; the other
        # nodes still run without it.
        if not polled or "p: never polled" not in str(exc):
            raise
        return parse_scenario(head + "[nodes]\n" + "\n".join(nodes) + "\n" + tail)


class TestLazyGrid:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_scenarios())
    def test_matches_the_slot_by_slot_grid(self, sc):
        want = stats_and_trace(SlotBySlot(sc, collect_trace=True))
        assert stats_and_trace(Simulation(sc, collect_trace=True)) == want
        assert stats_and_trace(Simulation(sc))[0] == want[0]

    @pytest.mark.parametrize("name", ["contention_pair", "mixed_access"])
    def test_bundled_scenarios_match_the_slot_by_slot_grid(self, name):
        sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
        got = stats_and_trace(Simulation(sc, collect_trace=True))
        assert got == stats_and_trace(SlotBySlot(sc, collect_trace=True))

    def test_idle_slots_take_one_step(self):
        class CountedReference(_TickCounter, SlotBySlot):
            pass

        sc = load_scenario(SCENARIO_DIR / "mixed_access.scn")
        lazy, reference = _TickCounter(sc), CountedReference(sc)
        assert stats_and_trace(lazy) == stats_and_trace(reference)
        assert 0 < lazy.ticks < reference.ticks


class _GapScript(random.Random):
    """A node's stream with its arrival gaps given, then none. Each gap
    still takes one value off the stream, as expovariate does; each gap
    and each backoff draw is logged."""

    def __init__(self, seed: str, gaps_us):
        super().__init__(seed)
        self.gaps_us = list(gaps_us)
        self.calls: list[str] = []

    def expovariate(self, rate):
        self.calls.append("gap")
        self.random()
        return self.gaps_us.pop(0) / 1e6 if self.gaps_us else math.inf

    def randrange(self, *args):
        self.calls.append("draw")
        return super().randrange(*args)


def _gap_run(cls, text, gaps_us):
    """A traced run of `text` with node b's arrival gaps scripted: b's
    stream's calls, the stats, the trace and the digest of both."""
    sim = cls(parse_scenario(text), collect_trace=True)
    stream = sim.nodes["b"].rng = _GapScript(f"{sim.plan.scenario.run.seed}:b", gaps_us)
    stats, trace = stats_and_trace(sim)
    return stream.calls, stats, trace, hashlib.sha256((stats + "\n".join(trace)).encode()).hexdigest()


class TestArrivalOnADelivery:
    """The one order in which the kernel departs from hop-by-hop events. A
    clean exchange's delivery takes its heap place when the exchange
    begins, where the hop-by-hop run gave it one at the acknowledgement.
    An arrival pushed during the data frame onto the delivery instant thus
    runs after the delivery, and when its successor lands on the resume
    tick, the resume draws that node's counter before the successor takes
    its gap off the same stream."""

    # a, alone at priority 7, begins an exchange at 2069 us: data end 3233,
    # ack 3283, delivery 3788, resume 3838. b's gaps put its arrivals at
    # 2500 (inside a's data frame), 3788 and 3838.
    TEXT = (
        "[phy]\nkind = nb\nband = 2400-2483.5\nrate = high\n"
        "[superframe]\nslots = 100\nbeacon_prohibited = true\nrap1_slots = 100\n"
        "[nodes]\na = priority=7, traffic=saturated, payload=40\nb = priority=2, traffic=poisson:50, payload=30\n"
        "[run]\nseed = 2\nduration_ms = 40\nchannel = collision\n"
    )
    GAPS_US = (2500, 1288, 50)
    # Stats and trace bytes in the kernel's order, and in the hop-by-hop
    # order (the kernel's own before a clean exchange became one event).
    DIGEST = "2729ba7d506e6b8447e164db0f6632adb2e2ab7801606f3e76d9600095b6ea14"
    HOP_BY_HOP_DIGEST = "9338aafbe1e6d0bee761b27d81c0761c5a20dc28b86c04d4767bcbacac6a97fe"

    def test_the_resume_draws_before_the_arrival_takes_its_gap(self):
        calls, _, trace, digest = _gap_run(Simulation, self.TEXT, self.GAPS_US)
        lines = parse_trace(trace)
        arrivals = [sum(self.GAPS_US[:i + 1]) for i in range(len(self.GAPS_US))]
        starts = [t for t, node, event, *_ in lines if (node, event) == ("a", "tx_start")]
        data_ends = [t for t, node, event, *_ in lines if (node, event) == ("a", "tx_end")]
        assert starts[1] < arrivals[0] < data_ends[1]
        assert (arrivals[1], "a", "success") in {tuple(line[:3]) for line in lines}
        assert (arrivals[2], "b", "draw") in {tuple(line[:3]) for line in lines}
        assert arrivals[2] == arrivals[1] + parse_scenario(self.TEXT).timing.psifs_us
        assert calls[:5] == ["gap", "gap", "gap", "draw", "gap"]
        assert digest == self.DIGEST
        reference_calls, _, _, reference_digest = _gap_run(SlotBySlot, self.TEXT, self.GAPS_US)
        assert reference_calls[:5] == ["gap", "gap", "gap", "gap", "draw"]
        assert reference_digest == self.HOP_BY_HOP_DIGEST


class TestArrivalOnATimeout:
    """The collided exchange's counterpart of TestArrivalOnADelivery. A
    collided transmitter's timeout takes its heap place when the exchange
    begins, where the hop-by-hop run gave it one at its data end. An
    arrival pushed during that data frame onto the timeout instant thus
    runs after the timeout, so when the arrival is the transmitter's own,
    the timeout draws its counter before the arrival takes the next gap off
    the same stream."""

    # a (40 B) and b (30 B) collide at 2069 us; b's data end is 3068 and
    # its timeout 3708. b's gaps put its arrivals at 100, 2500 (inside its
    # own data frame) and 3708.
    TEXT = (
        "[phy]\nkind = nb\nband = 2400-2483.5\nrate = high\n"
        "[superframe]\nslots = 100\nbeacon_prohibited = true\nrap1_slots = 100\n"
        "[nodes]\na = priority=6, traffic=saturated, payload=40\nb = priority=6, traffic=poisson:50, payload=30\n"
        "[run]\nseed = 1\nduration_ms = 40\nchannel = collision\n"
    )
    GAPS_US = (100, 2400, 1208)
    # Stats and trace bytes in the kernel's order, and in the hop-by-hop
    # order (the kernel's own before a collided exchange became one event
    # per transmitter).
    DIGEST = "5fbcaa1e543f1693aa71eb4a28b79beb07ff43689cde3f149c62ac5169a738ca"
    HOP_BY_HOP_DIGEST = "2f1b927b6d2d38e5503ce938ad9f43020840807b37e2db8d7bc5dad575bebf44"

    def test_the_timeout_draws_before_the_arrival_takes_its_gap(self):
        calls, _, trace, digest = _gap_run(Simulation, self.TEXT, self.GAPS_US)
        lines = {tuple(line[:3]) for line in parse_trace(trace)}
        arrivals = [sum(self.GAPS_US[:i + 1]) for i in range(len(self.GAPS_US))]
        assert {(2069, "a", "tx_start"), (2069, "b", "tx_start"), (3068, "b", "tx_end")} <= lines
        assert 2069 < arrivals[1] < 3068
        assert (arrivals[2], "b", "fail") in lines
        assert calls[:6] == ["gap", "gap", "draw", "gap", "draw", "gap"]
        assert digest == self.DIGEST
        reference_calls, _, _, reference_digest = _gap_run(SlotBySlot, self.TEXT, self.GAPS_US)
        assert reference_calls[:6] == ["gap", "gap", "draw", "gap", "gap", "draw"]
        assert reference_digest == self.HOP_BY_HOP_DIGEST


class TestChangedScenarios:
    """A scenario changed after parsing is compiled again when run, so an
    illegal one fails before its first event."""

    POLLED = (
        "[superframe]\nbeacon_slots = 4\nrap1_slots = 120\ntype_b_slots = 132\n"
        "[nodes]\nn0 = access=contention\np = traffic=poisson:20, payload=60, access=polled\n"
    )

    def test_poll_grant_shorter_than_an_exchange(self):
        sc = parse_scenario(self.POLLED)
        need = Simulation(sc).nodes["p"].exchange_us
        with pytest.raises(ScenarioError, match=f"shorter than the {need} us frame exchange"):
            Simulation(sc._replace(poll_grant_us=need - 1))

    def test_second_contention_node_on_the_ideal_channel(self):
        sc = parse_scenario(self.POLLED)
        assert sc.run.channel == "ideal"
        with pytest.raises(ScenarioError, match="at most one contention node"):
            Simulation(sc._replace(nodes=sc.nodes + (sc.nodes[0]._replace(node_id="n1"),)))


# ------------------------------------------------------- the streamed trace

# 32 saturated contention nodes on contention_pair's layout: every slot
# end has counters, so every slot traces lines.
CROWD = (SCENARIO_DIR / "contention_pair.scn").read_text().split("[nodes]")[0] + "[nodes]\n" + "".join(
    f"n{i:02d} = priority={2 + i % 5}, traffic=saturated, payload={20 + 6 * i}\n" for i in range(32)
) + "[run]\nseed = 3\nduration_ms = {duration_ms}\nchannel = collision\n"


def whole_trace(sc, path):
    """The trace written in one piece after the run, as the reference."""
    write_trace(run(sc, collect_trace=True)[1], path)
    return path.read_bytes()


class TestStreamedTrace:
    def test_traced_memory_stays_flat_in_run_length(self, tmp_path):
        peaks = []
        for seconds in (1, 6):
            sc = parse_scenario(CROWD.format(duration_ms=1000 * seconds))
            tracemalloc.start()
            try:
                run_to_files(sc, tmp_path / "stats.csv", tmp_path / "trace.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "trace.csv").stat().st_size > 2_000_000
        assert peaks[1] - peaks[0] < 2_000_000

    @pytest.mark.parametrize("name", ["contention_pair", "mixed_access"])
    def test_bundled_scenarios_stream_the_whole_trace(self, name, tmp_path):
        sc = load_scenario(SCENARIO_DIR / f"{name}.scn")
        run_to_files(sc, tmp_path / "stats.csv", tmp_path / "streamed.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == whole_trace(sc, tmp_path / "whole.csv")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(small_scenarios())
    def test_small_scenarios_stream_the_whole_trace(self, tmp_path, sc):
        run_to_files(sc, tmp_path / "stats.csv", tmp_path / "streamed.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == whole_trace(sc, tmp_path / "whole.csv")

    def test_run_without_a_line_writes_an_empty_file(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("old\n")
        run_to_files(parse_scenario("[superframe]\nmode = unbounded\n[run]\nduration_ms = 50\n"), trace_path=trace)
        assert trace.read_bytes() == b""

    def test_parallel_sweep_writes_one_trace_per_seed(self, tmp_path, capsys):
        scenario = SCENARIO_DIR / "contention_pair.scn"
        trace = tmp_path / "trace.csv"
        assert main(["simulate", str(scenario), "--seed", "4", "5", "--sweep-parallel", "2",
                     "--out", str(tmp_path / "stats.csv"), "--trace", str(trace)]) == 0
        sc = load_scenario(scenario)
        for seed in (4, 5):
            want = whole_trace(sc._replace(run=sc.run._replace(seed=seed)), tmp_path / "whole.csv")
            assert (tmp_path / f"trace.s{seed}.csv").read_bytes() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "stats.s4.csv", "stats.s5.csv", "trace.s4.csv", "trace.s5.csv", "whole.csv"]

    @pytest.mark.parametrize("where", ["mid-run", "conservation check"])
    def test_failed_run_leaves_no_trace(self, where, monkeypatch, tmp_path):
        if where == "mid-run":
            schedule = Simulation._schedule_superframe

            def fail_at_third(self, index):
                if index == 3:
                    raise SimulationError("stop")
                schedule(self, index)

            monkeypatch.setattr(Simulation, "_schedule_superframe", fail_at_third)
        else:
            count_one_arrival_twice(monkeypatch)
        sc = load_scenario(SCENARIO_DIR / "contention_pair.scn")
        fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
        kept_stats = tmp_path / "kept_stats.csv"
        kept.write_bytes(b"an earlier trace\n")
        kept_stats.write_bytes(b"earlier stats\n")
        for stats, trace in ((tmp_path / "stats.csv", fresh), (tmp_path / "stats.csv", kept), (kept_stats, fresh)):
            with pytest.raises(SimulationError):
                run_to_files(sc, stats, trace)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "kept_stats.csv"]
        assert kept.read_bytes() == b"an earlier trace\n"
        assert kept_stats.read_bytes() == b"earlier stats\n"

    def test_stats_write_failing_partway_keeps_the_earlier_file(self, monkeypatch, tmp_path):
        stats = tmp_path / "stats.csv"
        stats.write_bytes(b"earlier stats\n")

        def fail(self):
            raise SimulationError("stop in the aggregate row")

        monkeypatch.setattr(RunStats, "idle_us", property(fail))
        with pytest.raises(SimulationError, match="aggregate row"):
            run_to_files(load_scenario(SCENARIO_DIR / "contention_pair.scn"), stats, tmp_path / "trace.csv")
        assert stats.read_bytes() == b"earlier stats\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.csv"]

    def test_symlink_target_keeps_its_link(self, tmp_path):
        sc = load_scenario(SCENARIO_DIR / "contention_pair.scn")
        (tmp_path / "real.csv").write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        run_to_files(sc, trace_path=link)
        assert link.is_symlink()
        assert (tmp_path / "real.csv").read_bytes() == whole_trace(sc, tmp_path / "whole.csv")

    def test_pipe_target_is_written_directly(self, tmp_path):
        sc = load_scenario(SCENARIO_DIR / "contention_pair.scn")
        pipe = tmp_path / "trace.pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        run_to_files(sc, trace_path=pipe)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [whole_trace(sc, tmp_path / "whole.csv")]
        assert stat.S_ISFIFO(pipe.stat().st_mode)


# CROWD over five 128 ms superframes: a split run cuts at superframe 3 or
# later.
SPLIT_MS = 640


# Three saturated nodes in 8 ms superframes of one beacon slot and a
# seven-slot random access phase. When superframe 19 starts, a collided
# exchange that fits the phase exactly is still in flight: the longer data
# frame's tx_end line is held, and so is the unlock text of the node it
# busy-locked. This run of 38 superframes is cut at superframe 20.
EXACT_FIT = """\
[phy]
kind = nb
band = 2400-2483.5
rate = high

[superframe]
slot_length_us = 1000
slots = 8
beacon_slots = 1
rap1_slots = 7

[nodes]
a = priority=6, traffic=saturated, payload=10
b = priority=6, traffic=saturated, payload=150
c = priority=6, traffic=saturated, payload=10

[run]
seed = 1
duration_ms = 304
channel = collision
"""


# Three saturated nodes in 38 ms superframes whose random access phase is
# followed by a type I phase no node contends in, with no pSIFS and no
# guard time. An exchange that ends on the RAP1 end at 103000 us holds c
# busy-locked, no resume tick lifts it, and superframe 3, the cut of this
# six-superframe run, starts before the next RAP1 entry does.
HELD_PAST_ITS_PHASE = """\
[phy]
kind = nb
band = 2400-2483.5
rate = high

[superframe]
slot_length_us = 1000
slots = 38
beacon_slots = 4
rap1_slots = 23
type_a_slots = 11

[csma]
psifs_us = 0
slot_us = 100
gtn_us = 0

[nodes]
a = priority=7, traffic=saturated, payload=10
b = priority=7, traffic=saturated, payload=150
c = priority=7, traffic=saturated, payload=60

[run]
seed = 8
duration_ms = 200
channel = collision
"""


def stats_bytes(stats, path):
    write_stats_csv(stats, path)
    return path.read_bytes()


class TestSplitRun:
    """A traced run streamed to a file of two or more superframes runs in
    two processes, with the bytes of one; every other run stays in one."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pid that made each os.fork call in this process, on a host
        that shows two usable CPUs."""
        calls, real = [], os.fork

        def counted():
            calls.append(os.getpid())
            return real()

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return calls

    def test_a_long_traced_run_forks_once_with_the_bytes_of_one(self, forks, monkeypatch, tmp_path):
        sc = parse_scenario(CROWD.format(duration_ms=SPLIT_MS))
        stats, lines = run(sc, collect_trace=True)
        schedule, seen = Simulation._schedule_superframe, []

        def note(self, index):
            seen.append(index)
            schedule(self, index)

        monkeypatch.setattr(Simulation, "_schedule_superframe", note)
        got = run_to_files(sc, tmp_path / "stats.csv", tmp_path / "trace.csv")
        assert forks == [os.getpid()]
        assert seen == [0, 1, 2]  # this process stops at superframe 3, (5 + 1) // 2, with none in flight
        write_trace(lines, tmp_path / "whole.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert (tmp_path / "stats.csv").read_bytes() == stats_bytes(stats, tmp_path / "want.csv")
        assert stats_bytes(got, tmp_path / "got.csv") == stats_bytes(stats, tmp_path / "want.csv")

    def test_the_cut_skips_a_superframe_start_with_an_exchange_in_flight(self, forks, monkeypatch, tmp_path):
        sc = parse_scenario(EXACT_FIT)
        want = whole_trace(sc, tmp_path / "whole.csv")
        schedule, seen = Simulation._schedule_superframe, []

        def note(self, index):
            if self.exchange is not None:
                seen.append((index, len(self._late), len(self.exchange.held)))
            seen.append(index)
            schedule(self, index)

        monkeypatch.setattr(Simulation, "_schedule_superframe", note)
        run_to_files(sc, trace_path=tmp_path / "trace.csv")
        assert forks == [os.getpid()]
        assert (tmp_path / "trace.csv").read_bytes() == want
        # This process traced up to superframe 20, over the one exchange in flight.
        assert seen == [*range(19), (19, 1, 1), 19]

    def test_a_busy_lock_that_outlives_its_exchange_crosses_the_cut(self, forks, monkeypatch, tmp_path):
        # The child traces the second half of the run from an untraced
        # first half, so it must reach the cut holding the marks a traced
        # run holds there: c's entry at 118000 us lifts a busy lock.
        sc = parse_scenario(HELD_PAST_ITS_PHASE)
        want = whole_trace(sc, tmp_path / "whole.csv")
        assert b"118000,c,unlock," in want
        schedule, busy = Simulation._schedule_superframe, []

        def note(self, index):
            busy.append([node.node_id for node in self.nodes.values() if node.backoff.locked == "busy"])
            schedule(self, index)

        monkeypatch.setattr(Simulation, "_schedule_superframe", note)
        run(sc, collect_trace=True)
        assert busy == [[], [], [], ["c"], [], []]  # held at the cut, superframe 3
        run_to_files(sc, trace_path=tmp_path / "trace.csv")
        assert forks == [os.getpid()]
        assert (tmp_path / "trace.csv").read_bytes() == want

    @pytest.mark.parametrize("case", ["one usable CPU", "no os.fork", "one superframe", "collect_trace"])
    def test_every_other_run_stays_in_one_process(self, case, forks, monkeypatch, tmp_path):
        sc = parse_scenario(CROWD.format(duration_ms=100 if case == "one superframe" else SPLIT_MS))
        want = whole_trace(sc, tmp_path / "whole.csv")
        if case == "one usable CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "no os.fork":
            monkeypatch.delattr(os, "fork")
        if case == "collect_trace":
            write_trace(run(sc, collect_trace=True)[1], tmp_path / "trace.csv")
        else:
            run_to_files(sc, trace_path=tmp_path / "trace.csv")
        assert forks == []
        assert (tmp_path / "trace.csv").read_bytes() == want

    def test_a_child_killed_by_a_signal_is_named_and_writes_nothing(self, forks, monkeypatch, tmp_path):
        parent, schedule = os.getpid(), Simulation._schedule_superframe

        def die_in_the_child(self, index):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            schedule(self, index)

        monkeypatch.setattr(Simulation, "_schedule_superframe", die_in_the_child)
        sc = parse_scenario(CROWD.format(duration_ms=SPLIT_MS))
        with pytest.raises(SimulationError) as raised:
            run_to_files(sc, tmp_path / "stats.csv", tmp_path / "trace.csv")
        assert str(raised.value) == (
            "the process tracing the run's second half ended by signal 9 before sending its stats"
        )
        assert forks == [parent]
        assert list(tmp_path.iterdir()) == []

    def test_an_error_after_the_cut_is_the_one_process_error(self, forks, monkeypatch, tmp_path):
        sc = parse_scenario(CROWD.format(duration_ms=SPLIT_MS))
        schedule, seen = Simulation._schedule_superframe, []

        def fail_at_the_last(self, index):
            seen.append(index)
            if index == 4:
                raise SimulationError(f"stop at superframe {index}")
            schedule(self, index)

        monkeypatch.setattr(Simulation, "_schedule_superframe", fail_at_the_last)
        with pytest.raises(SimulationError) as split:
            run_to_files(sc, tmp_path / "stats.csv", tmp_path / "trace.csv")
        assert forks == [os.getpid()] and 4 not in seen  # the child raised it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(SimulationError) as single:
            run_to_files(sc, tmp_path / "stats.csv", tmp_path / "trace.csv")
        assert forks == [os.getpid()] and 4 in seen
        assert (type(split.value), str(split.value)) == (type(single.value), str(single.value))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [KeyboardInterrupt, SimulationError])
    def test_an_error_in_the_calling_process_kills_and_reaps_the_child(self, error, forks, monkeypatch, tmp_path):
        parent, schedule = os.getpid(), Simulation._schedule_superframe

        def stall_the_child_fail_the_parent(self, index):
            if os.getpid() != parent:
                time.sleep(60)
            elif index == 2:
                raise error("stop")
            schedule(self, index)

        monkeypatch.setattr(Simulation, "_schedule_superframe", stall_the_child_fail_the_parent)
        sc = parse_scenario(CROWD.format(duration_ms=SPLIT_MS))
        start = time.monotonic()
        with pytest.raises(error):
            run_to_files(sc, tmp_path / "stats.csv", tmp_path / "trace.csv")
        assert time.monotonic() - start < 30  # the child was killed, not waited for
        assert forks == [parent]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.iterdir()) == []


class _PeakLog(Simulation):
    """Notes the tracemalloc peak so far at each superframe start."""

    def _schedule_superframe(self, index):
        self.peaks[self.now] = tracemalloc.get_traced_memory()[1]
        super()._schedule_superframe(index)


class TestBacklog:
    def test_untraced_memory_stays_flat_in_backlog(self):
        # A backlog is a count. One 800 ms run stands for the 200 and
        # 400 ms runs, which it repeats up to their ends: queues of about
        # 10,000, 20,000 and 40,000 frames cost no memory that grows.
        sim = _PeakLog(parse_scenario(overloaded(800)))
        sim.peaks = {}
        tracemalloc.start()
        try:
            sim.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim.stats.nodes["a"].queued > 39_000
        assert sim.peaks[400_000] < 64 * 1024
        assert peak - sim.peaks[200_000] < 16 * 1024


# ------------------------------------- the schedule against its generator


def scheduled_allocations(sc):
    """The scenario's allocations, by node id."""
    return sorted(
        (ScheduledAllocation(node.node_id, node.slot_start, node.slot_len, node.period, node.offset)
         for node in sc.nodes if node.access == "scheduled"),
        key=lambda a: a.node_id,
    )


def reference_superframe(sim, index):
    """Superframe `index`'s schedule events as (time, kind, data), made the
    way the kernel made them before compile_scenario laid the schedule out:
    the layout walked and the beacon, poll and allocation rules applied in
    every superframe, with absolute times in the data. The poll grant, poll
    phases and allocation phases are derived from the scenario as the plan
    derived them. Kept as the reference for the compiled schedule."""
    plan, layout, events = sim.plan, sim.plan.layout, []
    sc = sim.plan.scenario
    allocations = scheduled_allocations(sc)
    polled = sorted(node.node_id for node in sc.nodes if node.access == "polled")
    poll_grant_us = sc.poll_grant_us or max((plan.exchange_us[node_id] for node_id in polled), default=0)
    covered = {a.node_id: phases_covered(layout, a.start_slot, a.length_slots) for a in allocations}
    poll_phases = SHARED_PHASES - {kind for kinds in covered.values() for kind in kinds} if polled else set()
    base = index * layout.duration_us
    for span in layout.phases:
        if span.length_slots == 0:
            continue
        start = base + span.start_slot * layout.slot_length_us
        end = start + span.length_slots * layout.slot_length_us
        events.append((start, EventKind.PHASE_START, (span.kind, start, end)))
        if span.kind == PhaseKind.BEACON and beacon_in(layout, index, sc.superframe.beacon_period_multiplier):
            events.append((start, EventKind.BEACON_TX, ()))  # it carried (end,), which nothing read
        if span.kind in poll_phases:
            for node_id, offset in schedule_polls(layout, polled, span.kind, poll_grant_us):
                events.append((base + offset, EventKind.POLL_GRANT, (node_id, poll_grant_us, end, span.kind)))
    for alloc in allocations:
        if alloc.active_in(index):
            start = base + alloc.start_slot * layout.slot_length_us
            length = alloc.length_slots * layout.slot_length_us
            events.append((start, EventKind.POLL_GRANT, (alloc.node_id, length, start + length, covered[alloc.node_id][0])))
    events.append((base + layout.duration_us, "superframe", (index + 1,)))
    return events


class _ScheduleLog(Simulation):
    """Logs each schedule event the kernel pushes as (time, kind, data),
    with the durations in its data turned into absolute times, and queues
    nothing. A bound entry names its kind by its handler, a plan entry
    pushed as it stands names it itself, and each is pushed at the
    schedule's one rank, so at an instant they run in push order."""

    KINDS = {"_on_phase_start": EventKind.PHASE_START, "_on_beacon": EventKind.BEACON_TX,
             "_on_poll_grant": EventKind.POLL_GRANT, "_on_superframe": "superframe"}

    def _push(self, time_us, handler, data=(), rank=2):
        kind = handler if isinstance(handler, EventKind) else self.KINDS[handler.__name__]
        assert rank == 1, (kind, rank)
        if kind is EventKind.PHASE_START:
            data = (data[0], time_us, time_us + data[1])
        elif kind is EventKind.POLL_GRANT:
            node_id, duration, window_us, phase = data
            data = (node_id, duration, time_us + window_us, phase)
        self.pushed.append((time_us, kind, data))


def _shared_phase(draw, name):
    """A shared phase's slot count and, one time in three, a scheduled node
    inside it whose period is above 1 and whose offset is negative or at
    least the period: (node id, slots, first slot, period, offset), or None."""
    slots = draw(st.sampled_from([0, 8, 20, 40]))
    if not slots or draw(st.integers(0, 2)):
        return slots, None
    period = draw(st.integers(2, 4))
    offset = draw(st.integers(-9, -1) | st.integers(period, 9))
    length = draw(st.integers(3, 8))
    start = draw(st.integers(0, slots - length))
    return slots, (name, length, start, period, offset)


@st.composite
def scheduled_scenarios(draw, contention=False):
    """A beacon or non-beacon layout with zero to two poll phases, 0-3
    polled nodes listed in any id order (none when no shared phase is
    free to poll in), scheduled nodes in the shared phases and, in beacon
    mode, a beacon period multiplier of 1-3. With `contention`, the layout
    is a beacon one that may also hold EAP1, EAP2 and CAP, and 1-3
    contention nodes of any priority, listed in any id order, share a
    collision channel; without it, no draw is made for any of these."""
    multiplier = draw(st.integers(1, 3))  # drawn in every mode, so the examples keep their draws
    superframe = draw(st.sampled_from(["", "poll_grant_us = 2200\n", "poll_grant_us = 4000\n"]))
    if not contention and draw(st.booleans()):
        slots, alloc = _shared_phase(draw, draw(st.sampled_from(["sa", "sz"])))
        slots = max(slots, 8)
        superframe += f"mode = nonbeacon\nslots = {slots}\n"
        phases = [(slots, alloc, 0)]
    else:
        (a_slots, alloc_a), (b_slots, alloc_b) = _shared_phase(draw, "sb"), _shared_phase(draw, "sa")
        rap1, rap2 = draw(st.integers(1, 30)), draw(st.integers(0, 30))
        eap1, eap2, cap = (draw(st.sampled_from([0, 6, 12])) for _ in range(3)) if contention else (0, 0, 0)
        superframe += (f"beacon_period_multiplier = {multiplier}\n"
                       f"slots = {4 + eap1 + rap1 + a_slots + eap2 + rap2 + b_slots + cap}\nbeacon_slots = 4\n"
                       f"rap1_slots = {rap1}\ntype_a_slots = {a_slots}\nrap2_slots = {rap2}\ntype_b_slots = {b_slots}\n")
        if contention:
            superframe += f"eap1_slots = {eap1}\neap2_slots = {eap2}\ncap_slots = {cap}\n"
        phases = [(a_slots, alloc_a, 4 + eap1 + rap1), (b_slots, alloc_b, 4 + eap1 + rap1 + a_slots + eap2 + rap2)]
    polled = []
    if any(slots and alloc is None for slots, alloc, _ in phases):
        polled = draw(st.permutations(["pa", "pb", "pc"]))[: draw(st.integers(0, 3))]
    nodes = [f"{node_id} = traffic=poisson:20, payload={draw(st.integers(1, 60))}, access=polled" for node_id in polled]
    for _, alloc, phase_start in phases:
        if alloc is not None:
            name, length, start, period, offset = alloc
            nodes.append(f"{name} = payload=10, access=scheduled, slot_start={phase_start + start}, "
                         f"slot_len={length}, period={period}, offset={offset}")
    run_keys = "duration_ms = 20\n"
    if contention:
        for node_id in draw(st.permutations(["ca", "cb", "cc"]))[: draw(st.integers(1, 3))]:
            nodes.append(f"{node_id} = priority={draw(st.sampled_from([0, 4, 6, 7]))}, traffic=poisson:20, "
                         f"payload={draw(st.integers(1, 20))}")
        run_keys += "channel = collision\n"
    return ("[phy]\nband = 2400-2483.5\nrate = high\n[superframe]\n" + superframe
            + "[nodes]\n" + "\n".join(nodes) + "\n[run]\n" + run_keys)


def reference_contenders(sc):
    """Each phase kind's contention node ids in id order, by the paper's
    rule: an exclusive phase admits only the highest priority, a random or
    contention access phase every priority, and the beacon and shared
    phases none."""
    contention = sorted((node.node_id, node.priority) for node in sc.nodes if node.access == "contention")
    exclusive, open_to_all = {PhaseKind.EAP1, PhaseKind.EAP2}, {PhaseKind.RAP1, PhaseKind.RAP2, PhaseKind.CAP}
    return {
        kind: tuple(node_id for node_id, priority in contention
                    if kind in open_to_all or kind in exclusive and priority == HIGHEST_PRIORITY)
        for kind in PhaseKind
    }


class TestCompiledSchedule:
    @staticmethod
    def check_schedule(text):
        try:
            sc = parse_scenario(text)
        except ScenarioError as exc:
            assert "never polled" in str(exc) or "never transmits" in str(exc)
            assume(False)
        sim = _ScheduleLog(sc)
        periods = [alloc.periodicity for alloc in scheduled_allocations(sc)]
        indices = range(math.lcm(sc.superframe.beacon_period_multiplier, *periods))
        contenders = reference_contenders(sc)
        assert sim.plan.contenders == contenders
        # The plan holds, and the kernel replays as it stands, only the
        # starts of phases that some node contends in.
        want = [event for index in indices for event in reference_superframe(sim, index)
                if event[1] is not EventKind.PHASE_START or contenders[event[2][0]]]
        for schedule in (sim.plan.schedule, sim._schedule):
            sim._schedule, sim.pushed = schedule, []
            for index in indices:
                sim._schedule_superframe(index)
            assert sim.pushed == want
        # One rank holds the schedule, so at each instant a phase start is
        # pushed before every other plan entry there.
        first = {}
        for time_us, kind, _ in want:
            if kind != "superframe":
                first.setdefault(time_us, kind)
        assert all(first[time_us] is kind for time_us, kind, _ in want if kind is EventKind.PHASE_START)
        return want

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(scheduled_scenarios())
    def test_matches_the_generator_it_replaced(self, text):
        assert not any(kind is EventKind.PHASE_START for _, kind, _ in self.check_schedule(text))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(scheduled_scenarios(contention=True))
    def test_replays_the_contended_phase_starts(self, text):
        self.check_schedule(text)


class TestOnePlanPerSweep:
    """A sweep runs one compiled Plan under each seed, with only its
    scenario's seed replaced: no other field may depend on the seed."""

    SEEDS = (1, 2, 99, 10**6 + 7)

    def check(self, sc):
        plans = [compile_scenario(sc._replace(run=sc.run._replace(seed=seed))) for seed in self.SEEDS]
        assert [plan.scenario.run.seed for plan in plans] == list(self.SEEDS)
        first = plans[0]._replace(scenario=None)
        for plan in plans[1:]:
            assert plan._replace(scenario=None) == first

    @pytest.mark.parametrize("name", ["contention_pair", "mixed_access"])
    def test_bundled_scenarios(self, name):
        self.check(load_scenario(SCENARIO_DIR / f"{name}.scn"))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_scenarios())
    def test_small_scenarios(self, sc):
        self.check(sc)


def granted_deliveries(sc) -> dict[str, int]:
    """Each polled or scheduled node's grants in the plan's schedule, all of
    which the kernel replays, whose exchange's delivery, its frame exchange
    less the guard time after the grant, comes before the run's end: its
    deliveries when it is saturated."""
    sim = Simulation(sc)
    superframe_us, end = sim.plan.layout.duration_us, sim.end_time
    counts = dict.fromkeys((n.node_id for n in sc.nodes if n.access != TrafficKind.CONTENTION), 0)
    for index in range(-(-end // superframe_us)):
        for offset, period, residue, kind, data in sim.plan.schedule:
            if kind is EventKind.POLL_GRANT and index % period == residue:
                node_id = data[0]
                deliver = index * superframe_us + offset + sim.nodes[node_id].exchange_us - sc.timing.gtn_us
                counts[node_id] += deliver < end
    return counts


class TestAllocatedService:
    """A saturated polled or scheduled node is served once per grant that
    its exchange fits before the run's end, also when the guard time is 0
    and each grant's exchange ends on the next grant."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(scheduled_scenarios(), st.sampled_from([0, 1, 85]))
    def test_each_fitting_grant_delivers_one_frame(self, text, gtn_us):
        # Every node line names its access mode.
        text = re.sub(r"(?m)^(\w+ = )(?:traffic=poisson:20, )?(?=.*access=)", r"\1traffic=saturated, ", text)
        text = text.replace("[nodes]", f"[csma]\ngtn_us = {gtn_us}\n[nodes]").replace(
            "duration_ms = 20", "duration_ms = 200")
        try:
            sc = parse_scenario(text)
        except ScenarioError as exc:
            assert "never polled" in str(exc)
            assume(False)
        stats, _ = run(sc)
        assert {node_id: stats.nodes[node_id].delivered for node_id in stats.nodes} == granted_deliveries(sc)

    @pytest.mark.parametrize("name, delivered", [("zero_spacing", 45), ("grant_on_phase_end", 54)])
    def test_the_edge_scenarios_serve_every_grant(self, name, delivered):
        from test_golden import EDGE_DIGESTS

        sc = parse_scenario(re.sub(r"(?m)^p = priority=5, traffic=poisson:\d+", "p = priority=5, traffic=saturated",
                                   EDGE_DIGESTS[name][0]))
        stats, _ = run(sc)
        assert stats.nodes["p"].delivered == granted_deliveries(sc)["p"] == delivered


class TestUntracedRunsDoNoTraceWork:
    """A run without a trace never reaches the trace helpers: with each of
    them (every trace_* callable the kernel binds) replaced by a stub that
    raises, both bundled scenarios and a secured scenario with Poisson,
    polled and scheduled nodes still write their golden stats, and a
    traced run still writes the golden trace."""

    SCENARIOS = ["contention_pair", "mixed_access", "every_access_mode"]

    @staticmethod
    def _golden(name):
        if name in SCENARIO_DIGESTS:
            return (load_scenario(SCENARIO_DIR / f"{name}.scn"), *SCENARIO_DIGESTS[name])
        text, stats_digest, trace_digest = STRESS_DIGESTS[name]
        return parse_scenario(text), stats_digest, trace_digest

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("trace work in an untraced run")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_untraced_stats_and_traced_trace_are_golden(self, name, tmp_path, monkeypatch):
        sc, stats_digest, trace_digest = self._golden(name)
        stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
        renderers = [name for name in dir(kernel) if name.startswith("trace_") and callable(getattr(kernel, name))]
        assert {"trace_batch", "trace_event", "trace_storm", "trace_unlocks"} <= set(renderers)
        with monkeypatch.context() as m:
            for name in renderers:
                m.setattr(kernel, name, self._refuse)
            run_to_files(sc, stats)
        assert hashlib.sha256(stats.read_bytes()).hexdigest() == stats_digest
        run_to_files(sc, stats, trace)
        assert hashlib.sha256(stats.read_bytes()).hexdigest() == stats_digest
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest
