"""End-to-end kernel behavior: oracle agreement, determinism, conservation,
phase containment, all three access kinds, security on the wire, and the
lazy slot grid against a slot-by-slot reference."""

import heapq
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bansim
from bansim.efficiency import analytic_efficiency, reference_configs
from bansim.errors import ScenarioError, SimulationError
from bansim.mac.csma import PRIORITY_TABLE, draw_backoff, guard_check, on_idle_slot, trace_lines
from bansim.phy.ppdu import frame_airtime_us
from bansim.sim.kernel import BEACON_BODY_LEN, EventKind, Simulation, run, run_to_files, write_trace
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

    # A grant shorter than its node's exchange (the scenario check refuses
    # such grants) and a second pending grid tick.
    GRID_AND_GRANT = (
        "from bansim.errors import SimulationError\n"
        "from bansim.mac.superframe import PhaseKind\n"
        "from bansim.sim.kernel import Simulation\n"
        "from bansim.sim.scenario import parse_scenario\n"
        "sim = Simulation(parse_scenario({text!r}))\n"
        "sim.nodes['n0'].queue.append(0)\n"
        "def second_tick():\n"
        "    sim._push_tick(100, PhaseKind.RAP1, 9000, True, False)\n"
        "    sim._push_tick(200, PhaseKind.RAP1, 9000, True, False)\n"
        "for check in (lambda: sim._on_poll_grant('n0', 99, 99), second_tick):\n"
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
        ]


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


# ------------------------------------------- the grid against its reference

SLOT_TICK = "slot tick"  # the reference grid's heap event kind


class SlotBySlot(Simulation):
    """The slot grid as it ran before it became a lazy event stream: every
    grid instant is a heap event, every slot end is its own tick, and each
    tick checks the guard with guard_check. Nothing is batched, and its own
    lines go out as (node id, event, state) entries through trace_lines.
    Kept as the reference that the kernel's stats and trace must match byte
    for byte."""

    def _emit_entries(self, t, kind, entries):
        if self.collect_trace:
            self.trace += trace_lines(t, kind, entries)

    def _push_tick(self, time_us, kind, phase_end, slot_ends, unlock):
        self._push(time_us, SLOT_TICK, (kind, phase_end, slot_ends, unlock))

    def run(self):
        self._schedule_superframe(0)
        self._seed_traffic()
        handlers = {
            SLOT_TICK: self._on_slot_tick,
            EventKind.TX_END: self._on_tx_end,
            EventKind.ACK_DUE: self._on_ack_due,
            EventKind.PHASE_START: self._on_phase_start,
            EventKind.TRAFFIC_ARRIVAL: self._on_arrival,
            EventKind.POLL_GRANT: self._on_poll_grant,
            EventKind.BEACON_TX: lambda end: self._on_beacon(),
            EventKind.SUPERFRAME: self._schedule_superframe,
        }
        while self._heap:
            time_us, _, _, kind, data = heapq.heappop(self._heap)
            self.now = time_us
            handlers[kind](*data)
        for node in self.nodes.values():
            node.stats.queued = len(node.queue)
        self.stats.check_conservation()
        return self.stats

    def _on_slot_tick(self, kind, phase_end, slot_ends, unlock):
        if self.exchange is not None:
            return
        t = self.now
        participants = self._contenders[kind]

        if unlock:
            entries = []
            for node in participants:
                state = node.backoff
                if state.locked and node.lock_reason == "busy":
                    state.locked = False
                    node.lock_reason = None
                    entries.append((node.node_id, "unlock", state))
            self._emit_entries(t, kind, entries)

        transmitters = []
        if slot_ends:
            entries = []
            for node in participants:
                state = node.backoff
                if node.drawn and not state.locked and state.counter > 0:
                    due = on_idle_slot(state)
                    entries.append((node.node_id, "count", state))
                    if due:
                        transmitters.append(node)
            self._emit_entries(t, kind, entries)
        if transmitters:
            self._begin_exchange(transmitters, t, kind, phase_end)
            return

        entries = []
        for node in participants:
            state = node.backoff
            if node.queue and not node.drawn and not state.locked:
                draw_backoff(state, node.rng)
                node.drawn = True
                if node.service_start is None:
                    node.service_start = t
                entries.append((node.node_id, "draw", state))
        self._emit_entries(t, kind, entries)

        can_act = False
        entries = []
        for node in participants:
            state = node.backoff
            if not node.drawn:
                can_act = True
            elif not state.locked:
                if guard_check(state, t, phase_end, node.airtime_int, self.ack_int, self.timing):
                    can_act = True
                else:
                    node.lock_reason = "guard"
                    entries.append((node.node_id, "lock", state))
        self._emit_entries(t, kind, entries)

        if can_act and t + self.timing.csma_slot_us < phase_end:
            self._push(t + self.timing.csma_slot_us, SLOT_TICK, (kind, phase_end, True, False))


def stats_and_trace(sim):
    sim.run()
    out = io.StringIO()
    write_stats_csv(sim.stats, out)
    return out.getvalue(), sim.trace


# Phases that take contention traffic, and the shared ones.
_CONTENTION_KEYS = ("eap1_slots", "rap1_slots", "eap2_slots", "rap2_slots", "cap_slots")
_ALL_KEYS = ("eap1_slots", "rap1_slots", "type_a_slots", "eap2_slots", "rap2_slots", "type_b_slots", "cap_slots")


@st.composite
def small_scenarios(draw):
    """1-8 contention nodes (priorities 0-7, saturated, Poisson or scripted
    traffic, 1-200 B) and now and then a polled node, on a beacon,
    beacon-free or non-beacon layout with random phase lengths and MAC
    timing. Scripted arrivals fall on whole 100 us, and the slot and
    interframe space often divide that, so arrivals land on grid instants."""
    duration_ms = draw(st.integers(20, 250))
    layout = draw(st.sampled_from(["beacon", "no beacon", "nonbeacon"]))
    slots = draw(st.integers(16, 96))
    if layout == "nonbeacon":
        superframe = f"mode = nonbeacon\nslots = {slots}\nfill_phase_type = {draw(st.sampled_from('I II'.split()))}\n"
    else:
        beacon = 4 if layout == "beacon" else 0
        keys = draw(st.lists(st.sampled_from(_ALL_KEYS), min_size=1, max_size=5, unique=True))
        if not any(k in _CONTENTION_KEYS for k in keys):
            keys.append("rap1_slots")
        cuts = sorted(draw(st.lists(st.integers(0, slots), min_size=len(keys) - 1, max_size=len(keys) - 1)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [slots])]
        superframe = f"slots = {slots + beacon}\n"
        superframe += f"beacon_slots = {beacon}\n" if beacon else "beacon_prohibited = true\n"
        superframe += "".join(f"{k} = {n}\n" for k, n in zip(keys, sizes))
    nodes = []
    for i in range(draw(st.integers(1, 8))):
        traffic = draw(st.sampled_from(["saturated", "poisson:5", "poisson:60", "poisson:400", "scripted"]))
        if traffic == "scripted":
            times = draw(st.lists(st.integers(0, duration_ms * 10), min_size=1, max_size=8, unique=True))
            traffic = "scripted:" + ";".join(str(100 * t) for t in sorted(times))
        nodes.append(
            f"n{i} = priority={draw(st.integers(0, 7))}, traffic={traffic}, "
            f"payload={draw(st.integers(1, 200))}, access=contention"
        )
    if draw(st.booleans()):
        nodes.append(f"p = traffic=poisson:{draw(st.sampled_from([20, 200]))}, payload={draw(st.integers(1, 200))}, access=polled")
    channel = "ideal" if len(nodes) == 1 and draw(st.booleans()) else "collision"
    return parse_scenario(
        "[phy]\nband = 2400-2483.5\nrate = high\n"
        f"[superframe]\nslot_length_us = 500\n{superframe}"
        f"[csma]\npsifs_us = {draw(st.sampled_from([0, 50]) | st.integers(0, 80))}\n"
        f"slot_us = {draw(st.sampled_from([20, 25, 50, 100]) | st.integers(20, 200))}\n"
        f"gtn_us = {draw(st.sampled_from([0, 1, 85, 120]))}\n"
        "[nodes]\n" + "\n".join(nodes) + "\n"
        f"[run]\nseed = {draw(st.integers(1, 10**6))}\nduration_ms = {duration_ms}\n"
        f"channel = {channel}\n"
    )


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
            Simulation(replace(sc, poll_grant_us=need - 1))

    def test_second_contention_node_on_the_ideal_channel(self):
        sc = parse_scenario(self.POLLED)
        assert sc.run.channel == "ideal"
        with pytest.raises(ScenarioError, match="at most one contention node"):
            Simulation(replace(sc, nodes=sc.nodes + (replace(sc.nodes[0], node_id="n1"),)))
