"""The kernel's heap holds only instants that something can observe: a
clean frame exchange is one event, its delivery, a collided one is one
event per transmitter, its timeout, and a phase that no node contends in
pushes no start. Counted push by push, by event kind, on the bundled
mixed_access scenario and on the benchmark's ward."""

import heapq
from collections import Counter
from pathlib import Path

import pytest

import bansim.sim.kernel as kernel
from bansim.mac.superframe import TrafficKind, admissible
from bansim.security import HUB_ID
from bansim.sim.scenario import clock_us, compile_scenario, load_scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# The sim_ward benchmark's scenario at workload seed 1, and the first seed
# its two-seed sweep runs.
WARD = """\
[phy]
kind = nb
band = 2400-2483.5
rate = high

[superframe]
slot_length_us = 500
slots = 256
beacon_slots = 4
eap1_slots = 10
rap1_slots = 50
type_a_slots = 80
eap2_slots = 10
rap2_slots = 40
type_b_slots = 50
cap_slots = 12

[nodes]
s00 = priority=5, traffic=poisson:1, payload=33
s01 = priority=2, traffic=poisson:2, payload=40
s02 = priority=4, traffic=poisson:6, payload=93
s03 = priority=1, traffic=poisson:9, payload=113
s04 = priority=3, traffic=poisson:3, payload=60
s05 = priority=6, traffic=poisson:6, payload=80
s06 = priority=5, traffic=poisson:3, payload=46
s07 = priority=1, traffic=poisson:1, payload=20
s08 = priority=6, traffic=poisson:4, payload=66
s09 = priority=1, traffic=poisson:7, payload=100
s10 = priority=3, traffic=poisson:5, payload=73
s11 = priority=2, traffic=poisson:10, payload=26
s12 = priority=4, traffic=poisson:8, payload=106
s13 = priority=4, traffic=poisson:10, payload=120
s14 = priority=3, traffic=poisson:7, payload=86
s15 = priority=2, traffic=poisson:4, payload=53
pump = priority=5, traffic=poisson:30, payload=60, access=polled
infusion = priority=5, traffic=poisson:8, payload=40, access=scheduled, slot_start=70, slot_len=20

[security]
infusion = level=2, group=ward, mk=preshared
pump = level=2, group=ward
s07 = level=1
s15 = level=2, group=ward

[run]
seed = 1
duration_ms = 60000
channel = collision
"""
WARD_SEED = 145361794


def _scenario(name):
    if name == "ward":
        sc = parse_scenario(WARD)
        return sc._replace(run=sc.run._replace(seed=WARD_SEED))
    return load_scenario(SCENARIO_DIR / f"{name}.scn")


def heap_census(sc, monkeypatch):
    """The run's stats and trace, the events it asked to push and those its
    heap took (an event at or past the run's end is dropped), each counted
    by the name of its handler."""
    asked, counts = Counter(), Counter()
    push, push_event = heapq.heappush, kernel.Simulation._push

    def counted(heap, entry):
        counts[entry[3].__name__] += 1
        push(heap, entry)

    def asked_for(self, time_us, handler, args=(), rank=2):
        asked[handler.__name__] += 1
        push_event(self, time_us, handler, args, rank)

    monkeypatch.setattr(kernel.heapq, "heappush", counted)
    monkeypatch.setattr(kernel.Simulation, "_push", asked_for)
    stats, lines = kernel.run(sc, collect_trace=True)
    return stats, lines, asked, counts


def collided_data_ends(sc, lines) -> list[int]:
    """The data end of each node's transmission that the trace shows begun
    at the instant of another: a collided one."""
    airtime = compile_scenario(sc).airtime_us
    starts = [(int(t), node) for t, node, event, *_ in (line.split(",") for line in lines)
              if event == "tx_start" and node != HUB_ID]
    shared = Counter(t for t, _ in starts)
    return [t + clock_us(airtime[node]) for t, node in starts if shared[t] > 1]


def contended_phase_starts(sc) -> int:
    """Starts before the run's end of phases that a contention node may
    contend in, over every superframe the run reaches."""
    layout = compile_scenario(sc).layout
    contended = [
        span.start_slot * layout.slot_length_us
        for span in layout.phases
        if span.length_slots and any(
            node.access == TrafficKind.CONTENTION and admissible(span.kind, node.priority, TrafficKind.CONTENTION)
            for node in sc.nodes
        )
    ]
    end = sc.run.duration_us
    return sum(base + start < end for base in range(0, end, layout.duration_us) for start in contended)


# The most heap pushes each run may make. While each hop of an exchange
# and each phase start was an event, they made 816 and 60,512; while each
# collided data end was one, 47,424 on the ward.
MOST_PUSHES = {"mixed_access": 500, "ward": 34_000}


@pytest.mark.parametrize("name", list(MOST_PUSHES))
def test_the_heap_holds_only_observable_instants(name, monkeypatch):
    sc = _scenario(name)
    stats, lines, asked, counts = heap_census(sc, monkeypatch)
    contention = sum(node.access == TrafficKind.CONTENTION for node in sc.nodes)
    assert stats.delivered > 0 and stats.failed > 0  # both kinds of exchange occur
    # No data end is an event. A collided exchange pushes one timeout per
    # transmission whose data end falls inside the run; the heap takes
    # those inside it too, one per failed attempt but for those still in
    # flight at the run's end.
    assert set(asked) | set(counts) <= {
        "_on_phase_start", "_on_timeout", "_on_delivery", "_on_poll_grant", "_on_beacon", "_on_arrival",
        "_on_superframe",
    }
    end, wait = sc.run.duration_us, sc.timing.psifs_us + clock_us(compile_scenario(sc).ack_us) + sc.timing.gtn_us
    data_ends = [t for t in collided_data_ends(sc, lines) if t < end]
    assert asked["_on_timeout"] == len(data_ends) > 0
    assert counts["_on_timeout"] == sum(t + wait < end for t in data_ends)
    assert 0 <= counts["_on_timeout"] - stats.failed <= contention
    # A clean exchange pushes only its delivery.
    assert counts["_on_delivery"] - stats.delivered in (0, 1)
    assert counts["_on_phase_start"] == contended_phase_starts(sc)
    assert counts["_on_phase_start"] > 0
    assert sum(counts.values()) <= MOST_PUSHES[name]
