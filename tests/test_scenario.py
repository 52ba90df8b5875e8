"""Scenario text format: parsing, line-numbered rejection, semantic checks."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bansim
from bansim.errors import AllocationConflict, ScenarioError
from bansim.mac.superframe import (
    OperationalMode,
    PhaseKind,
    ScheduledAllocation,
    SuperframeConfig,
    build_layout,
    place_scheduled,
)
from bansim.phy.rates import Band, nb_config
from bansim.security import SecurityLevel
from bansim.sim.scenario import NodeSpec, Scenario, compile_scenario, load_scenario, parse_scenario

BASIC = """\
[phy]
kind = nb
band = 402-405
rate = low

[superframe]
slot_length_us = 500
slots = 256
beacon_slots = 8
rap1_slots = 120
cap_slots = 128

[nodes]
n0 = priority=4, traffic=saturated, payload=120, access=contention

[run]
seed = 9
duration_ms = 250
channel = ideal
"""


def scn(text: str):
    return parse_scenario(textwrap.dedent(text))


class TestParsing:
    def test_basic_round_trip(self):
        sc = scn(BASIC)
        assert sc.phy.band_id.value == "402-405"
        assert sc.superframe.slots_per_superframe == 256
        assert sc.superframe.phase_slots[PhaseKind.RAP1] == 120
        assert sc.run.seed == 9
        assert sc.run.duration_us == 250_000
        node = sc.nodes[0]
        assert (node.node_id, node.priority, node.payload_bytes) == ("n0", 4, 120)
        assert node.traffic == ("saturated",)

    def test_comments_and_blank_lines_ignored(self):
        sc = scn(
            """
            # leading comment
            [phy]
            kind = nb   # trailing comment

            [superframe]
            beacon_slots = 4
            rap1_slots = 252
            [run]
            duration_ms = 1
            """
        )
        assert sc.phy.kind.value == "nb"

    def test_defaults_fill_in(self):
        sc = scn("[superframe]\nmode = unbounded\n")
        assert sc.phy.band_id.value == "402-405"  # nb high on the default band
        assert sc.superframe.mode == OperationalMode.NONBEACON_UNBOUNDED
        assert sc.timing.psifs_us == 50
        assert sc.timing.csma_slot_us == 125
        assert sc.timing.gtn_us == 85
        assert sc.run.seed == 1 and sc.run.channel == "ideal"
        assert sc.nodes == ()

    def test_traffic_models(self):
        sc = scn(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 196
            type_a_slots = 56
            [nodes]
            a = traffic=saturated
            b = traffic=poisson:40, access=polled
            c = traffic=scripted:0;1000;250000, access=polled
            [run]
            channel = ideal
            """
        )
        by_id = {n.node_id: n for n in sc.nodes}
        assert by_id["a"].traffic == ("saturated",)
        assert by_id["b"].traffic == ("poisson", 40.0)
        assert by_id["c"].traffic == ("scripted", (0, 1000, 250000))

    def test_uwb_and_hbc_selection(self):
        uwb = scn("[phy]\nkind = uwb\nchannel = 7\n[superframe]\nmode = unbounded\n")
        assert uwb.phy.kind.value == "uwb"
        hbc = scn("[phy]\nkind = hbc\ncenter = 27\n[superframe]\nmode = unbounded\n")
        assert hbc.phy.kind.value == "hbc"
        assert hbc.phy.center_freq == 27.0

    def test_rate_override(self):
        sc = scn(
            "[phy]\nkind = nb\nrate_override_kbps = 971\n[superframe]\nmode = unbounded\n"
        )
        assert sc.phy.rate_override_kbps == 971.0

    def test_csma_overrides(self):
        sc = scn(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252
            [csma]
            psifs_us = 75
            slot_us = 145
            gtn_us = 100
            """
        )
        assert (sc.timing.psifs_us, sc.timing.csma_slot_us, sc.timing.gtn_us) == (75, 145, 100)

    def test_security_entries(self):
        sc = scn(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252
            [nodes]
            n0 = payload=100
            n1 = payload=100
            [security]
            n0 = level=2, mk=preshared, group=ward
            n1 = level=1, mk=unauthenticated, group=ward
            [run]
            channel = collision
            """
        )
        assert sc.security["n0"].level == SecurityLevel.ENCRYPTED
        assert sc.security["n0"].group == "ward"
        assert sc.security["n1"].mk == "unauthenticated"


def error_line(text: str) -> tuple[int, str]:
    with pytest.raises(ScenarioError) as info:
        scn(text)
    return info.value.line, str(info.value)


class TestRejection:
    def test_unknown_section_carries_its_line(self):
        line, msg = error_line("[phy]\nkind = nb\n\n[warp_drive]\n")
        assert line == 4 and "warp_drive" in msg

    def test_unknown_key_carries_its_line(self):
        line, msg = error_line("[phy]\nkind = nb\nantenna = yagi\n")
        assert line == 3 and "antenna" in msg

    def test_unknown_node_sub_key(self):
        line, msg = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = colour=red\n"
        )
        assert line == 5 and "colour" in msg

    def test_duplicate_key(self):
        line, _ = error_line("[run]\nseed = 1\nseed = 2\n[superframe]\nmode = unbounded\n")
        assert line == 3

    def test_duplicate_node(self):
        line, _ = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = payload=10\nn0 = payload=20\n"
        )
        assert line == 6

    def test_duplicate_sub_key(self):
        line, _ = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = payload=10, payload=20\n"
        )
        assert line == 5

    def test_entry_before_any_section(self):
        line, _ = error_line("kind = nb\n")
        assert line == 1

    def test_malformed_line(self):
        line, msg = error_line("[phy]\njust some words\n")
        assert line == 2 and "key = value" in msg

    def test_bad_numbers_name_the_key(self):
        line, msg = error_line("[run]\nseed = banana\n[superframe]\nmode = unbounded\n")
        assert line == 2 and "seed" in msg

    def test_bad_traffic(self):
        line, msg = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = traffic=fountain\n"
        )
        assert line == 5 and "fountain" in msg

    def test_unsorted_scripted_times(self):
        line, _ = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = traffic=scripted:5000;100\n"
        )
        assert line == 5

    def test_bad_channel_model(self):
        line, _ = error_line("[run]\nchannel = rayleigh\n[superframe]\nmode = unbounded\n")
        assert line == 2

    def test_bad_security_level(self):
        line, _ = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = payload=10\n[security]\nn0 = level=3\n"
        )
        assert line == 7


class TestSemantics:
    def test_phase_sum_mismatch_points_at_superframe(self):
        line, msg = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 100\ncap_slots = 100\n"
        )
        assert line == 1 and "256" in msg

    def test_priority_range(self):
        line, _ = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = priority=9\n"
        )
        assert line == 5  # the node's own line, not the [nodes] header

    def test_ideal_channel_contention_limit(self):
        _, msg = error_line(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252
            [nodes]
            a = access=contention
            b = access=contention
            [run]
            channel = ideal
            """
        )
        assert "at most one contention node" in msg

    def test_collision_channel_lifts_the_limit(self):
        sc = scn(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252
            [nodes]
            a = access=contention
            b = access=contention
            [run]
            channel = collision
            """
        )
        assert len(sc.nodes) == 2

    def test_payload_plus_security_overhead_must_fit(self):
        _, msg = error_line(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252
            [nodes]
            n0 = payload=250
            [security]
            n0 = level=2
            """
        )
        assert "security bytes" in msg
        # the same payload is fine without the envelope
        scn("[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = payload=250\n")

    def test_scheduled_needs_geometry(self):
        _, msg = error_line(
            "[superframe]\ntype_a_slots = 256\nmode = nonbeacon\n[nodes]\nn0 = access=scheduled\n"
        )
        assert "slot_start" in msg

    def test_scheduled_must_stay_inside_the_superframe(self):
        _, msg = error_line(
            """
            [superframe]
            mode = nonbeacon
            type_a_slots = 256
            [nodes]
            n0 = access=scheduled, slot_start=250, slot_len=10
            """
        )
        assert "past the superframe" in msg

    def test_scheduled_refused_in_contention_phases(self):
        _, msg = error_line(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 124
            type_a_slots = 128
            [nodes]
            n0 = access=scheduled, slot_start=10, slot_len=10
            """
        )
        assert "no scheduled traffic" in msg

    def test_scheduled_conflict_found_before_running(self):
        _, msg = error_line(
            """
            [superframe]
            mode = nonbeacon
            type_a_slots = 256
            [nodes]
            a = access=scheduled, slot_start=10, slot_len=10
            b = access=scheduled, slot_start=15, slot_len=10
            """
        )
        assert "a vs b" in msg

    def test_conflict_names_the_later_nodes_line(self):
        line, _ = error_line(
            "[superframe]\nmode = nonbeacon\ntype_a_slots = 256\n[nodes]\n"
            "a = access=scheduled, slot_start=10, slot_len=10\n"
            "c = access=scheduled, slot_start=40, slot_len=10\n"
            "b = access=scheduled, slot_start=15, slot_len=10\n"
        )
        assert line == 7

    @pytest.mark.parametrize(
        "entry",
        [
            "payload=300",
            "access=scheduled, slot_start=250, slot_len=10",
            "access=scheduled, slot_start=2, slot_len=10",
            "access=scheduled",
        ],
    )
    def test_node_checks_name_the_nodes_line(self, entry):
        line, _ = error_line(
            "[superframe]\nbeacon_slots = 4\ntype_a_slots = 252\n[nodes]\n"
            f"ok = access=polled\nn0 = {entry}\n"
        )
        assert line == 6

    def test_staggered_periodic_allocations_coexist(self):
        sc = scn(
            """
            [superframe]
            mode = nonbeacon
            type_a_slots = 256
            [nodes]
            a = access=scheduled, slot_start=10, slot_len=10, period=2, offset=0
            b = access=scheduled, slot_start=10, slot_len=10, period=2, offset=1
            """
        )
        assert len(sc.nodes) == 2

    def test_security_for_unknown_node(self):
        _, msg = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[security]\nghost = level=1\n"
        )
        assert "unknown node" in msg

    def test_group_membership_needs_a_secured_level(self):
        _, msg = error_line(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 252
            [nodes]
            n0 = payload=10
            [security]
            n0 = level=0, group=ward
            """
        )
        assert "group membership" in msg


class TestEntryLines:
    def test_security_checks_name_the_entrys_line(self):
        head = "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = payload=10\n[security]\n"
        line, msg = error_line(head + "n0 = level=1\n\nghost = level=1\n")
        assert line == 9 and "unknown node 'ghost'" in msg
        line, msg = error_line(head + "\nn0 = level=0, group=ward\n")
        assert line == 8 and "group membership" in msg

    @pytest.mark.parametrize("entry, low", [("slot_us = 0", 1), ("psifs_us = -1", 0), ("gtn_us = -5", 0)])
    def test_timing_below_its_floor_names_its_line(self, entry, low):
        line, msg = error_line(f"[csma]\n# timing\n{entry}\n")
        assert line == 3 and f"must be at least {low}" in msg


class TestExchangeFit:
    """A grant must hold one frame exchange (data, pSIFS, ack, guard time),
    timed as the kernel times it; otherwise its node could never send."""

    SCHEDULED = "[superframe]\nmode = nonbeacon\nslots = 256\n[nodes]\nn0 = access=scheduled, slot_start=10, slot_len=5{}\n"
    POLLED = (
        "[superframe]\nbeacon_slots = 4\nrap1_slots = 120\ntype_b_slots = 132\n{}"
        "[nodes]\np = traffic=poisson:20, payload=60, access=polled\n"
    )

    def test_allocation_shorter_than_an_exchange_names_the_nodes_line(self):
        line, msg = error_line(self.SCHEDULED.format(""))
        assert line == 5
        assert "n0: 5-slot allocation (2500 us) is shorter than one" in msg
        scn(self.SCHEDULED.format(", payload=10"))  # a short frame fits the same slots

    def test_poll_grant_shorter_than_an_exchange_names_its_line(self):
        line, msg = error_line(self.POLLED.format("poll_grant_us = 2000\n"))
        assert line == 5 and "frame exchange of polled node p" in msg

    def test_poll_grant_bound_is_the_kernels_exchange(self):
        from bansim.sim.kernel import Simulation

        need = Simulation(scn(self.POLLED.format(""))).nodes["p"].exchange_us
        scn(self.POLLED.format(f"poll_grant_us = {need}\n"))
        line, msg = error_line(self.POLLED.format(f"poll_grant_us = {need - 1}\n"))
        assert line == 5 and f"the {need} us frame exchange" in msg


class TestLoadScenario:
    def test_reads_from_a_file(self, tmp_path):
        path = tmp_path / "one.scn"
        path.write_text(BASIC)
        sc = load_scenario(path)
        assert sc.nodes[0].node_id == "n0"


class TestNumericRanges:
    NODE = "[superframe]\nmode = nonbeacon\ntype_a_slots = 256\n[nodes]\nn0 = {}\n"

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_nonfinite_poisson_rate_names_its_line(self, rate):
        line, msg = error_line(self.NODE.format(f"traffic=poisson:{rate}"))
        assert line == 5 and "finite" in msg

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_rate_override_names_its_line(self, value):
        line, msg = error_line(f"[phy]\nrate_override_kbps = {value}\n")
        assert line == 2 and "rate_override_kbps" in msg

    @pytest.mark.parametrize(
        "entry, key",
        [
            ("access=scheduled, slot_start=10, slot_len=0", "slot_len"),
            ("access=scheduled, slot_start=10, slot_len=-2", "slot_len"),
            ("access=scheduled, slot_start=10, slot_len=5, period=0", "period"),
            ("access=scheduled, slot_start=-3, slot_len=5", "slot_start"),
        ],
    )
    def test_allocation_geometry_rejected_at_its_line(self, entry, key):
        line, msg = error_line(self.NODE.format(entry))
        assert line == 5 and key in msg


class TestAllocationCoverage:
    MIXED = Path(__file__).resolve().parent.parent / "scenarios" / "mixed_access.scn"

    def test_allocation_crossing_contention_phases_is_refused(self):
        # Slots 140..199 start in the type I phase and end in the type II
        # phase, but cross EAP2 and RAP2 on the way.
        text = self.MIXED.read_text()
        assert "slot_start=70, slot_len=20" in text
        text = text.replace("slot_start=70, slot_len=20", "slot_start=140, slot_len=60")
        with pytest.raises(ScenarioError) as info:
            parse_scenario(text)
        assert "infusion: slot 144 falls in EAP2, which takes no scheduled traffic" in str(info.value)

    def test_allocation_across_adjacent_shared_phases_is_accepted(self):
        sc = scn(
            """
            [superframe]
            beacon_slots = 4
            rap1_slots = 60
            type_a_slots = 96
            type_b_slots = 96
            [nodes]
            n0 = access=scheduled, slot_start=150, slot_len=20
            """
        )
        assert sc.nodes[0].slot_start == 150


@st.composite
def allocation_sets(draw):
    """Two to four allocations of distinct nodes within 32 slots."""
    allocs = []
    for i in range(draw(st.integers(2, 4))):
        start = draw(st.integers(0, 31))
        allocs.append(ScheduledAllocation(
            f"n{i}",
            start,
            draw(st.integers(1, 32 - start)),
            draw(st.integers(1, 6)),
            draw(st.integers(-20, 20) | st.integers(-10**12, 10**12)),
        ))
    return allocs


class TestPairwiseConflicts:
    """Two nodes' allocations conflict exactly when their slots overlap and
    their offsets agree modulo the gcd of their periods, with no walk over
    superframe indices."""

    COPRIME = (
        "[superframe]\nmode = nonbeacon\ntype_a_slots = 256\n[nodes]\n"
        "a = access=scheduled, slot_start=10, slot_len=10, period=10007\n"
        "b = access=scheduled, slot_start={}, slot_len=10, period=10009, offset=3\n"
    )

    def test_large_coprime_periods_compile_at_once(self):
        # Their lcm is about 10**8 superframes; a check that walks it hangs.
        script = (
            "import sys, time\n"
            "from bansim.errors import ScenarioError\n"
            "from bansim.sim.scenario import parse_scenario\n"
            "accepted, refused = sys.stdin.read().split('---')\n"
            "t = time.perf_counter()\n"
            "parse_scenario(accepted)\n"
            "try:\n"
            "    parse_scenario(refused)\n"
            "except ScenarioError as exc:\n"
            "    print(exc)\n"
            "print(time.perf_counter() - t)\n"
        )
        src = str(Path(bansim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=self.COPRIME.format(30) + "---" + self.COPRIME.format(15),
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        refusal, seconds = proc.stdout.splitlines()
        assert refusal.startswith("line 6:") and "a vs b" in refusal
        assert float(seconds) < 0.5

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(allocation_sets())
    def test_same_verdict_as_placing_the_whole_lcm_horizon(self, allocs):
        config = SuperframeConfig(
            slot_length_us=10_000, slots_per_superframe=32, mode=OperationalMode.NONBEACON_BOUNDED
        )
        layout = build_layout(config)
        try:
            for index in range(math.lcm(*(a.periodicity for a in allocs))):
                place_scheduled(allocs, layout, index)
            legal = True
        except AllocationConflict:
            legal = False
        nodes = tuple(
            NodeSpec(a.node_id, payload_bytes=10, access="scheduled", slot_start=a.start_slot,
                     slot_len=a.length_slots, period=a.periodicity, offset=a.offset)
            for a in allocs
        )
        sc = Scenario(phy=nb_config(Band.NB_402_405, "high"), superframe=config, nodes=nodes)
        try:
            plan = compile_scenario(sc)
        except ScenarioError as exc:
            assert not legal and " vs " in str(exc)
        else:
            assert legal and plan.allocations == tuple(sorted(allocs, key=lambda a: a.node_id))
