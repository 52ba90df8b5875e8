"""Scenario text format: parsing, line-numbered rejection, semantic checks."""

import copy
import math
import os
import re
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
from bansim.sim.kernel import Simulation
from bansim.sim.scenario import (
    _KEYS,
    _PHASE_KEYS,
    MAX_EXPECTED_ARRIVALS,
    EventKind,
    NodeSpec,
    Scenario,
    compile_scenario,
    load_scenario,
    parse_scenario,
)

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

    @pytest.mark.parametrize("mode", ["beacon", "nonbeacon", "unbounded"])
    def test_bad_fill_phase_type_fails_at_its_line_in_every_mode(self, mode):
        line, msg = error_line(f"[superframe]\nmode = {mode}\nfill_phase_type = banana\n")
        assert line == 3 and "fill_phase_type must be one of i | ii" in msg

    def test_fill_phase_type_matches_in_any_case(self):
        for value, kind in (("i", PhaseKind.TYPE_A), ("Ii", PhaseKind.TYPE_B)):
            sc = scn(f"[superframe]\nmode = nonbeacon\nslots = 16\nfill_phase_type = {value}\n")
            assert [span.kind for span in build_layout(sc.superframe).phases if span.length_slots] == [kind]

    def test_bad_security_level(self):
        line, _ = error_line(
            "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = payload=10\n[security]\nn0 = level=3\n"
        )
        assert line == 7

    NODES = "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\n"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (NODES + "n0 = priority\n", 5, "expected key=value, got 'priority'"),
            # The empty part is skipped: the fault named is the next part's.
            (NODES + "n0 = priority=4,, colour=red\n", 5, "unknown [nodes] key 'colour'"),
            ("[phy]\nkind = nb\n[run\n", 3, "malformed section header '[run'"),
            (NODES + "n0 = payload=10\n[security]\nn0 = level=1\nn0 = level=2\n", 8, "duplicate security entry 'n0'"),
            (NODES + "n0 = traffic=scripted:\n", 5, "scripted traffic needs at least one time"),
            ("[phy]\nkind = nb\n# a rate too small to time\nrate_override_kbps = 1e-320\n", 4, "leaves no finite airtime"),
            # Sub-keys that their entry never reads, once accepted and ignored.
            (NODES + "n0 = priority=3, slot_start=9, slot_len=2, period=5, offset=3\n", 5,
             "slot_start does not apply to access contention"),
            (NODES + "n0 = priority=3, period=5\n", 5, "period does not apply to access contention"),
            (NODES + "n0 = access=polled, payload=10, offset=1\n", 5, "offset does not apply to access polled"),
            (NODES + "n0 = payload=10\nn1 = payload=10, slot_len=2\n", 6, "slot_len does not apply to access contention"),
            (NODES + "n0 = payload=10\n[security]\nn0 = level=0, mk=unauthenticated\n", 7, "mk does not apply to level 0"),
            ("[superframe]\nmode = nonbeacon\ntype_a_slots = 256\ncap_slots = 7\n", 3,
             "type_a_slots does not apply to mode nonbeacon"),
            ("[superframe]\nbeacon_slots = 4\nmode = unbounded\n", 2, "beacon_slots does not apply to mode unbounded"),
            ("[superframe]\nbeacon_slots = 4\nrap1_slots = 252\nfill_phase_type = II\n", 4,
             "fill_phase_type does not apply to mode beacon"),
            ("[superframe]\nmode = unbounded\nfill_phase_type = I\n", 3,
             "fill_phase_type does not apply to mode unbounded"),
            ("[superframe]\nmode = nonbeacon\nbeacon_prohibited = true\n", 3,
             "beacon_prohibited does not apply to mode nonbeacon"),
            ("[superframe]\nbeacon_prohibited = false\nmode = unbounded\n", 2,
             "beacon_prohibited does not apply to mode unbounded"),
        ],
        ids=["no-equals", "empty-part", "open-header", "duplicate-security", "no-scripted-time", "tiny-rate",
             "contention-slot-keys", "contention-period", "polled-offset", "second-node-slot-len", "level-0-mk",
             "nonbeacon-phase-slots", "unbounded-beacon-slots", "beacon-fill-type", "unbounded-fill-type",
             "nonbeacon-beacon-prohibited", "unbounded-beacon-prohibited"],
    )
    def test_each_refusal_names_its_line(self, text, line, message):
        found, msg = error_line(text)
        assert found == line and msg.startswith(f"line {line}: ") and message in msg

    def test_an_empty_sub_assignment_is_skipped(self):
        sc = scn(self.NODES + "n0 = priority=4,, payload=10,\n")
        assert (sc.nodes[0].priority, sc.nodes[0].payload_bytes) == (4, 10)


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
            "[superframe]\nmode = nonbeacon\n[nodes]\nn0 = access=scheduled\n"
        )
        assert "slot_start" in msg

    def test_scheduled_must_stay_inside_the_superframe(self):
        _, msg = error_line(
            """
            [superframe]
            mode = nonbeacon
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
            [nodes]
            a = access=scheduled, slot_start=10, slot_len=10
            b = access=scheduled, slot_start=15, slot_len=10
            """
        )
        assert "a vs b" in msg

    def test_conflict_names_the_later_nodes_line(self):
        line, _ = error_line(
            "[superframe]\nmode = nonbeacon\n[nodes]\n"
            "a = access=scheduled, slot_start=10, slot_len=10\n"
            "c = access=scheduled, slot_start=40, slot_len=10\n"
            "b = access=scheduled, slot_start=15, slot_len=10\n"
        )
        assert line == 6

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

    @pytest.mark.parametrize(
        "entry, low",
        [
            ("slot_length_us = 0", 1),
            ("slots = 0", 1),
            ("beacon_period_multiplier = 0", 1),
            ("poll_grant_us = -2", 1),
            *[(f"{key} = -4", 0) for key in _PHASE_KEYS],
        ],
    )
    def test_layout_key_below_its_floor_names_its_line(self, entry, low):
        line, msg = error_line(f"[superframe]\nmode = beacon\n# layout\n{entry}\n")
        assert line == 4 and f"must be at least {low}" in msg


class TestProgrammaticAllocations:
    """A NodeSpec built in code skips the file's key floors, so an
    allocation field past them must still fail as a ScenarioError at the
    node's line."""

    SCHEDULED = (
        "[superframe]\nmode = nonbeacon\n[nodes]\n"
        "n0 = access=scheduled, slot_start=10, slot_len=20, payload=10\n"
    )

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"slot_len": 0}, "allocation must cover at least one slot"),
            ({"period": 0}, "periodicity must be >= 1"),
            ({"slot_start": -100}, "allocation starts at slot -100, before slot 0"),
        ],
        ids=["slot_len", "period", "slot_start"],
    )
    def test_field_past_its_floor_fails_at_the_nodes_line(self, field, message):
        sc = parse_scenario(self.SCHEDULED)
        bad = sc._replace(nodes=(sc.nodes[0]._replace(**field),))
        with pytest.raises(ScenarioError) as info:
            compile_scenario(bad, node_lines={"n0": 4})
        assert info.value.line == 4
        assert str(info.value) == f"line 4: n0: {message}"


class TestNodeIds:
    def test_ids_that_break_a_trace_line_fail_at_their_entry(self):
        # A comma splits the trace field, an empty id leaves it empty, and
        # "hub" is the id of the hub's beacon lines.
        head = "[superframe]\nmode = nonbeacon\n[nodes]\nok-1.b_2 = access=polled\n"
        for node_id in ("a,b", "", "hub"):
            line, msg = error_line(head + f"{node_id} = access=polled\n")
            assert line == 5 and f"node id {node_id!r}" in msg


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


class TestPollReach:
    """A polled node whose poll grant no poll phase can hold would never be
    polled; the scenario is refused at the grant's line, or the node's."""

    def test_a_grant_longer_than_the_superframe_names_the_nodes_line(self):
        line, msg = error_line("[phy]\nrate_override_kbps = 0.001\n[superframe]\nmode = nonbeacon\n[nodes]\nn0 = access=polled\n")
        assert line == 6 and "n0: never polled" in msg

    def test_a_short_nonbeacon_superframe_names_the_nodes_line(self):
        line, msg = error_line(
            "[phy]\nrate = low\n[superframe]\nmode = nonbeacon\nslots = 4\n"
            "[nodes]\nn0 = access=contention\nn1 = access=polled, payload=200\n"
        )
        assert line == 8 and "n1: never polled" in msg
        scn("[phy]\nrate = low\n[superframe]\nmode = nonbeacon\nslots = 64\n[nodes]\nn1 = access=polled, payload=200\n")

    def test_a_set_grant_names_its_own_line(self):
        line, msg = error_line(
            "[superframe]\nmode = nonbeacon\nslots = 16\npoll_grant_us = 8001\n[nodes]\nn0 = access=polled\n"
        )
        assert line == 4 and "no poll phase holds a 8001 us grant" in msg
        scn("[superframe]\nmode = nonbeacon\nslots = 16\npoll_grant_us = 8000\n[nodes]\nn0 = access=polled\n")

    def test_a_layout_without_a_shared_phase_is_refused(self):
        line, msg = error_line("[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\np = access=polled\n")
        assert line == 5 and "never polled" in msg

    # Three polled nodes on 3000 us grants. Every poll phase of every
    # superframe restarts the round robin at the first id.
    STARVED = (
        "[phy]\nband = 2400-2483.5\nrate = high\n[superframe]\n{}poll_grant_us = 3000\n[nodes]\n"
        + "".join(f"{node_id} = traffic=poisson:20, payload=50, access=polled\n" for node_id in "abc")
    )

    def test_a_node_the_round_robin_never_reaches_names_its_line(self):
        line, msg = error_line(self.STARVED.format("mode = nonbeacon\nslots = 16\n"))
        assert line == 11 and "c: never polled, as the poll phases hold 2 grants per superframe" in msg

    def test_two_poll_phases_that_each_reach_the_same_nodes(self):
        layout = "slots = 256\nbeacon_slots = 4\nrap1_slots = {}\ntype_a_slots = {}\nrap2_slots = 112\ntype_b_slots = 12\n"
        line, msg = error_line(self.STARVED.format(layout.format(116, 12)))
        assert line == 15 and "c: never polled, as the poll phases hold 4 grants per superframe" in msg
        scn(self.STARVED.format(layout.format(110, 18)))  # three grants in the type I phase reach c


class TestContentionReach:
    """A contention node that no phase admitting it gives pSIFS, one CSMA
    slot and its frame exchange would never transmit; the scenario is
    refused at the node's line."""

    def test_a_nonbeacon_layout_takes_no_contention(self):
        line, msg = error_line("[superframe]\nmode = nonbeacon\n[nodes]\nn0 = traffic=poisson:20, payload=50\n")
        assert line == 4 and "n0: never transmits" in msg

    def test_an_exclusive_phase_takes_only_the_highest_priority(self):
        text = (
            "[superframe]\nbeacon_slots = 4\neap1_slots = 60\ntype_a_slots = 192\n"
            "[nodes]\nn0 = priority={}, traffic=poisson:20, payload=50\n"
        )
        line, msg = error_line(text.format(4))
        assert line == 6 and "n0: never transmits, as no phase that admits its priority 4 contention" in msg
        scn(text.format(7))

    # One 8-slot (4000 us) random access phase and a CSMA slot of {} us.
    FIT = (
        "[superframe]\nslots = 16\nbeacon_slots = 4\nrap1_slots = 8\ntype_a_slots = 4\n"
        "[csma]\npsifs_us = 50\nslot_us = {}\ngtn_us = 85\n"
        "[nodes]\nn0 = traffic=saturated, payload=20\n"
        "[run]\nduration_ms = 200\n"
    )

    def test_the_phase_must_hold_psifs_a_slot_and_the_exchange(self):
        need = compile_scenario(scn(self.FIT.format(1))).exchange_us["n0"]
        widest = 4000 - 50 - need
        line, msg = error_line(self.FIT.format(widest + 1))
        assert line == 11 and f"lasts the {4000 + 1} us of pSIFS, one CSMA slot and its frame exchange" in msg
        # At the bound the kernel's guard lets the node through.
        stats = Simulation(scn(self.FIT.format(widest))).run()
        assert stats.nodes["n0"].delivered > 0


class TestLoadScenario:
    def test_reads_from_a_file(self, tmp_path):
        path = tmp_path / "one.scn"
        path.write_text(BASIC)
        sc = load_scenario(path)
        assert sc.nodes[0].node_id == "n0"


class TestNumericRanges:
    NODE = "[superframe]\nmode = nonbeacon\n[nodes]\nn0 = {}\n"

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_nonfinite_poisson_rate_names_its_line(self, rate):
        line, msg = error_line(self.NODE.format(f"traffic=poisson:{rate}"))
        assert line == 4 and "finite" in msg

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
        assert line == 4 and key in msg


class TestEventBudget:
    """Expected arrivals (Poisson rate times run length, summed over nodes,
    plus scripted times inside the run) stay within MAX_EXPECTED_ARRIVALS;
    the node line that crosses it is named. Only parsed, never run."""

    # Lines 5 and 6 hold the nodes; 5 s runs.
    TWO = "[superframe]\nbeacon_slots = 4\nrap1_slots = 252\n[nodes]\nn0 = {}\nn1 = {}\n[run]\nduration_ms = {}\nchannel = collision\n"

    def test_the_node_that_crosses_the_budget_names_its_line(self):
        # 999,999 /s for 5 s is 4,999,995; six scripted times make 5,000,001.
        line, msg = error_line(self.TWO.format("traffic=poisson:999999", "traffic=scripted:0;1;2;3;4;5", 5000))
        assert line == 6 and "5,000,001 arrivals" in msg and f"budget of {MAX_EXPECTED_ARRIVALS:,}" in msg

    def test_a_first_node_over_the_budget_names_its_own_line(self):
        line, msg = error_line(self.TWO.format("traffic=poisson:1e6", "traffic=saturated", 5001))
        assert line == 5 and msg.startswith("line 5: n0: ")

    def test_exactly_the_budget_is_accepted(self):
        # The sixth scripted time is at the run end, so it never arrives.
        sc = scn(self.TWO.format("traffic=poisson:999999", "traffic=scripted:0;1;2;3;4;5000000", 5000))
        assert sc.run.duration_us == 5_000_000

    def test_saturated_nodes_expect_no_arrivals(self):
        scn(self.TWO.format("traffic=saturated", "traffic=saturated", 10**9))

    def test_a_scenario_lengthened_after_parsing_is_refused_before_running(self):
        sc = scn(self.TWO.format("traffic=poisson:1e6", "traffic=saturated", 5000))
        longer = sc._replace(run=sc.run._replace(duration_us=5_000_001))
        with pytest.raises(ScenarioError, match="above the budget"):
            Simulation(longer)


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
        "[superframe]\nmode = nonbeacon\n[nodes]\n"
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
        assert refusal.startswith("line 5:") and "a vs b" in refusal
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
            assert legal
            # No node is polled, so every poll grant is an allocation's, by node id.
            grants = [(offset, period, residue, data[0]) for offset, period, residue, kind, data in plan.schedule
                      if kind is EventKind.POLL_GRANT]
            assert grants == [
                (a.start_slot * config.slot_length_us, a.periodicity, a.offset % a.periodicity, a.node_id)
                for a in sorted(allocs, key=lambda a: a.node_id)
            ]


# Values a scenario fuzz draws for any key: edge cases, and names that
# some keys take (so keys of one PHY family meet the kind of another).
FUZZ_VALUES = [
    "", "0", "-1", "nan", "1e-320", "99", "banana",
    "nb", "uwb", "hbc", "uwb-low", "2400-2483.5", "7", "27", "low", "nonbeacon", "unbounded", "II",
    "true", "polled", "scheduled", "poisson:5", "scripted:0;100", "2", "140", "collision", "unauthenticated",
]
# A scenario that parses: two contenders, a polled node in the type II
# phase and a scheduled one in the type I phase.
FUZZ_BASE = {
    "phy": {},
    "superframe": {"beacon_slots": "4", "rap1_slots": "124", "type_a_slots": "64", "type_b_slots": "64"},
    "csma": {},
    "nodes": {
        "n0": {"priority": "4"},
        "n1": {"access": "polled", "traffic": "poisson:20"},
        "n2": {"access": "scheduled", "slot_start": "140", "slot_len": "20", "payload": "40"},
        "n3": {"traffic": "poisson:50", "payload": "30"},
    },
    "security": {"n1": {"level": "2", "group": "ward"}},
    "run": {"duration_ms": "100", "channel": "collision"},
}


def render(sections: dict) -> str:
    """Scenario text of section -> key -> value, or -> entry -> sub-key -> value."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            if isinstance(value, dict):
                value = ", ".join(f"{sub}={v}" for sub, v in value.items())
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@st.composite
def fuzzed_scenarios(draw):
    """FUZZ_BASE with one to four keys of the key table set to drawn values."""
    sections = copy.deepcopy(FUZZ_BASE)
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from(sorted(_KEYS)))
        key = draw(st.sampled_from(sorted(_KEYS[section])))
        value = draw(st.sampled_from(FUZZ_VALUES))
        if section in ("nodes", "security"):
            sections[section].setdefault(draw(st.sampled_from(sorted(FUZZ_BASE["nodes"]))), {})[key] = value
        else:
            sections[section][key] = value
    return render(sections)


class TestKeyTableFuzz:
    """The parse half of the scenario fuzz: whatever the keys hold, a
    scenario either parses and builds or fails with a line."""

    def test_base_scenario_parses(self):
        assert len(parse_scenario(render(FUZZ_BASE)).nodes) == 4

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzzed_scenarios())
    def test_every_input_parses_and_builds_or_fails_at_a_line(self, text):
        try:
            sc = parse_scenario(text)
        except ScenarioError as exc:
            assert exc.line is not None, str(exc)
        else:
            Simulation(sc)


class TestReadmeExample:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_the_scenario_example_parses_and_names_every_key(self):
        block = self.README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        sc = parse_scenario(block)
        assert [node.node_id for node in sc.nodes] == ["n0", "n1", "n2", "n3"]
        for section, table in _KEYS.items():
            separator = "=" if section in ("nodes", "security") else r"\s*="
            for key in table:
                assert re.search(rf"\b{key}{separator}", block), f"[{section}] {key} missing from the README"
