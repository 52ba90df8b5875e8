"""Superframe layout, phase admission, and access scheduling tests."""

import pytest

from bansim.errors import AllocationConflict, InvalidLayoutError
from bansim.mac.superframe import (
    OperationalMode,
    PhaseKind,
    ScheduledAllocation,
    SuperframeConfig,
    TrafficKind,
    admissible,
    build_layout,
    phase_at,
    place_scheduled,
    schedule_polls,
)
from bansim.mac.superframe import phases_covered
from bansim.phy.rates import nb_config
from bansim.sim.scenario import EventKind, Scenario, compile_scenario


def beacon_in(layout, superframe_index: int, period: int = 1) -> bool:
    """Whether superframe `superframe_index` of `layout` carries a beacon:
    its beacon phase is not empty and the index is a multiple of the
    beacon period, its config's beacon_period_multiplier."""
    if layout.span(PhaseKind.BEACON) is None:
        return False
    return superframe_index % period == 0


FULL_SLOTS = {
    PhaseKind.BEACON: 4,
    PhaseKind.EAP1: 10,
    PhaseKind.RAP1: 50,
    PhaseKind.TYPE_A: 80,
    PhaseKind.EAP2: 10,
    PhaseKind.RAP2: 40,
    PhaseKind.TYPE_B: 50,
    PhaseKind.CAP: 12,
}


def full_layout():
    return build_layout(SuperframeConfig(phase_slots=dict(FULL_SLOTS)))


class TestBuildLayout:
    def test_phases_cover_superframe_in_canonical_order(self):
        layout = full_layout()
        assert [p.kind for p in layout.phases] == list(PhaseKind)
        cursor = 0
        for phase in layout.phases:
            assert phase.start_slot == cursor
            cursor += phase.length_slots
        assert cursor == 256
        assert layout.duration_us == 256 * 500

    def test_zero_length_phase_has_no_span(self):
        slots = dict(FULL_SLOTS)
        slots[PhaseKind.EAP2] = 0
        slots[PhaseKind.RAP2] += 10
        layout = build_layout(SuperframeConfig(phase_slots=slots))
        assert layout.span(PhaseKind.EAP2) is None
        assert layout.span(PhaseKind.RAP2).length_slots == 50

    def test_slot_sum_mismatch_rejected(self):
        slots = dict(FULL_SLOTS)
        slots[PhaseKind.CAP] += 1
        with pytest.raises(InvalidLayoutError):
            build_layout(SuperframeConfig(phase_slots=slots))

    def test_an_unknown_phase_is_named_by_its_repr(self):
        with pytest.raises(InvalidLayoutError, match="unknown phases: 'bogus'"):
            build_layout(SuperframeConfig(phase_slots={**FULL_SLOTS, "bogus": 0}))

    def test_negative_phase_length_rejected(self):
        slots = dict(FULL_SLOTS)
        slots[PhaseKind.CAP] = -2
        slots[PhaseKind.RAP2] += 14
        with pytest.raises(InvalidLayoutError):
            build_layout(SuperframeConfig(phase_slots=slots))

    def test_nonpositive_geometry_rejected(self):
        with pytest.raises(InvalidLayoutError):
            build_layout(SuperframeConfig(slot_length_us=0, phase_slots=dict(FULL_SLOTS)))
        with pytest.raises(InvalidLayoutError):
            build_layout(
                SuperframeConfig(slots_per_superframe=0, phase_slots=dict(FULL_SLOTS))
            )

    @pytest.mark.parametrize("mode", [OperationalMode.NONBEACON_BOUNDED, OperationalMode.NONBEACON_UNBOUNDED])
    def test_zero_slots_rejected_in_the_non_beacon_modes(self, mode):
        # The one phase fills the superframe, so 0 slots also sum right:
        # only the slot-count rule refuses them.
        with pytest.raises(InvalidLayoutError, match="slot count must be positive"):
            build_layout(SuperframeConfig(slots_per_superframe=0, mode=mode))

    def test_beacon_mode_requires_beacon_phase(self):
        slots = dict(FULL_SLOTS)
        slots[PhaseKind.BEACON] = 0
        slots[PhaseKind.RAP1] += 4
        with pytest.raises(InvalidLayoutError):
            build_layout(SuperframeConfig(phase_slots=slots))

    def test_beacon_prohibited_band_keeps_superframe_but_no_beacon(self):
        slots = dict(FULL_SLOTS)
        slots[PhaseKind.BEACON] = 0
        slots[PhaseKind.RAP1] += 4
        layout = build_layout(
            SuperframeConfig(phase_slots=slots, beacon_prohibited=True)
        )
        assert layout.span(PhaseKind.BEACON) is None
        assert not beacon_in(layout, 0)
        with pytest.raises(InvalidLayoutError):
            build_layout(
                SuperframeConfig(phase_slots=dict(FULL_SLOTS), beacon_prohibited=True)
            )

    def test_nonbeacon_bounded_is_one_shared_phase(self):
        for fill, kind in (("I", PhaseKind.TYPE_A), ("II", PhaseKind.TYPE_B)):
            layout = build_layout(
                SuperframeConfig(
                    mode=OperationalMode.NONBEACON_BOUNDED, fill_phase_type=fill
                )
            )
            span = layout.span(kind)
            assert span.start_slot == 0
            assert span.length_slots == 256
            others = [p for p in layout.phases if p.kind != kind]
            assert all(p.length_slots == 0 for p in others)

    def test_nonbeacon_bounded_rejects_unknown_fill(self):
        with pytest.raises(InvalidLayoutError):
            build_layout(
                SuperframeConfig(
                    mode=OperationalMode.NONBEACON_BOUNDED, fill_phase_type="III"
                )
            )

    def test_unbounded_mode_is_all_type_two(self):
        layout = build_layout(
            SuperframeConfig(mode=OperationalMode.NONBEACON_UNBOUNDED)
        )
        assert layout.span(PhaseKind.TYPE_B).length_slots == 256

    def test_beacon_period_multiplier_gates_beacons(self):
        config = SuperframeConfig(phase_slots=dict(FULL_SLOTS), beacon_period_multiplier=3)
        plan = compile_scenario(Scenario(nb_config(), config))
        [(_, period, residue, _, _)] = [e for e in plan.schedule if e[3] == EventKind.BEACON_TX]
        carried = [i for i in range(9) if i % period == residue]
        assert carried == [0, 3, 6]


class TestPhaseAt:
    def test_matches_independent_boundary_arithmetic(self):
        # Small superframe so every microsecond can be swept against an
        # oracle built straight from the slot counts.
        slots = {
            PhaseKind.BEACON: 1,
            PhaseKind.RAP1: 3,
            PhaseKind.TYPE_A: 2,
            PhaseKind.CAP: 2,
        }
        layout = build_layout(
            SuperframeConfig(
                slot_length_us=7, slots_per_superframe=8, phase_slots=slots
            )
        )
        bounds = []
        cursor = 0
        for kind in PhaseKind:
            n = slots.get(kind, 0)
            if n:
                bounds.append((kind, cursor * 7, (cursor + n) * 7))
                cursor += n
        assert cursor == 8
        for t in range(56):
            expected = next(
                (k, end - t) for k, start, end in bounds if start <= t < end
            )
            assert phase_at(layout, t) == expected

    def test_out_of_range_instants_rejected(self):
        layout = full_layout()
        with pytest.raises(ValueError):
            phase_at(layout, -1)
        with pytest.raises(ValueError):
            phase_at(layout, layout.duration_us)

    def test_zero_length_phase_never_reported(self):
        slots = dict(FULL_SLOTS)
        slots[PhaseKind.EAP1] = 0
        slots[PhaseKind.RAP1] += 10
        layout = build_layout(SuperframeConfig(phase_slots=slots))
        seen = {phase_at(layout, t)[0] for t in range(0, layout.duration_us, 250)}
        assert PhaseKind.EAP1 not in seen


class TestAdmissible:
    def test_full_matrix(self):
        for priority in range(8):
            for traffic in TrafficKind:
                for phase in PhaseKind:
                    ok = admissible(phase, priority, traffic)
                    if phase in (PhaseKind.EAP1, PhaseKind.EAP2):
                        assert ok == (
                            traffic == TrafficKind.CONTENTION and priority == 7
                        )
                    elif phase in (PhaseKind.RAP1, PhaseKind.RAP2, PhaseKind.CAP):
                        assert ok == (traffic == TrafficKind.CONTENTION)
                    elif phase in (PhaseKind.TYPE_A, PhaseKind.TYPE_B):
                        assert ok == (
                            traffic in (TrafficKind.POLLED, TrafficKind.SCHEDULED)
                        )
                    else:
                        assert not ok

    def test_priority_out_of_range(self):
        with pytest.raises(ValueError):
            admissible(PhaseKind.RAP1, 8, TrafficKind.CONTENTION)
        with pytest.raises(ValueError):
            admissible(PhaseKind.RAP1, -1, TrafficKind.CONTENTION)


class TestSchedulePolls:
    def test_round_robin_fills_phase(self):
        layout = full_layout()  # TYPE_A: slots 64..144 -> [32000, 72000) us
        span = layout.span(PhaseKind.TYPE_A)
        start = span.start_slot * 500
        grants = schedule_polls(layout, ["a", "b", "c"], PhaseKind.TYPE_A, 7000)
        assert len(grants) == (span.length_slots * 500) // 7000 == 5
        assert [node_id for node_id, _ in grants] == ["a", "b", "c", "a", "b"]
        assert grants[0] == ("a", start)
        for (_, prev), (_, cur) in zip(grants, grants[1:]):
            assert cur == prev + 7000
        end = start + span.length_slots * 500
        assert grants[-1][1] + 7000 <= end
        assert end - (grants[-1][1] + 7000) < 7000

    def test_degenerate_inputs(self):
        layout = full_layout()
        assert schedule_polls(layout, [], PhaseKind.TYPE_A, 7000) == []
        # Grant longer than the whole phase: nothing fits.
        assert schedule_polls(layout, ["a"], PhaseKind.TYPE_A, 10**9) == []
        with pytest.raises(ValueError):
            schedule_polls(layout, ["a"], PhaseKind.RAP1, 7000)
        with pytest.raises(ValueError):
            schedule_polls(layout, ["a"], PhaseKind.TYPE_A, 0)

    def test_layout_without_shared_phase_yields_nothing(self):
        slots = dict(FULL_SLOTS)
        slots[PhaseKind.TYPE_A] = 0
        slots[PhaseKind.RAP1] += 80
        layout = build_layout(SuperframeConfig(phase_slots=slots))
        assert schedule_polls(layout, ["a"], PhaseKind.TYPE_A, 7000) == []


class TestScheduledAllocations:
    def test_periodic_activity(self):
        alloc = ScheduledAllocation("a", 10, 4, periodicity=3, offset=1)
        active = [i for i in range(10) if alloc.active_in(i)]
        assert active == [1, 4, 7]

    def test_every_superframe_by_default(self):
        alloc = ScheduledAllocation("a", 10, 4)
        assert all(alloc.active_in(i) for i in range(5))

    def test_placement_and_interleaving(self):
        layout = full_layout()
        allocs = [
            ScheduledAllocation("a", 10, 4, periodicity=2, offset=0),
            ScheduledAllocation("b", 10, 4, periodicity=2, offset=1),
            ScheduledAllocation("c", 20, 2),
        ]
        even = place_scheduled(allocs, layout, 0)
        odd = place_scheduled(allocs, layout, 1)
        assert {s for s, n in even.items() if n == "a"} == {10, 11, 12, 13}
        assert "b" not in even.values()
        assert {s for s, n in odd.items() if n == "b"} == {10, 11, 12, 13}
        assert "a" not in odd.values()
        for mapping in (even, odd):
            assert {s for s, n in mapping.items() if n == "c"} == {20, 21}

    def test_overlap_is_a_conflict(self):
        layout = full_layout()
        allocs = [
            ScheduledAllocation("a", 10, 4),
            ScheduledAllocation("b", 13, 2),
        ]
        with pytest.raises(AllocationConflict):
            place_scheduled(allocs, layout, 0)
        # Same slots, different superframe parity: no conflict.
        staggered = [
            ScheduledAllocation("a", 10, 4, periodicity=2, offset=0),
            ScheduledAllocation("b", 13, 2, periodicity=2, offset=1),
        ]
        assert place_scheduled(staggered, layout, 0)
        assert place_scheduled(staggered, layout, 1)

    def test_allocation_past_superframe_end(self):
        layout = full_layout()
        with pytest.raises(InvalidLayoutError):
            place_scheduled([ScheduledAllocation("a", 255, 2)], layout, 0)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ScheduledAllocation("a", 0, 1, periodicity=0)
        with pytest.raises(ValueError):
            ScheduledAllocation("a", 0, 0)


class TestPhasesCovered:
    # full_layout: Beacon 0-3, EAP1 4-13, RAP1 14-63, TypeI_II_a 64-143,
    # EAP2 144-153, RAP2 154-193, TypeI_II_b 194-243, CAP 244-255.
    @pytest.mark.parametrize(
        "start, length, kinds",
        [
            (70, 20, [PhaseKind.TYPE_A]),
            (64, 80, [PhaseKind.TYPE_A]),
            (143, 2, [PhaseKind.TYPE_A, PhaseKind.EAP2]),
            (140, 60, [PhaseKind.TYPE_A, PhaseKind.EAP2, PhaseKind.RAP2, PhaseKind.TYPE_B]),
            (0, 256, list(PhaseKind)),
            (255, 1, [PhaseKind.CAP]),
        ],
    )
    def test_every_phase_the_range_touches(self, start, length, kinds):
        assert phases_covered(full_layout(), start, length) == kinds

    def test_disabled_phases_are_never_covered(self):
        slots = dict(FULL_SLOTS, **{PhaseKind.EAP2: 0, PhaseKind.RAP2: 0})
        slots[PhaseKind.TYPE_B] += 50
        layout = build_layout(SuperframeConfig(phase_slots=slots))
        assert phases_covered(layout, 140, 10) == [PhaseKind.TYPE_A, PhaseKind.TYPE_B]
