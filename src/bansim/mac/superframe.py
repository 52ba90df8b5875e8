"""Beacon-bounded superframe: phase layout, access rules, and scheduling.

A superframe is a fixed number of allocation slots split into an ordered
sequence of access phases, in the declaration order of PhaseKind. The
coordinator may disable any phase by giving it length zero; the relative
order of the remaining phases never changes.
Contention happens in the exclusive/random/contention phases; the two
shared phases carry polled and scheduled (1- or m-periodic) allocations.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from bansim.errors import AllocationConflict, InvalidLayoutError

__all__ = [
    "PhaseKind",
    "TrafficKind",
    "OperationalMode",
    "SuperframeConfig",
    "PhaseLayout",
    "PhaseSpan",
    "ScheduledAllocation",
    "build_layout",
    "phase_at",
    "phases_covered",
    "admissible",
    "schedule_polls",
    "place_scheduled",
    "HIGHEST_PRIORITY",
]

HIGHEST_PRIORITY = 7


class PhaseKind(str, Enum):
    """The access phases, declared in their order within one superframe."""

    BEACON = "Beacon"
    EAP1 = "EAP1"
    RAP1 = "RAP1"
    TYPE_A = "TypeI_II_a"
    EAP2 = "EAP2"
    RAP2 = "RAP2"
    TYPE_B = "TypeI_II_b"
    CAP = "CAP"


CONTENTION_PHASES = {
    PhaseKind.EAP1,
    PhaseKind.EAP2,
    PhaseKind.RAP1,
    PhaseKind.RAP2,
    PhaseKind.CAP,
}
EXCLUSIVE_PHASES = {PhaseKind.EAP1, PhaseKind.EAP2}
SHARED_PHASES = {PhaseKind.TYPE_A, PhaseKind.TYPE_B}


class TrafficKind(str, Enum):
    CONTENTION = "contention"
    POLLED = "polled"
    SCHEDULED = "scheduled"


class OperationalMode(str, Enum):  # each value is the mode's scenario-file name
    BEACON_BOUNDED = "beacon"
    NONBEACON_BOUNDED = "nonbeacon"
    NONBEACON_UNBOUNDED = "unbounded"


class SuperframeConfig(NamedTuple):
    slot_length_us: int = 500
    slots_per_superframe: int = 256
    mode: OperationalMode = OperationalMode.BEACON_BOUNDED
    # Slot counts per phase; missing phases default to zero. In beacon mode
    # the beacon phase may be zero only where regulations prohibit beacons.
    # The default's one dict is shared, so no config's dict is ever changed.
    phase_slots: dict[PhaseKind, int] = {}
    # Which phase type fills a bounded non-beacon superframe: "I" or "II".
    fill_phase_type: str = "I"
    # 1 = every superframe active; m = beacons/activity every m-th.
    beacon_period_multiplier: int = 1
    beacon_prohibited: bool = False


class PhaseSpan(NamedTuple):
    kind: PhaseKind
    start_slot: int
    length_slots: int


class PhaseLayout(NamedTuple):
    slot_length_us: int
    slots_per_superframe: int
    phases: tuple[PhaseSpan, ...]
    beacon_period_multiplier: int = 1

    @property
    def duration_us(self) -> int:
        return self.slot_length_us * self.slots_per_superframe

    def span(self, kind: PhaseKind) -> PhaseSpan | None:
        for phase in self.phases:
            if phase.kind == kind and phase.length_slots > 0:
                return phase
        return None


def build_layout(config: SuperframeConfig) -> PhaseLayout:
    """Assemble and validate the ordered phase spans of one superframe."""
    if config.slot_length_us <= 0 or config.slots_per_superframe <= 0:
        raise InvalidLayoutError("slot length and slot count must be positive")
    if config.beacon_period_multiplier < 1:
        raise InvalidLayoutError("beacon period multiplier must be >= 1")

    if config.mode == OperationalMode.BEACON_BOUNDED:
        slots = dict(config.phase_slots)
    elif config.mode == OperationalMode.NONBEACON_BOUNDED:
        if config.fill_phase_type not in ("I", "II"):
            raise InvalidLayoutError(f"fill phase type {config.fill_phase_type!r}")
        kind = PhaseKind.TYPE_A if config.fill_phase_type == "I" else PhaseKind.TYPE_B
        slots = {kind: config.slots_per_superframe}
    else:  # unbounded: one endless shared phase, modeled as a full superframe
        slots = {PhaseKind.TYPE_B: config.slots_per_superframe}

    unknown = set(slots) - set(PhaseKind)
    if unknown:
        raise InvalidLayoutError(f"unknown phases: {sorted(k.value for k in unknown)}")
    if any(n < 0 for n in slots.values()):
        raise InvalidLayoutError("phase lengths must be >= 0")

    beacon_slots = slots.get(PhaseKind.BEACON, 0)
    if config.mode == OperationalMode.BEACON_BOUNDED:
        if config.beacon_prohibited and beacon_slots:
            raise InvalidLayoutError("beacons are prohibited in this band")
        if not config.beacon_prohibited and beacon_slots == 0:
            raise InvalidLayoutError("beacon mode requires a nonzero beacon phase")

    total = sum(slots.values())
    if total != config.slots_per_superframe:
        raise InvalidLayoutError(
            f"phase lengths sum to {total}, superframe has {config.slots_per_superframe} slots"
        )

    phases = []
    cursor = 0
    for kind in PhaseKind:
        length = slots.get(kind, 0)
        phases.append(PhaseSpan(kind, cursor, length))
        cursor += length
    return PhaseLayout(
        slot_length_us=config.slot_length_us,
        slots_per_superframe=config.slots_per_superframe,
        phases=tuple(phases),
        beacon_period_multiplier=config.beacon_period_multiplier,
    )


def phase_at(layout: PhaseLayout, t_us: int) -> tuple[PhaseKind, int]:
    """The phase containing instant `t_us`, and the time left inside it."""
    if not 0 <= t_us < layout.duration_us:
        raise ValueError(f"t={t_us} outside superframe [0, {layout.duration_us})")
    for phase in layout.phases:
        if phase.length_slots == 0:
            continue
        start = phase.start_slot * layout.slot_length_us
        end = start + phase.length_slots * layout.slot_length_us
        if start <= t_us < end:
            return phase.kind, end - t_us
    raise AssertionError("validated layout left a gap")  # unreachable


def phases_covered(layout: PhaseLayout, start_slot: int, length_slots: int) -> list[PhaseKind]:
    """Kinds of the phases that slots [start_slot, start_slot + length_slots) overlap."""
    end_slot = start_slot + length_slots
    return [
        span.kind
        for span in layout.phases
        if max(start_slot, span.start_slot) < min(end_slot, span.start_slot + span.length_slots)
    ]


def admissible(phase: PhaseKind, user_priority: int, traffic: TrafficKind) -> bool:
    """Whether traffic of this kind/priority may use the phase.

    Exclusive phases admit only highest-priority contention traffic, the
    random/contention phases admit all contention traffic, and the shared
    phases carry polled or scheduled access only.
    """
    if not 0 <= user_priority <= HIGHEST_PRIORITY:
        raise ValueError(f"priority {user_priority} outside 0..{HIGHEST_PRIORITY}")
    if phase in EXCLUSIVE_PHASES:
        return traffic == TrafficKind.CONTENTION and user_priority == HIGHEST_PRIORITY
    if phase in CONTENTION_PHASES:
        return traffic == TrafficKind.CONTENTION
    if phase in SHARED_PHASES:
        return traffic in (TrafficKind.POLLED, TrafficKind.SCHEDULED)
    return False  # beacon phase belongs to the hub


def schedule_polls(
    layout: PhaseLayout, node_ids: list[str], phase: PhaseKind, grant_us: int
) -> list[tuple[str, int]]:
    """Round-robin poll grants filling one shared phase, as (node id,
    offset into the superframe in us) pairs.

    `grant_us` is the per-grant budget (a full frame exchange plus guard
    time, sized by the caller from the operating config). Grants never
    cross the phase boundary; a phase too short for one grant yields an
    empty list.
    """
    if phase not in SHARED_PHASES:
        raise ValueError(f"{phase.value} is not a polled/scheduled phase")
    if grant_us <= 0:
        raise ValueError("grant duration must be positive")
    span = layout.span(phase)
    if span is None or not node_ids:
        return []
    start = span.start_slot * layout.slot_length_us
    count = span.length_slots * layout.slot_length_us // grant_us
    return [(node_ids[i % len(node_ids)], start + i * grant_us) for i in range(count)]


class ScheduledAllocation:
    __slots__ = ("node_id", "start_slot", "length_slots", "periodicity", "offset")

    def __init__(self, node_id: str, start_slot: int, length_slots: int, periodicity: int = 1, offset: int = 0):
        if periodicity < 1:
            raise ValueError("periodicity must be >= 1")
        if length_slots < 1:
            raise ValueError("allocation must cover at least one slot")
        if start_slot < 0:
            raise ValueError(f"allocation starts at slot {start_slot}, before slot 0")
        self.node_id = node_id
        self.start_slot = start_slot
        self.length_slots = length_slots
        self.periodicity = periodicity  # m: recurs every m-th superframe
        self.offset = offset  # which residue class of superframe indices

    def active_in(self, superframe_index: int) -> bool:
        return superframe_index % self.periodicity == self.offset % self.periodicity


def place_scheduled(
    allocations: list[ScheduledAllocation],
    layout: PhaseLayout,
    superframe_index: int,
) -> dict[int, str]:
    """Slot -> node map for one superframe; exact conflict detection."""
    taken: dict[int, str] = {}
    for alloc in allocations:
        if alloc.start_slot + alloc.length_slots > layout.slots_per_superframe:
            raise InvalidLayoutError(
                f"allocation for {alloc.node_id} runs past the superframe"
            )
        if not alloc.active_in(superframe_index):
            continue
        for slot in range(alloc.start_slot, alloc.start_slot + alloc.length_slots):
            if slot in taken and taken[slot] != alloc.node_id:
                raise AllocationConflict(
                    f"slot {slot} of superframe {superframe_index}: "
                    f"{taken[slot]} vs {alloc.node_id}"
                )
            taken[slot] = alloc.node_id
    return taken
