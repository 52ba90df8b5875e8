"""Deterministic discrete-event kernel.

The kernel runs a compiled plan. Simulation hands its scenario to
sim.scenario.compile_scenario, which checks every static rule (a
ScenarioError before any event) and derives the layout, the airtimes,
each node's frame exchange, the poll grant, the poll phases and the
allocations; the kernel only reads them and joins them with the CSMA
engine and the security sessions. A broken invariant of its own raises
SimulationError. Time is a 64-bit microsecond clock; events dispatch in
(time, class, insertion order), so a run is a pure function of
(scenario, seed). At one instant phase starts come first, then the rest
of the schedule (beacons, grants), then dynamic events (grid ticks,
transmissions, arrivals). The schedule is generated one superframe
ahead: superframe i+1 is pushed when the run reaches its start, which
keeps the heap small and, thanks to the class order, gives the same
order as a schedule filled for the whole run up front.

Contention runs on one global slot grid per access phase. The grid
starts one interframe space after phase entry, pauses while a frame
exchange occupies the channel, and resumes one interframe space after an
acknowledgement (immediately after a timeout, whose guard time already
covers the gap). At every grid instant pending draws happen first, then
each contender checks the phase-fit guard; counters decrement at slot
ends and a counter reaching zero transmits at once. A contender locks
at t exactly when t + slot + its frame exchange passes the phase end.
The grid never ticks at or past the phase end, and it stops once every
contender of the phase has drawn and is locked: nothing can count, draw
or unlock until the next phase start, and an arrival only grows a drawn
node's queue.

The grid is a second event stream beside the heap: at most one pending
tick, keyed like a dynamic event, and run() takes whichever of it and the
heap's head sorts first. When a tick sets the next one, the slot ends
after it in which counters only count and idle contenders only wait for
an arrival are taken in one step. The step stops one slot before a
counter would reach zero, before a guard lock, before the phase end, and
before the heap's next instant; the trace still gets one count line per
node and slot. Overlapping transmissions fail everyone in collision mode
and are a scenario error in ideal mode; a lone transmission is always
delivered (zero bit errors). Polled and scheduled traffic runs inside
the shared phases on grants, one frame exchange per grant: a superframe
gets the poll grants of the plan's poll phases and one grant per
allocation active in it.
ScriptedReplay runs one node on this same grid from a scripted timeline,
for the CSMA replay.

The kernel decides which lines a run traces and in what order; csma
renders them. A storm (one event for many contenders at one instant: a
slot's counts, the busy locks when an exchange begins, the unlocks on a
resume tick, the enter/unlock/sifs lines of a phase entry) goes to
csma.trace_batch as node ids and states, and each exchange line goes to
csma.trace_event. Without a trace the kernel collects no list of nodes to
trace and renders nothing.

Every transmission passes the security gate: a node whose session is at
an authenticated level must hold an active pairwise key, its payload
goes out through secure_frame, and the hub admits it on delivery, so
counter and tag handling are exercised on every simulated frame.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from enum import Enum, auto
from itertools import groupby

from bansim.errors import SimulationError
from bansim.mac.csma import (
    BackoffState,
    PRIORITY_TABLE,
    ScriptedDraws,
    draw_backoff,
    exchange_us,
    on_busy,
    on_failure,
    on_idle_slot,
    on_success,
    trace_batch,
    trace_event,
)
from bansim.mac.superframe import PhaseKind, TrafficKind, admissible, phase_at, schedule_polls
from bansim.security import SecurityLevel, SecurityManager, admit_frame, secure_frame
from bansim.sim.scenario import BEACON_BODY_LEN  # noqa: F401  re-exported
from bansim.sim.scenario import NodeSpec, Scenario, clock_us, compile_scenario
from bansim.sim.stats import NodeStats, RunStats, write_stats_csv
from bansim.textio import text_stream

__all__ = ["EventKind", "ScriptedReplay", "Simulation", "run", "run_to_files", "write_trace"]

HUB_ID = "hub"

# A contender's lines on phase entry: a locked counter unlocks between
# the two, and unlocking changes no traced field.
_ENTRY = ("enter", "sifs")
_ENTRY_UNLOCK = ("enter", "unlock", "sifs")


class EventKind(Enum):
    PHASE_START = auto()
    TX_END = auto()
    ACK_DUE = auto()
    POLL_GRANT = auto()
    BEACON_TX = auto()
    TRAFFIC_ARRIVAL = auto()
    SUPERFRAME = auto()  # generate the schedule of the next superframe


# eq=False: nodes compare by identity, so a membership test never walks
# every field.
@dataclass(eq=False)
class _Node:
    spec: NodeSpec
    backoff: BackoffState
    rng: random.Random
    stats: NodeStats
    airtime_us: float  # data frame, security overhead included
    payload_airtime_us: float  # the user-payload share, exact
    exchange_us: int  # data, interframe space, ack and guard time
    queue: list[int] = field(default_factory=list)  # arrival times
    drawn: bool = False  # a backoff counter is in progress
    lock_reason: str | None = None  # "busy" | "guard" while locked
    service_start: int | None = None
    session: object = None  # SecuritySession when level >= 1
    node_id: str = field(init=False)
    airtime_int: int = field(init=False)  # the data frame on the clock

    def __post_init__(self):
        self.node_id = self.spec.node_id
        self.airtime_int = clock_us(self.airtime_us)


class _Exchange:
    """One channel occupation: a set of simultaneous data transmissions
    and the acknowledgement cycle that follows."""

    def __init__(self, kind: PhaseKind, phase_end: int, contention: bool):
        self.kind = kind
        self.phase_end = phase_end
        self.contention = contention
        self.wires: dict[str, bytes | None] = {}
        self.pending = 0
        self.collided = False
        self.max_end = 0


class Simulation:
    def __init__(self, scenario: Scenario, collect_trace: bool = False):
        self.sc = scenario
        self.plan = plan = compile_scenario(scenario)
        self.security = SecurityManager(HUB_ID)
        nodes: list[_Node] = []
        for spec in scenario.nodes:
            node = _Node(
                spec=spec,
                backoff=BackoffState(PRIORITY_TABLE[spec.priority]),
                rng=random.Random(f"{scenario.run.seed}:{spec.node_id}"),
                stats=NodeStats(spec.node_id),
                airtime_us=plan.airtime_us[spec.node_id],
                payload_airtime_us=plan.payload_us[spec.node_id],
                exchange_us=plan.exchange_us[spec.node_id],
            )
            sec = scenario.security.get(spec.node_id)
            if sec is not None and sec.level >= SecurityLevel.AUTHENTICATED:
                node.session = self.security.associate(spec.node_id, sec.level, sec.mk)
            nodes.append(node)
        self._init_engine(scenario.timing, scenario.run.duration_us, plan.ack_us, nodes, collect_trace)
        groups: dict[str, list[str]] = {}
        for node_id, sec in scenario.security.items():
            if sec.group:
                groups.setdefault(sec.group, []).append(node_id)
        for group_id in sorted(groups):
            self.security.distribute_gtk(group_id, sorted(groups[group_id]))

        # Hub trace lines borrow the node line format with zeroed
        # contention fields.
        self._hub_state = BackoffState(PRIORITY_TABLE[0])
        self._hub_state.cw = 0

    def _init_engine(self, timing, end_time, ack_airtime_us, nodes: list[_Node], collect_trace) -> None:
        """Event loop, channel and contention state, shared by scenario
        runs and scripted replays."""
        self.timing = timing
        self.end_time = end_time
        self.collect_trace = collect_trace
        self.trace: list[str] = []

        self.now = 0
        self._heap: list[tuple[int, int, int, EventKind, tuple]] = []
        self._seq = 0
        # The pending grid tick: (time, 2, seq, phase kind, phase end,
        # slot ends, unlock), or None.
        self._tick: tuple | None = None

        self.ack_airtime_us = ack_airtime_us
        self.ack_int = clock_us(ack_airtime_us)
        self.nodes: dict[str, _Node] = {node.node_id: node for node in nodes}
        self.exchange: _Exchange | None = None
        self.stats = RunStats(elapsed_us=end_time)
        for node_id, node in self.nodes.items():
            self.stats.nodes[node_id] = node.stats

        # Priorities and access modes never change during a run, so each
        # phase's contenders are found once.
        contention = [n for _, n in sorted(self.nodes.items()) if n.spec.access == "contention"]
        self._contenders = {
            kind: [n for n in contention if admissible(kind, n.spec.priority, TrafficKind.CONTENTION)]
            for kind in PhaseKind
        }

    # ------------------------------------------------------------ plumbing

    def _push(self, time_us: int, kind: EventKind, data: tuple = ()) -> None:
        """Queue a dynamic event; it sorts after every schedule event at
        its instant."""
        if time_us < self.end_time:
            self._seq += 1
            heapq.heappush(self._heap, (time_us, 2, self._seq, kind, data))

    def _push_schedule(self, time_us: int, kind: EventKind, data: tuple) -> None:
        """Queue a schedule event. Phase starts sort first at their instant,
        then the other schedule events, then dynamic events: the order that
        generating the whole run's schedule before the first event gives."""
        if time_us < self.end_time:
            self._seq += 1
            rank = 0 if kind is EventKind.PHASE_START else 1
            heapq.heappush(self._heap, (time_us, rank, self._seq, kind, data))

    def _push_tick(self, time_us: int, kind: PhaseKind, phase_end: int, slot_ends: bool, unlock: bool) -> None:
        """Hold the grid's next instant. It draws the seq a dynamic event
        pushed now would, so it sorts against the heap exactly."""
        if time_us < self.end_time:
            if self._tick is not None:
                raise SimulationError(f"a second grid tick pending at t={time_us}")
            self._seq += 1
            self._tick = (time_us, 2, self._seq, kind, phase_end, slot_ends, unlock)

    def _emit(self, time_us: int, kind: PhaseKind, event: str, node: _Node) -> None:
        """Trace one event of one node, from its backoff state as it is now."""
        if self.collect_trace:
            trace_event(self.trace, time_us, kind, event, node.node_id, node.backoff)

    def _emit_batch(self, time_us: int, kind: PhaseKind, events: tuple[str, ...], nodes: list[_Node]) -> None:
        """Trace each event in `events` for each node, node by node."""
        if self.collect_trace and nodes:
            ids, states = [n.node_id for n in nodes], [n.backoff for n in nodes]
            trace_batch(self.trace, time_us, kind, events, ids, states)

    # --------------------------------------------------------------- setup

    def _schedule_superframe(self, index: int) -> None:
        """Push superframe `index`'s phase starts, beacon and grants, and
        the event that generates the next superframe at its start."""
        plan = self.plan
        layout = plan.layout
        base = index * layout.duration_us
        for span in layout.phases:
            if span.length_slots == 0:
                continue
            start = base + span.start_slot * layout.slot_length_us
            end = start + span.length_slots * layout.slot_length_us
            self._push_schedule(start, EventKind.PHASE_START, (span.kind, start, end))
            if span.kind == PhaseKind.BEACON and layout.beacon_in(index):
                self._push_schedule(start, EventKind.BEACON_TX, (end,))
            if span.kind in plan.poll_phases:
                for grant in schedule_polls(layout, plan.polled, span.kind, plan.poll_grant_us, base):
                    self._push_schedule(
                        grant.start_us,
                        EventKind.POLL_GRANT,
                        (grant.node_id, grant.duration_us, end),
                    )
        for alloc in plan.allocations:
            if alloc.active_in(index):
                start = base + alloc.start_slot * layout.slot_length_us
                length = alloc.length_slots * layout.slot_length_us
                self._push_schedule(start, EventKind.POLL_GRANT, (alloc.node_id, length, start + length))
        self._push_schedule(base + layout.duration_us, EventKind.SUPERFRAME, (index + 1,))

    def _seed_traffic(self) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            model = node.spec.traffic[0]
            if model == "saturated":
                node.queue.append(0)
                node.stats.offered += 1
            elif model == "poisson":
                self._push_arrival(node, 0)
            else:  # scripted
                for t in node.spec.traffic[1]:
                    self._push(t, EventKind.TRAFFIC_ARRIVAL, (node_id,))

    def _push_arrival(self, node: _Node, after_us: int) -> None:
        rate_per_s = node.spec.traffic[1]
        gap = node.rng.expovariate(rate_per_s) * 1_000_000
        self._push(after_us + clock_us(gap), EventKind.TRAFFIC_ARRIVAL, (node.node_id,))

    # ----------------------------------------------------------- main loop

    def run(self) -> RunStats:
        self._schedule_superframe(0)
        self._seed_traffic()
        heap = self._heap
        while True:
            tick = self._tick
            if tick is not None and (not heap or tick < heap[0]):
                self._tick = None
                time_us, _, _, kind, phase_end, slot_ends, unlock = tick
                self.now = time_us
                self._on_slot_tick(kind, phase_end, slot_ends, unlock)
                continue
            if not heap:
                break
            time_us, _, _, kind, data = heapq.heappop(heap)
            self.now = time_us
            if kind is EventKind.TX_END:
                self._on_tx_end(*data)
            elif kind is EventKind.ACK_DUE:
                self._on_ack_due(*data)
            elif kind is EventKind.PHASE_START:
                self._on_phase_start(*data)
            elif kind is EventKind.TRAFFIC_ARRIVAL:
                self._on_arrival(*data)
            elif kind is EventKind.POLL_GRANT:
                self._on_poll_grant(*data)
            elif kind is EventKind.BEACON_TX:
                self._on_beacon()
            elif kind is EventKind.SUPERFRAME:
                self._schedule_superframe(*data)
        for node in self.nodes.values():
            node.stats.queued = len(node.queue)
        self.stats.check_conservation()
        return self.stats

    # ------------------------------------------------------------- phases

    def _on_phase_start(self, kind: PhaseKind, start: int, end: int) -> None:
        participants = self._contenders[kind]
        if not participants:
            return
        # Contenders in a row that are alike in being locked are traced as
        # one batch.
        for locked, run in groupby(participants, key=lambda n: n.backoff.locked):
            run = list(run)
            if locked:
                for node in run:
                    node.backoff.locked = False
                    node.lock_reason = None
            self._emit_batch(start, kind, _ENTRY_UNLOCK if locked else _ENTRY, run)
        if start + self.timing.psifs_us < end:
            self._push_tick(start + self.timing.psifs_us, kind, end, False, False)

    # ----------------------------------------------------------- the grid

    def _on_slot_tick(self, kind: PhaseKind, phase_end: int, slot_ends: bool, unlock: bool) -> None:
        if self.exchange is not None:
            return
        t = self.now
        participants = self._contenders[kind]
        tracing = self.collect_trace  # lists of nodes to trace stay empty otherwise

        if slot_ends:
            transmitters: list[_Node] = []
            counted: list[_Node] = []
            for node in participants:
                state = node.backoff
                if node.drawn and not state.locked and state.counter > 0:
                    if on_idle_slot(state):
                        transmitters.append(node)
                    if tracing:
                        counted.append(node)
            self._emit_batch(t, kind, ("count",), counted)
            if transmitters:
                self._begin_exchange(transmitters, t, kind, phase_end)
                return

        # One pass in the order each contender goes through: a busy lock
        # lifts on a resume tick, a frame with no counter draws one, and
        # the guard locks a counter whose exchange no longer fits after
        # the upcoming slot. The lines keep that order too (all unlocks,
        # then draws, then locks); a lock changes no traced field, so they
        # are formatted after the pass. The grid goes on while some
        # contender can act: one that has not drawn may draw after an
        # arrival, a running counter counts. A locked one waits for a
        # resume tick or the next phase start, and no exchange (hence no
        # resume tick) begins without a running counter.
        unlocks, draws, locks = [], [], []
        running: list[_Node] = []
        low = math.inf  # the smallest running counter
        widest = 0  # the longest running exchange
        can_act = False
        fits_us = phase_end - self.timing.csma_slot_us - t
        for node in participants:
            state = node.backoff
            if unlock and state.locked and node.lock_reason == "busy":
                state.locked = False
                node.lock_reason = None
                if tracing:
                    unlocks.append(node)
            if not node.drawn:
                if not node.queue or state.locked:
                    can_act = True
                    continue
                draw_backoff(state, node.rng)
                node.drawn = True
                if node.service_start is None:
                    node.service_start = t
                if tracing:
                    draws.append(node)
            if not state.locked:
                if node.exchange_us > fits_us:
                    state.locked = True
                    node.lock_reason = "guard"
                    if tracing:
                        locks.append(node)
                else:
                    can_act = True
                    running.append(node)
                    if state.counter < low:
                        low = state.counter
                    if node.exchange_us > widest:
                        widest = node.exchange_us
        self._emit_batch(t, kind, ("unlock",), unlocks)
        self._emit_batch(t, kind, ("draw",), draws)
        self._emit_batch(t, kind, ("lock",), locks)
        if can_act:
            self._next_slots(t, kind, phase_end, running, low, widest)

    def _next_slots(
        self, t: int, kind: PhaseKind, phase_end: int, running: list[_Node], low: int, widest: int
    ) -> None:
        """Set the grid's next tick after the instant t. The k slot ends
        from t + slot on in which the running counters only count and the
        others only wait happen here at once: none of them takes a counter
        to zero, meets the guard, or is the last before the phase or run
        ends, and each comes before the heap's next instant. Nothing else
        is pushed within them, so the strict time bound is exact. The trace
        still gets one count line per running node and slot."""
        slot_us = self.timing.csma_slot_us
        t += slot_us
        stop = min(phase_end, self.end_time)
        if t >= stop:
            return
        heap = self._heap
        k = min(
            (stop - 1 - t) // slot_us,
            -((t - heap[0][0]) // slot_us) if heap else math.inf,
            low - 1,
            (phase_end - slot_us - widest - t) // slot_us + 1,
        )
        if k > 0:
            k = int(k)
            if running:
                states = [node.backoff for node in running]
                if self.collect_trace:
                    ids = [node.node_id for node in running]
                    for j in range(k):
                        for state in states:
                            state.counter -= 1
                        trace_batch(self.trace, t + j * slot_us, kind, ("count",), ids, states)
                else:
                    for state in states:
                        state.counter -= k
            self._seq += k  # the ticks those slot ends would have pushed
            t += k * slot_us
        self._push_tick(t, kind, phase_end, True, False)

    # ---------------------------------------------------------- exchanges

    def _secure_payload(self, node: _Node) -> bytes | None:
        if node.session is None:
            return None
        if not node.session.ptk_active:
            raise SimulationError(
                f"{node.node_id}: secured transmission without an active pairwise key"
            )
        return secure_frame(bytes(node.spec.payload_bytes), node.session)

    def _begin_exchange(self, transmitters: list[_Node], t: int, kind: PhaseKind, phase_end: int) -> None:
        if len(transmitters) > 1 and self.sc.run.channel == "ideal":
            raise SimulationError(
                f"{len(transmitters)} overlapping transmissions on an ideal channel at t={t}"
            )
        exchange = _Exchange(kind, phase_end, contention=True)
        exchange.collided = len(transmitters) > 1
        exchange.pending = len(transmitters)
        self.exchange = exchange
        for node in transmitters:
            exchange.wires[node.node_id] = self._secure_payload(node)
            self._push(t + node.airtime_int, EventKind.TX_END, (node.node_id,))
        locked: list[_Node] = []
        tracing = self.collect_trace
        for node in self._contenders[kind]:
            if node.drawn and not node.backoff.locked and node not in transmitters:
                on_busy(node.backoff)
                node.lock_reason = "busy"
                if tracing:
                    locked.append(node)
        self._emit_batch(t, kind, ("tx_start",), transmitters)
        self._emit_batch(t, kind, ("lock",), locked)

    def _on_tx_end(self, node_id: str) -> None:
        exchange = self.exchange
        if exchange is None:
            raise SimulationError("transmission ended outside an exchange")
        node = self.nodes[node_id]
        t = self.now
        if t > exchange.phase_end:
            raise SimulationError("transmission crossed its phase boundary")
        self._emit(t, exchange.kind, "tx_end", node)
        node.stats.tx_airtime_us += node.airtime_us
        self.stats.add_busy(node.airtime_us)
        if exchange.collided:
            timeout = t + self.timing.psifs_us + self.ack_int + self.timing.gtn_us
            exchange.max_end = max(exchange.max_end, timeout)
            self._push(timeout, EventKind.ACK_DUE, (node_id, "timeout"))
        else:
            exchange.max_end = max(exchange.max_end, t + self.timing.psifs_us + self.ack_int)
            self._push(t + self.timing.psifs_us, EventKind.ACK_DUE, (node_id, "ack"))

    def _on_ack_due(self, node_id: str, outcome: str) -> None:
        exchange = self.exchange
        if exchange is None:
            raise SimulationError("acknowledgement due outside an exchange")
        node = self.nodes[node_id]
        t = self.now
        if outcome == "ack":
            self.stats.add_busy(self.ack_airtime_us)
            self.stats.ack_airtime_us += self.ack_airtime_us
            self._emit(t, exchange.kind, "ack", node)
            self._push(t + self.ack_int, EventKind.ACK_DUE, (node_id, "success"))
            return
        if outcome == "success":
            self._complete_delivery(node, t, exchange)
        else:  # timeout
            node.stats.failed += 1
            node.stats.collided += 1
            on_failure(node.backoff)
            self._emit(t, exchange.kind, "fail", node)
            draw_backoff(node.backoff, node.rng)
            self._emit(t, exchange.kind, "draw", node)
        exchange.pending -= 1
        if exchange.pending == 0:
            self.exchange = None
            if exchange.contention:
                resume = exchange.max_end if exchange.collided else t + self.timing.psifs_us
                if resume < exchange.phase_end:
                    self._push_tick(resume, exchange.kind, exchange.phase_end, False, True)

    def _complete_delivery(self, node: _Node, t: int, exchange: _Exchange) -> None:
        wire = exchange.wires.get(node.node_id)
        if wire is not None:
            body = admit_frame(wire, node.session)
            if body != bytes(node.spec.payload_bytes):
                raise SimulationError("secured round trip altered the body")
        stats = node.stats
        stats.delivered += 1
        stats.payload_bits += 8 * node.spec.payload_bytes
        stats.payload_airtime_us += node.payload_airtime_us
        if node.service_start is not None:
            stats.access_delay_sum_us += t - node.service_start
        node.queue.pop(0)
        node.drawn = False
        node.service_start = None
        if exchange.contention:
            on_success(node.backoff)
        self._emit(t, exchange.kind, "success", node)
        if node.spec.traffic[0] == "saturated":
            node.queue.append(t)
            stats.offered += 1

    # ------------------------------------------------- grants and beacons

    def _on_poll_grant(self, node_id: str, duration: int, phase_end: int) -> None:
        node = self.nodes[node_id]
        if not node.queue or self.exchange is not None:
            return
        t = self.now
        if node.exchange_us > duration:
            raise SimulationError(
                f"{node_id}: a {node.exchange_us} us frame exchange does not fit its {duration} us grant"
            )
        if node.service_start is None:
            node.service_start = t
        kind, _ = phase_at(self.plan.layout, t % self.plan.layout.duration_us)
        exchange = _Exchange(kind, phase_end, contention=False)
        exchange.pending = 1
        exchange.wires[node_id] = self._secure_payload(node)
        self.exchange = exchange
        self._emit(t, kind, "tx_start", node)
        self._push(t + node.airtime_int, EventKind.TX_END, (node_id,))

    def _on_beacon(self) -> None:
        t = self.now
        self.stats.add_busy(self.plan.beacon_us)
        self.stats.beacon_airtime_us += self.plan.beacon_us
        self.stats.beacons += 1
        if self.collect_trace:
            end = t + clock_us(self.plan.beacon_us)
            trace_event(self.trace, t, PhaseKind.BEACON, "tx_start", HUB_ID, self._hub_state)
            trace_event(self.trace, end, PhaseKind.BEACON, "tx_end", HUB_ID, self._hub_state)

    def _on_arrival(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.queue.append(self.now)
        node.stats.offered += 1
        if node.spec.traffic[0] == "poisson":
            self._push_arrival(node, self.now)


class ScriptedReplay(Simulation):
    """One contention node on the kernel's slot grid, run from a script:
    (kind, start_us, end_us) phases stand in for the layout, scripted draws
    for the RNG, fixed airtimes for the PHY, and `ack_outcomes[i]` for the
    channel's verdict on attempt i. Inadmissible phases are logged on
    entry; the run ends at the first delivery."""

    def __init__(self, phases, draws, data_tx_us, ack_tx_us, ack_outcomes, timing, priority, node_id):
        spec = NodeSpec(node_id, priority.user_priority, ("scripted", (0,)))
        self._node = _Node(spec, BackoffState(priority), ScriptedDraws(draws), NodeStats(node_id),
                           airtime_us=data_tx_us, payload_airtime_us=0.0,
                           exchange_us=exchange_us(data_tx_us, ack_tx_us, timing))
        self._init_engine(timing, math.inf, ack_tx_us, [self._node], collect_trace=True)
        self._phases = phases
        self._acks = list(ack_outcomes)

    def _schedule_superframe(self, index: int) -> None:
        """All scripted phases at once, in place of the layout."""
        for kind, start, end in self._phases:
            self._push_schedule(start, EventKind.PHASE_START, (kind, start, end))

    def _on_phase_start(self, kind: PhaseKind, start: int, end: int) -> None:
        if not self._contenders[kind]:
            self._emit(start, kind, "enter", self._node)
        super()._on_phase_start(kind, start, end)

    def _begin_exchange(self, transmitters: list[_Node], t: int, kind: PhaseKind, phase_end: int) -> None:
        super()._begin_exchange(transmitters, t, kind, phase_end)
        if not self._acks:
            raise IndexError("scripted acknowledgement outcomes exhausted")
        self.exchange.collided = not self._acks.pop(0)

    def _complete_delivery(self, node: _Node, t: int, exchange: _Exchange) -> None:
        super()._complete_delivery(node, t, exchange)
        self._heap.clear()
        self._tick = None
        self.end_time = t  # also drops the resume tick pushed next


# ------------------------------------------------------------- front door


def run(scenario: Scenario, collect_trace: bool = False) -> tuple[RunStats, list[str]]:
    """Run one scenario to completion; returns the stats and, when asked
    for, the event trace lines."""
    sim = Simulation(scenario, collect_trace=collect_trace)
    stats = sim.run()
    return stats, sim.trace


def write_trace(lines: list[str], out) -> None:
    """One line per entry, each ended by a newline; no lines, no bytes."""
    with text_stream(out) as fh:
        fh.write("\n".join(lines) + "\n" if lines else "")


def run_to_files(
    scenario: Scenario, stats_path=None, trace_path=None
) -> RunStats:
    """Run and write the stats CSV and optional trace where the scenario
    or the caller says; caller paths win."""
    stats_path = stats_path or scenario.run.stats_out
    trace_path = trace_path or scenario.run.trace_out
    stats, trace = run(scenario, collect_trace=trace_path is not None)
    if stats_path:
        write_stats_csv(stats, stats_path)
    if trace_path:
        write_trace(trace, trace_path)
    return stats
