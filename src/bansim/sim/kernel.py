"""Deterministic discrete-event kernel.

The kernel runs a compiled plan. Simulation hands its scenario to
sim.scenario.compile_scenario, which checks every static rule (a
ScenarioError before any event) and derives the airtimes, each node's
frame exchange and one superframe's schedule of phase starts, beacons
and grants; the kernel only replays it and joins it with the CSMA engine
and the security sessions. A broken invariant of its own raises
SimulationError. Time is a 64-bit microsecond clock; events dispatch in
(time, class, insertion order), so a run is a pure function of
(scenario, seed). A run covers [0, end): an event at its end instant does
not happen, while an exchange that fits its phase exactly does. A beacon
traces its start, but its airtime, count and tx_end line only if it ends
before the run's end, as a clean exchange's data end does. At one
instant phase starts come first, then the rest of the schedule (beacons,
grants), then dynamic events (grid ticks, transmissions, arrivals). The
schedule is replayed one superframe ahead: superframe i+1 is pushed when
the run reaches its start, which keeps the heap small and, thanks to the
class order, gives the same order as a schedule filled for the whole run
up front.

The heap holds only instants that something can observe: the start of a
phase that some node may contend in (a phase that none may use has no
event), each beacon, grant and superframe start, each traffic arrival,
and the hops of frame exchanges. A clean exchange (a grant's, or one
lone contender's) is one event at its delivery, data + pSIFS + ack after
it begins; its earlier hops are applied when it begins, each only if its
instant comes before the run's end: the data end's airtime and phase
check, then the acknowledgement's airtime, added in the order their
events added them, and in a traced run their tx_end and ack lines right
after the lines of the slot end that starts it. The guard keeps every
exchange inside its phase, so while the channel is held no other event
adds busy time or traces a line, and a delivery draws no random number
and commutes with an arrival at its instant. One order differs from
hop-by-hop events: the delivery takes its place in the heap when the
exchange begins, so a Poisson arrival pushed onto the delivery instant
after that and before the acknowledgement's instant runs after the
delivery rather than before. The two commute, but what they push next
(that arrival's successor, the resume tick) swaps order; if those two
also fall on one microsecond, the resume can draw the arrival's node a
counter before the successor takes its gap off that node's stream
(tests/test_sim.py pins such a run). A collided exchange keeps one
event per transmitter's data end and one per its timeout: a timeout
draws a new counter from its node's stream, which must stay behind that
node's arrivals at the same instant.

Contention runs on one global slot grid per access phase. The grid
starts one interframe space after phase entry, pauses while a frame
exchange occupies the channel, and resumes one interframe space after an
acknowledgement (immediately after a timeout, whose guard time already
covers the gap). At every grid instant pending draws happen first, then
each contender checks the phase-fit guard. A slot end counts down exactly
the running counters the tick before it found, and one reaching zero
transmits at once: the exchange holds the others, busy-locked, and its
resume tick lifts exactly those. A contender locks
at t exactly when t + slot + its frame exchange passes the phase end.
The grid never ticks at or past the phase end, and it stops once every
contender of the phase has drawn and is locked: nothing can count, draw
or unlock until the next phase start, and an arrival only grows a drawn
node's backlog. A node keeps no flag for either: outside an exchange its
counter is positive exactly when it has drawn, and its backoff state
holds why it is locked.

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
the shared phases on the schedule's grants, one frame exchange per
grant. A grant's exchange begins as a contention transmission does, but
a shared phase has no contenders, so no grid pauses or resumes around it.

The kernel decides which lines a run traces and in what order; csma
renders them. At a slot end that starts an exchange, csma.trace_storm
renders each counting contender's state text once for its count line and
its tx_start or lock line, and the exchange keeps the locked ones' texts
for their unlock lines on its resume. Any other storm (one event for many
contenders at one instant: a slot's counts, a tick's draws and guard
locks, a phase entry's enter/unlock/sifs lines) goes to csma.trace_batch
as node ids and states, and each other exchange line to csma.trace_event.
Each place that traces tests the run's trace flag once, so an untraced
run makes no trace call at all (no _emit_batch and no trace_* renderer)
and collects no list of nodes to trace.

A run given an open trace file streams its trace: the line list is a
buffer that write_trace empties into the file at each superframe start and
at the end of the run, so a traced run's memory stays flat in run length.

Every transmission passes the security gate: a node whose session is at
an authenticated level must hold an active pairwise key, its payload
goes out through secure_frame, and the hub admits it on delivery, so
counter and tag handling are exercised on every simulated frame.
"""

from __future__ import annotations

import heapq
import math
import os
import random
from contextlib import nullcontext
from itertools import groupby
from types import SimpleNamespace

from bansim.errors import ConfigError, SimulationError
from bansim.mac.csma import (
    BackoffState,
    PRIORITY_TABLE,
    draw_backoff,
    on_failure,
    on_success,
    trace_batch,
    trace_event,
    trace_storm,
    trace_unlocks,
)
from bansim.mac.superframe import PhaseKind, TrafficKind, admissible
from bansim.security import HUB_ID, SecurityLevel, SecurityManager, admit_frame, secure_frame
from bansim.sim.scenario import EventKind, NodeSpec, Scenario, clock_us, compile_scenario
from bansim.sim.stats import NodeStats, RunStats, write_stats_csv
from bansim.textio import text_stream

__all__ = ["Simulation", "run", "run_to_files", "write_trace"]

# The event kinds, bound once: CPython 3.11 reads a member off its enum
# class through the metaclass's __getattr__ hook, at about 0.1 us a read,
# and the loop reads one or more per event.
_PHASE_START, _TX_END, _ACK_TIMEOUT, _DELIVERY = (
    EventKind.PHASE_START, EventKind.TX_END, EventKind.ACK_TIMEOUT, EventKind.DELIVERY
)
_POLL_GRANT, _BEACON_TX, _TRAFFIC_ARRIVAL, _SUPERFRAME = (
    EventKind.POLL_GRANT, EventKind.BEACON_TX, EventKind.TRAFFIC_ARRIVAL, EventKind.SUPERFRAME
)

# Hub trace lines borrow the node line format with zeroed contention
# fields; the renderers read nothing else of a state.
_HUB_FIELDS = SimpleNamespace(counter=0, cw=0, consecutive_failures=0)

# A contender's lines on phase entry: a locked counter unlocks between
# the two, and unlocking changes no traced field.
_ENTRY = ("enter", "sifs")
_ENTRY_UNLOCK = ("enter", "unlock", "sifs")


class _Node:
    __slots__ = ("spec", "backoff", "rng", "stats", "airtime_us", "payload_airtime_us", "exchange_us",
                 "backlog", "service_start", "session", "node_id", "airtime_int")

    def __init__(self, spec: NodeSpec, backoff: BackoffState, rng: random.Random, stats: NodeStats,
                 airtime_us: float, payload_airtime_us: float, exchange_us: int):
        self.spec = spec
        self.backoff = backoff
        self.rng = rng
        self.stats = stats
        self.airtime_us = airtime_us  # data frame, security overhead included
        self.payload_airtime_us = payload_airtime_us  # the user-payload share, exact
        self.exchange_us = exchange_us  # data, interframe space, ack and guard time
        self.backlog = 0  # frames waiting, the one in service included
        self.service_start: int | None = None
        self.session = None  # SecuritySession when level >= 1
        self.node_id = spec.node_id
        self.airtime_int = clock_us(airtime_us)  # the data frame on the clock


class _Exchange:
    """One channel occupation: a set of simultaneous data transmissions
    and the acknowledgement cycle that follows."""

    def __init__(self, kind: PhaseKind, phase_end: int, frozen: list[_Node]):
        self.kind = kind
        self.phase_end = phase_end
        self.frozen = frozen  # the contenders it holds busy-locked
        self.held: list[tuple[str, str]] = []  # a traced run's (node id, state text) per frozen one
        self.wires: dict[str, bytes | None] = {}
        self.pending = 0  # a collided exchange's timeouts to come


class Simulation:
    """One run of a scenario. With `collect_trace` the trace lines gather
    in `self.trace`; with `trace_file`, an open text handle, they are
    streamed to it instead and `self.trace` ends empty."""

    def __init__(self, scenario: Scenario, collect_trace: bool = False, trace_file=None):
        self.sc = scenario
        self.plan = plan = compile_scenario(scenario)
        self.security = SecurityManager()
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
        self._init_engine(scenario.timing, scenario.run.duration_us, plan.ack_us, nodes, collect_trace, trace_file)
        # A phase that no node contends in needs no event at its start.
        self._schedule = tuple(
            entry for entry in plan.schedule
            if entry[3] is not _PHASE_START or self._contenders[entry[4][0]]
        )
        groups: dict[str, list[str]] = {}
        for node_id, sec in scenario.security.items():
            if sec.group:
                groups.setdefault(sec.group, []).append(node_id)
        for group_id in sorted(groups):
            self.security.distribute_gtk(group_id, sorted(groups[group_id]))

    def _init_engine(self, timing, end_time, ack_airtime_us, nodes: list[_Node], collect_trace, trace_file=None) -> None:
        """Event loop, channel and contention state, shared by scenario
        runs and the test subclasses that drive the engine without one."""
        self.timing = timing
        self.end_time = end_time
        self.collect_trace = collect_trace or trace_file is not None
        self.trace: list[str] = []
        self._trace_file = trace_file  # where _flush_trace empties self.trace

        self.now = 0
        self._heap: list[tuple[int, int, int, EventKind, tuple]] = []
        self._seq = 0
        # The pending grid tick: (time, 2, seq, phase kind, phase end, the
        # nodes its slot end counts, the exchange it resumes after or None).
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
        contention = [n for _, n in sorted(self.nodes.items()) if n.spec.access == TrafficKind.CONTENTION]
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
            rank = 0 if kind is _PHASE_START else 1
            heapq.heappush(self._heap, (time_us, rank, self._seq, kind, data))

    def _push_tick(self, time_us: int, kind: PhaseKind, phase_end: int, counting, ended) -> None:
        """Hold the grid's next instant. It draws the seq a dynamic event
        pushed now would, so it sorts against the heap exactly."""
        if time_us < self.end_time:
            if self._tick is not None:
                raise SimulationError(f"a second grid tick pending at t={time_us}")
            self._seq += 1
            self._tick = (time_us, 2, self._seq, kind, phase_end, counting, ended)

    def _emit_batch(self, time_us: int, kind: PhaseKind, events: tuple[str, ...], nodes: list[_Node]) -> None:
        """Trace each event in `events` for each node, node by node; called
        only by a traced run."""
        if nodes:
            ids, states = [n.node_id for n in nodes], [n.backoff for n in nodes]
            trace_batch(self.trace, time_us, kind, events, ids, states)

    def _flush_trace(self) -> None:
        """Write the buffered lines to the trace file, if there is one."""
        if self._trace_file is not None:
            write_trace(self.trace, self._trace_file)
            self.trace.clear()

    # --------------------------------------------------------------- setup

    def _schedule_superframe(self, index: int) -> None:
        """Push the schedule entries active in superframe `index`, and the
        event that replays the next superframe at its start."""
        superframe_us = self.plan.layout.duration_us
        base = index * superframe_us
        for offset, period, residue, kind, data in self._schedule:
            if index % period == residue:
                self._push_schedule(base + offset, kind, data)
        self._push_schedule(base + superframe_us, _SUPERFRAME, (index + 1,))

    def _seed_traffic(self) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            model = node.spec.traffic[0]
            if model == "saturated":
                node.backlog = 1
                node.stats.offered += 1
            elif model == "poisson":
                self._push_arrival(node, 0)
            else:  # scripted
                for t in node.spec.traffic[1]:
                    self._push(t, _TRAFFIC_ARRIVAL, (node_id,))

    def _push_arrival(self, node: _Node, after_us: int) -> None:
        rate_per_s = node.spec.traffic[1]
        gap = node.rng.expovariate(rate_per_s) * 1_000_000
        # A gap that reaches the run end pushes nothing either way; dropping
        # it before rounding keeps an infinite gap (a tiny rate) off the clock.
        if gap < self.end_time - after_us:
            self._push(after_us + clock_us(gap), _TRAFFIC_ARRIVAL, (node.node_id,))

    # ----------------------------------------------------------- main loop

    def run(self) -> RunStats:
        self._schedule_superframe(0)
        self._seed_traffic()
        heap = self._heap
        while True:
            tick = self._tick
            if tick is not None and (not heap or tick < heap[0]):
                self._tick = None
                time_us, _, _, kind, phase_end, counting, ended = tick
                self.now = time_us
                self._on_slot_tick(kind, phase_end, counting, ended)
                continue
            if not heap:
                break
            time_us, _, _, kind, data = heapq.heappop(heap)
            self.now = time_us
            # The most frequent kinds first.
            if kind is _TX_END:
                self._on_tx_end(*data)
            elif kind is _ACK_TIMEOUT:
                self._on_timeout(*data)
            elif kind is _TRAFFIC_ARRIVAL:
                self._on_arrival(*data)
            elif kind is _DELIVERY:
                self._on_delivery(*data)
            elif kind is _POLL_GRANT:
                self._on_poll_grant(*data)
            elif kind is _PHASE_START:
                self._on_phase_start(*data)
            elif kind is _BEACON_TX:
                self._on_beacon()
            elif kind is _SUPERFRAME:
                self._flush_trace()
                self._schedule_superframe(*data)
        self._flush_trace()
        for node in self.nodes.values():
            node.stats.queued = node.backlog
        self.stats.check_conservation()
        return self.stats

    # ------------------------------------------------------------- phases

    def _on_phase_start(self, kind: PhaseKind, length_us: int) -> None:
        participants = self._contenders[kind]
        if not participants:
            return
        start, end = self.now, self.now + length_us
        if self.collect_trace:
            # Contenders in a row that are alike in being locked are traced
            # as one batch; unlocking changes no traced field, so they are
            # traced before the unlocks below.
            for locked, run in groupby(participants, key=lambda n: n.backoff.locked is not None):
                self._emit_batch(start, kind, _ENTRY_UNLOCK if locked else _ENTRY, list(run))
        for node in participants:
            node.backoff.locked = None
        if start + self.timing.psifs_us < end:
            self._push_tick(start + self.timing.psifs_us, kind, end, (), None)

    # ----------------------------------------------------------- the grid

    def _on_slot_tick(self, kind: PhaseKind, phase_end: int, counting, ended: _Exchange | None) -> None:
        if self.exchange is not None:
            return
        t = self.now
        participants = self._contenders[kind]
        tracing = self.collect_trace  # lists of nodes to trace stay empty otherwise

        transmitters: list[_Node] = []
        for node in counting:
            state = node.backoff
            state.counter -= 1
            if not state.counter:
                transmitters.append(node)
        if transmitters:
            self._begin_exchange(transmitters, t, kind, phase_end, counting)
            return
        if tracing:
            self._emit_batch(t, kind, ("count",), counting)
        if ended is not None:
            for node in ended.frozen:
                node.backoff.locked = None
            if tracing:
                trace_unlocks(self.trace, t, ended.held)

        # One pass in the order each contender goes through: a frame with
        # no counter draws one, and the guard locks a counter whose exchange
        # no longer fits after the upcoming slot. The lines keep that order
        # (draws, then locks, formatted after the pass: a lock changes no
        # traced field). The grid goes on while some contender can act: one
        # that has not drawn may draw after an arrival, a running counter
        # counts. A locked one waits for a resume tick or the next phase
        # start, and no exchange (hence no resume) begins without a running
        # counter.
        draws, locks = [], []
        running: list[_Node] = []
        low = math.inf  # the smallest running counter
        widest = 0  # the longest running exchange
        can_act = False
        fits_us = phase_end - self.timing.csma_slot_us - t
        for node in participants:
            state = node.backoff
            if state.counter == 0:
                if not node.backlog or state.locked:
                    can_act = True
                    continue
                draw_backoff(state, node.rng)
                if node.service_start is None:
                    node.service_start = t
                if tracing:
                    draws.append(node)
            if not state.locked:
                if node.exchange_us > fits_us:
                    state.locked = "guard"
                    if tracing:
                        locks.append(node)
                else:
                    can_act = True
                    running.append(node)
                    if state.counter < low:
                        low = state.counter
                    if node.exchange_us > widest:
                        widest = node.exchange_us
        if tracing:
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
            t += k * slot_us
        self._push_tick(t, kind, phase_end, running, None)

    # ---------------------------------------------------------- exchanges

    def _secure_payload(self, node: _Node) -> bytes | None:
        if node.session is None:
            return None
        if not node.session.ptk_active:
            raise SimulationError(
                f"{node.node_id}: secured transmission without an active pairwise key"
            )
        return secure_frame(bytes(node.spec.payload_bytes), node.session)

    def _collides(self, transmitters: list[_Node]) -> bool:
        """Whether the exchange's data frames fail: on the channel, when
        more than one is sent at once."""
        return len(transmitters) > 1

    def _begin_exchange(
        self, transmitters: list[_Node], t: int, kind: PhaseKind, phase_end: int, counting=()
    ) -> None:
        """Occupy the channel from t. Of `counting`, the contenders that
        counted the slot ending at t (none for a grant), those above zero
        are busy-locked until the exchange ends. A collided exchange pushes
        its data ends; a clean one has its data end and acknowledgement
        applied here and pushes its delivery."""
        if len(transmitters) > 1 and self.sc.run.channel == "ideal":
            raise SimulationError(
                f"{len(transmitters)} overlapping transmissions on an ideal channel at t={t}"
            )
        collided = self._collides(transmitters)
        frozen = [node for node in counting if node.backoff.counter]
        for node in frozen:
            node.backoff.locked = "busy"
        exchange = _Exchange(kind, phase_end, frozen)
        self.exchange = exchange
        for node in transmitters:
            exchange.wires[node.node_id] = self._secure_payload(node)
        tracing = self.collect_trace
        if tracing:
            if counting:
                ids, states = [n.node_id for n in counting], [n.backoff for n in counting]
                exchange.held = trace_storm(self.trace, t, kind, ids, states)
            else:
                self._emit_batch(t, kind, ("tx_start",), transmitters)
        if collided:
            exchange.pending = len(transmitters)
            for node in transmitters:
                self._push(t + node.airtime_int, _TX_END, (node.node_id,))
            return
        (node,) = transmitters
        data_end = t + node.airtime_int
        if data_end >= self.end_time:
            return
        if data_end > phase_end:
            raise SimulationError("transmission crossed its phase boundary")
        node.stats.tx_airtime_us += node.airtime_us
        stats = self.stats
        stats.add_busy(node.airtime_us)
        if tracing:
            trace_event(self.trace, data_end, kind, "tx_end", node.node_id, node.backoff)
        ack_start = data_end + self.timing.psifs_us
        if ack_start < self.end_time:
            stats.add_busy(self.ack_airtime_us)
            stats.ack_airtime_us += self.ack_airtime_us
            if tracing:
                trace_event(self.trace, ack_start, kind, "ack", node.node_id, node.backoff)
            self._push(ack_start + self.ack_int, _DELIVERY, (node.node_id,))

    def _on_tx_end(self, node_id: str) -> None:
        """A data end in a collided exchange: its airtime, and the timeout
        that follows the missing acknowledgement."""
        exchange = self.exchange
        if exchange is None:
            raise SimulationError("transmission ended outside an exchange")
        node = self.nodes[node_id]
        t = self.now
        if t > exchange.phase_end:
            raise SimulationError("transmission crossed its phase boundary")
        if self.collect_trace:
            trace_event(self.trace, t, exchange.kind, "tx_end", node_id, node.backoff)
        node.stats.tx_airtime_us += node.airtime_us
        self.stats.add_busy(node.airtime_us)
        timeout = t + self.timing.psifs_us + self.ack_int + self.timing.gtn_us
        self._push(timeout, _ACK_TIMEOUT, (node_id,))

    def _on_timeout(self, node_id: str) -> None:
        exchange = self.exchange
        if exchange is None:
            raise SimulationError("acknowledgement timeout outside an exchange")
        node = self.nodes[node_id]
        t = self.now
        node.stats.failed += 1
        node.stats.collided += 1
        on_failure(node.backoff)
        if self.collect_trace:
            trace_event(self.trace, t, exchange.kind, "fail", node_id, node.backoff)
        draw_backoff(node.backoff, node.rng)
        if self.collect_trace:
            trace_event(self.trace, t, exchange.kind, "draw", node_id, node.backoff)
        exchange.pending -= 1
        if exchange.pending == 0:
            # Timeouts run in time order, so the exchange ends at its last
            # one, now; the guard time already covers the gap.
            self._end_exchange(exchange, t)

    def _on_delivery(self, node_id: str) -> None:
        exchange = self.exchange
        if exchange is None:
            raise SimulationError("delivery outside an exchange")
        node = self.nodes[node_id]
        t = self.now
        wire = exchange.wires.get(node_id)
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
        node.service_start = None
        on_success(node.backoff)  # no change for a polled or scheduled node, which never fails
        if self.collect_trace:
            trace_event(self.trace, t, exchange.kind, "success", node_id, node.backoff)
        if node.spec.traffic[0] == "saturated":  # its next frame enters as this one leaves
            stats.offered += 1
        else:
            node.backlog -= 1
        self._end_exchange(exchange, t + self.timing.psifs_us)

    def _end_exchange(self, exchange: _Exchange, resume: int) -> None:
        """Free the channel; the grid resumes at `resume` if that is inside
        the phase. A shared phase has no grid to resume."""
        self.exchange = None
        if self._contenders[exchange.kind] and resume < exchange.phase_end:
            self._push_tick(resume, exchange.kind, exchange.phase_end, (), exchange)

    # ------------------------------------------------- grants and beacons

    def _on_poll_grant(self, node_id: str, duration: int, window_us: int, kind: PhaseKind) -> None:
        node = self.nodes[node_id]
        if not node.backlog or self.exchange is not None:
            return
        t = self.now
        if node.exchange_us > duration:
            raise SimulationError(
                f"{node_id}: a {node.exchange_us} us frame exchange does not fit its {duration} us grant"
            )
        if node.service_start is None:
            node.service_start = t
        self._begin_exchange([node], t, kind, t + window_us)

    def _on_beacon(self) -> None:
        t, end = self.now, self.now + clock_us(self.plan.beacon_us)
        if self.collect_trace:
            trace_event(self.trace, t, PhaseKind.BEACON, "tx_start", HUB_ID, _HUB_FIELDS)
        if end < self.end_time:
            self.stats.add_busy(self.plan.beacon_us)
            self.stats.beacon_airtime_us += self.plan.beacon_us
            self.stats.beacons += 1
            if self.collect_trace:
                trace_event(self.trace, end, PhaseKind.BEACON, "tx_end", HUB_ID, _HUB_FIELDS)

    def _on_arrival(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.backlog += 1
        node.stats.offered += 1
        if node.spec.traffic[0] == "poisson":
            self._push_arrival(node, self.now)


# ------------------------------------------------------------- front door


def run(scenario: Scenario, collect_trace: bool = False, trace_file=None) -> tuple[RunStats, list[str]]:
    """Run one scenario to completion; returns the stats and, when asked
    for, the event trace lines. Given `trace_file`, an open text handle,
    the lines are streamed to it and the returned list is empty."""
    sim = Simulation(scenario, collect_trace=collect_trace, trace_file=trace_file)
    stats = sim.run()
    return stats, sim.trace


def write_trace(lines: list[str], out) -> None:
    """One line per entry, each ended by a newline; no lines, no bytes.
    Writing a trace in pieces gives the same bytes as writing it whole."""
    with text_stream(out) as fh:
        if lines:
            fh.write("\n".join(lines))
            fh.write("\n")


def run_to_files(scenario: Scenario, stats_path=None, trace_path=None) -> RunStats:
    """Run and write the stats CSV and optional trace to the paths given;
    a scenario names no output. Both files are opened before the run and
    put in place after it, so a run that raises writes neither. The two
    may not name one file: the stats would silently replace the trace."""
    if stats_path and trace_path and (target := os.path.realpath(stats_path)) == os.path.realpath(trace_path):
        raise ConfigError(f"stats and trace both go to {target}")
    with (
        (text_stream(stats_path) if stats_path else nullcontext()) as stats_file,
        (text_stream(trace_path) if trace_path else nullcontext()) as trace_file,
    ):
        stats, _ = run(scenario, trace_file=trace_file)
        if stats_file is not None:
            write_stats_csv(stats, stats_file)
    return stats
