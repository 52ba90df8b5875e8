"""Deterministic discrete-event kernel.

The kernel runs a compiled Plan. sim.scenario.compile_scenario checks
every value and static rule of a scenario (a ScenarioError before any
event) and derives its Plan: the airtimes, each phase's contenders, each
node's frame exchange and one superframe's schedule of phase starts,
beacons and grants, with the scenario itself. Simulation takes a Plan, or
compiles a Scenario; the kernel only replays the plan and joins it with
the CSMA engine and the security sessions. A broken invariant of its own
raises SimulationError. Time is a 64-bit microsecond clock. An event
is the handler it runs: a heap entry is (time, rank, seq, handler, args),
and run() pops the first and calls handler(*args), so events run in
(time, rank, insertion order) and a run is a pure function of (scenario,
seed). A run covers [0, end): an event at its end instant does not
happen, while an exchange that fits its phase exactly does. A beacon
traces its start, but its airtime, count and tx_end line only if it ends
before the run's end, as a clean exchange's data end does. At one instant
the schedule (the plan's entries and the superframe starts, rank 1) runs
before dynamic events (grid ticks, transmissions, arrivals, rank 2), in
push order, which is plan order and so puts a phase start first. Each
entry of the plan's schedule is bound to its handler once, when the run
is set up. The schedule is replayed one superframe ahead: _on_superframe
pushes superframe i+1 when the run reaches its start, which keeps the
heap small and, thanks to the rank order, gives the same order as a
schedule filled for the whole run up front.

The heap holds only instants that something can observe: the start of a
phase that some node may contend in (the plan schedules no other phase
start), each beacon, grant and superframe start, each traffic arrival,
and the end of each frame exchange. A clean exchange (a grant's, or one
lone contender's) is one event at its delivery, data + pSIFS + ack after
it begins; its earlier hops are applied when it begins, each only if its
instant comes before the run's end: the data end's airtime and phase
check, then the acknowledgement's airtime, added in the order their
events added them, and in a traced run their tx_end and ack lines right
after the lines of the slot end that starts it. A collided exchange is
one event per transmitter, its timeout. Its data ends are applied when
it begins, in time order (ties in transmitter order) up to the run's
end: each adds its airtime, meets the phase check and pushes its
timeout, its node's planned frame exchange (data + pSIFS + ack + gTN)
after the start. A traced run holds each tx_end line until the first
line traced at or after its instant (a fail line, or a phase entry or
beacon at an exact-fit exchange's last timeout) or the run's end. The
guard keeps every exchange inside its phase, so while the channel is
held no other event adds busy time or traces a line, and a delivery
draws no random number and commutes with an arrival at its instant.

Two orders differ from hop-by-hop events. First, the delivery takes its
place in the heap when the exchange begins, so a Poisson arrival pushed
onto the delivery instant after that and before the acknowledgement's
instant runs after the delivery rather than before. The two commute, but
what they push next (that arrival's successor, the resume tick) swaps
order; if those two also fall on one microsecond, the resume can draw
the arrival's node a counter before the successor takes its gap off that
node's stream. Second, a collided transmitter's timeout takes its place
when the exchange begins, so a Poisson arrival pushed during the data
frame onto the timeout instant runs after the timeout rather than before.
A timeout draws a new counter from its node's stream, so when the
arrival is that node's own, the counter is drawn before the arrival's
successor takes its gap off the stream. tests/test_sim.py pins a run of
each (TestArrivalOnADelivery, TestArrivalOnATimeout).

Contention runs on one global slot grid per access phase. The grid starts
one interframe space after phase entry, pauses while a frame exchange
occupies the channel, and resumes one interframe space after an
acknowledgement (immediately after a timeout, whose guard time already
covers the gap). At every grid instant pending draws happen first, then
each contender checks the phase-fit guard. A slot end counts down exactly
the running counters the tick before it found, and one reaching zero
transmits at once: the exchange holds the others, as the grid does not
tick until its resume. A traced run, and a split run's child up to its
cut, marks them busy-locked for the lock and unlock lines, and the resume
(or the phase's next entry) lifts exactly those marks. A contender
locks at t exactly when t + slot + its frame exchange passes the phase
end. The grid never ticks at or past the phase end, and it stops once
every contender of the phase has drawn and is locked: nothing can count,
draw or unlock until the next phase start, and an arrival only grows a
drawn node's backlog. A node keeps no flag for either: outside an
exchange its counter is positive exactly when it has drawn, and its
backoff state holds why it is locked.

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
A grant, a schedule event, sorts before the end of an exchange on its
instant (with no guard time, a grant's exchange ends on the next grant),
so a grant that meets an exchange runs once more at its instant as a
dynamic event, after that end.

The kernel decides which lines a run traces and in what order; csma
renders them. At a slot end that starts an exchange, csma.trace_storm
renders each counting contender's state text once for its count line and
its tx_start or lock line, and the exchange keeps the locked ones' texts
for their unlock lines on its resume. Any other storm (one event for many
contenders at one instant: a slot's counts, a tick's draws and guard
locks, a phase entry's enter/unlock/sifs lines) goes to csma.trace_batch
as the nodes themselves, and each other exchange line to
csma.trace_event. Each place that traces tests the run's trace flag
once, so an untraced run makes no trace_* call at all and collects no
list of nodes to trace.

A run given an open trace file streams its trace: the line list is a
buffer that write_trace empties into the file at each superframe start and
at the end of the run, so a traced run's memory stays flat in run length.

run() splits such a run across two processes where it can (os.fork, two
usable CPUs, a process fork_jobs did not fork, two or more superframes):
a child forked at the start runs the whole scenario, untraced up to a cut
and traced after it into a scratch file, while the calling process traces
up to the cut straight into the caller's file, then appends the child's
lines. The cut is the first superframe start whose index is at least half
the run's superframe count, rounded up, with no exchange in flight. It is
exact because the trace only observes the run: at such an instant no grid
tick is pending (the grid never ticks at a phase end), no unlock text or
tx_end line is held (they live only as long as their exchange), tracing
draws no random number and pushes no event, and the child marks held
counters as a traced run does, so both processes hold the same state
there and find the same cut. _on_superframe, which runs once per
superframe, holds the cut test; at the cut the calling process writes out
its lines and empties its heap, so the loop ends and run() returns None.
If no superframe start qualifies, the calling process traces the whole
run and the child's half is empty. The stats returned are the child's,
from its full run, which is where check_conservation runs; the calling
process stops at the cut without them.

Every transmission by a secured node passes the security gate,
spend_counter, which refuses it without an active pairwise key
(association always establishes one) or with its counter exhausted, and
spends one counter. Only a clean exchange's frame is sealed: secure_frame
passes the gate and stamps, tags and (at level 2) masks the payload into
the exchange's one wire, and the hub admits it on delivery, checking its
level, tag and replay floor. A collided exchange's frames never reach the
hub, so each only passes the gate and the exchange has no wire; the
receiver's counter trails by them.
"""

from __future__ import annotations

import heapq
import math
import os
import random
from contextlib import nullcontext
from itertools import groupby
from operator import attrgetter
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
from bansim.mac.superframe import PhaseKind, admissible  # admissible: bound only for bench/test_bench.py
from bansim.security import HUB_ID, SecurityLevel, SecurityManager, admit_frame, secure_frame, spend_counter
from bansim.sim.scenario import EventKind, NodeSpec, Plan, Scenario, clock_us, compile_scenario
from bansim.sim.stats import NodeStats, RunStats, write_stats_csv
from bansim.textio import scratch_text, text_stream

__all__ = ["Simulation", "fork_jobs", "run", "run_to_files", "write_trace"]

# Hub trace lines borrow the node line format with zeroed contention
# fields; the renderers read nothing else of a state.
_HUB_FIELDS = SimpleNamespace(counter=0, cw=0, consecutive_failures=0)

# A contender's lines on phase entry: a locked counter unlocks between
# the two, and unlocking changes no traced field.
_ENTRY = ("enter", "sifs")
_ENTRY_UNLOCK = ("enter", "unlock", "sifs")

_AIRTIME = attrgetter("airtime_int")  # orders a collided exchange's data ends

# Set in each process fork_jobs forks, which then runs a traced run unsplit.
_forked = False


class _Node:
    __slots__ = ("spec", "backoff", "rng", "stats", "airtime_us", "payload_airtime_us", "exchange_us",
                 "backlog", "service_start", "session", "node_id", "airtime_int", "payload")

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
        self.payload = bytes(spec.payload_bytes)  # the body every frame carries


class _Exchange:
    """One channel occupation: a set of simultaneous data transmissions
    and the acknowledgement cycle that follows."""

    __slots__ = ("kind", "phase_end", "held", "wire", "pending")

    def __init__(self, kind: PhaseKind, phase_end: int):
        self.kind = kind
        self.phase_end = phase_end
        self.held: tuple | list[tuple[_Node, str]] = ()  # (node, state text) per held contender, if marked
        self.wire: bytes | None = None  # a clean exchange's sealed frame
        self.pending = 0  # a collided exchange's timeouts to come


class Simulation:
    """One run of a Plan (a Scenario is compiled first). With `collect_trace`
    the trace lines gather in `self.trace`; with `trace_file`, an open text
    handle, they are streamed to it instead and `self.trace` ends empty."""

    def __init__(self, plan: Plan | Scenario, collect_trace: bool = False, trace_file=None):
        self.plan = plan = plan if isinstance(plan, Plan) else compile_scenario(plan)
        scenario = plan.scenario
        self.beacon_int = clock_us(plan.beacon_us)  # the beacon on the clock
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
        self._init_engine(scenario.timing, scenario.run.duration_us, plan.ack_us, nodes, plan.contenders,
                          collect_trace, trace_file)
        # Each schedule entry, bound once: (offset, period, residue, handler, args).
        bound = {EventKind.PHASE_START: self._on_phase_start, EventKind.BEACON_TX: self._on_beacon,
                 EventKind.POLL_GRANT: self._on_poll_grant}
        self._schedule = tuple(
            (offset, period, residue, bound[kind], args) for offset, period, residue, kind, args in plan.schedule
        )
        groups: dict[str, list[str]] = {}
        for node_id, sec in scenario.security.items():
            if sec.group:
                groups.setdefault(sec.group, []).append(node_id)
        for group_id in sorted(groups):
            self.security.distribute_gtk(group_id, sorted(groups[group_id]))

    def _init_engine(self, timing, end_time, ack_airtime_us, nodes: list[_Node], contenders, collect_trace,
                     trace_file=None) -> None:
        """Event loop, channel and contention state (`contenders` as in
        Plan.contenders), shared by scenario runs and the test subclasses
        that drive the engine without one."""
        self.timing = timing
        self.end_time = end_time
        self.collect_trace = collect_trace or trace_file is not None
        self.trace: list[str] = []
        self._trace_file = trace_file  # where _flush_trace empties self.trace
        # A split run's cut (see _on_superframe): the superframe index from
        # which a start with no exchange in flight is the cut (None once the
        # calling side has stopped there), and, in the child, the scratch
        # file that its traced half goes to.
        self._cut: float | None = math.inf
        self._rest = None

        self.now = 0
        # (time, rank, seq, handler, args): run() calls handler(*args).
        self._heap: list[tuple[int, int, int, object, tuple]] = []
        self._seq = 0
        # The pending grid tick: (time, 2, seq, phase kind, phase end, the
        # nodes its slot end counts, the exchange it resumes after or None).
        self._tick: tuple | None = None
        # A traced collided exchange's tx_end lines not yet written: (data
        # end, phase, node) per data end, in time order.
        self._late: list[tuple[int, PhaseKind, _Node]] = []

        self.ack_airtime_us = ack_airtime_us
        self.ack_int = clock_us(ack_airtime_us)
        self.nodes: dict[str, _Node] = {node.node_id: node for node in nodes}
        self.exchange: _Exchange | None = None
        self.stats = RunStats(elapsed_us=end_time)
        for node_id, node in self.nodes.items():
            self.stats.nodes[node_id] = node.stats
        self._contenders = {kind: [self.nodes[node_id] for node_id in ids] for kind, ids in contenders.items()}

    # ------------------------------------------------------------ plumbing

    def _push(self, time_us: int, handler, args: tuple = (), rank: int = 2) -> None:
        """Queue handler(*args) at time_us, after the events of its rank and
        lower at that instant: 1 for the schedule, 2 for a dynamic event."""
        if time_us < self.end_time:
            self._seq += 1
            heapq.heappush(self._heap, (time_us, rank, self._seq, handler, args))

    def _push_tick(self, time_us: int, kind: PhaseKind, phase_end: int, counting, ended) -> None:
        """Hold the grid's next instant. It draws the seq a dynamic event
        pushed now would, so it sorts against the heap exactly."""
        if time_us < self.end_time:
            if self._tick is not None:
                raise SimulationError(f"a second grid tick pending at t={time_us}")
            self._seq += 1
            self._tick = (time_us, 2, self._seq, kind, phase_end, counting, ended)

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
        for offset, period, residue, handler, args in self._schedule:
            if index % period == residue:
                self._push(base + offset, handler, args, 1)
        self._push(base + superframe_us, self._on_superframe, (index + 1,), 1)

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
                    self._push(t, self._on_arrival, (node_id,))

    def _push_arrival(self, node: _Node, after_us: int) -> None:
        rate_per_s = node.spec.traffic[1]
        gap = node.rng.expovariate(rate_per_s) * 1_000_000
        # A gap that reaches the run end pushes nothing either way; dropping
        # it before rounding keeps an infinite gap (a tiny rate) off the clock.
        if gap < self.end_time - after_us:
            self._push(after_us + clock_us(gap), self._on_arrival, (node.node_id,))

    # ----------------------------------------------------------- main loop

    def run(self) -> RunStats | None:
        """Run to the end and return the checked stats; the calling side of
        a split run returns None at its cut instead."""
        self._schedule_superframe(0)
        self._seed_traffic()
        heap = self._heap
        while True:
            tick = self._tick
            if tick is not None and (not heap or tick < heap[0]):
                self._tick = None
                self.now, _, _, kind, phase_end, counting, ended = tick
                self._on_slot_tick(kind, phase_end, counting, ended)
                continue
            if not heap:
                break
            self.now, _, _, handler, args = heapq.heappop(heap)
            handler(*args)
        if self._cut is None:  # the calling side of a split run, stopped at its cut
            return None
        if self._late:
            self._trace_late(self.end_time)
        self._flush_trace()
        for node in self.nodes.values():
            node.stats.queued = node.backlog
        self.stats.check_conservation()
        return self.stats

    def _on_superframe(self, index: int) -> None:
        """Superframe `index` starts: write out the buffered lines and push
        its schedule. At a split run's cut the calling side writes out its
        lines and stops, with an empty heap, and the child traces on from
        here into its scratch file."""
        if index >= self._cut and self.exchange is None:
            if self._rest is None:
                self._flush_trace()
                self._heap.clear()
                self._cut = None
                return
            self._cut = math.inf
            self.collect_trace, self._trace_file = True, self._rest
        self._flush_trace()
        self._schedule_superframe(index)

    # ------------------------------------------------------------- phases

    def _on_phase_start(self, kind: PhaseKind, length_us: int) -> None:
        participants = self._contenders[kind]
        start, end = self.now, self.now + length_us
        if self.collect_trace:
            if self._late:  # an exchange that ends exactly here
                self._trace_late(start)
            # Contenders in a row that are alike in being locked are traced
            # as one batch; unlocking changes no traced field, so they are
            # traced before the unlocks below.
            for locked, run in groupby(participants, key=lambda n: n.backoff.locked is not None):
                trace_batch(self.trace, start, kind, _ENTRY_UNLOCK if locked else _ENTRY, list(run))
        for node in participants:
            node.backoff.locked = None
        if start + self.timing.psifs_us < end:
            self._push_tick(start + self.timing.psifs_us, kind, end, (), None)

    # ----------------------------------------------------------- the grid

    def _on_slot_tick(self, kind: PhaseKind, phase_end: int, counting, ended: _Exchange | None) -> None:
        if self.exchange is not None:
            raise SimulationError(f"a grid tick at t={self.now} during an exchange")
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
            trace_batch(self.trace, t, kind, ("count",), counting)
        if ended is not None:
            for node, _ in ended.held:
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
                if not node.backlog:
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
            trace_batch(self.trace, t, kind, ("draw",), draws)
            trace_batch(self.trace, t, kind, ("lock",), locks)
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
                    for j in range(k):
                        for state in states:
                            state.counter -= 1
                        trace_batch(self.trace, t + j * slot_us, kind, ("count",), running)
                else:
                    for state in states:
                        state.counter -= k
            t += k * slot_us
        self._push_tick(t, kind, phase_end, running, None)

    # ---------------------------------------------------------- exchanges

    def _collides(self, transmitters: list[_Node]) -> bool:
        """Whether the exchange's data frames fail: on the channel, when
        more than one is sent at once."""
        return len(transmitters) > 1

    def _begin_exchange(
        self, transmitters: list[_Node], t: int, kind: PhaseKind, phase_end: int, counting=()
    ) -> None:
        """Occupy the channel from t. Of `counting`, the contenders that
        counted the slot ending at t (none for a grant), those above zero
        are held; a traced run, and a split run's child up to its cut, also
        marks them busy-locked until the resume tick or the phase's next
        entry. A collided exchange has its data ends applied here and pushes
        their timeouts; a clean one has its data end and acknowledgement
        applied here and pushes its delivery."""
        if len(transmitters) > 1 and self.plan.scenario.run.channel == "ideal":
            raise SimulationError(
                f"{len(transmitters)} overlapping transmissions on an ideal channel at t={t}"
            )
        collided = self._collides(transmitters)
        exchange = _Exchange(kind, phase_end)
        self.exchange = exchange
        for node in transmitters:
            if node.session is None:
                continue
            if collided:  # never reaches the hub: spent, not sealed
                spend_counter(node.session)
            else:
                exchange.wire = secure_frame(node.payload, node.session)
        tracing = self.collect_trace
        if tracing:
            if counting:
                exchange.held = trace_storm(self.trace, t, kind, counting)
            else:
                trace_batch(self.trace, t, kind, ("tx_start",), transmitters)
        elif self._rest is not None:  # a split run's child up to its cut holds them as the traced run does
            exchange.held = [(node, "") for node in counting if node.backoff.counter]
        for node, _ in exchange.held:
            node.backoff.locked = "busy"
        if collided:
            exchange.pending = len(transmitters)
            self._collide(transmitters, t, kind, phase_end)
            return
        (node,) = transmitters
        data_end = t + node.airtime_int
        if data_end >= self.end_time:
            return
        if data_end > phase_end:
            raise SimulationError("transmission crossed its phase boundary")
        node.stats.tx_airtime_us += node.airtime_us
        if tracing:
            trace_event(self.trace, data_end, kind, "tx_end", node.node_id, node.backoff)
        ack_start = data_end + self.timing.psifs_us
        if ack_start < self.end_time:
            self.stats.ack_airtime_us += self.ack_airtime_us
            if tracing:
                trace_event(self.trace, ack_start, kind, "ack", node.node_id, node.backoff)
            self._push(ack_start + self.ack_int, self._on_delivery, (node.node_id,))

    def _collide(self, transmitters: list[_Node], t: int, kind: PhaseKind, phase_end: int) -> None:
        """A collided exchange's data ends, in time order (ties in
        transmitter order) up to the run's end: each adds its airtime and
        pushes the timeout that follows the missing acknowledgement, one
        frame exchange after t. A traced run holds each one's tx_end line
        for _trace_late."""
        end_time, tracing = self.end_time, self.collect_trace
        for node in sorted(transmitters, key=_AIRTIME):
            data_end = t + node.airtime_int
            if data_end >= end_time:
                break
            if data_end > phase_end:
                raise SimulationError("transmission crossed its phase boundary")
            node.stats.tx_airtime_us += node.airtime_us
            self._push(t + node.exchange_us, self._on_timeout, (node.node_id,))
            if tracing:
                self._late.append((data_end, kind, node))

    def _trace_late(self, t: int) -> None:
        """Write the held tx_end lines of data ends at or before t: before
        the first line traced at or after each, and before its node's fail
        line changes the state it shows."""
        late = self._late
        while late and late[0][0] <= t:
            data_end, kind, node = late.pop(0)
            trace_event(self.trace, data_end, kind, "tx_end", node.node_id, node.backoff)

    def _on_timeout(self, node_id: str) -> None:
        exchange = self.exchange
        if exchange is None:
            raise SimulationError("acknowledgement timeout outside an exchange")
        node = self.nodes[node_id]
        t = self.now
        if self._late:
            self._trace_late(t)
        node.stats.failed += 1
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
        wire = exchange.wire
        if wire is not None:
            body = admit_frame(wire, node.session)
            if body != node.payload:
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

    def _on_poll_grant(self, node_id: str, duration: int, window_us: int, kind: PhaseKind, deferred=False) -> None:
        node = self.nodes[node_id]
        if not node.backlog:
            return
        t = self.now
        if self.exchange is not None:
            if deferred:  # the guard and grant sizing leave only an exchange ending at t
                raise SimulationError(f"{node_id}: a grant deferred to t={t} met an exchange in flight")
            self._push(t, self._on_poll_grant, (node_id, duration, window_us, kind, True))
            return
        if node.exchange_us > duration:
            raise SimulationError(
                f"{node_id}: a {node.exchange_us} us frame exchange does not fit its {duration} us grant"
            )
        if node.service_start is None:
            node.service_start = t
        self._begin_exchange([node], t, kind, t + window_us)

    def _on_beacon(self) -> None:
        t, end = self.now, self.now + self.beacon_int
        if self.collect_trace:
            if self._late:  # an exchange that ends exactly here
                self._trace_late(t)
            trace_event(self.trace, t, PhaseKind.BEACON, "tx_start", HUB_ID, _HUB_FIELDS)
        if end < self.end_time:
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


def run(plan: Plan | Scenario, collect_trace: bool = False, trace_file=None) -> tuple[RunStats, list[str]]:
    """Run one plan (or scenario) to completion; returns the stats and,
    when asked for, the event trace lines. Given `trace_file`, an open text
    handle, the lines are streamed to it and the returned list is empty;
    such a run is split across two processes where it can (see the module
    docstring), with the bytes of one process."""
    sim = Simulation(plan, collect_trace=collect_trace, trace_file=trace_file)
    superframes = -(-sim.end_time // sim.plan.layout.duration_us)
    if trace_file is not None and superframes > 1 and _may_split():
        stats = _run_split(sim, trace_file, (superframes + 1) // 2)
    else:
        stats = sim.run()
    return stats, sim.trace


def _may_split() -> bool:
    """Whether this process can trace a run's second half in a child: it
    has os.fork and two usable CPUs, and fork_jobs did not fork it."""
    return (
        not _forked and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
    )


def _run_split(sim: Simulation, trace_file, cut: int) -> RunStats:
    """Run `sim`, whose trace streams to `trace_file`, in two processes cut
    at the first superframe start from index `cut` with no exchange in
    flight; returns the child's stats. A child that raises fails the run
    with its exception, after this process has traced up to the cut."""
    sim._cut = cut
    with scratch_text() as rest:

        def second_half() -> RunStats:
            sim.collect_trace, sim._trace_file, sim._rest = False, None, rest
            stats = sim.run()
            rest.flush()
            return stats

        [(ok, value)] = fork_jobs([("the process tracing the run's second half", second_half)], sim.run)
        if not ok:
            raise value
        rest.seek(0)
        while chunk := rest.read(1 << 16):
            trace_file.write(chunk)
    return value


def fork_jobs(jobs, meanwhile=None):
    """Run each of `jobs`, (name, function of no arguments) pairs, in a
    child forked for it, and `meanwhile` (if given) here while they run.
    Returns each job's outcome in job order: (True, what it returned) or
    (False, the exception it raised). A child sends its outcome back
    pickled over its own pipe; one that ends without sending it has the
    outcome (False, SimulationError) that names the job and how its
    process ended. If this process raises or is interrupted before every
    outcome is in, the children are killed. Every child is reaped before
    this returns or raises, and no child forks again: a traced run in it
    is not split."""
    # Loaded here, on the one path that forks: at the top, pickle would
    # cost every run start-up time.
    import pickle

    global _forked
    read_fds, pids = [], []
    try:
        for _, job in jobs:
            read_fd, write_fd = os.pipe()
            read_fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    # The child never returns into its caller: whatever
                    # happens, it leaves through os._exit, flushing nothing
                    # the parent still holds in its buffers.
                    status = 1
                    try:
                        _forked = True
                        for fd in read_fds:
                            os.close(fd)
                        try:
                            outcome = (True, job())
                        except Exception as exc:  # the parent raises it
                            outcome = (False, exc)
                        unsent = memoryview(pickle.dumps(outcome))
                        while unsent:
                            unsent = unsent[os.write(write_fd, unsent):]
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)
            pids.append(pid)
        if meanwhile is not None:
            meanwhile()
        sent = []
        for fd in read_fds:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            sent.append(b"".join(chunks))
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # not reaped yet, so the pid is still the child's
        raise
    finally:
        for fd in read_fds:
            os.close(fd)  # a child still writing gets a broken pipe, not a block
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    outcomes = []
    for (name, _), data, status in zip(jobs, sent, statuses):
        if status == 0:
            outcomes.append(pickle.loads(data))
            continue
        code = os.waitstatus_to_exitcode(status)
        ended = f"by signal {-code}" if code < 0 else f"with exit status {code}"
        outcomes.append((False, SimulationError(f"{name} ended {ended} before sending its stats")))
    return outcomes


def write_trace(lines: list[str], out) -> None:
    """One line per entry, each ended by a newline; no lines, no bytes.
    Writing a trace in pieces gives the same bytes as writing it whole."""
    with text_stream(out) as fh:
        if lines:
            fh.write("\n".join(lines))
            fh.write("\n")


def run_to_files(plan: Plan | Scenario, stats_path=None, trace_path=None) -> RunStats:
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
        stats, _ = run(plan, trace_file=trace_file)
        if stats_file is not None:
            write_stats_csv(stats, stats_file)
    return stats
