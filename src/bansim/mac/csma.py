"""Slotted CSMA/CA contention engine.

One BackoffState per node: the node draws a counter uniformly from
[1, CW], decrements it once per idle contention slot, and transmits when
it reaches zero; a positive counter marks a backoff in progress. The
counter locks (value preserved, never redrawn) while the channel is busy
("busy") and whenever the time left in the current access phase cannot
fit one more slot plus a full frame exchange and the nominal guard time
("guard"). The state's `locked` holds that reason, None when unlocked,
and a draw or a success clears it (the kernel sets "busy" only for a
trace to read). CW doubles only on every second consecutive failure,
capped at CW_max, and resets to CW_min on success.

Trace lines are rendered here and nowhere else. trace_batch appends the
lines of one instant of one phase straight from the nodes it is given,
reading each one's node_id and backoff state: one event for many nodes (a
slot's counts, a tick's draws or guard locks) or a few events per node (a
phase entry). At a slot end that starts an exchange, trace_storm renders
each counting node's state text (counter, window, failures, phase) once
for its count line and its tx_start or lock line, and returns each locked
node with its text; trace_unlocks reuses that text for its unlock line,
as a busy-locked state cannot change before its unlock. trace_event
appends one event of one node id and state, as a hub line has no node.
The decimal text of counters, windows and failure counts comes from a
cache that fills on first use, so each line is one f-string. trace_line
renders one (node id, event, state) entry through trace_event.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol

from bansim.mac.superframe import PhaseKind

__all__ = [
    "PriorityClass",
    "PRIORITY_TABLE",
    "MacTimingConstants",
    "BackoffState",
    "draw_backoff",
    "on_idle_slot",
    "on_busy",
    "exchange_us",
    "guard_check",
    "on_failure",
    "on_success",
    "trace_batch",
    "trace_event",
    "trace_line",
    "trace_storm",
    "trace_unlocks",
]


class Rng(Protocol):
    def randrange(self, stop: int) -> int: ...


class PriorityClass:
    __slots__ = ("user_priority", "cw_min", "cw_max")

    def __init__(self, user_priority: int, cw_min: int, cw_max: int):
        if not 1 <= cw_min <= cw_max:
            raise ValueError(f"need 1 <= cw_min <= cw_max, got ({cw_min}, {cw_max})")
        self.user_priority = user_priority  # 0 (lowest) .. 7 (highest)
        self.cw_min = cw_min
        self.cw_max = cw_max


# Contention window bounds per user priority, fixed for every scenario (no
# scenario key changes them): monotone in priority, halving roughly every
# step, highest priority most aggressive.
PRIORITY_TABLE = {
    up: PriorityClass(up, lo, hi)
    for up, (lo, hi) in enumerate(
        [(16, 64), (16, 32), (8, 32), (8, 16), (4, 16), (4, 8), (2, 8), (1, 4)]
    )
}


class MacTimingConstants(NamedTuple):
    """Interframe spacing, contention slot size, and nominal guard time.

    Implementation defaults; the model ties behavior to the constants, not
    to these particular values.
    """

    psifs_us: int = 50
    csma_slot_us: int = 125
    gtn_us: int = 85


class BackoffState:
    __slots__ = ("priority", "counter", "locked", "consecutive_failures", "cw")

    def __init__(self, priority: PriorityClass):
        self.priority = priority
        self.counter = 0
        self.locked: str | None = None  # why frozen: "guard" | "busy" (traced runs and a split child only)
        self.consecutive_failures = 0
        self.cw = priority.cw_min


def draw_backoff(state: BackoffState, rng: Rng) -> BackoffState:
    """Draw a fresh counter uniformly over [1, CW] and unlock.

    random.Random.randrange(CW) runs the same rejection loop over
    getrandbits as randint(1, CW), one value lower and without randint's
    two extra calls, so the stream and the counters are unchanged."""
    state.counter = rng.randrange(state.cw) + 1
    state.locked = None
    return state


def on_idle_slot(state: BackoffState) -> bool:
    """Count one idle slot down; True signals a due transmission.

    A locked state ignores idle slots entirely.
    """
    if state.locked:
        return False
    if state.counter <= 0:
        raise ValueError("no backoff in progress")
    state.counter -= 1
    return state.counter == 0


def on_busy(state: BackoffState) -> BackoffState:
    """Busy channel: freeze the counter exactly where it is."""
    state.locked = "busy"
    return state


def exchange_us(data_tx_us: float, ack_tx_us: float, timing: MacTimingConstants) -> float:
    """Time one frame exchange needs: the data transmission, one
    interframe space, the acknowledgement, and the nominal guard time."""
    return data_tx_us + timing.psifs_us + ack_tx_us + timing.gtn_us


def guard_check(
    state: BackoffState,
    now_us: float,
    phase_end_us: float | None,
    pending_tx_us: float,
    ack_tx_us: float,
    timing: MacTimingConstants,
) -> bool:
    """Decide at a slot boundary whether the exchange still fits the phase.

    Proceeding requires the upcoming slot plus one frame exchange
    (`exchange_us`) to finish by `phase_end_us`; an exact fit proceeds.
    Returns True to proceed, False after locking the counter for "guard".
    """
    if phase_end_us is None or phase_end_us == math.inf:
        return True
    needed = timing.csma_slot_us + exchange_us(pending_tx_us, ack_tx_us, timing)
    if now_us + needed > phase_end_us:
        state.locked = "guard"
        return False
    return True


def on_failure(state: BackoffState) -> BackoffState:
    """Record a missed acknowledgement.

    CW doubles on even-numbered consecutive failures only, saturating at
    CW_max. The caller draws the replacement backoff with draw_backoff.
    """
    state.consecutive_failures += 1
    if state.consecutive_failures % 2 == 0:
        state.cw = min(2 * state.cw, state.priority.cw_max)
    return state


def on_success(state: BackoffState) -> BackoffState:
    """Acknowledged transmission: reset the contention window."""
    state.cw = state.priority.cw_min
    state.consecutive_failures = 0
    state.locked = None
    return state


# The end of every line in each phase: a comma and the phase name.
_PHASE_TAILS = {kind: f",{kind.value}" for kind in PhaseKind}

# Decimal text of the integers trace lines have shown so far. It holds at
# most one entry per distinct counter, window and failure count, so it is
# bounded by the largest window and failure run a process meets.
_DECIMAL: dict[int, str] = {}


def _learn(missing: KeyError) -> None:
    """Cache the text of the number a line lacked."""
    (number,) = missing.args
    _DECIMAL[number] = str(number)


def trace_batch(lines: list[str], time_us: int, phase: PhaseKind, events: tuple[str, ...], nodes) -> None:
    """Append the canonical trace lines of one instant in one phase to
    `lines`: for each of `nodes` (a sequence of objects with a node_id and
    a backoff state), in order, one line per event in `events`. Fields are
    read from each state as it is now."""
    head, tail, text = f"{time_us},", _PHASE_TAILS[phase], _DECIMAL
    start, add = len(lines), lines.append
    while True:
        try:
            for node in nodes:
                name, s = node.node_id, node.backoff
                for event in events:
                    add(
                        f"{head}{name},{event},{text[s.counter]},{text[s.cw]},"
                        f"{text[s.consecutive_failures]}{tail}"
                    )
            return
        except KeyError as missing:  # a number not shown before: learn it, start again
            _learn(missing)
            del lines[start:]


def trace_event(
    lines: list[str], time_us: int, phase: PhaseKind, event: str, node_id: str, state: BackoffState
) -> None:
    """Append the line of one node's event to `lines`: trace_batch for one
    node and one event, written out because a batch of one costs about
    twice a single f-string. The renderer tests hold both to one format."""
    text = _DECIMAL
    while True:
        try:
            lines.append(
                f"{time_us},{node_id},{event},{text[state.counter]},{text[state.cw]},"
                f"{text[state.consecutive_failures]}{_PHASE_TAILS[phase]}"
            )
            return
        except KeyError as missing:
            _learn(missing)


def trace_storm(lines: list[str], time_us: int, phase: PhaseKind, nodes) -> list[tuple[object, str]]:
    """Append the lines of a slot end that starts an exchange to `lines`:
    for the nodes that counted it, in order, a count line each, a tx_start
    line for each at zero, a lock line for each other, all from one text
    per backoff state. Returns (node, text) per locked node."""
    head, tail, text = f"{time_us},", _PHASE_TAILS[phase], _DECIMAL
    states = [node.backoff for node in nodes]
    while True:
        try:
            texts = [f"{text[s.counter]},{text[s.cw]},{text[s.consecutive_failures]}{tail}" for s in states]
            break
        except KeyError as missing:
            _learn(missing)
    sent, held = [], []
    for node, s, state_text in zip(nodes, states, texts):
        lines.append(f"{head}{node.node_id},count,{state_text}")
        (held if s.counter else sent).append((node, state_text))
    lines += [f"{head}{node.node_id},tx_start,{state_text}" for node, state_text in sent]
    lines += [f"{head}{node.node_id},lock,{state_text}" for node, state_text in held]
    return held


def trace_unlocks(lines: list[str], time_us: int, held: list[tuple[object, str]]) -> None:
    """Append the unlock line of each (node, text) from trace_storm."""
    head = f"{time_us},"
    lines += [f"{head}{node.node_id},unlock,{state_text}" for node, state_text in held]


def trace_line(
    time_us: int, node: str, event: str, state: BackoffState, phase: PhaseKind
) -> str:
    lines: list[str] = []
    trace_event(lines, time_us, phase, event, node, state)
    return lines[0]
