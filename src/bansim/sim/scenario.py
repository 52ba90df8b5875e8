"""Scenario files: the text format that describes one simulation run.

Line-oriented `key = value` entries under `[section]` headers, with `#`
comments. Sections: [phy], [superframe], [csma], [nodes], [security],
[run]. Node and security entries are one line per node id whose value is
a comma-separated list of sub-assignments, for example:

    [nodes]
    n0 = priority=5, traffic=saturated, payload=100, access=contention
    n1 = priority=2, traffic=poisson:40, payload=50, access=polled
    n2 = priority=3, traffic=scripted:1000;250000, payload=20, access=scheduled, slot_start=70, slot_len=10

One table (_KEYS) holds every key of every section, node and security
sub-keys included, with its converter; one reader converts each given
value at its own line, so unknown keys and malformed values fail there. A
converter only turns text into an int, a finite float, a name or a
traffic tuple, and keeps one value rule, duration_ms's whole-millisecond
floor. Named values match in any case. A key not given takes the default
of the record field it sets, and a [phy] key its family factory's
(phy.rates); only the [phy] kind's default, nb, lives here. The
`<phase>_slots` keys are PhaseKind's names in its order, and the mode and
access values are those of OperationalMode and TrafficKind. A [phy] key
of another family (phy.rates.phy_config), a band, channel or center the
family lacks and a rate override PhyConfig refuses fail at their line;
so do every `<phase>_slots` key, beacon_prohibited and
beacon_period_multiplier unless the mode is beacon, fill_phase_type
unless it is nonbeacon, a node's slot_start, slot_len, period and offset
unless its access is scheduled, and mk on a level-0 security entry. A
scenario names no output file; its caller does. compile_scenario checks
every value and static rule once and derives the Plan a run reads, the
superframe schedule included: each number's floor, the traffic's shape,
rate and times, the security level, phase arithmetic (in
mac.superframe.build_layout), the beacon's fit in its phase, payload
bounds with security bytes, grants and allocations that hold one frame
exchange, a poll grant for every polled node, allocations inside shared
phases and free of conflicts, the channel rule, node ids that fit one
trace field, the expected arrivals within MAX_EXPECTED_ARRIVALS, and the
security entries. An exact fit proceeds: a beacon exactly as long as its
phase, or a grant or allocation exactly as long as its exchange. A check
reports the line parse_scenario's one line map holds for its key, node or
security entry, else its section's. Simulation compiles what it is given,
so a scenario built or changed in code meets the same checks and
messages, without a line, before its first event.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from enum import Enum, auto
from types import SimpleNamespace
from typing import NamedTuple

from bansim.errors import ConfigError, InvalidLayoutError, ScenarioError
from bansim.mac.csma import MacTimingConstants, exchange_us
from bansim.mac.superframe import (
    HIGHEST_PRIORITY,
    SHARED_PHASES,
    OperationalMode,
    PhaseKind,
    PhaseLayout,
    ScheduledAllocation,
    SuperframeConfig,
    TrafficKind,
    admissible,
    build_layout,
    phases_covered,
    schedule_polls,
)
from bansim.phy.rates import MAX_BODY_LEN, NB_RATES, PHY_KEYS, PhyConfig, frame_airtime_us, info_data_rate, phy_config
from bansim.security import HUB_ID, MK_MODES, SECURITY_WIRE_OVERHEAD, SecurityLevel
from bansim.textio import text_stream

__all__ = [
    "NodeSpec",
    "SecuritySpec",
    "RunSpec",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "EventKind",
    "Plan",
    "compile_scenario",
]

CHANNEL_MODELS = ("ideal", "collision")


class NodeSpec(NamedTuple):
    node_id: str
    priority: int = 4
    # ("saturated",) | ("poisson", rate_per_s) | ("scripted", (t_us, ...))
    traffic: tuple = ("saturated",)
    payload_bytes: int = 100
    access: TrafficKind = TrafficKind.CONTENTION
    slot_start: int | None = None  # scheduled access only
    slot_len: int | None = None
    period: int = 1
    offset: int = 0

    def allocation(self) -> ScheduledAllocation:
        return ScheduledAllocation(
            self.node_id, self.slot_start, self.slot_len, self.period, self.offset
        )


class SecuritySpec(NamedTuple):
    level: SecurityLevel = SecurityLevel.UNSECURED
    mk: str = "preshared"
    group: str | None = None


class RunSpec(NamedTuple):
    seed: int = 1
    duration_us: int = 1_000_000
    channel: str = "ideal"


class Scenario(NamedTuple):
    phy: PhyConfig
    superframe: SuperframeConfig
    timing: MacTimingConstants = MacTimingConstants()
    nodes: tuple[NodeSpec, ...] = ()
    security: dict[str, SecuritySpec] = {}  # the default's one dict is shared, so never changed
    run: RunSpec = RunSpec()
    poll_grant_us: int | None = None  # None: sized from the largest exchange


# bench/worker.py copies a scenario with `dataclasses.replace`, which reads
# each field's name, its init flag and a kind that is not a class variable,
# then calls the class with every field.
for _record in (RunSpec, Scenario):
    _record.__dataclass_fields__ = {
        name: SimpleNamespace(name=name, init=True, _field_type=None) for name in _record._fields
    }


# --------------------------------------------------------------- parsing

_PHASE_KEYS = {f"{kind.name.lower()}_slots": kind for kind in PhaseKind}

# The [superframe] keys each mode never reads: a non-beacon mode sets its
# phases alone and sends no beacon, and only the bounded non-beacon mode
# reads fill_phase_type.
_NO_BEACON = (*_PHASE_KEYS, "beacon_prohibited", "beacon_period_multiplier")
_UNREAD_IN_MODE = {
    OperationalMode.BEACON_BOUNDED: ("fill_phase_type",),
    OperationalMode.NONBEACON_BOUNDED: _NO_BEACON,
    OperationalMode.NONBEACON_UNBOUNDED: (*_NO_BEACON, "fill_phase_type"),
}

# Highest Poisson rate, frames/s. Above it the mean gap between arrivals
# is under the kernel's 1 us clock, so gaps round to zero and simulated
# time stops advancing.
MAX_POISSON_RATE_PER_S = 1e6

# Most arrivals a run may expect: the Poisson rate times the run length,
# summed over nodes, plus the scripted times inside the run. Each arrival
# is a kernel event, so the budget bounds a run's arrival work (a few
# seconds per million on a 2 GHz core). A backlog is only a count, so an
# arrival never served holds no memory.
MAX_EXPECTED_ARRIVALS = 5_000_000


def _fail(line: int, message: str) -> ScenarioError:
    return ScenarioError(message, line=line)


def _at_least(line: int | None, key: str, value: int, low: int) -> int:
    if value < low:
        raise _fail(line, f"{key} must be at least {low}, got {value}")
    return value


def clock_us(t: float) -> int:
    """A duration on the simulation clock: whole microseconds, half up."""
    return int(t + 0.5)


# A converter reads one raw value: (raw, line, key) -> the typed value,
# or a ScenarioError at that line.


def _number(raw: str, line: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise _fail(line, f"{key} wants a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise _fail(line, f"{key} wants a finite number, got {raw!r}")
    return value


def _text(raw: str, line: int, key: str) -> str:
    return raw


def _integer(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _fail(line, f"{key} wants an integer, got {raw!r}") from None


def _choice(options):
    """Converter to one of `options`, named in any case: a tuple of names,
    a str Enum (each member named by its value), or a dict of name -> value."""
    named = options if isinstance(options, dict) else {getattr(o, "value", o): o for o in options}

    def convert(raw: str, line: int, key: str):
        if raw.lower() not in named:
            raise _fail(line, f"{key} must be one of {' | '.join(named)}, got {raw!r}")
        return named[raw.lower()]

    return convert


def _milliseconds(raw: str, line: int, key: str) -> int:
    """A whole number of milliseconds, at least 1, as microseconds."""
    return _at_least(line, key, _integer(raw, line, key), 1) * 1000


def _traffic(raw: str, line: int, key: str) -> tuple:
    if raw == "saturated":
        return ("saturated",)
    if raw.startswith("poisson:"):
        return ("poisson", _number(raw[len("poisson:") :], line, "poisson rate"))
    if raw.startswith("scripted:"):
        times = raw[len("scripted:") :].split(";")
        return ("scripted", tuple(_integer(t, line, "scripted time") for t in times if t))
    raise _fail(line, f"unknown traffic model {raw!r}")


# Every key of the format: section -> key -> converter. A node or security
# entry reads its sub-keys from its section's table. Each key sets the
# record field of its name, or the one _FIELDS names.
_KEYS = {
    "phy": {
        "kind": _choice(tuple(PHY_KEYS)),
        "band": _text,
        "rate": _choice(NB_RATES),
        "channel": _integer,
        "center": _integer,
        "rate_override_kbps": _number,
    },
    "superframe": {
        "mode": _choice(OperationalMode),
        "fill_phase_type": _choice({"i": "I", "ii": "II"}),
        "beacon_prohibited": _choice(
            {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
        ),
        **dict.fromkeys(("slot_length_us", "slots", "beacon_period_multiplier", "poll_grant_us"), _integer),
        **dict.fromkeys(_PHASE_KEYS, _integer),
    },
    "csma": dict.fromkeys(("psifs_us", "slot_us", "gtn_us"), _integer),
    "nodes": {
        "traffic": _traffic,
        "access": _choice(TrafficKind),
        **dict.fromkeys(("priority", "payload", "slot_start", "slot_len", "period", "offset"), _integer),
    },
    "security": {
        "level": _choice({str(int(level)): level for level in SecurityLevel}),
        "mk": _choice(MK_MODES),
        "group": _text,
    },
    "run": {"seed": _integer, "duration_ms": _milliseconds, "channel": _choice(CHANNEL_MODELS)},
}
_FIELDS = {"slots": "slots_per_superframe", "slot_us": "csma_slot_us", "payload": "payload_bytes",
           "duration_ms": "duration_us"}


def _read(section: str, fields: dict[str, tuple[str, int]]) -> dict:
    """The given keys of `section`, each converted at its own line and
    named as the field it sets. An unknown key fails at its line."""
    table, values = _KEYS[section], {}
    for key, (raw, line) in fields.items():
        if key not in table:
            raise _fail(line, f"unknown [{section}] key {key!r}")
        values[_FIELDS.get(key, key)] = table[key](raw, line, key)
    return values


def _refuse(fields: dict[str, tuple[str, int]], keys, what: str) -> None:
    """Fail at the first given key of `keys`, which an entry that is `what`
    never reads."""
    for key, (_, line) in fields.items():
        if key in keys:
            raise _fail(line, f"{key} does not apply to {what}")


def _split_assignments(raw: str, line: int) -> dict[str, tuple[str, int]]:
    out = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise _fail(line, f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key in out:
            raise _fail(line, f"duplicate sub-key {key!r}")
        out[key] = (value, line)
    return out


def _phy(fields: dict[str, tuple[str, int]], section_line: int | None) -> PhyConfig:
    given = _read("phy", fields)
    kind = given.pop("kind", "nb")
    family = PHY_KEYS[kind]
    _refuse(fields, [key for keys in PHY_KEYS.values() for key in keys if key not in family], f"kind {kind}")
    override = given.pop("rate_override_kbps", None)
    try:
        cfg = phy_config(kind, **given)
    except ConfigError as exc:
        # kind and rate are checked by their converters, so the fault lies
        # with the family's first key.
        raise _fail(fields.get(family[0], (None, section_line))[1], str(exc)) from None
    if override is not None:
        line = fields["rate_override_kbps"][1]
        try:
            cfg = cfg._replace(rate_override_kbps=override)
        except ConfigError as exc:
            raise _fail(line, f"rate_override_kbps: {exc}") from None
        if not math.isfinite(frame_airtime_us(cfg, MAX_BODY_LEN)):
            raise _fail(line, f"rate_override_kbps {override:g} leaves no finite airtime")
    return cfg


def parse_scenario(text: str) -> Scenario:
    """Parse and compile scenario text; raises ScenarioError with the
    offending line number."""
    section = None
    lines: dict = {}  # section, given [superframe]/[csma]/[run] key, or (section, id) -> line
    # The [phy], [superframe], [csma] and [run] entries: key -> (raw, line).
    fields: dict[str, dict[str, tuple[str, int]]] = {name: {} for name in ("phy", "superframe", "csma", "run")}
    nodes: list[NodeSpec] = []
    security: dict[str, SecuritySpec] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise _fail(lineno, f"malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise _fail(lineno, f"unknown section [{name}]")
            section = name
            lines[name] = lineno
            continue
        if section is None:
            raise _fail(lineno, "entry before any [section] header")
        if "=" not in line:
            raise _fail(lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section == "nodes":
            if ("nodes", key) in lines:
                raise _fail(lineno, f"duplicate node {key!r}")
            lines["nodes", key] = lineno
            given = _split_assignments(value, lineno)
            spec = NodeSpec(node_id=key, **_read("nodes", given))
            if spec.access is not TrafficKind.SCHEDULED:
                _refuse(given, ("slot_start", "slot_len", "period", "offset"), f"access {spec.access.value}")
            nodes.append(spec)
        elif section == "security":
            if key in security:
                raise _fail(lineno, f"duplicate security entry {key!r}")
            lines["security", key] = lineno
            given = _split_assignments(value, lineno)
            spec = security[key] = SecuritySpec(**_read("security", given))
            if spec.level == SecurityLevel.UNSECURED:
                _refuse(given, ("mk",), "level 0")
        else:
            if key in fields[section]:
                raise _fail(lineno, f"duplicate key {key!r}")
            fields[section][key] = (value, lineno)
            if section != "phy":
                lines[key] = lineno

    phy = _phy(fields["phy"], lines.get("phy"))
    sf = _read("superframe", fields["superframe"])
    # The Scenario's own key, passed on only when given.
    grant = {"poll_grant_us": sf.pop("poll_grant_us")} if "poll_grant_us" in sf else {}
    phase_slots = {kind: sf.pop(key) for key, kind in _PHASE_KEYS.items() if key in sf}
    superframe = SuperframeConfig(phase_slots=phase_slots, **sf)
    _refuse(fields["superframe"], _UNREAD_IN_MODE[superframe.mode], f"mode {superframe.mode.value}")
    scenario = Scenario(
        phy=phy,
        superframe=superframe,
        timing=MacTimingConstants(**_read("csma", fields["csma"])),
        nodes=tuple(nodes),
        security=security,
        run=RunSpec(**_read("run", fields["run"])),
        **grant,
    )
    compile_scenario(scenario, lines)
    return scenario


def load_scenario(path) -> Scenario:
    with text_stream(path, "r") as fh:
        return parse_scenario(fh.read())


# ------------------------------------------------------------- compiling

# Body of the hub's beacon frame, bytes.
BEACON_BODY_LEN = 17
# A node id is one trace field: no separator, never empty.
_NODE_ID = re.compile(r"[A-Za-z0-9_.-]+")


class EventKind(Enum):
    PHASE_START = auto()
    TX_END = auto()  # one transmitter's data end in a collided exchange
    ACK_TIMEOUT = auto()  # its missed acknowledgement
    DELIVERY = auto()  # the acknowledged end of a clean exchange
    POLL_GRANT = auto()
    BEACON_TX = auto()
    TRAFFIC_ARRIVAL = auto()
    SUPERFRAME = auto()  # generate the schedule of the next superframe


class Plan(NamedTuple):
    """What a run needs of a legal scenario, derived once. Airtimes are
    exact microseconds, frame exchanges are on the 1 us clock, and the
    per-node maps are keyed by node id. `schedule` holds one superframe's
    events in push order (each phase start with its beacon and poll grants,
    then the allocation grants by node id) as (offset_us, period, residue,
    kind, data): the event happens offset_us into each superframe whose
    index is `residue` modulo `period`, and its data holds no absolute time."""

    layout: PhaseLayout
    ack_us: float
    beacon_us: float
    airtime_us: dict[str, float]  # data frame, security bytes included
    payload_us: dict[str, float]  # the user-payload share of it
    exchange_us: dict[str, int]  # data, interframe space, ack and guard time
    schedule: tuple[tuple[int, int, int, EventKind, tuple], ...]


def compile_scenario(sc: Scenario, lines: dict | None = None) -> Plan:
    """Check every value and static rule and derive the run's Plan, or raise
    ScenarioError at the line that `lines`, parse_scenario's map, holds for
    the key or ("nodes" | "security", id) entry at fault, else its section's."""
    lines = lines or {}
    sf, timing = sc.superframe, sc.timing
    grant = 1 if sc.poll_grant_us is None else sc.poll_grant_us  # None is sized from the exchanges
    for key, value, low in (
        ("slot_length_us", sf.slot_length_us, 1), ("slots", sf.slots_per_superframe, 1),
        ("beacon_period_multiplier", sf.beacon_period_multiplier, 1), ("poll_grant_us", grant, 1),
        *((key, sf.phase_slots.get(kind, 0), 0) for key, kind in _PHASE_KEYS.items()),
        ("psifs_us", timing.psifs_us, 0), ("slot_us", timing.csma_slot_us, 1), ("gtn_us", timing.gtn_us, 0),
    ):
        _at_least(lines.get(key), key, value, low)
    try:
        layout = build_layout(sf)
    except InvalidLayoutError as exc:
        raise _fail(lines.get("superframe"), str(exc)) from exc
    beacon_us = frame_airtime_us(sc.phy, BEACON_BODY_LEN)
    beacon = layout.span(PhaseKind.BEACON)
    if beacon is not None and beacon_us > beacon.length_slots * layout.slot_length_us:
        raise _fail(
            lines.get("superframe"),
            f"beacon airtime {beacon_us:.0f} us exceeds the "
            f"{beacon.length_slots * layout.slot_length_us} us beacon phase",
        )

    ack_us = frame_airtime_us(sc.phy, 0)
    psdu_kbps = info_data_rate(sc.phy, "psdu")
    airtime, payload, exchange = {}, {}, {}
    polled: list[str] = []
    scheduled: list[ScheduledAllocation] = []
    taken: set[PhaseKind] = set()  # shared phases a scheduled allocation covers
    alloc_grants: dict[str, tuple] = {}  # each allocation's schedule entry
    arrivals = 0.0  # expected arrivals of the nodes so far
    for node in sc.nodes:
        node_id = node.node_id
        node_line = lines.get(("nodes", node_id))
        if not _NODE_ID.fullmatch(node_id) or node_id == HUB_ID:
            raise _fail(
                node_line,
                f"node id {node_id!r} must be letters, digits, '_', '-' or '.', and not {HUB_ID!r}",
            )
        if not 0 <= node.priority <= HIGHEST_PRIORITY:
            raise _fail(node_line, f"{node_id}: priority {node.priority} outside 0..{HIGHEST_PRIORITY}")
        level = sc.security.get(node_id, SecuritySpec()).level
        if level not in SECURITY_WIRE_OVERHEAD:
            raise _fail(lines.get(("security", node_id)),
                        f"{node_id}: security level {level!r} outside 0..{max(SecurityLevel):d}")
        overhead = SECURITY_WIRE_OVERHEAD[level]
        if not 1 <= node.payload_bytes + overhead <= MAX_BODY_LEN:
            raise _fail(
                node_line,
                f"{node_id}: payload {node.payload_bytes} plus {overhead} "
                f"security bytes leaves the 1..{MAX_BODY_LEN} body range",
            )
        match node.traffic:
            case ("saturated",):
                pass
            case ("poisson", rate):
                if not rate > 0:  # NaN too
                    raise _fail(node_line, "poisson rate must be positive")
                if rate > MAX_POISSON_RATE_PER_S:
                    raise _fail(node_line, f"poisson rate {rate:g} /s is above {MAX_POISSON_RATE_PER_S:g} /s: "
                                           "its mean gap is under the 1 us clock")
                arrivals += rate * sc.run.duration_us / 1e6
            case ("scripted", times):
                if not times:
                    raise _fail(node_line, "scripted traffic needs at least one time")
                if any(t < 0 for t in times) or list(times) != sorted(times):
                    raise _fail(node_line, "scripted times must be sorted and non-negative")
                arrivals += bisect_left(times, sc.run.duration_us)
            case _:
                raise _fail(node_line, f"{node_id}: unknown traffic {node.traffic!r}")
        if arrivals > MAX_EXPECTED_ARRIVALS:
            raise _fail(
                node_line,
                f"{node_id}: the nodes up to here expect {arrivals:,.0f} arrivals in the run, "
                f"above the budget of {MAX_EXPECTED_ARRIVALS:,}",
            )
        data_us = airtime[node_id] = frame_airtime_us(sc.phy, node.payload_bytes + overhead)
        payload[node_id] = 8 * node.payload_bytes / psdu_kbps * 1000.0
        need_us = exchange[node_id] = exchange_us(clock_us(data_us), clock_us(ack_us), timing)
        if node.access == TrafficKind.POLLED:
            polled.append(node_id)
            if sc.poll_grant_us is not None and sc.poll_grant_us < need_us:
                raise _fail(
                    lines.get("poll_grant_us"),
                    f"poll_grant_us {sc.poll_grant_us} is shorter than the {need_us} us "
                    f"frame exchange of polled node {node_id}",
                )
        if node.access != TrafficKind.SCHEDULED:
            continue
        if node.slot_start is None or node.slot_len is None:
            raise _fail(node_line, f"{node_id}: scheduled access needs slot_start and slot_len")
        for key, low in (("slot_start", 0), ("slot_len", 1), ("period", 1)):
            _at_least(node_line, key, getattr(node, key), low)
        alloc = node.allocation()
        end = alloc.start_slot + alloc.length_slots
        if end > layout.slots_per_superframe:
            raise _fail(node_line, f"{node_id}: allocation runs past the superframe")
        span_us = alloc.length_slots * layout.slot_length_us
        if span_us < need_us:
            raise _fail(
                node_line,
                f"{node_id}: {alloc.length_slots}-slot allocation ({span_us} us) "
                f"is shorter than one {need_us} us frame exchange",
            )
        covered = phases_covered(layout, alloc.start_slot, alloc.length_slots)
        for kind in covered:
            if not admissible(kind, node.priority, TrafficKind.SCHEDULED):
                slot = max(alloc.start_slot, layout.span(kind).start_slot)
                raise _fail(
                    node_line,
                    f"{node_id}: slot {slot} falls in {kind.value}, which takes no scheduled traffic",
                )
            taken.add(kind)
        # Two nodes' allocations meet in some superframe exactly when their
        # slots overlap and their offsets agree modulo the gcd of their
        # periods (the two residue classes of indices then share a member).
        for other in scheduled:
            first = max(alloc.start_slot, other.start_slot)
            if (
                other.node_id != node_id
                and first < min(end, other.start_slot + other.length_slots)
                and (alloc.offset - other.offset) % math.gcd(alloc.periodicity, other.periodicity) == 0
            ):
                raise _fail(
                    node_line,
                    f"slot {first} of the superframes both use: {other.node_id} vs {node_id}",
                )
        scheduled.append(alloc)
        start_us, period = alloc.start_slot * layout.slot_length_us, alloc.periodicity
        entry = (node_id, span_us, span_us, covered[0])
        alloc_grants[node_id] = (start_us, period, alloc.offset % period, EventKind.POLL_GRANT, entry)

    contention = sum(node.access == TrafficKind.CONTENTION for node in sc.nodes)
    if sc.run.channel == "ideal" and contention > 1:
        raise _fail(
            lines.get("run"),
            f"ideal channel admits at most one contention node; scenario has {contention}",
        )

    known = {n.node_id for n in sc.nodes}
    for node_id, spec in sc.security.items():
        entry_line = lines.get(("security", node_id))
        if node_id not in known:
            raise _fail(entry_line, f"security entry for unknown node {node_id!r}")
        if spec.group is not None and spec.level == SecurityLevel.UNSECURED:
            raise _fail(entry_line, f"{node_id}: group membership needs security level 1 or 2")

    default_grant_us = max((exchange[node_id] for node_id in polled), default=0)
    grant_us = default_grant_us if sc.poll_grant_us is None else sc.poll_grant_us
    schedule = []
    for span in layout.phases:
        if span.length_slots == 0:
            continue
        start, length = span.start_slot * layout.slot_length_us, span.length_slots * layout.slot_length_us
        schedule.append((start, 1, 0, EventKind.PHASE_START, (span.kind, length)))
        if span.kind == PhaseKind.BEACON:
            schedule.append((start, sf.beacon_period_multiplier, 0, EventKind.BEACON_TX, ()))
        if polled and span.kind in SHARED_PHASES - taken:
            for node_id, offset in schedule_polls(layout, sorted(polled), span.kind, grant_us):
                entry = (node_id, grant_us, start + length - offset, span.kind)
                schedule.append((offset, 1, 0, EventKind.POLL_GRANT, entry))
    granted = [data[0] for *_, kind, data in schedule if kind is EventKind.POLL_GRANT]  # one id per poll grant
    schedule += [alloc_grants[node_id] for node_id in sorted(alloc_grants)]
    for node_id in polled:
        if not granted:
            line = lines.get("poll_grant_us", lines.get(("nodes", node_id)))
            raise _fail(line, f"{node_id}: never polled, as no poll phase holds a {grant_us} us grant")
        if node_id not in granted:
            raise _fail(
                lines.get(("nodes", node_id)),
                f"{node_id}: never polled, as the poll phases hold {len(granted)} grants per superframe",
            )
    # A phase's first slot tick comes pSIFS in, and the kernel's guard locks
    # a counter whose exchange would not end in the phase after one more
    # CSMA slot: a contender needs a phase of pSIFS, a slot and its exchange.
    lead_us = timing.psifs_us + timing.csma_slot_us
    for node in sc.nodes:
        need_us = lead_us + exchange[node.node_id]
        if node.access == TrafficKind.CONTENTION and not any(
            span.length_slots * layout.slot_length_us >= need_us
            and admissible(span.kind, node.priority, TrafficKind.CONTENTION)
            for span in layout.phases
        ):
            raise _fail(
                lines.get(("nodes", node.node_id)),
                f"{node.node_id}: never transmits, as no phase that admits its priority "
                f"{node.priority} contention lasts the {need_us} us of pSIFS, one CSMA slot "
                f"and its frame exchange",
            )
    return Plan(
        layout=layout,
        ack_us=ack_us,
        beacon_us=beacon_us,
        airtime_us=airtime,
        payload_us=payload,
        exchange_us=exchange,
        schedule=tuple(schedule),
    )
