"""Scenario files: the text format that describes one simulation run.

`key = value` lines under `[section]` headers, with `#` comments; a [nodes]
or [security] entry is one line per node id of comma-separated sub-keys, as
in `n0 = priority=5, access=polled`. KEYS holds one row per key: the field
it sets, its kind, its floor or range and the selector values that read it.
The reader converts each value by its row, at its line; compile_scenario
checks every field of a parsed or built scenario by the same rows, then the
rules that join fields, and derives the Plan a run reads.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Callable
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


def _is_int(value) -> bool:
    """An int as the kernel counts with it: a bool is a flag, not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


class Kind(NamedTuple):  # a value kind
    convert: Callable[[str, int, str], object]  # (raw, line, key) -> the value, or a ScenarioError at the line
    fault: Callable[[object, str, str], str | None] | None  # (value, key, entry) -> the message, or None


def _kind(parse: Callable[[str], object], holds: Callable[[object], bool], wants: str) -> Kind:
    """Text that `parse` reads and a built value that `holds`, else "<key> <wants>, got <it>"."""

    def convert(raw: str, line: int, key: str):
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise _fail(line, f"{key} {wants}, got {raw!r}") from None

    return Kind(convert, lambda value, key, entry: None if holds(value) else f"{key} {wants}, got {value!r}")


def _choice(options) -> Kind:
    """One of a tuple of names, a str Enum's values or a dict's names: in any
    case in text, and matched by equality when built, as the kernel does."""
    named = options if isinstance(options, dict) else {getattr(o, "value", o): o for o in options}
    return _kind(lambda raw: named[raw.lower()], lambda value: value in named.values(),
                 f"must be one of {' | '.join(named)}")


INT = _kind(int, _is_int, "wants an integer")
TEXT = _kind(str, lambda value: isinstance(value, str), "wants text")


def _number(raw: str, line: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise _fail(line, f"{key} wants a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise _fail(line, f"{key} wants a finite number, got {raw!r}")
    return value


def _milliseconds(raw: str, line: int, key: str) -> int:
    """A whole number of milliseconds, at least 1, as microseconds."""
    return _at_least(line, key, INT.convert(raw, line, key), 1) * 1000


def _traffic(raw: str, line: int, key: str) -> tuple:
    if raw == "saturated":
        return ("saturated",)
    if raw.startswith("poisson:"):
        return ("poisson", _number(raw[len("poisson:") :], line, "poisson rate"))
    if raw.startswith("scripted:"):
        times = raw[len("scripted:") :].split(";")
        return ("scripted", tuple(INT.convert(t, line, "scripted time") for t in times if t))
    raise _fail(line, f"unknown traffic model {raw!r}")


def _traffic_fault(traffic, key: str, entry: str) -> str | None:
    match traffic:
        case ("saturated",):
            pass
        case ("poisson", int() | float() as rate) if not isinstance(rate, bool):
            if not rate > 0:  # NaN too
                return "poisson rate must be positive"
            if rate > MAX_POISSON_RATE_PER_S:
                return (f"poisson rate {rate:g} /s is above {MAX_POISSON_RATE_PER_S:g} /s: "
                        "its mean gap is under the 1 us clock")
        case ("scripted", tuple() as times) if all(map(_is_int, times)):
            if not times:
                return "scripted traffic needs at least one time"
            if any(t < 0 for t in times) or list(times) != sorted(times):
                return "scripted times must be sorted and non-negative"
        case _:
            return f"{entry}unknown traffic {traffic!r}"


NUMBER = Kind(_number, None)  # [phy] only, whose built values PhyConfig checks
MILLISECONDS = Kind(_milliseconds, INT.fault)  # the field holds microseconds
TRAFFIC = Kind(_traffic, _traffic_fault)


class Key(NamedTuple):
    """One key: the field it sets, its kind, its floor or range (low..high)
    and the values of its section's selector that read it (all if empty)."""

    field: str | PhaseKind  # a PhaseKind: that phase's count in SuperframeConfig.phase_slots
    kind: Kind
    low: int | None = None
    high: int | None = None
    applies: tuple = ()


_FAMILY = {key: (kind,) for kind, keys in PHY_KEYS.items() for key in keys}  # the [phy] kind that reads a key
_BEACON = (OperationalMode.BEACON_BOUNDED,)
_SCHEDULED = (TrafficKind.SCHEDULED,)
_LEVEL = Kind(_choice({str(int(level)): level for level in SecurityLevel}).convert, INT.fault)  # an int when built
_FLAG = _choice({"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False})

# Every key of the format, node and security sub-keys included: section ->
# key -> its row. compile_scenario checks a section's rows in this order.
KEYS = {
    "phy": {
        "kind": Key("kind", _choice(tuple(PHY_KEYS))),
        "band": Key("band", TEXT, applies=_FAMILY["band"]),
        "rate": Key("rate", _choice(NB_RATES), applies=_FAMILY["rate"]),
        "channel": Key("channel", INT, applies=_FAMILY["channel"]),
        "center": Key("center", INT, applies=_FAMILY["center"]),
        "rate_override_kbps": Key("rate_override_kbps", NUMBER),
    },
    "superframe": {
        "mode": Key("mode", _choice(OperationalMode)),
        "slot_length_us": Key("slot_length_us", INT, 1),
        "slots": Key("slots_per_superframe", INT, 1),
        "beacon_period_multiplier": Key("beacon_period_multiplier", INT, 1, applies=_BEACON),
        "poll_grant_us": Key("poll_grant_us", INT, 1),  # a Scenario field
        **{f"{kind.name.lower()}_slots": Key(kind, INT, 0, applies=_BEACON) for kind in PhaseKind},
        "fill_phase_type": Key("fill_phase_type", _choice({"i": "I", "ii": "II"}),
                               applies=(OperationalMode.NONBEACON_BOUNDED,)),
        "beacon_prohibited": Key("beacon_prohibited", _FLAG, applies=_BEACON),
    },
    "csma": {
        "psifs_us": Key("psifs_us", INT, 0),
        "slot_us": Key("csma_slot_us", INT, 1),
        "gtn_us": Key("gtn_us", INT, 0),
    },
    "nodes": {
        "priority": Key("priority", INT, 0, HIGHEST_PRIORITY),
        "traffic": Key("traffic", TRAFFIC),
        "payload": Key("payload_bytes", INT),
        "access": Key("access", _choice(TrafficKind)),
        "slot_start": Key("slot_start", INT, 0, applies=_SCHEDULED),
        "slot_len": Key("slot_len", INT, 1, applies=_SCHEDULED),
        "period": Key("period", INT, 1, applies=_SCHEDULED),
        "offset": Key("offset", INT, applies=_SCHEDULED),
    },
    "security": {
        "level": Key("level", _LEVEL, 0, int(max(SecurityLevel))),
        "mk": Key("mk", _choice(MK_MODES), applies=(SecurityLevel.AUTHENTICATED, SecurityLevel.ENCRYPTED)),
        "group": Key("group", TEXT),
    },
    "run": {
        "seed": Key("seed", INT),
        "duration_ms": Key("duration_us", MILLISECONDS, 0),  # a built run may be under 1 ms
        "channel": Key("channel", _choice(("ideal", "collision"))),
    },
}
# The key whose value decides which of its section's keys an entry reads.
SELECTORS = {"phy": "kind", "superframe": "mode", "nodes": "access", "security": "level"}
_DUPLICATE = {"nodes": "node", "security": "security entry"}  # what a repeated key is, if not "key"
# A field whose record default is None may be None: its key was not given.
_MAY_BE_NONE = {name for record in (Scenario, NodeSpec, SecuritySpec)
                for name, default in record._field_defaults.items() if default is None}


def _read(section: str, fields: dict[str, tuple[str, int]]) -> dict:
    """The given keys of `section`, each converted at its own line and
    named as the field it sets. An unknown key fails at its line."""
    table, values = KEYS[section], {}
    for key, (raw, line) in fields.items():
        if key not in table:
            raise _fail(line, f"unknown [{section}] key {key!r}")
        values[table[key].field] = table[key].kind.convert(raw, line, key)
    return values


def _refuse(section: str, fields: dict[str, tuple[str, int]], selected) -> None:
    """Fail at the first given key that an entry whose selector holds `selected` never reads."""
    for key, (_, line) in fields.items():
        applies = KEYS[section][key].applies
        if applies and selected not in applies:
            raise _fail(line, f"{key} does not apply to {SELECTORS[section]} {getattr(selected, 'value', selected)}")


def _check(section: str, values: dict, lines: dict, entry: str | None = None) -> None:
    """Refuse the first of `section`'s fields in `values` that is not of
    its row's kind or lies past its floor or range, at the line `lines`
    holds for (section, key), or for (section, entry) if a node id is given."""
    label = "" if entry is None else f"{entry}: {'security ' if section == 'security' else ''}"
    for key, row in KEYS[section].items():
        value = values[row.field]
        if value is None and row.field in _MAY_BE_NONE:
            continue
        line = lines.get((section, key if entry is None else entry))
        fault = row.kind.fault(value, key, label)
        if fault is None and row.high is not None and not row.low <= value <= row.high:
            fault = f"{label}{key} {value!r} outside {row.low}..{row.high}"
        if fault is not None:
            raise _fail(line, fault)
        if row.low is not None:
            _at_least(line, key, value, row.low)


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
    _refuse("phy", fields, kind)
    override = given.pop("rate_override_kbps", None)
    try:
        cfg = phy_config(kind, **given)
    except ConfigError as exc:
        # kind and rate are checked by their converters, so the fault lies
        # with the family's first key.
        raise _fail(fields.get(PHY_KEYS[kind][0], (None, section_line))[1], str(exc)) from None
    if override is None:
        return cfg
    try:
        return cfg._replace(rate_override_kbps=override)
    except ConfigError as exc:
        raise _fail(fields["rate_override_kbps"][1], f"rate_override_kbps: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse and compile scenario text; raises ScenarioError with the
    offending line number."""
    section = None
    lines: dict = {}  # section -> its header's line; (section, key or entry id) -> the line giving it
    # The [phy], [superframe], [csma] and [run] entries: key -> (raw, line).
    fields: dict[str, dict[str, tuple[str, int]]] = {name: {} for name in ("phy", "superframe", "csma", "run")}
    entries: dict[str, dict] = {"nodes": {}, "security": {}}  # id -> NodeSpec | SecuritySpec

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise _fail(lineno, f"malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in KEYS:
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
        if (section, key) in lines:
            raise _fail(lineno, f"duplicate {_DUPLICATE.get(section, 'key')} {key!r}")
        lines[section, key] = lineno
        if section in entries:
            given = _split_assignments(value, lineno)
            values = _read(section, given)
            spec = entries[section][key] = NodeSpec(key, **values) if section == "nodes" else SecuritySpec(**values)
            _refuse(section, given, getattr(spec, SELECTORS[section]))
        else:
            fields[section][key] = (value, lineno)

    phy = _phy(fields["phy"], lines.get("phy"))
    sf = _read("superframe", fields["superframe"])
    # The Scenario's own key, passed on only when given.
    grant = {"poll_grant_us": sf.pop("poll_grant_us")} if "poll_grant_us" in sf else {}
    phase_slots = {kind: sf.pop(kind) for kind in PhaseKind if kind in sf}
    superframe = SuperframeConfig(phase_slots=phase_slots, **sf)
    _refuse("superframe", fields["superframe"], superframe.mode)
    scenario = Scenario(
        phy=phy,
        superframe=superframe,
        timing=MacTimingConstants(**_read("csma", fields["csma"])),
        nodes=tuple(entries["nodes"].values()),
        security=entries["security"],
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


class EventKind(Enum):  # a schedule entry's kind, which the kernel binds to its handler
    PHASE_START = auto()
    POLL_GRANT = auto()
    BEACON_TX = auto()


class Plan(NamedTuple):
    """What a run needs of a legal scenario, derived once. Airtimes are
    exact microseconds, frame exchanges are on the 1 us clock, and the
    per-node maps are keyed by node id. `schedule` holds one superframe's
    events in push order (each phase's start if it has contenders, its
    beacon and poll grants, then the allocation grants by node id) as
    (offset_us, period, residue, kind, data): the event happens offset_us
    into each superframe whose index is `residue` modulo `period`, and its
    data holds no absolute time."""

    layout: PhaseLayout
    ack_us: float
    beacon_us: float
    airtime_us: dict[str, float]  # data frame, security bytes included
    payload_us: dict[str, float]  # the user-payload share of it
    exchange_us: dict[str, int]  # data, interframe space, ack and guard time
    contenders: dict[PhaseKind, tuple[str, ...]]  # each phase kind's contention node ids, in id order
    schedule: tuple[tuple[int, int, int, EventKind, tuple], ...]


def _refuse_shapes(sc: Scenario) -> None:
    """Refuse a built scenario that is not a Scenario, or whose parts,
    containers, nodes or security entries are not what they stand for.
    Each part is read only once the parts it sits in have passed."""

    def parts():
        yield "scenario", sc, Scenario
        yield from (("phy", sc.phy, PhyConfig), ("superframe", sc.superframe, SuperframeConfig),
                    ("timing", sc.timing, MacTimingConstants), ("run", sc.run, RunSpec),
                    ("nodes", sc.nodes, tuple), ("security", sc.security, dict))
        yield "phase_slots", sc.superframe.phase_slots, dict
        yield from (("node", node, NodeSpec) for node in sc.nodes)
        yield from ((f"security entry {node_id!r}", spec, SecuritySpec) for node_id, spec in sc.security.items())

    for name, value, record in parts():
        if not isinstance(value, record):
            raise _fail(None, f"{name} must be a {record.__name__}, got {value!r}")


def compile_scenario(sc: Scenario, lines: dict | None = None) -> Plan:
    """Check every value and static rule and derive the run's Plan, or raise
    ScenarioError at the line that `lines`, parse_scenario's map, holds for
    the fault: it keys each given key as (section, key), each [nodes] and
    [security] entry as (section, id) and each header by its name. A built
    scenario meets every rule a parsed one does, the finite airtime of the
    longest frame under a rate override included."""
    lines = lines or {}
    _refuse_shapes(sc)
    if not math.isfinite(frame_airtime_us(sc.phy, MAX_BODY_LEN)):
        override = sc.phy.rate_override_kbps
        raise _fail(lines.get(("phy", "rate_override_kbps")), f"rate_override_kbps {override:g} leaves no finite airtime")
    sf, timing = sc.superframe, sc.timing
    phases = {kind: sf.phase_slots.get(kind, 0) for kind in PhaseKind}
    _check("superframe", {**sc._asdict(), **sf._asdict(), **phases}, lines)
    _check("csma", timing._asdict(), lines)
    _check("run", sc.run._asdict(), lines)
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
    scheduled: list[NodeSpec] = []
    taken: set[PhaseKind] = set()  # shared phases a scheduled allocation covers
    alloc_grants: dict[str, tuple] = {}  # each allocation's schedule entry
    arrivals = 0.0  # expected arrivals of the nodes so far
    for node in sc.nodes:
        node_id = node.node_id
        if not isinstance(node_id, str) or not _NODE_ID.fullmatch(node_id) or node_id == HUB_ID:
            raise _fail(
                lines.get(("nodes", node_id)) if isinstance(node_id, str) else None,  # a built id may not hash
                f"node id {node_id!r} must be letters, digits, '_', '-' or '.', and not {HUB_ID!r}",
            )
        node_line = lines.get(("nodes", node_id))
        if node_id in airtime:  # an earlier node's
            raise _fail(node_line, f"duplicate node {node_id!r}")
        _check("nodes", node._asdict(), lines, node_id)
        spec = sc.security.get(node_id, SecuritySpec())
        _check("security", spec._asdict(), lines, node_id)
        overhead = SECURITY_WIRE_OVERHEAD[spec.level]
        if not 1 <= node.payload_bytes + overhead <= MAX_BODY_LEN:
            raise _fail(
                node_line,
                f"{node_id}: payload {node.payload_bytes} plus {overhead} "
                f"security bytes leaves the 1..{MAX_BODY_LEN} body range",
            )
        match node.traffic:
            case ("poisson", rate):
                arrivals += rate * sc.run.duration_us / 1e6
            case ("scripted", times):
                arrivals += bisect_left(times, sc.run.duration_us)
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
                    lines.get(("superframe", "poll_grant_us")),
                    f"poll_grant_us {sc.poll_grant_us} is shorter than the {need_us} us "
                    f"frame exchange of polled node {node_id}",
                )
        if node.access != TrafficKind.SCHEDULED:
            continue
        if node.slot_start is None or node.slot_len is None:
            raise _fail(node_line, f"{node_id}: scheduled access needs slot_start and slot_len")
        end = node.slot_start + node.slot_len
        if end > layout.slots_per_superframe:
            raise _fail(node_line, f"{node_id}: allocation runs past the superframe")
        span_us = node.slot_len * layout.slot_length_us
        if span_us < need_us:
            raise _fail(
                node_line,
                f"{node_id}: {node.slot_len}-slot allocation ({span_us} us) "
                f"is shorter than one {need_us} us frame exchange",
            )
        covered = phases_covered(layout, node.slot_start, node.slot_len)
        for kind in covered:
            if not admissible(kind, node.priority, TrafficKind.SCHEDULED):
                slot = max(node.slot_start, layout.span(kind).start_slot)
                raise _fail(
                    node_line,
                    f"{node_id}: slot {slot} falls in {kind.value}, which takes no scheduled traffic",
                )
            taken.add(kind)
        # Two nodes' allocations meet in some superframe exactly when their
        # slots overlap and their offsets agree modulo the gcd of their
        # periods (the two residue classes of indices then share a member).
        for other in scheduled:
            first = max(node.slot_start, other.slot_start)
            if (
                first < min(end, other.slot_start + other.slot_len)
                and (node.offset - other.offset) % math.gcd(node.period, other.period) == 0
            ):
                raise _fail(
                    node_line,
                    f"slot {first} of the superframes both use: {other.node_id} vs {node_id}",
                )
        scheduled.append(node)
        start_us, period = node.slot_start * layout.slot_length_us, node.period
        entry = (node_id, span_us, span_us, covered[0])
        alloc_grants[node_id] = (start_us, period, node.offset % period, EventKind.POLL_GRANT, entry)

    contention = sorted((node.node_id, node.priority) for node in sc.nodes if node.access == TrafficKind.CONTENTION)
    if sc.run.channel == "ideal" and len(contention) > 1:
        raise _fail(
            lines.get("run"),
            f"ideal channel admits at most one contention node; scenario has {len(contention)}",
        )
    contenders = {kind: tuple(node_id for node_id, priority in contention
                              if admissible(kind, priority, TrafficKind.CONTENTION)) for kind in PhaseKind}

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
        if contenders[span.kind]:
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
            line = lines.get(("superframe", "poll_grant_us"), lines.get(("nodes", node_id)))
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
            span.length_slots * layout.slot_length_us >= need_us and node.node_id in contenders[span.kind]
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
        contenders=contenders,
        schedule=tuple(schedule),
    )
