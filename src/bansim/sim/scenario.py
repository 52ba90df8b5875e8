"""Scenario files: the text format that describes one simulation run.

Line-oriented `key = value` entries under `[section]` headers, with `#`
comments. Sections: [phy], [superframe], [csma], [nodes], [security],
[run]. Node and security entries are one line per node id whose value is
a comma-separated list of sub-assignments, for example:

    [nodes]
    n0 = priority=5, traffic=saturated, payload=100, access=contention
    n1 = priority=2, traffic=poisson:40, payload=50, access=polled
    n2 = priority=3, traffic=scripted:1000;250000, payload=20, access=scheduled, slot_start=70, slot_len=10

Unknown sections, keys, and sub-keys are rejected with their line
number. Semantic checks (phase arithmetic, channel rules, payload
bounds, grants that fit a frame exchange) run after parsing; a check on
one node or security entry reports that entry's line, a check on
poll_grant_us its line, the others their section's line where one is
known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from bansim.errors import AllocationConflict, InvalidLayoutError, ScenarioError
from bansim.mac.csma import MacTimingConstants, exchange_us
from bansim.mac.superframe import (
    OperationalMode,
    PhaseKind,
    ScheduledAllocation,
    SuperframeConfig,
    TrafficKind,
    admissible,
    build_layout,
    phases_covered,
    place_scheduled,
)
from bansim.phy.ppdu import MAX_BODY_LEN, frame_airtime_us
from bansim.phy.rates import Band, PhyConfig, hbc_config, nb_config, uwb_config
from bansim.security import SECURITY_WIRE_OVERHEAD, SecurityLevel

__all__ = [
    "NodeSpec",
    "SecuritySpec",
    "RunSpec",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "validate_scenario",
]

ACCESS_KINDS = ("contention", "polled", "scheduled")
CHANNEL_MODELS = ("ideal", "collision")


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    priority: int = 4
    # ("saturated",) | ("poisson", rate_per_s) | ("scripted", (t_us, ...))
    traffic: tuple = ("saturated",)
    payload_bytes: int = 100
    access: str = "contention"
    slot_start: int | None = None  # scheduled access only
    slot_len: int | None = None
    period: int = 1
    offset: int = 0

    def allocation(self) -> ScheduledAllocation:
        return ScheduledAllocation(
            self.node_id, self.slot_start, self.slot_len, self.period, self.offset
        )


@dataclass(frozen=True)
class SecuritySpec:
    level: SecurityLevel = SecurityLevel.UNSECURED
    mk: str = "preshared"
    group: str | None = None


@dataclass(frozen=True)
class RunSpec:
    seed: int = 1
    duration_us: int = 1_000_000
    channel: str = "ideal"
    stats_out: str | None = None
    trace_out: str | None = None


@dataclass(frozen=True)
class Scenario:
    phy: PhyConfig
    superframe: SuperframeConfig
    timing: MacTimingConstants = MacTimingConstants()
    nodes: tuple[NodeSpec, ...] = ()
    security: dict[str, SecuritySpec] = field(default_factory=dict)
    run: RunSpec = RunSpec()
    poll_grant_us: int | None = None  # None: sized from the largest exchange


# --------------------------------------------------------------- parsing

_PHASE_KEYS = {
    "beacon_slots": PhaseKind.BEACON,
    "eap1_slots": PhaseKind.EAP1,
    "rap1_slots": PhaseKind.RAP1,
    "type_a_slots": PhaseKind.TYPE_A,
    "eap2_slots": PhaseKind.EAP2,
    "rap2_slots": PhaseKind.RAP2,
    "type_b_slots": PhaseKind.TYPE_B,
    "cap_slots": PhaseKind.CAP,
}

_MODES = {
    "beacon": OperationalMode.BEACON_BOUNDED,
    "nonbeacon": OperationalMode.NONBEACON_BOUNDED,
    "unbounded": OperationalMode.NONBEACON_UNBOUNDED,
}

_SECTIONS = ("phy", "superframe", "csma", "nodes", "security", "run")
# Highest Poisson rate, frames/s. Above it the mean gap between arrivals
# is under the kernel's 1 us clock, so gaps round to zero and simulated
# time stops advancing.
MAX_POISSON_RATE_PER_S = 1e6
# Smallest legal value of each allocation key that has one (offset has none).
_ALLOCATION_MINIMA = {"slot_start": 0, "slot_len": 1, "period": 1}


def _fail(line: int, message: str) -> ScenarioError:
    return ScenarioError(message, line=line)


def clock_us(t: float) -> int:
    """A duration on the simulation clock: whole microseconds, half up."""
    return int(t + 0.5)


def _to_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _fail(line, f"{key} wants an integer, got {raw!r}") from None


def _to_float(raw: str, line: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise _fail(line, f"{key} wants a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise _fail(line, f"{key} wants a finite number, got {raw!r}")
    return value


def _to_bool(raw: str, line: int, key: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise _fail(line, f"{key} wants true/false, got {raw!r}")


def _split_assignments(raw: str, line: int) -> dict[str, str]:
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
        out[key] = value
    return out


def _parse_traffic(raw: str, line: int) -> tuple:
    if raw == "saturated":
        return ("saturated",)
    if raw.startswith("poisson:"):
        rate = _to_float(raw[len("poisson:") :], line, "poisson rate")
        if rate <= 0:
            raise _fail(line, "poisson rate must be positive")
        if rate > MAX_POISSON_RATE_PER_S:
            raise _fail(
                line,
                f"poisson rate {rate:g} /s is above {MAX_POISSON_RATE_PER_S:g} /s: "
                "its mean gap is under the 1 us clock",
            )
        return ("poisson", rate)
    if raw.startswith("scripted:"):
        times = tuple(
            _to_int(t, line, "scripted time")
            for t in raw[len("scripted:") :].split(";")
            if t
        )
        if not times:
            raise _fail(line, "scripted traffic needs at least one time")
        if any(t < 0 for t in times) or list(times) != sorted(times):
            raise _fail(line, "scripted times must be sorted and non-negative")
        return ("scripted", times)
    raise _fail(line, f"unknown traffic model {raw!r}")


def _parse_node(node_id: str, raw: str, line: int) -> NodeSpec:
    fields = _split_assignments(raw, line)
    spec = {"node_id": node_id}
    for key, value in fields.items():
        if key == "priority":
            spec["priority"] = _to_int(value, line, key)
        elif key == "traffic":
            spec["traffic"] = _parse_traffic(value, line)
        elif key == "payload":
            spec["payload_bytes"] = _to_int(value, line, key)
        elif key == "access":
            if value not in ACCESS_KINDS:
                raise _fail(line, f"access must be one of {ACCESS_KINDS}, got {value!r}")
            spec["access"] = value
        elif key in ("slot_start", "slot_len", "period", "offset"):
            spec[key] = _to_int(value, line, key)
            low = _ALLOCATION_MINIMA.get(key)
            if low is not None and spec[key] < low:
                raise _fail(line, f"{key} must be at least {low}, got {spec[key]}")
        else:
            raise _fail(line, f"unknown node key {key!r}")
    return NodeSpec(**spec)


def _parse_security(raw: str, line: int) -> SecuritySpec:
    fields = _split_assignments(raw, line)
    spec = {}
    for key, value in fields.items():
        if key == "level":
            n = _to_int(value, line, key)
            if n not in (0, 1, 2):
                raise _fail(line, f"security level must be 0, 1, or 2, got {n}")
            spec["level"] = SecurityLevel(n)
        elif key == "mk":
            if value not in ("preshared", "unauthenticated"):
                raise _fail(line, f"unknown master-key mode {value!r}")
            spec["mk"] = value
        elif key == "group":
            spec["group"] = value
        else:
            raise _fail(line, f"unknown security key {key!r}")
    return SecuritySpec(**spec)


def _band_by_value(raw: str, line: int) -> Band:
    for band in Band:
        if band.value == raw:
            return band
    raise _fail(line, f"unknown band {raw!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; raises ScenarioError with the
    offending line number for format problems."""
    section = None
    section_lines: dict[str, int] = {}
    phy_fields: dict[str, tuple[str, int]] = {}
    sf_fields: dict[str, tuple[str, int]] = {}
    csma_fields: dict[str, tuple[str, int]] = {}
    run_fields: dict[str, tuple[str, int]] = {}
    nodes: list[NodeSpec] = []
    node_lines: dict[str, int] = {}
    security: dict[str, SecuritySpec] = {}
    security_lines: dict[str, int] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise _fail(lineno, f"malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise _fail(lineno, f"unknown section [{name}]")
            section = name
            section_lines[name] = lineno
            continue
        if section is None:
            raise _fail(lineno, "entry before any [section] header")
        if "=" not in line:
            raise _fail(lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section == "nodes":
            if any(n.node_id == key for n in nodes):
                raise _fail(lineno, f"duplicate node {key!r}")
            nodes.append(_parse_node(key, value, lineno))
            node_lines[key] = lineno
        elif section == "security":
            if key in security:
                raise _fail(lineno, f"duplicate security entry {key!r}")
            security[key] = _parse_security(value, lineno)
            security_lines[key] = lineno
        else:
            target = {"phy": phy_fields, "superframe": sf_fields, "csma": csma_fields, "run": run_fields}[section]
            if key in target:
                raise _fail(lineno, f"duplicate key {key!r}")
            target[key] = (value, lineno)

    phy = _build_phy(phy_fields)
    grant_line = sf_fields.get("poll_grant_us", (None, None))[1]
    superframe, poll_grant_us = _build_superframe(sf_fields)
    timing = _build_timing(csma_fields)
    run = _build_run(run_fields)
    scenario = Scenario(
        phy=phy,
        superframe=superframe,
        timing=timing,
        nodes=tuple(nodes),
        security=security,
        run=run,
        poll_grant_us=poll_grant_us,
    )
    if grant_line is not None:
        section_lines["poll_grant_us"] = grant_line
    validate_scenario(scenario, section_lines, node_lines, security_lines)
    return scenario


def _pop(fields: dict, key: str, default=None):
    return fields.pop(key, (default, None))


def _reject_leftovers(fields: dict, section: str) -> None:
    if fields:
        key, (_, line) = next(iter(fields.items()))
        raise _fail(line, f"unknown {section} key {key!r}")


def _build_phy(fields: dict) -> PhyConfig:
    kind, line = _pop(fields, "kind", "nb")
    if kind == "nb":
        band_raw, band_line = _pop(fields, "band", "402-405")
        band = _band_by_value(band_raw, band_line)
        rate, rate_line = _pop(fields, "rate", "high")
        if rate not in ("low", "high"):
            raise _fail(rate_line, f"rate must be low or high, got {rate!r}")
        cfg = nb_config(band, rate)
    elif kind == "uwb":
        channel, ch_line = _pop(fields, "channel", "2")
        cfg = uwb_config(_to_int(channel, ch_line, "channel"))
    elif kind == "hbc":
        center, c_line = _pop(fields, "center", "16")
        cfg = hbc_config(_to_int(center, c_line, "center"))
    else:
        raise _fail(line, f"phy kind must be nb, uwb, or hbc, got {kind!r}")
    override, o_line = _pop(fields, "rate_override_kbps", None)
    if override is not None:
        cfg = replace(cfg, rate_override_kbps=_to_float(override, o_line, "rate_override_kbps"))
    _reject_leftovers(fields, "phy")
    return cfg


def _build_superframe(fields: dict) -> tuple[SuperframeConfig, int | None]:
    slot_length, sl_line = _pop(fields, "slot_length_us", "500")
    slots, s_line = _pop(fields, "slots", "256")
    mode_raw, m_line = _pop(fields, "mode", "beacon")
    if mode_raw not in _MODES:
        raise _fail(m_line, f"mode must be one of {sorted(_MODES)}, got {mode_raw!r}")
    fill, f_line = _pop(fields, "fill_phase_type", "I")
    multiplier, bp_line = _pop(fields, "beacon_period_multiplier", "1")
    prohibited, pr_line = _pop(fields, "beacon_prohibited", "false")
    grant, g_line = _pop(fields, "poll_grant_us", None)

    phase_slots = {}
    for key, kind in _PHASE_KEYS.items():
        raw, line = _pop(fields, key, None)
        if raw is not None:
            phase_slots[kind] = _to_int(raw, line, key)
    _reject_leftovers(fields, "superframe")

    config = SuperframeConfig(
        slot_length_us=_to_int(slot_length, sl_line, "slot_length_us"),
        slots_per_superframe=_to_int(slots, s_line, "slots"),
        mode=_MODES[mode_raw],
        phase_slots=phase_slots,
        fill_phase_type=fill,
        beacon_period_multiplier=_to_int(multiplier, bp_line, "beacon_period_multiplier"),
        beacon_prohibited=_to_bool(prohibited, pr_line, "beacon_prohibited"),
    )
    poll_grant = _to_int(grant, g_line, "poll_grant_us") if grant is not None else None
    return config, poll_grant


def _build_timing(fields: dict) -> MacTimingConstants:
    psifs, p_line = _pop(fields, "psifs_us", "50")
    slot, s_line = _pop(fields, "slot_us", "125")
    gtn, g_line = _pop(fields, "gtn_us", "85")
    _reject_leftovers(fields, "csma")
    values = {}
    for key, raw, line, low in (
        ("psifs_us", psifs, p_line, 0),
        ("slot_us", slot, s_line, 1),
        ("gtn_us", gtn, g_line, 0),
    ):
        values[key] = _to_int(raw, line, key)
        if values[key] < low:
            raise _fail(line, f"{key} must be at least {low}, got {values[key]}")
    return MacTimingConstants(
        psifs_us=values["psifs_us"], csma_slot_us=values["slot_us"], gtn_us=values["gtn_us"]
    )


def _build_run(fields: dict) -> RunSpec:
    seed, se_line = _pop(fields, "seed", "1")
    duration, d_line = _pop(fields, "duration_ms", "1000")
    channel, c_line = _pop(fields, "channel", "ideal")
    if channel not in CHANNEL_MODELS:
        raise _fail(c_line, f"channel must be one of {CHANNEL_MODELS}, got {channel!r}")
    stats_out, _ = _pop(fields, "stats_out", None)
    trace_out, _ = _pop(fields, "trace_out", None)
    _reject_leftovers(fields, "run")
    duration_ms = _to_int(duration, d_line, "duration_ms")
    if duration_ms <= 0:
        raise _fail(d_line, "duration_ms must be positive")
    return RunSpec(
        seed=_to_int(seed, se_line, "seed"),
        duration_us=duration_ms * 1000,
        channel=channel,
        stats_out=stats_out,
        trace_out=trace_out,
    )


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


# ------------------------------------------------------------- validation


def validate_scenario(
    sc: Scenario,
    section_lines: dict[str, int] | None = None,
    node_lines: dict[str, int] | None = None,
    security_lines: dict[str, int] | None = None,
) -> None:
    """Semantic checks; raises ScenarioError before any event runs. A
    check on one node reports its line from `node_lines`, on a security
    entry its line from `security_lines`, and on the poll grant the line
    that `section_lines` holds under "poll_grant_us"."""
    lines = section_lines or {}
    node_lines = node_lines or {}
    security_lines = security_lines or {}
    ack_us = clock_us(frame_airtime_us(sc.phy, 0))

    try:
        layout = build_layout(sc.superframe)
    except InvalidLayoutError as exc:
        raise ScenarioError(str(exc), line=lines.get("superframe")) from exc

    contention = 0
    for node in sc.nodes:
        node_line = node_lines.get(node.node_id, lines.get("nodes"))
        if not 0 <= node.priority <= 7:
            raise ScenarioError(
                f"{node.node_id}: priority {node.priority} outside 0..7", line=node_line
            )
        sec = sc.security.get(node.node_id, SecuritySpec())
        overhead = SECURITY_WIRE_OVERHEAD[sec.level]
        if not 1 <= node.payload_bytes + overhead <= MAX_BODY_LEN:
            raise ScenarioError(
                f"{node.node_id}: payload {node.payload_bytes} plus {overhead} "
                f"security bytes leaves the 1..{MAX_BODY_LEN} body range",
                line=node_line,
            )
        # The kernel's exchange: airtimes on its whole-microsecond clock.
        data_us = clock_us(frame_airtime_us(sc.phy, node.payload_bytes + overhead))
        need_us = exchange_us(data_us, ack_us, sc.timing)
        if node.access == "polled" and sc.poll_grant_us is not None and sc.poll_grant_us < need_us:
            raise ScenarioError(
                f"poll_grant_us {sc.poll_grant_us} is shorter than the {need_us} us "
                f"frame exchange of polled node {node.node_id}",
                line=lines.get("poll_grant_us", lines.get("superframe")),
            )
        if node.access == "contention":
            contention += 1
        elif node.access == "scheduled":
            if node.slot_start is None or node.slot_len is None:
                raise ScenarioError(
                    f"{node.node_id}: scheduled access needs slot_start and slot_len",
                    line=node_line,
                )
            alloc = node.allocation()  # validates its own fields
            end_slot = alloc.start_slot + alloc.length_slots
            if end_slot > layout.slots_per_superframe:
                raise ScenarioError(
                    f"{node.node_id}: allocation runs past the superframe", line=node_line
                )
            span_us = alloc.length_slots * layout.slot_length_us
            if span_us < need_us:
                raise ScenarioError(
                    f"{node.node_id}: {alloc.length_slots}-slot allocation ({span_us} us) "
                    f"is shorter than one {need_us} us frame exchange",
                    line=node_line,
                )
            for kind in phases_covered(layout, alloc.start_slot, alloc.length_slots):
                if not admissible(kind, node.priority, TrafficKind.SCHEDULED):
                    slot = max(alloc.start_slot, layout.span(kind).start_slot)
                    raise ScenarioError(
                        f"{node.node_id}: slot {slot} falls in {kind.value}, "
                        "which takes no scheduled traffic",
                        line=node_line,
                    )

    scheduled = [n.allocation() for n in sc.nodes if n.access == "scheduled"]
    if scheduled:
        horizon = 1
        for alloc in scheduled:
            horizon = math.lcm(horizon, alloc.periodicity)
        for index in range(horizon):
            try:
                place_scheduled(scheduled, layout, index)
            except AllocationConflict as exc:
                line = node_lines.get(exc.node_id, lines.get("nodes"))
                raise ScenarioError(str(exc), line=line) from exc

    if sc.run.channel == "ideal" and contention > 1:
        raise ScenarioError(
            "ideal channel admits at most one contention node; "
            f"scenario has {contention}",
            line=lines.get("run"),
        )

    known = {n.node_id for n in sc.nodes}
    for node_id, spec in sc.security.items():
        entry_line = security_lines.get(node_id, lines.get("security"))
        if node_id not in known:
            raise ScenarioError(f"security entry for unknown node {node_id!r}", line=entry_line)
        if spec.group is not None and spec.level == SecurityLevel.UNSECURED:
            raise ScenarioError(
                f"{node_id}: group membership needs security level 1 or 2", line=entry_line
            )
