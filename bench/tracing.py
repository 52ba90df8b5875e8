"""Per-layer tracing from outside the program.

A traced run patches timing wrappers onto public `bansim` functions in
every loaded `bansim` module namespace that holds them (the kernel calls
`bansim.sim.kernel.admissible`, the block coder looks up
`bansim.phy.fec.crc12_bits`), and restores the originals afterwards.

Spanned functions record one span per call (name, start, end, parent,
run id) in flat in-memory arrays. Counted functions only bump a call
counter: they are the per-tick predicates and counter updates the kernel
calls millions of times per run, whose time therefore stays in their
caller's self time. A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

SPAN = "span"
COUNT = "count"


def _build_family(args, kwargs, raised):
    cfg = args[0] if args else kwargs["cfg"]
    return f"phy.ppdu.build.{cfg.kind.value}"


def _parse_outcome(args, kwargs, raised):
    return "phy.ppdu.parse_reject" if raised else "phy.ppdu.parse_ok"


# (module, attribute, metric name, mode, function naming the span per
# call from its arguments and outcome). An attribute "Class.method"
# patches the class only.
TARGETS = [
    ("bansim.sim.kernel", "run", "sim.kernel.run", SPAN, None),
    ("bansim.sim.kernel", "write_trace", "sim.kernel.write_trace", SPAN, None),
    ("bansim.mac.superframe", "admissible", "mac.superframe.admissible", COUNT, None),
    ("bansim.mac.superframe", "phase_at", "mac.superframe.phase_at", COUNT, None),
    ("bansim.mac.superframe", "schedule_polls", "mac.superframe.schedule_polls", SPAN, None),
    ("bansim.mac.superframe", "place_scheduled", "mac.superframe.place_scheduled", SPAN, None),
    ("bansim.mac.superframe", "build_layout", "mac.superframe.build_layout", SPAN, None),
    ("bansim.mac.csma", "draw_backoff", "mac.csma.draw_backoff", COUNT, None),
    ("bansim.mac.csma", "on_idle_slot", "mac.csma.on_idle_slot", COUNT, None),
    ("bansim.mac.csma", "guard_check", "mac.csma.guard_check", COUNT, None),
    ("bansim.mac.csma", "on_busy", "mac.csma.on_busy", COUNT, None),
    ("bansim.mac.csma", "on_failure", "mac.csma.on_failure", COUNT, None),
    ("bansim.mac.csma", "on_success", "mac.csma.on_success", COUNT, None),
    ("bansim.mac.csma", "trace_line", "mac.csma.trace_line", SPAN, None),
    ("bansim.security", "secure_frame", "security.secure_frame", SPAN, None),
    ("bansim.security", "admit_frame", "security.admit_frame", SPAN, None),
    ("bansim.sim.stats", "write_stats_csv", "sim.stats.write_stats_csv", SPAN, None),
    (
        "bansim.sim.stats",
        "RunStats.check_conservation",
        "sim.stats.check_conservation",
        SPAN,
        None,
    ),
    ("bansim.sim.scenario", "parse_scenario", "sim.scenario.parse_scenario", SPAN, None),
    ("bansim.phy.ppdu", "build_ppdu", "phy.ppdu.build", SPAN, _build_family),
    ("bansim.phy.ppdu", "parse_ppdu", "phy.ppdu.parse", SPAN, _parse_outcome),
    ("bansim.phy.fec", "encode_blocks", "phy.fec.encode_blocks", SPAN, None),
    ("bansim.phy.fec", "decode_blocks", "phy.fec.decode_blocks", SPAN, None),
    ("bansim.phy.checksums", "crc12_bits", "phy.checksums.crc12_bits", SPAN, None),
    ("bansim.phy.checksums", "crc16", "phy.checksums.crc16", SPAN, None),
    ("bansim.phy.checksums", "crc4_bits", "phy.checksums.crc4_bits", COUNT, None),
    ("bansim.phy.bitfields", "int_to_bits", "phy.bitfields.int_to_bits", SPAN, None),
    ("bansim.phy.bitfields", "bits_to_int", "phy.bitfields.bits_to_int", SPAN, None),
    ("bansim.phy.bitfields", "bytes_to_bits", "phy.bitfields.bytes_to_bits", SPAN, None),
    ("bansim.phy.bitfields", "bits_to_bytes", "phy.bitfields.bits_to_bytes", SPAN, None),
    ("bansim.phy.rates", "info_data_rate", "phy.rates.info_data_rate", SPAN, None),
    ("bansim.efficiency", "sweep", "efficiency.sweep", SPAN, None),
]


class Tracer:
    """Span and call-count recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self.counts: Counter[str] = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.undone: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, fn, name: str, name_of=None):
        fixed = self._intern(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(fixed)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.run.append(self.run_id)
            self.end.append(0)
            self._stack.append(idx)
            raised = True
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
                if name_of is not None:
                    self.name_id[idx] = self._intern(name_of(args, kwargs, raised))

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------ patching

    def patch(self, targets=TARGETS) -> None:
        """Install wrappers for every target in every `bansim` module that
        holds the original function."""
        for module_name, attr, name, mode, name_of in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                holders = [(owner, meth)]
            else:
                original = getattr(module, attr)
                holders = [
                    (mod, key)
                    for mod_name, mod in sorted(sys.modules.items())
                    if mod_name.split(".")[0] == "bansim" and mod is not None
                    for key, value in vars(mod).items()
                    if value is original
                ]
            if mode == SPAN:
                wrapper = self.span_wrapper(original, name, name_of)
            else:
                wrapper = self.count_wrapper(original, name)
            for owner, holder_attr in holders:
                self._patches.append((owner, holder_attr, original))
                setattr(owner, holder_attr, wrapper)

    def unpatch(self) -> None:
        """Restore every original, last patch first."""
        self.undone = list(reversed(self._patches))
        for owner, name, original in self.undone:
            setattr(owner, name, original)
        self._patches.clear()

    def leftovers(self) -> list[str]:
        """Attributes the last unpatch did not restore to the original."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self.undone
            if vars(owner).get(name) is not original
        ]

    @contextmanager
    def patched(self, targets=TARGETS):
        self.patch(targets)
        try:
            yield self
        finally:
            self.unpatch()

    # ------------------------------------------------------------- results

    def spans(self) -> list[tuple[str, int, int, int, int]]:
        """(name, start_ns, end_ns, parent index, run id) per span."""
        return [
            (self.names[n], s, e, p, r)
            for n, s, e, p, r in zip(self.name_id, self.start, self.end, self.parent, self.run)
        ]

    def clear(self) -> None:
        for column in (self.name_id, self.start, self.end, self.parent, self.run):
            del column[:]
        self.counts.clear()


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, run) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def summarize(spans, counts) -> dict[str, float]:
    """`<name>.calls` and `<name>.self_s` for every span name, plus
    `<name>.calls` for every counted function."""
    out: dict[str, float] = {}
    for (name, *_), self_ns in zip(spans, self_times(spans)):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_ns / 1e9
    for name, n in counts.items():
        out[f"{name}.calls"] = n
    return out
