"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of the workload seed. Seeds change how
priorities, payloads, rates and frame contents are assigned, not their
overall mix: every mix is a seeded permutation of a fixed, evenly spread
set, so two seeds cost about the same to run and a spread between seeds
measures the program rather than the draw.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

# Simulated time per run, chosen for host time: one contention run takes
# about half a second with its trace, one ward seed a little over one
# second (two seeds run in two workers).
CONTENTION_DURATION_MS = 10_000
WARD_DURATION_MS = 60_000

CONTENTION_NODES = 32
WARD_SENSORS = 16

# 1050 frames: a frame's latency is its median over a measurement's runs,
# and p99 over the frames has ten of them beyond it.
CODEC_FRAMES_PER_FAMILY = 350
CODEC_FLIP_BODY_LEN = 4
# (family, flag values) handed to the codec: nb 402-405 high, uwb ch 2,
# hbc 16 MHz.
CODEC_FAMILIES = (("nb", "402-405"), ("uwb", 2), ("hbc", 16))

# The eight-phase beacon layout of scenarios/contention_pair.scn.
_CONTENTION_LAYOUT = """\
[superframe]
slot_length_us = 500
slots = 256
beacon_slots = 4
eap1_slots = 12
rap1_slots = 56
type_a_slots = 48
eap2_slots = 12
rap2_slots = 48
type_b_slots = 40
cap_slots = 36
"""

# The layout of scenarios/mixed_access.scn: a scheduled allocation fits
# inside the type I phase (slots 64..143), the type II phase takes polls.
_WARD_LAYOUT = """\
[superframe]
slot_length_us = 500
slots = 256
beacon_slots = 4
eap1_slots = 10
rap1_slots = 50
type_a_slots = 80
eap2_slots = 10
rap2_slots = 40
type_b_slots = 50
cap_slots = 12
"""

_PHY = """\
[phy]
kind = nb
band = 2400-2483.5
rate = high
"""


def _spread(rng: random.Random, values: list, count: int) -> list:
    """`count` items cycling evenly through `values`, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _even(lo: int, hi: int, count: int) -> list[int]:
    """`count` integers spread evenly over [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def contention_scenario(seed: int) -> str:
    """32 saturated contention nodes, priorities 2..6, payloads 20..200
    bytes, on the collision channel."""
    rng = random.Random(f"contention:{seed}")
    priorities = _spread(rng, [2, 3, 4, 5, 6], CONTENTION_NODES)
    payloads = _even(20, 200, CONTENTION_NODES)
    rng.shuffle(payloads)
    nodes = "\n".join(
        f"n{i:02d} = priority={p}, traffic=saturated, payload={b}"
        for i, (p, b) in enumerate(zip(priorities, payloads))
    )
    return (
        f"# sim_contention, workload seed {seed}\n\n{_PHY}\n{_CONTENTION_LAYOUT}\n"
        f"[nodes]\n{nodes}\n\n"
        f"[run]\nseed = {rng.randrange(1, 1 << 30)}\n"
        f"duration_ms = {CONTENTION_DURATION_MS}\nchannel = collision\n"
    )


def ward_scenario(seed: int) -> str:
    """16 light Poisson sensors, a polled pump and a scheduled infusion.
    Four nodes are secured; three of them share the group `ward`.

    The sensor profiles (priority 1..6, rate 1..10 frames/s, payload,
    security) are a fixed set; the seed deals them out to the node names,
    which also sets each node's random stream."""
    rng = random.Random(f"ward:{seed}")
    payloads = _even(20, 120, WARD_SENSORS)
    profiles = [
        (1 + i % 6, 1 + (3 * i) % 10, payloads[(5 * i) % WARD_SENSORS])
        for i in range(WARD_SENSORS)
    ]
    sensors = [f"s{i:02d}" for i in range(WARD_SENSORS)]
    rng.shuffle(sensors)
    lines = [
        f"{name} = priority={p}, traffic=poisson:{r}, payload={b}"
        for name, (p, r, b) in sorted(zip(sensors, profiles))
    ]
    lines.append("pump = priority=5, traffic=poisson:30, payload=60, access=polled")
    lines.append(
        "infusion = priority=5, traffic=poisson:8, payload=40, access=scheduled, "
        "slot_start=70, slot_len=20"
    )
    security = sorted(
        [
            f"{sensors[0]} = level=1",
            f"{sensors[1]} = level=2, group=ward",
            "pump = level=2, group=ward",
            "infusion = level=2, group=ward, mk=preshared",
        ]
    )
    return (
        f"# sim_ward, workload seed {seed}\n\n{_PHY}\n{_WARD_LAYOUT}\n"
        "[nodes]\n" + "\n".join(lines) + "\n\n"
        "[security]\n" + "\n".join(security) + "\n\n"
        f"[run]\nseed = 1\nduration_ms = {WARD_DURATION_MS}\nchannel = collision\n"
    )


def ward_seeds(seed: int) -> list[int]:
    """The two simulation seeds one ward run sweeps over."""
    rng = random.Random(f"ward-seeds:{seed}")
    return [rng.randrange(1, 1 << 30) for _ in range(2)]


def codec_frames(seed: int) -> dict:
    """Round-trip frames for every family, bodies 0..255 bytes, plus one
    short frame per family whose every single-bit flip must be rejected."""
    rng = random.Random(f"codec:{seed}")
    frames = []
    for family, flag in CODEC_FAMILIES:
        lengths = _even(0, 255, CODEC_FRAMES_PER_FAMILY)
        for length in lengths:
            frames.append(
                {
                    "family": family,
                    "flag": flag,
                    "mac_header": rng.randbytes(7).hex(),
                    "body": rng.randbytes(length).hex(),
                }
            )
    rng.shuffle(frames)
    flips = [
        {
            "family": family,
            "flag": flag,
            "mac_header": rng.randbytes(7).hex(),
            "body": rng.randbytes(CODEC_FLIP_BODY_LEN).hex(),
        }
        for family, flag in CODEC_FAMILIES
    ]
    return {"frames": frames, "flips": flips}
