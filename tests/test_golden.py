"""Golden outputs pinned as SHA-256 digests of stored bytes.

The stats CSV and event trace of both bundled scenarios and of stress
scenarios, and the bit images of seeded frames of every signal family,
must stay byte-identical: a faster or refactored path has to reproduce
them exactly, not only agree with itself within one process.

The bytes of the bundled and edge scenarios are also stored, gzipped, in
tests/data/golden, so a run that departs from them names its first
differing line. `python tests/test_golden.py` writes those files from
the current code; the digests below say whether they are the pinned ones.
"""

import difflib
import gzip
import hashlib
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bansim.errors import FrameError
from bansim.phy.ppdu import _FORMATS, build_ppdu, parse_ppdu
from bansim.phy.rates import Band, hbc_config, nb_config, uwb_config
from bansim.sim.kernel import run_to_files
from bansim.sim.scenario import compile_scenario, load_scenario, parse_scenario
from test_cli import cli_env

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"

# (stats CSV, event trace) digests of each bundled scenario on its stored seed.
SCENARIO_DIGESTS = {
    "contention_pair": (
        "b313f016308b11f1c0174abcf3923e5853e09efb731d04374008dc48944add23",
        "f7d871b4d828d0361ce2533144a77b1352caf28702b745ff8ab01e034f70ea5f",
    ),
    "mixed_access": (
        "1d7404ebecc47817b54e1a2435cb5ba93e2d215b82a8b89cd1e79edcef06861d",
        "5ef4fa739e0257b99b95c96182b4f9b2821617f50364b7db59142fdaf6738219",
    ),
}

# The eight-phase layout of mixed_access.scn: 128 ms superframes; Beacon
# 0-2000 us, EAP1 2000-7000, RAP1 7000-32000, type I 32000-72000, EAP2
# 72000-77000, RAP2 77000-97000, type II 97000-122000, CAP 122000-128000.
_NB = "[phy]\nkind = nb\nband = 2400-2483.5\nrate = high\n"
_EIGHT_PHASES = """\
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


def _saturated_32() -> str:
    # Priorities 0..6 and one priority 7 node, which has the exclusive
    # phases to itself.
    nodes = "\n".join(
        f"n{i:02d} = priority={7 if i == 31 else i % 7}, traffic=saturated, "
        f"payload={20 + (37 * i) % 211}"
        for i in range(32)
    )
    return f"{_NB}{_EIGHT_PHASES}[nodes]\n{nodes}\n[run]\nseed = 32\nduration_ms = 3000\nchannel = collision\n"


# Every access kind, beacons every second superframe and two scheduled
# allocations sharing slots 70..89 on alternate superframes.
_EVERY_ACCESS_MODE = f"""\
{_NB}{_EIGHT_PHASES}beacon_period_multiplier = 2
[nodes]
hi = priority=7, traffic=poisson:150, payload=50
mid = priority=4, traffic=poisson:40, payload=120
lo = priority=2, traffic=saturated, payload=30
p1 = priority=5, traffic=poisson:30, payload=60, access=polled
p2 = priority=1, traffic=poisson:20, payload=20, access=polled
even = priority=5, traffic=poisson:12, payload=40, access=scheduled, slot_start=70, slot_len=20, period=2
odd = priority=5, traffic=saturated, payload=40, access=scheduled, slot_start=70, slot_len=20, period=2, offset=1
steady = priority=6, traffic=poisson:6, payload=90, access=scheduled, slot_start=100, slot_len=12
[security]
hi = level=1
p1 = level=2, group=ward
odd = level=2, group=ward
steady = level=1
[run]
seed = 5
duration_ms = 1024
channel = collision
"""

_UWB = """\
[phy]
kind = uwb
channel = 7
[superframe]
beacon_slots = 4
rap1_slots = 120
type_b_slots = 60
cap_slots = 72
[nodes]
a = priority=6, traffic=saturated, payload=200
b = priority=3, traffic=poisson:80, payload=60
c = priority=4, traffic=poisson:25, payload=100, access=polled
[security]
b = level=2
[run]
seed = 9
duration_ms = 640
channel = collision
"""

_HBC = """\
[phy]
kind = hbc
center = 16
[superframe]
slot_length_us = 1000
beacon_slots = 8
rap1_slots = 100
type_a_slots = 60
cap_slots = 88
[nodes]
a = priority=5, traffic=saturated, payload=40
b = priority=5, traffic=poisson:10, payload=120
s = priority=3, traffic=poisson:5, payload=30, access=scheduled, slot_start=120, slot_len=30
[run]
seed = 12
duration_ms = 1024
channel = collision
"""

# Arrivals exactly on phase starts (0, 2000, 7000, 72000, 77000, 122000,
# 128000), on slot-grid instants (phase start + 50 + k * 125 us), on the
# scheduled allocation's start (35000 us) and on poll grant starts
# (97000 + k * 2500 us).
_SAME_INSTANT = f"""\
{_NB}{_EIGHT_PHASES}poll_grant_us = 2500
[nodes]
ex = priority=7, traffic=scripted:0;2000;2050;2175;72000;72050;130050;200050;200175, payload=60
ra = priority=3, traffic=scripted:7000;7050;7175;7300;77000;77050;122000;122050;128000;135050, payload=90
rb = priority=4, traffic=scripted:7050;7175;77050;77175;122175;263050, payload=30
pol = priority=5, traffic=scripted:97000;99500;102000;225000, payload=60, access=polled
sch = priority=5, traffic=scripted:35000;163000;291000, payload=40, access=scheduled, slot_start=70, slot_len=20
[run]
seed = 3
duration_ms = 384
channel = collision
"""

# name -> (scenario, stats digest, trace digest or None for stats only).
# Recorded before the lean kernel loop (batched trace lines, the grid
# stopping early, one superframe at a time) changed the kernel; the
# mixed_access run is 120 s long (about 940 superframes).
STRESS_DIGESTS = {
    "saturated_32": (
        _saturated_32(),
        "cad1d4d2c59adcdf952a331307781bd782ad96896242a41813641b8ee7ac8dba",
        "5f18580848790e3f110544cf2ad5003c9410089b35eb3471e87bd8a7b01e713c",
    ),
    "every_access_mode": (
        _EVERY_ACCESS_MODE,
        "36435d2053f3f8373062a16e30d2ae82d157f031d7ed04905d351b7ff3e5434c",
        "51cd9a2c2f0a4cb0f88f50f17becd2b2040dce5a80089b5c43511fbea2cb90b4",
    ),
    "uwb": (
        _UWB,
        "83094f9354443766f2e3668bea1c715784c84114c8ba0e5f28030681646d6ead",
        "63713d271f159c75c5e7b277a9692507ebea66c289a05c11780f78f9c4d475a6",
    ),
    "hbc": (
        _HBC,
        "0774c254de4c00cd597bb902af57f169b6ce9af7d3255370b806dd87d5f3f9f7",
        "37e64750e3e347d7ddc5fde901918babb12bbb2c5401dbdd8f4599b4ec34fc87",
    ),
    "same_instant": (
        _SAME_INSTANT,
        "8a079910f5c22834ba532c418fb719329bdc2b993ef4cc95083ac9f5549ddadb",
        "e981ddb3b16888ff307f10bcbe948702a231bf09b2bfacf042859188cc0a192e",
    ),
    "mixed_access_120s": (
        None,
        "8c51fd6dad99d81b5131eb7a604f8847f0a7face67af38b93e1550f67015b49f",
        None,
    ),
}


# Scenarios that stack instants on the edges of a frame exchange: its data
# end, its acknowledgement and its delivery. With no pSIFS and no guard
# time a priority 7 node's slot and exchange take two superframe slots, so
# deliveries land on the RAP1 end (where a poll grant starts), on the
# polled phase's end and on the next beacon.
_ZERO_SPACING = f"""\
{_NB}[superframe]
slot_length_us = 999
slots = 64
beacon_slots = 4
rap1_slots = 30
type_b_slots = 20
cap_slots = 10
[csma]
psifs_us = 0
slot_us = 329
gtn_us = 0
[nodes]
a = priority=7, traffic=saturated, payload=40
p = priority=5, traffic=poisson:300, payload=60, access=polled
[run]
seed = 6
duration_ms = 300
channel = collision
"""

# A secured polled node whose exchange (no guard time) fills two slots: its
# last grant of the type II phase ends on the phase end, where the CAP's
# contenders enter.
_GRANT_ON_PHASE_END = f"""\
{_NB}[superframe]
slot_length_us = 1131
slots = 58
beacon_slots = 4
rap1_slots = 24
type_b_slots = 18
cap_slots = 12
[csma]
gtn_us = 0
[nodes]
a = priority=4, traffic=saturated, payload=70
b = priority=6, traffic=poisson:80, payload=20
p = priority=5, traffic=poisson:400, payload=60, access=polled
[security]
p = level=2
[run]
seed = 8
duration_ms = 400
channel = collision
"""

# Scripted arrivals on a delivery instant and on the resume tick one pSIFS
# later: b's first on a's delivery at 4894 us, b's second on a's resume at
# 9590 us, and a's own on its delivery at 71894 us and its resume at 71944 us.
_ARRIVALS_ON_EDGES = f"""\
{_NB}[superframe]
beacon_slots = 4
rap1_slots = 120
cap_slots = 132
[nodes]
a = priority=7, traffic=scripted:3000;3000;9000;70000;71894;71944, payload=40
b = priority=3, traffic=scripted:4894;9590, payload=90
[run]
seed = 4
duration_ms = 128
channel = collision
"""

# One secured contention node on the ideal channel beside a polled and a
# scheduled one.
_IDEAL_ONE_NODE = f"""\
{_NB}{_EIGHT_PHASES}[nodes]
c = priority=4, traffic=saturated, payload=50
p = priority=5, traffic=poisson:40, payload=60, access=polled
s = priority=5, traffic=poisson:20, payload=40, access=scheduled, slot_start=70, slot_len=20
[security]
c = level=2
[run]
seed = 10
duration_ms = 512
channel = ideal
"""


def _lone_node(duration_ms: int) -> str:
    # One priority 7 node in a 50 ms RAP1: its exchanges end at 1894 us
    # steps. 26 ms falls between a data end (25961 us) and its ack (26011
    # us); 9 ms between an ack (8965 us) and its delivery (9470 us).
    return (f"{_NB}[superframe]\nslots = 100\nbeacon_prohibited = true\nrap1_slots = 100\n"
            f"[nodes]\na = priority=7, traffic=saturated, payload=40\n[run]\nduration_ms = {duration_ms}\n")


def _short_beside_long(duration_ms: int) -> str:
    # A 10-byte and a 100-byte frame (670 and 2152 us) that collide end
    # 1482 us apart, and a timeout comes 640 us after its data end, so the
    # short frame's timeout comes before the long frame's data end. 9 ms
    # falls after such a data end (8644 us) and before its timeout (9284 us).
    return (f"{_NB}[superframe]\nbeacon_slots = 4\nrap1_slots = 120\ncap_slots = 132\n[nodes]\n"
            "a = priority=6, traffic=saturated, payload=10\nb = priority=6, traffic=saturated, payload=100\n"
            f"[run]\nseed = 4\nduration_ms = {duration_ms}\nchannel = collision\n")


# With a 598 us guard time a timeout comes 1153 us after its data end. When
# a (10 B, 670 us), c (30 B, 999 us) and b (100 B, 2152 us) collide, as they
# do at 3575 us, a's timeout comes first and c's falls on b's data end.
_DATA_END_ON_A_TIMEOUT = f"""\
{_NB}[superframe]
beacon_slots = 4
rap1_slots = 120
cap_slots = 132
[csma]
gtn_us = 598
[nodes]
a = priority=6, traffic=saturated, payload=10
b = priority=6, traffic=saturated, payload=100
c = priority=6, traffic=saturated, payload=30
[run]
seed = 1
duration_ms = 8
channel = collision
"""


def _exact_fit(superframe: str, csma: str, seed: int, duration_ms: int, more: str = "") -> str:
    # Two priority 7 nodes, a 10-byte and a 150-byte frame, and `more`, in a RAP1 and a CAP.
    return (f"{_NB}[superframe]\nslot_length_us = 1000\n{superframe}[csma]\n{csma}[nodes]\n"
            f"a = priority=7, traffic=saturated, payload=10\nb = priority=7, traffic=saturated, payload=150\n{more}"
            f"[run]\nseed = {seed}\nduration_ms = {duration_ms}\nchannel = collision\n")


# With no pSIFS and no guard time, a collided exchange begun at 23520 us
# ends at b's timeout on the RAP1 end (27000 us), where the CAP's
# contenders enter; a's timeout (24695 us) comes before b's data end.
_ON_A_PHASE_START = ("slots = 38\nbeacon_slots = 4\nrap1_slots = 23\ncap_slots = 11\n",
                     "psifs_us = 0\nslot_us = 100\ngtn_us = 0\n")
_LAST_TIMEOUT_ON_A_PHASE_START = _exact_fit(*_ON_A_PHASE_START, 86, 30)
# The same layout and timing with a third node, c (60 B): the exchange that
# ends on the CAP entry at 27000 us holds c busy-locked there, so the entry
# lifts that lock (enter, unlock, sifs) where no resume tick did.
_HELD_OVER_A_PHASE_START = _exact_fit(
    *_ON_A_PHASE_START, 75, 200, "c = priority=7, traffic=saturated, payload=60\n"
)
# A collided exchange begun at 200470 us ends at b's timeout on the CAP
# end, 204000 us, where the fifth superframe's beacon goes out; a's timeout
# (201695 us) comes before b's data end.
_LAST_TIMEOUT_ON_A_BEACON = _exact_fit(
    "slots = 51\nbeacon_slots = 4\nrap1_slots = 22\ncap_slots = 25\n", "psifs_us = 0\nslot_us = 25\ngtn_us = 50\n", 9, 205
)


# name -> (scenario, stats digest, trace digest). The first six were
# recorded before a clean exchange became one heap event, the next five
# before a collided exchange became one heap event per transmitter, and the
# last while every run still marked the counters an exchange holds. The
# first two were recorded again when a grant that meets an exchange ending
# on its instant began to run after that end rather than drop.
EDGE_DIGESTS = {
    "zero_spacing": (
        _ZERO_SPACING,
        "2f140168c150b3b9b41925a11094c946b2442f9596c1df2ea7d59c424a2d3f58",
        "047915776e866460602edf8d715b36d08a0908824c15c9293551779b0d4a3469",
    ),
    "grant_on_phase_end": (
        _GRANT_ON_PHASE_END,
        "1295708f5af220ad6fd1f2ec9ad9c507f6480d9bd5906185c9b0eaca91d86ded",
        "37cb2c70e8a26a11f1b18268ab75476a406bbf179d4bf63029ccaac469c86d5b",
    ),
    "arrivals_on_edges": (
        _ARRIVALS_ON_EDGES,
        "c3848a6a33066f5859e94358fd738919e1f163cd100a9cb6a0b73d21df25d718",
        "da0b45df434b5863b1e8cbc09013f7da664cda4ac8d95941f736eaf1d9a799a0",
    ),
    "ideal_one_node": (
        _IDEAL_ONE_NODE,
        "4be229dba1ca26fe52bcd6ccaedad6ea57620e8df08f7fa7aba3733c3bd0a93e",
        "b37a709a02da7fbf65060b68de57fada4056b69435050ca2a371fcdb5a80fc14",
    ),
    "ends_before_the_ack": (
        _lone_node(26),
        "928b8db7ac1298ee32e4f19aa62b07a9147fca37de80f9c67ad372c369b0fd91",
        "7540b56b26fd56c53105579c8c387780309723969d669265b703fbf3b415de70",
    ),
    "ends_before_the_delivery": (
        _lone_node(9),
        "fd5870df48e78deb26bf1edaeda991653dcd81e488909f73f9cf22cd9939b6de",
        "29bcc984d57fd0ac47fbeaa369b59853743245a04d9706e262de89bf3dd7d4c5",
    ),
    "timeout_before_a_data_end": (
        _short_beside_long(128),
        "11782f3203dbf37a07b2f526234efd85bfc2566d1325580d7b89ccf3791f7d1a",
        "bb2277ff1d1fb11dd1dc8b40e83bcc0c1ae5d81103a78c4d96caf831bc1f71c3",
    ),
    "last_timeout_on_a_phase_start": (
        _LAST_TIMEOUT_ON_A_PHASE_START,
        "753d8c7655e2de4631d1d2863f7494e0e13deaffc6df26a3744dac1a26e96704",
        "94062a9efefca8e0bb442bc3fdd02b09f6172e5a7f2be57a9153f5310bbc94fb",
    ),
    "last_timeout_on_a_beacon": (
        _LAST_TIMEOUT_ON_A_BEACON,
        "48166ecf0ca84b137362722153df11fcbbadb9685049ae5ea7a48b0cef491579",
        "4e4a6d9b15ddbbd463fd14093db7dd31e6d42add3f71866e91acca2cd2258705",
    ),
    "data_end_on_a_timeout": (
        _DATA_END_ON_A_TIMEOUT,
        "e4cb8097eabf5be005f43e9d17d1905f4ca835afd889a57eaebe1fe440bda956",
        "9b18ad2d293b91631c94b28966f4821f800d65ce0885952a6a9c0e753b42accc",
    ),
    "ends_before_a_timeout": (
        _short_beside_long(9),
        "21f1d6203ba7d4ef4fb90e2a398ae6bbf09f92bc448e5389deb50689655d99e7",
        "921e5eb783e23f9be1c93a34b2c49893a2b55d5f15bf024f166b92fea3f3dfa0",
    ),
    "held_over_a_phase_start": (
        _HELD_OVER_A_PHASE_START,
        "d53e95619616a72264a7cdb3a79109e0edd9a08ceffab6478d1881fc0c743017",
        "c21b0aa457da1a11ab3c81fbd5ee144db9dcdb3452a9f07f5766100396681dc4",
    ),
}


def _nonbeacon(mode: str, nodes: str) -> str:
    # 20 ms superframes with no beacon: one shared phase fills each.
    return f"{_NB}[superframe]\nslots = 40\n{mode}[nodes]\n{nodes}[run]\nseed = 3\nduration_ms = 300\n"


# Each non-beacon mode's layout, with the shared phase that fills it: fill
# type I a type I phase, fill type II and unbounded a type II phase.
NONBEACON_MODES = {
    "nonbeacon_i": "mode = nonbeacon\nfill_phase_type = I\n",
    "nonbeacon_ii": "mode = nonbeacon\nfill_phase_type = II\n",
    "unbounded": "mode = unbounded\n",
}
# A scheduled allocation takes the mode's one shared phase, which then holds
# no polls, so each allocated access kind runs alone: two polled nodes (a
# secured Poisson one and a saturated one), or two scheduled ones (a
# saturated one every other superframe and a secured Poisson one).
_ALLOCATED = {
    "polled": "p = traffic=poisson:300, payload=60, access=polled\nq = traffic=saturated, payload=20, access=polled\n"
              "[security]\np = level=2\n",
    "scheduled": "s = traffic=saturated, payload=40, access=scheduled, slot_start=4, slot_len=6, period=2, offset=1\n"
                 "t = traffic=poisson:60, payload=90, access=scheduled, slot_start=20, slot_len=8\n"
                 "[security]\nt = level=1\n",
}
# Recorded before each heap event became the handler it runs. Fill type II
# and unbounded give the same bytes.
_NONBEACON_DIGESTS = {
    ("nonbeacon_i", "polled"): (
        "d13a8ae6281b644446d54f6d751852a4c1fbb65443c22d93aadccb84efd849e6",
        "028fcc27edf477b0a050bafb862d51503d49f70b52782f31c5c4ae9bf3bfeb75",
    ),
    ("nonbeacon_i", "scheduled"): (
        "fe78c8a23715d45b5cc5a67fc8e715edf61f567b98b242f7eaa132be1affec3d",
        "a9af76b8083d32576e98ed27219d506b28e69db4f0d3f59ba7276d30d53cfb1d",
    ),
    ("nonbeacon_ii", "polled"): (
        "d13a8ae6281b644446d54f6d751852a4c1fbb65443c22d93aadccb84efd849e6",
        "cffd0da2be3b07964fa6c43f0129fd58fe5a76f37e81949debed7943585ac2f5",
    ),
    ("nonbeacon_ii", "scheduled"): (
        "fe78c8a23715d45b5cc5a67fc8e715edf61f567b98b242f7eaa132be1affec3d",
        "5572172c42b0c46d2bb03e8a3830431daa3e12efd9a10b9b0f0350274bbb6299",
    ),
    ("unbounded", "polled"): (
        "d13a8ae6281b644446d54f6d751852a4c1fbb65443c22d93aadccb84efd849e6",
        "cffd0da2be3b07964fa6c43f0129fd58fe5a76f37e81949debed7943585ac2f5",
    ),
    ("unbounded", "scheduled"): (
        "fe78c8a23715d45b5cc5a67fc8e715edf61f567b98b242f7eaa132be1affec3d",
        "5572172c42b0c46d2bb03e8a3830431daa3e12efd9a10b9b0f0350274bbb6299",
    ),
}
EDGE_DIGESTS.update(
    (f"{mode}_{access}", (_nonbeacon(NONBEACON_MODES[mode], _ALLOCATED[access]), *digests))
    for (mode, access), digests in _NONBEACON_DIGESTS.items()
)


def overloaded(duration_ms: int) -> str:
    """One node offered 50,000 frames/s in a lone RAP1. It delivers one
    frame per 1.9 ms or so, so nearly every arrival stays queued: about
    20,000 at the end of 400 ms."""
    return (f"{_NB}[superframe]\nslots = 100\nbeacon_prohibited = true\nrap1_slots = 100\n"
            f"[nodes]\na = priority=7, traffic=poisson:50000, payload=40\n[run]\nduration_ms = {duration_ms}\n")


# (stats, trace) digests of overloaded(400), recorded while the kernel
# still kept each queued frame's arrival time.
OVERLOADED_DIGESTS = (
    "1a4c027078d0dfd952c2fc74874ec11a70899f7872cb4a0707b9b887dac388cd",
    "d139288f811765748ffe7021c075464c8dc9a760a4602473a08897d97129e713",
)


def _stress_scenario(name: str, text):
    if text is not None:
        return parse_scenario(text)
    sc = load_scenario(SCENARIO_DIR / "mixed_access.scn")
    return sc._replace(run=sc.run._replace(duration_us=120_000_000))


# Narrowband with and without payload spreading, pulse radio, body-coupled.
CODEC_CONFIGS = [
    nb_config(Band.NB_402_405, "high"),
    nb_config(Band.NB_2360_2400, "low"),
    uwb_config(2),
    hbc_config(16),
]
FRAMES_PER_CONFIG = 40
IMAGES_DIGEST = "79b79c44a1a68448225cd55c6b5dec64d25da8cb4f8afa79331654970e77e82f"
# (bit index, error class, message) of every single-bit flip and every
# truncation of one short frame per config: pins which check fires first
# and the codeword index that parity failures name.
OUTCOMES_DIGEST = "a06fb326ba8381c46fe447eae4671e11c4720fe23a374adf3468493b1cf99afa"
# (images, outcomes) digests as above for narrowband 402-405 low, spreading 2.
SPREAD2_DIGESTS = (
    "ec9b040468ebaaa0e50e0819ac840821541315fc13f2583bdc2cddb739a2e373",
    "fae42fd6d8b5d792359a837455526b43d061591ba5d231ed2ac1a0d604816c6b",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def first_difference(label: str, got: bytes, want: bytes, context: int = 3) -> str:
    """The first line at which `got` departs from `want`, with `context`
    common lines before it and up to `context` more of each after."""
    got_lines, want_lines = got.decode().splitlines(True), want.decode().splitlines(True)
    i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    out = [f"{label}: first difference at line {i + 1} (- pinned, + produced)"]
    out += [f"  {n + 1:>7} | {line!r}" for n, line in enumerate(want_lines[max(0, i - context):i], max(0, i - context))]
    for sign, lines in (("-", want_lines), ("+", got_lines)):
        out += [f"{sign} {n + 1:>7} | {line!r}" for n, line in enumerate(lines[i:i + context + 1], i)]
    return "\n".join(out)


def assert_pinned(produced: Path, stored: str, digest: str) -> None:
    """`produced` holds the bytes stored as tests/data/golden/<stored>.gz,
    which hash to `digest`; a mismatch names its first differing line."""
    want = gzip.decompress((GOLDEN_DIR / f"{stored}.gz").read_bytes())
    assert hashlib.sha256(want).hexdigest() == digest, f"{stored}.gz does not hold the pinned bytes"
    got = produced.read_bytes()
    if got != want:
        pytest.fail(first_difference(stored, got, want), pytrace=False)
    assert _sha256(produced) == digest


def _stored_runs():
    """(name, scenario, stats digest, trace digest) of each run whose bytes are stored."""
    for name, digests in SCENARIO_DIGESTS.items():
        yield name, load_scenario(SCENARIO_DIR / f"{name}.scn"), *digests
    for name, (text, *digests) in EDGE_DIGESTS.items():
        yield name, parse_scenario(text), *digests


def _assert_run_pinned(name, sc, stats_digest, trace_digest, tmp_path):
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(sc, stats, trace)
    assert_pinned(stats, f"{name}.stats.csv", stats_digest)
    assert_pinned(trace, f"{name}.trace.txt", trace_digest)


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_bundled_scenario_bytes_are_pinned(name, tmp_path):
    _assert_run_pinned(name, load_scenario(SCENARIO_DIR / f"{name}.scn"), *SCENARIO_DIGESTS[name], tmp_path)


def test_command_line_bytes_do_not_rest_on_the_hash_seed(tmp_path):
    """`python -m bansim simulate` writes the stored mixed_access bytes under
    two string-hash seeds, run side by side: no output order rests on the
    order of a set or dict of strings."""
    runs = []
    try:
        for seed in ("0", "4242"):
            out, trace = tmp_path / f"stats-{seed}.csv", tmp_path / f"trace-{seed}.txt"
            command = [sys.executable, "-m", "bansim", "simulate", str(SCENARIO_DIR / "mixed_access.scn"),
                       "--out", str(out), "--trace", str(trace)]
            proc = subprocess.Popen(command, env=dict(cli_env(), PYTHONHASHSEED=seed),
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            runs.append((proc, out, trace))
        for proc, out, trace in runs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert_pinned(out, "mixed_access.stats.csv", SCENARIO_DIGESTS["mixed_access"][0])
            assert_pinned(trace, "mixed_access.trace.txt", SCENARIO_DIGESTS["mixed_access"][1])
    finally:
        for proc, _, _ in runs:
            proc.kill()  # no-op for a process already reaped
            proc.wait()


def test_a_departure_names_its_first_line():
    want = b"".join(f"{t},a,count\n".encode() for t in range(10))
    got = want.replace(b"5,a,count", b"5,a,draw")
    message = first_difference("x.trace.txt", got, want)
    assert message.splitlines() == [
        "x.trace.txt: first difference at line 6 (- pinned, + produced)",
        "        3 | '2,a,count\\n'", "        4 | '3,a,count\\n'", "        5 | '4,a,count\\n'",
        "-       6 | '5,a,count\\n'", "-       7 | '6,a,count\\n'", "-       8 | '7,a,count\\n'",
        "-       9 | '8,a,count\\n'",
        "+       6 | '5,a,draw\\n'", "+       7 | '6,a,count\\n'", "+       8 | '7,a,count\\n'",
        "+       9 | '8,a,count\\n'",
    ]
    # A run cut short departs where it ends.
    assert first_difference("x", want[:20], want).splitlines()[0] == "x: first difference at line 3 (- pinned, + produced)"


@pytest.mark.parametrize("name", list(STRESS_DIGESTS))
def test_stress_scenario_bytes_are_pinned(name, tmp_path):
    text, stats_digest, trace_digest = STRESS_DIGESTS[name]
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(_stress_scenario(name, text), stats, trace if trace_digest else None)
    assert _sha256(stats) == stats_digest
    if trace_digest:
        assert _sha256(trace) == trace_digest


@pytest.mark.parametrize("name", list(EDGE_DIGESTS))
def test_exchange_edge_bytes_are_pinned(name, tmp_path):
    text, stats_digest, trace_digest = EDGE_DIGESTS[name]
    _assert_run_pinned(name, parse_scenario(text), stats_digest, trace_digest, tmp_path)


def test_overloaded_run_bytes_are_pinned(tmp_path):
    stats, trace = tmp_path / "stats.csv", tmp_path / "trace.txt"
    run_to_files(parse_scenario(overloaded(400)), stats, trace)
    assert (_sha256(stats), _sha256(trace)) == OVERLOADED_DIGESTS


def _times(lines, event, node=None):
    """The instants of `event` lines, of `node`'s alone if given."""
    return {int(t) for t, n, e, *_ in (line.split(",") for line in lines) if e == event and node in (None, n)}


def _phase_ends(sc):
    """Every phase end of the run, superframe by superframe."""
    layout = compile_scenario(sc).layout
    ends = {(span.start_slot + span.length_slots) * layout.slot_length_us for span in layout.phases}
    return {base + end for base in range(0, sc.run.duration_us, layout.duration_us) for end in ends}


def test_the_edge_scenarios_reach_their_edges(tmp_path):
    runs = {}
    for name, (text, _, _) in EDGE_DIGESTS.items():
        sc, trace = parse_scenario(text), tmp_path / f"{name}.txt"
        runs[name] = sc, run_to_files(sc, tmp_path / "stats.csv", trace), trace.read_text().splitlines()

    sc, _, lines = runs["zero_spacing"]
    ends = _phase_ends(sc)
    beacons = _times(lines, "tx_start", "hub")
    assert _times(lines, "success", "a") & beacons
    assert _times(lines, "success", "a") & (ends - beacons)
    assert _times(lines, "success", "p") & ends

    sc, _, lines = runs["grant_on_phase_end"]
    assert _times(lines, "success", "p") & _phase_ends(sc)

    sc, _, lines = runs["arrivals_on_edges"]
    arrivals = {t for node in sc.nodes for t in node.traffic[1]}
    delivered = _times(lines, "success")
    assert arrivals & delivered
    assert arrivals & {t + sc.timing.psifs_us for t in delivered}

    sc, stats, _ = runs["ideal_one_node"]
    assert sc.run.channel == "ideal" and stats.delivered > 0 and stats.failed == 0

    # The run ends after the last line's hop and before the next one's.
    for name, cut in (("ends_before_the_ack", "tx_end"), ("ends_before_the_delivery", "ack")):
        _, _, lines = runs[name]
        assert lines[-1].split(",")[2] == cut, name

    # A collided frame ends after another's timeout; then the last timeout
    # lands on a phase entry, on a beacon, or past the run's end.
    assert _late_data_ends(runs["timeout_before_a_data_end"][2])
    # An exchange that ends on a phase entry still holds c there, so the
    # entry itself lifts c's busy lock.
    lines = runs["held_over_a_phase_start"][2]
    assert ["27000,c,enter,1,4,4,CAP", "27000,c,unlock,1,4,4,CAP", "27000,c,sifs,1,4,4,CAP"] == [
        line for line in lines if line.startswith("27000,c,")
    ]
    for name, landing in (("last_timeout_on_a_phase_start", "enter"), ("last_timeout_on_a_beacon", "tx_start")):
        lines = [line.split(",") for line in runs[name][2]]
        fails = {(t, n) for t, n, e, *_ in lines if e == "fail"}
        assert any(
            lines[i + 1][2] == landing and (lines[i + 1][0], lines[i][1]) in fails
            for i in _late_data_ends(runs[name][2])
        ), name
    lines = runs["ends_before_a_timeout"][2]
    assert _late_data_ends(lines)[-1] == len(lines) - 1
    # A held data end on another transmitter's timeout comes before its fail line.
    lines = [line.split(",") for line in runs["data_end_on_a_timeout"][2]]
    assert any(lines[i + 1][:3] == [lines[i][0], "c", "fail"] for i in _late_data_ends(runs["data_end_on_a_timeout"][2]))

    # A non-beacon run serves its allocated nodes in its one shared phase
    # and traces no beacon; fill type II and unbounded lay out one phase.
    for mode in NONBEACON_MODES:
        for access in _ALLOCATED:
            _, stats, lines = runs[f"{mode}_{access}"]
            phase = "TypeI_II_a" if mode == "nonbeacon_i" else "TypeI_II_b"
            assert stats.delivered > 0 and {line.rsplit(",", 1)[1] for line in lines} == {phase}, (mode, access)
            assert not _times(lines, "tx_start", "hub")
    for access in _ALLOCATED:
        assert runs[f"nonbeacon_ii_{access}"][2] == runs[f"unbounded_{access}"][2]
        assert EDGE_DIGESTS[f"nonbeacon_ii_{access}"][1:] == EDGE_DIGESTS[f"unbounded_{access}"][1:]


def _late_data_ends(lines):
    """The indexes of the node tx_end lines that follow a fail line of
    their exchange: data ends after the exchange's first timeout."""
    late, failed = [], False
    for i, line in enumerate(lines):
        _, node, event, *_ = line.split(",")
        if node != "hub":
            if event == "tx_start":
                failed = False
            elif event == "fail":
                failed = True
            elif event == "tx_end" and failed:
                late.append(i)
    return late


def lock_breaks(lines: list[str]) -> list[str]:
    """The trace lines that break a node's lock/unlock pairing: a lock
    while its last lock is still open, an unlock with none open or whose
    counter, window or failure count differs from its lock's, and a count,
    draw or tx_start of the node between the two. A renderer may reuse a
    lock line's state text for its unlock only because none occur."""
    open_locks: dict[str, list[str]] = {}  # node -> the fields of its open lock
    breaks = []
    for line in lines:
        _, node, event, *fields = line.split(",")
        if event == "lock":
            if node in open_locks:
                breaks.append(line)
            open_locks[node] = fields[:3]
        elif event == "unlock":
            if open_locks.pop(node, None) != fields[:3]:
                breaks.append(line)
        elif event in ("count", "draw", "tx_start") and node in open_locks:
            breaks.append(line)
    return breaks


def test_lock_breaks_sees_each_kind_of_break():
    assert lock_breaks(["0,a,lock,3,8,0,rap1", "9,b,count,2,8,0,rap1", "9,a,unlock,3,8,0,rap1"]) == []
    for bad in ("0,a,lock,3,8,0,rap1", "5,a,unlock,2,8,0,rap1", "5,a,count,2,8,0,rap1",
                "5,a,draw,3,8,0,rap1", "5,a,tx_start,3,8,0,rap1"):
        assert lock_breaks(["0,a,lock,3,8,0,rap1", bad]) == [bad]
    assert lock_breaks(["0,a,unlock,3,8,0,rap1"]) == ["0,a,unlock,3,8,0,rap1"]


_TRACED = [(name, None) for name in sorted(SCENARIO_DIGESTS)] + [
    (name, text) for name, (text, _, trace_digest) in STRESS_DIGESTS.items() if trace_digest
]


@pytest.mark.parametrize("name, text", _TRACED, ids=[name for name, _ in _TRACED])
def test_a_locked_state_is_unchanged_until_its_unlock(name, text, tmp_path):
    sc = load_scenario(SCENARIO_DIR / f"{name}.scn") if text is None else parse_scenario(text)
    trace = tmp_path / "trace.txt"
    run_to_files(sc, tmp_path / "stats.csv", trace)
    want = SCENARIO_DIGESTS[name][1] if text is None else STRESS_DIGESTS[name][2]
    assert _sha256(trace) == want  # the property is checked on the pinned bytes
    lines = trace.read_text().splitlines()
    assert sum(",unlock," in line for line in lines) > 0
    assert lock_breaks(lines) == []


def _images_digest(configs) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        rng = random.Random(f"golden-{cfg.band_id.value}-{cfg.spreading}")
        for _ in range(FRAMES_PER_CONFIG):
            bits = build_ppdu(cfg, rng.randbytes(7), rng.randbytes(rng.randrange(256))).bits
            h.update(len(bits).to_bytes(4, "big"))
            h.update(np.packbits(bits).tobytes())
    return h.hexdigest()


def test_frame_bit_images_are_pinned():
    assert _images_digest(CODEC_CONFIGS) == IMAGES_DIGEST


@pytest.mark.parametrize(
    "cfg",
    CODEC_CONFIGS + [nb_config(Band.NB_2400_2483, "high"), uwb_config(7), hbc_config(27)],
    ids=lambda cfg: f"{cfg.band_id.value}-spread{cfg.spreading}",
)
def test_sync_pattern_length_matches_config(cfg):
    # The airtime formula counts sync time from cfg.preamble_symbols, so the
    # sync pattern the codec emits must be exactly that long.
    sync = _FORMATS[cfg.kind].sync
    assert len(sync) == cfg.preamble_symbols
    assert np.array_equal(build_ppdu(cfg, bytes(7), b"").bits[: len(sync)], sync)


def _outcome(tag: str, index: int, bits: np.ndarray, cfg) -> bytes:
    try:
        parse_ppdu(bits, cfg)
    except FrameError as exc:
        return f"{tag} {index} {type(exc).__name__} {exc}\n".encode()
    return f"{tag} {index} accepted\n".encode()


def _outcomes_digest(configs) -> str:
    h = hashlib.sha256()
    for cfg in configs:
        image = build_ppdu(cfg, bytes(range(7)), b"flip").bits
        for i in range(len(image)):
            flipped = image.copy()
            flipped[i] ^= 1
            h.update(_outcome("flip", i, flipped, cfg))
        for n in range(len(image)):
            h.update(_outcome("cut", n, image[:n], cfg))
    return h.hexdigest()


def test_flip_and_truncation_outcomes_are_pinned():
    assert _outcomes_digest(CODEC_CONFIGS) == OUTCOMES_DIGEST


def test_spreading_2_images_and_outcomes_are_pinned():
    # CODEC_CONFIGS spreads by 1 and 4; the low narrowband rates of 402-405 spread by 2.
    cfg = nb_config(Band.NB_402_405, "low")
    assert cfg.spreading == 2
    assert (_images_digest([cfg]), _outcomes_digest([cfg])) == SPREAD2_DIGESTS


def record_stored_runs(tmp_dir: Path) -> None:
    """Write tests/data/golden from the current code: each stored run's
    stats and trace, gzipped without a timestamp."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, sc, _, _ in _stored_runs():
        stats, trace = tmp_dir / "stats.csv", tmp_dir / "trace.txt"
        run_to_files(sc, stats, trace)
        for path, part in ((stats, "stats.csv"), (trace, "trace.txt")):
            (GOLDEN_DIR / f"{name}.{part}.gz").write_bytes(gzip.compress(path.read_bytes(), 9, mtime=0))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record_stored_runs(Path(tmp))
